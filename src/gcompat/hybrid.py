"""Hybrid wreath products: preimages of a standard embedding inside a wreath.

For a homomorphism theta: G -> H, the carrier lives in G wr rho(H) over the
coset space of theta(G) and consists of the pairs whose base tuple pushes
through theta onto the embedded copy of H. The base subgroup of a normal
hybrid is an inverse limit of twisted copies of G over the image, which is
what the witness recursion consumes.
"""

from __future__ import annotations

import itertools

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import Subgroup, from_elements
from .homs import Homomorphism, action_on_cosets
from .inverse_limits import star_limit, star_system
from .perms import inv, mul
from .wreath import (
    GroupAction,
    PermutationTransversal,
    StandardEmbedding,
    natural_action,
    wreath_product,
)


class HybridWreath:
    """HW(G, H, theta) with its standard map, base subgroup and transversal."""

    def __init__(self, g_group, h_group, theta, transversal_elems=None,
                 bounds=DEFAULT_BOUNDS, label=None):
        self.g_group = g_group
        self.h_group = h_group
        self.theta = theta
        image = theta.image()
        self.image = image
        n_cosets = h_group.order() // image.order()
        ker_theta = theta.kernel()
        self.ker_theta = ker_theta
        size = h_group.order() * ker_theta.order() ** n_cosets
        if size > bounds.enum:
            raise UndecidedError(
                f"hybrid wreath of order {size} exceeds bound {bounds.enum}")

        if transversal_elems is None:
            # canonical: identity coset first, then cosets by minimal element
            seen, reps = set(), []
            for e in h_group.sorted_elements():
                key = min(mul(x, e) for x in image.members())
                if key not in seen:
                    seen.add(key)
                    reps.append(key)
            reps[0] = h_group.identity
        else:
            reps = [tuple(t) for t in transversal_elems]
        if reps[0] != h_group.identity:
            raise HypothesisError("transversal must start with the identity")
        reps, rho = action_on_cosets(h_group, image, reps)
        self.action = GroupAction(h_group, len(reps), rho, labels=reps)
        self.npoints = self.action.npoints
        self.transversal = PermutationTransversal(
            self.action, 0, {i: reps[i] for i in range(self.npoints)})
        self.iota = StandardEmbedding(self.action, self.transversal,
                                      bounds=bounds)
        s_group = self.action.image_group()
        self.wreath = wreath_product(g_group, natural_action(s_group),
                                     bounds=bounds)
        self.normal = image.is_normal()

        fibers = theta.fibers()
        theta_section = {y: xs[0] for y, xs in fibers.items()}
        elems = []
        p_theta_table = {}
        for h in h_group.sorted_elements():
            base_h, top_h = self.iota.wreath.decode(self.iota(h))
            fiber_lists = []
            for v in range(self.npoints):
                fiber_lists.append(fibers[base_h[v]])
            for combo in itertools.product(*fiber_lists):
                w = self.wreath.encode(tuple(combo), top_h)
                elems.append(w)
                p_theta_table[w] = h

        gens = []
        for h in h_group.generators:
            base_h, top_h = self.iota.wreath.decode(self.iota(h))
            f = tuple(theta_section[base_h[v]] for v in range(self.npoints))
            gens.append(self.wreath.encode(f, top_h))
        ident_f = [g_group.identity] * self.npoints
        for v in range(self.npoints):
            for k in ker_theta.group.generators:
                f = list(ident_f)
                f[v] = k
                gens.append(self.wreath.encode(tuple(f),
                                               s_group.identity))

        name = label or f"HW({g_group.label},{h_group.label})"
        group = from_elements(elems, name, generators=gens or None)
        if group.order() != size:
            raise HypothesisError("hybrid carrier has unexpected order")
        self.group = group
        self.carrier = Subgroup(self.wreath.carrier, gens=group.generators,
                                members=group.elements(), label=name)
        self.standard_map = Homomorphism(group, h_group, table=p_theta_table,
                                         label="p_theta", check=False)
        bw_members = [w for w, h in p_theta_table.items()
                      if image.contains(h)]
        self.base = Subgroup(group, members=bw_members, label="BW")

    # -- structure -----------------------------------------------------------

    def order(self):
        return self.group.order()

    def kernel_of_standard_map(self) -> Subgroup:
        return self.standard_map.kernel()

    def decode(self, w):
        return self.wreath.decode(w)


def hybrid_wreath(g_group, h_group, theta, transversal_elems=None,
                  bounds=DEFAULT_BOUNDS, label=None) -> HybridWreath:
    return HybridWreath(g_group, h_group, theta,
                        transversal_elems=transversal_elems,
                        bounds=bounds, label=label)


def evaluation_maps(hw: HybridWreath):
    """The coordinate surjections of the base subgroup onto G (normal case)."""
    if not hw.normal:
        raise HypothesisError("evaluation maps require a normal hybrid")
    out = {}
    for v in range(hw.npoints):
        table = {}
        for w in hw.base.members():
            base, top = hw.decode(w)
            if top != hw.wreath.top_group.identity:
                raise HypothesisError("base element with nontrivial top part")
            table[w] = base[v]
        p = Homomorphism(hw.base.group, hw.g_group, table=table,
                         label=f"p_{v}", check=False)
        if not p.is_surjective():
            raise HypothesisError(f"evaluation at point {v} is not surjective")
        out[v] = p
    return out


def bw_as_limit(hw: HybridWreath, bounds=DEFAULT_BOUNDS):
    """The base subgroup as the limit of twisted copies of G over the image.

    Returns (limit, identification) where the identification is a verified
    isomorphism BW -> limit commuting with every evaluation map and with the
    standard map.
    """
    if not hw.normal:
        raise HypothesisError("the limit description requires a normal hybrid")
    root = hw.image.group
    t = hw.transversal
    branch_maps = []
    for v in range(hw.npoints):
        tv = t[v]

        def twisted(x, tv=tv):
            return mul(mul(inv(tv), hw.theta(x)), tv)

        branch_maps.append(Homomorphism.of_rule(
            hw.g_group, root, twisted, label=f"twist@{v}", tabulate=True))
    system = star_system(root, [hw.g_group] * hw.npoints, branch_maps)
    lim = star_limit(system, bounds)

    evals = evaluation_maps(hw)
    table = {}
    for w in hw.base.members():
        base, _top = hw.decode(w)
        asg = {"r": hw.standard_map(w)}
        for v in range(hw.npoints):
            asg[v] = base[v]
        table[w] = lim.encode(asg)
    if set(table.values()) != set(lim.group.elements()):
        raise HypothesisError("base subgroup does not fill the limit")
    if len(set(table.values())) != len(table):
        raise HypothesisError("identification is not injective")
    ident = Homomorphism(hw.base.group, lim.group, table=table,
                         label="bw-as-lim")
    for v in range(hw.npoints):
        proj = lim.projection(v)
        for w in hw.base.members():
            if proj(ident(w)) != evals[v](w):
                raise HypothesisError("identification breaks an evaluation map")
    root_proj = lim.projection("r")
    for w in hw.base.members():
        if root_proj(ident(w)) != hw.standard_map(w):
            raise HypothesisError("identification breaks the standard map")
        for v in range(hw.npoints):
            lhs = mul(mul(inv(t[v]), hw.theta(evals[v](w))), t[v])
            if lhs != hw.standard_map(w):
                raise HypothesisError("twisted cone identity fails")
    return lim, ident


def transversal_independence(hw1: HybridWreath, hw2: HybridWreath):
    """A base-group conjugator moving one carrier onto the other.

    Both hybrids must share (G, H, theta) and the same coset ordering; the
    returned x satisfies carrier(hw1) = x^-1 carrier(hw2) x, verified setwise.
    """
    if hw1.theta is not hw2.theta and hw1.theta.gen_images() != hw2.theta.gen_images():
        raise HypothesisError("hybrids have different defining maps")
    if hw1.action.labels != hw2.action.labels:
        same_cosets = [
            sorted(mul(m, a) for m in hw1.image.members())
            == sorted(mul(m, b) for m in hw2.image.members())
            for a, b in zip(hw1.action.labels, hw2.action.labels)]
        if not all(same_cosets):
            raise HypothesisError("hybrids enumerate the cosets differently")
    from .wreath import embedding_conjugator

    x1 = embedding_conjugator(hw1.iota, hw2.iota)
    base_x1, top_x1 = hw1.iota.wreath.decode(x1)
    if top_x1 != hw1.iota.wreath.top_group.identity:
        raise HypothesisError("conjugator is not a base element")
    fibers = hw1.theta.fibers()
    f = tuple(fibers[base_x1[v]][0] for v in range(hw1.npoints))
    x = hw1.wreath.encode(f, hw1.wreath.top_group.identity)
    conj = {mul(mul(inv(x), w), x) for w in hw2.group.elements()}
    if conj != hw1.group.elements():
        raise HypothesisError("conjugation does not move one carrier onto the other")
    return x
