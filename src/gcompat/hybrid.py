"""Hybrid wreath products: preimages of a standard embedding inside a wreath.

For a homomorphism theta: G -> H, the carrier lives in G wr rho(H) over the
coset space of theta(G) and consists of the pairs whose base tuple pushes
through theta onto the embedded copy of H. It is built from generators: a
lift of each generator h of H and the generators of ker theta placed at
each of the n points. The lift is read off the coset action: with coset
representatives t_v (t_0 = 1) and v.h the coset of t_v h, its base tuple is
f(v) = section(t_v h t_{v.h}^-1) through theta's section and its top is
rho(h), which is the standard embedding of h pulled back through theta,
computed for the generators only. The factor t_v h t_{v.h}^-1 lies in
theta(G) because t_v h and t_{v.h} share a coset; a transversal that breaks
this fails at the section lookup. The generators span the carrier exactly
when their closure has order |H| * |ker theta|^n, which is checked; the
closure is made once, within the enumeration bound. The ambient wreath
G wr rho(H) serves as the encoder of (base tuple, top) pairs only; its
carrier is never closed, so its order |G|^n * |rho(H)| bounds nothing here.
The standard map p_theta sends each lift to its generator and the placed
kernel to 1; `Homomorphism.from_gen_images` propagates those images, which
tabulates p_theta, and proves it a homomorphism by the one edge check. The
base subgroup BW = p_theta^-1(theta(G)) is one pass over p_theta's table
(`Homomorphism.preimage_members`); for a normal hybrid it is an inverse
limit of twisted copies of G over the image, which is what the witness
recursion consumes.
"""

from __future__ import annotations

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup
from .homs import Homomorphism, action_on_cosets
from .inverse_limits import star_limit, star_system
from .perms import inv, mul
from .wreath import GroupAction, WreathProduct, natural_action


class HybridWreath:
    """HW(G, H, theta) with its standard map, base subgroup and coset
    action (`action.labels` is the transversal)."""

    def __init__(self, g_group, h_group, theta, transversal_elems=None,
                 bounds=DEFAULT_BOUNDS, label=None):
        self.g_group = g_group
        self.h_group = h_group
        self.theta = theta
        image = theta.image()
        self.image = image
        n_cosets = h_group.order() // image.order()
        ker_theta = theta.kernel(bounds.enum)
        self.ker_theta = ker_theta
        size = h_group.order() * ker_theta.order() ** n_cosets
        if size > bounds.enum:
            raise UndecidedError(
                f"hybrid wreath of order {size} exceeds bound {bounds.enum}")

        # canonical numbering: cosets by least element, the identity's first
        reps, rho = action_on_cosets(h_group, image, transversal_elems)
        if reps[0] != h_group.identity:
            raise HypothesisError("transversal must start with the identity")
        self.action = GroupAction(h_group, len(reps), rho, labels=reps)
        self.npoints = self.action.npoints
        s_group = self.action.image_group()
        self.wreath = WreathProduct(g_group, natural_action(s_group))
        self.normal = image.is_normal()

        # generator -> its p_theta image: lifts, then placed kernel generators
        theta_section = theta.section()
        images = {}
        for h in h_group.generators:
            rho_h = rho(h)
            f = tuple(theta_section[mul(mul(t, h), inv(reps[rho_h[v]]))]
                      for v, t in enumerate(reps))
            images[self.wreath.encode(f, rho_h)] = h
        for v in range(self.npoints):
            for k in ker_theta.group.generators:
                images[self.wreath.place(v, k)] = h_group.identity

        name = label or f"HW({g_group.label},{h_group.label})"
        group = FiniteGroup(self.wreath.carrier.degree, images, name)
        if len(group.elements(bounds.enum)) != size:
            raise HypothesisError("hybrid carrier has unexpected order")
        self.group = group
        self.standard_map = Homomorphism.from_gen_images(
            group, h_group, images, label="p_theta")
        self.base = Subgroup(
            group, members=self.standard_map.preimage_members(image.members()),
            label="BW")

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
    """The coordinate surjections of the base subgroup onto G (normal case).

    A base element with trivial top acts on the block of point v as its
    coordinate f(v), so evaluation at v is the block map at v * deg G. Tops
    multiply, so BW has trivial tops once its generators do.
    """
    if not hw.normal:
        raise HypothesisError("evaluation maps require a normal hybrid")
    bw = hw.base.group
    top_identity = hw.wreath.top_group.identity
    if any(hw.decode(w)[1] != top_identity for w in bw.generators):
        raise HypothesisError("base element with nontrivial top part")
    out = {}
    for v in range(hw.npoints):
        p = Homomorphism.block(bw, hw.g_group, v * hw.g_group.degree,
                               label=f"p_{v}")
        if not p.is_surjective():
            raise HypothesisError(f"evaluation at point {v} is not surjective")
        out[v] = p
    return out


def bw_as_limit(hw: HybridWreath, bounds=DEFAULT_BOUNDS):
    """The base subgroup as the limit of twisted copies of G over the image.

    Returns (limit, identification). The limit is the star limit of G at
    each point v over theta(G), with branch map x -> t_v^-1 theta(x) t_v
    propagated from G's generators (`Homomorphism.from_gen_images`).
    The identification sends each generator w of BW to the limit element
    with root p_theta(w) and coordinate f(v) at branch v, and
    `Homomorphism.from_gen_images` propagates it over BW, which proves it a
    homomorphism. It is an isomorphism: the generator images lie in the
    limit, its |BW| values are distinct, and |BW| = |limit|. It commutes
    with every evaluation map and with the standard map: the limit's
    projections, the evaluation maps and p_theta are homomorphisms that
    agree on BW's generators by construction. The twisted-cone identity
    t_v^-1 theta(f(v)) t_v = p_theta(w) is the coherence of the limit's
    elements: `star_limit`'s generators are coherent (its lifts are section
    values, and it checks each placed kernel generator maps to 1), and
    coherent tuples form a subgroup because the branch maps are
    homomorphisms.
    """
    if not hw.normal:
        raise HypothesisError("the limit description requires a normal hybrid")
    root = hw.image.group
    branch_maps = [Homomorphism.from_gen_images(
        hw.g_group, root,
        {x: mul(mul(inv(tv), hw.theta(x)), tv) for x in hw.g_group.generators},
        label=f"twist@{v}") for v, tv in enumerate(hw.action.labels)]
    system = star_system(root, [hw.g_group] * hw.npoints, branch_maps)
    lim = star_limit(system, bounds)

    evals = evaluation_maps(hw)
    images = {}
    for w in hw.base.group.generators:
        asg = {v: p(w) for v, p in evals.items()}
        asg["r"] = hw.standard_map(w)
        images[w] = lim.encode(asg)
    ident = Homomorphism.from_gen_images(hw.base.group, lim.group, images,
                                         label="bw-as-lim")
    table = ident.tabulated()
    if not all(map(lim.group.contains, images.values())) \
            or len(set(table.values())) != len(table) \
            or len(table) != lim.group.order():
        raise HypothesisError("base subgroup is not identified with the limit")
    return lim, ident


def transversal_independence(hw1: HybridWreath, hw2: HybridWreath):
    """A base-group conjugator moving one carrier onto the other.

    Both hybrids must share (G, H, theta) and the same coset ordering; with
    t_v, s_v their representatives of coset v, x has coordinates
    section(s_v t_v^-1) (s_v t_v^-1 lies in theta(G)) and satisfies
    carrier(hw1) = x^-1 carrier(hw2) x, checked at carrier(hw2)'s
    generators and by the carriers' orders.
    """
    if hw1.theta is not hw2.theta and hw1.theta.gen_images() != hw2.theta.gen_images():
        raise HypothesisError("hybrids have different defining maps")
    section = hw1.theta.section()
    try:
        f = tuple(section[mul(s, inv(t))]
                  for t, s in zip(hw1.action.labels, hw2.action.labels))
    except KeyError:
        raise HypothesisError(
            "hybrids enumerate the cosets differently") from None
    x = hw1.wreath.encode(f, hw1.wreath.top_group.identity)
    if hw1.group.order() != hw2.group.order() or not all(
            hw1.group.contains(mul(mul(inv(x), w), x))
            for w in hw2.group.generators):
        raise HypothesisError("conjugation does not move one carrier onto the other")
    return x
