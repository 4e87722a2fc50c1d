"""Group actions, wreath products, and the standard (universal) embedding.

Wreath elements are (base tuple over the point set, top element) pairs with
the twist f^h(w) = f(w^(h^-1)); the permutation realization on
points x base-domain plus the top domain is derived from that arithmetic.
"""

from __future__ import annotations

from functools import partial

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup
from .homs import Homomorphism, action_on_cosets
from .perms import inv, is_perm, mul, place_block


class GroupAction:
    """A right action of a group on points 0..npoints-1.

    Stored as the homomorphism rho onto the induced permutation group of the
    point set; `labels` optionally names the points (e.g. coset
    representatives).
    """

    def __init__(self, group, npoints, rho: Homomorphism, labels=None):
        self.group = group
        self.npoints = npoints
        self.rho = rho
        self.labels = list(labels) if labels is not None else None

    def act(self, point, g):
        return self.rho(g)[point]

    def orbit(self, point):
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.group.generators:
                    y = self.act(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def is_transitive(self):
        return len(self.orbit(0)) == self.npoints

    def stabilizer(self, point) -> Subgroup:
        members = [g for g in self.group.elements()
                   if self.act(point, g) == point]
        return Subgroup(self.group, members=members, label=f"stab{point}")

    def image_group(self) -> FiniteGroup:
        return self.rho.target

    def kernel(self) -> Subgroup:
        return self.rho.kernel()


def natural_action(g: FiniteGroup) -> GroupAction:
    """A permutation group acting on its own domain."""
    return GroupAction(g, g.degree, Homomorphism.identity(g))


def coset_action(h: FiniteGroup, k: Subgroup) -> GroupAction:
    """Right-multiplication action on the right cosets of k, canonical order."""
    reps, rho = action_on_cosets(h, k, label=f"{h.label}/{k.group.label}-pts")
    return GroupAction(h, len(reps), rho, labels=reps)


class PermutationTransversal:
    """Point reps t_v with base^(t_v) = v and t_base = identity."""

    def __init__(self, action: GroupAction, basepoint, reps):
        self.action = action
        self.basepoint = basepoint
        self.reps = dict(reps)
        if self.reps.get(basepoint) != action.group.identity:
            raise HypothesisError("transversal must send the basepoint to 1")
        for v, t in self.reps.items():
            if action.act(basepoint, t) != v:
                raise HypothesisError(f"transversal fails at point {v}")
        if set(self.reps) != set(range(action.npoints)):
            raise HypothesisError("transversal must cover every point")

    def __getitem__(self, v):
        return self.reps[v]


def default_transversal(action: GroupAction, basepoint=0):
    """Canonical transversal: minimal element reaching each point."""
    if not action.is_transitive():
        raise HypothesisError("transversal needs a transitive action")
    reps = {basepoint: action.group.identity}
    for g in action.group.sorted_elements():
        v = action.act(basepoint, g)
        if v not in reps:
            reps[v] = g
        if len(reps) == action.npoints:
            break
    return PermutationTransversal(action, basepoint, reps)


class WreathProduct:
    """G wr_Omega H for an action of H on Omega, with its derived realization.

    Points: for each w in Omega a copy of G's domain, then H's own domain.
    encode/decode convert between (base tuple, top element) and permutations.
    The carrier is given by its generators and known order; it is closed
    only when its elements are asked for.
    """

    def __init__(self, base_group: FiniteGroup, action: GroupAction,
                 label=None):
        self.base_group = base_group
        self.action = action
        self.npoints = action.npoints
        self.top_group = action.group
        gdeg = base_group.degree
        self.gdeg = gdeg
        self.top_offset = self.npoints * gdeg
        self.degree = self.top_offset + self.top_group.degree
        order = base_group.order() ** self.npoints * self.top_group.order()
        self.order = order
        gens = [self.place(w, g) for w in range(self.npoints)
                for g in base_group.generators]
        ident_f = tuple(base_group.identity for _ in range(self.npoints))
        gens.extend(self.encode(ident_f, h) for h in self.top_group.generators)
        name = label or f"{base_group.label}wr{self.top_group.label}"
        self.carrier = FiniteGroup(self.degree, gens, name)
        self.carrier._order = order

    # -- element conversion ----------------------------------------------------

    def encode(self, base_tuple, top):
        """(f, h) as a permutation: (w, d) -> (w^h, d^(f(w))), top block by h."""
        gdeg = self.gdeg
        rho_h = self.action.rho(top)
        img = [0] * self.degree
        for w in range(self.npoints):
            j = rho_h[w]
            fw = base_tuple[w]
            base = w * gdeg
            tgt = j * gdeg
            for d in range(gdeg):
                img[base + d] = tgt + fw[d]
        for p in range(self.top_group.degree):
            img[self.top_offset + p] = self.top_offset + top[p]
        return tuple(img)

    def decode(self, perm):
        off = self.top_offset
        top = tuple(perm[off + p] - off for p in range(self.top_group.degree))
        rho_h = self.action.rho(top)
        gdeg = self.gdeg
        base = []
        for w in range(self.npoints):
            j = rho_h[w]
            fw = tuple(perm[w * gdeg + d] - j * gdeg for d in range(gdeg))
            if not is_perm(fw, gdeg):
                raise ValueError("not a wreath element")
            base.append(fw)
        return tuple(base), top

    def place(self, w, g):
        """g at point w, with the identity at every other point and on top:
        g on the block of w's copy of G's domain."""
        return place_block(g, w * self.gdeg, self.degree)

    # -- distinguished subgroups and maps ---------------------------------------

    def base_subgroup(self) -> Subgroup:
        gens = [self.place(w, g) for w in range(self.npoints)
                for g in self.base_group.generators] or [self.carrier.identity]
        return Subgroup(self.carrier, gens=gens, label="base")

    def coordinate_embedding(self, w) -> Homomorphism:
        return Homomorphism.of_rule(self.base_group, self.carrier,
                                    partial(self.place, w), label=f"base@{w}")

    def top_embedding(self) -> Homomorphism:
        ident_f = tuple(self.base_group.identity for _ in range(self.npoints))
        return Homomorphism.of_rule(
            self.top_group, self.carrier,
            lambda h: self.encode(ident_f, h), label="top")


def wreath_product(base_group, action, label=None,
                   bounds=DEFAULT_BOUNDS) -> WreathProduct:
    size = base_group.order() ** action.npoints * action.group.order()
    if size > max(bounds.enum, 10 ** 9):
        raise UndecidedError(f"wreath product of order {size} is out of range")
    return WreathProduct(base_group, action, label=label)


class StandardEmbedding:
    """The injective map x -> ((t_v x t_{v.x}^-1)_v, rho(x)) of a transitive
    group into stab wr image, propagated from the generators' images
    (`Homomorphism.from_gen_images`). The cocycle telescopes, f_xy(v) =
    f_x(v) f_y(v.x), so once the generators' base entries lie in the
    stabilizer, every element's do: the check at the generators covers
    the whole group."""

    def __init__(self, action: GroupAction, transversal: PermutationTransversal,
                 bounds=DEFAULT_BOUNDS):
        if not action.is_transitive():
            raise HypothesisError("standard embedding needs a transitive action")
        self.action = action
        self.transversal = transversal
        self.omega = transversal.basepoint
        g = action.group
        stab = action.stabilizer(self.omega)
        self.stabilizer = stab
        s_group = action.image_group()
        self.wreath = wreath_product(stab.group, natural_action(s_group),
                                     bounds=bounds)
        images = {}
        t = transversal
        for x in g.generators:
            fx = tuple(mul(mul(t[v], x), inv(t[action.act(v, x)]))
                       for v in range(action.npoints))
            if not all(map(stab.contains, fx)):
                raise HypothesisError(
                    "broken transversal: cocycle leaves the stabilizer")
            images[x] = self.wreath.encode(fx, action.rho(x))
        self.map = Homomorphism.from_gen_images(g, self.wreath.carrier, images,
                                                label="std-embed")

    def __call__(self, x):
        return self.map(x)


def standard_embedding(action, transversal=None,
                       bounds=DEFAULT_BOUNDS) -> StandardEmbedding:
    tr = transversal or default_transversal(action)
    return StandardEmbedding(action, tr, bounds=bounds)


def same_action(a1: GroupAction, a2: GroupAction) -> bool:
    if a1 is a2:
        return True
    if a1.group is not a2.group or a1.npoints != a2.npoints:
        return False
    return all(a1.rho(g) == a2.rho(g) for g in a1.group.generators)


def embedding_conjugator(e1: StandardEmbedding, e2: StandardEmbedding):
    """Base element x with e2 = Inn(x) o e1, for embeddings sharing a basepoint.

    Inn(x)(y) = x y x^-1; the witness is f(v) = s_v t_v^-1 coordinatewise.
    """
    if not same_action(e1.action, e2.action) or e1.omega != e2.omega:
        raise HypothesisError("embeddings must share the action and basepoint")
    t, s = e1.transversal, e2.transversal
    f = tuple(mul(s[v], inv(t[v])) for v in range(e1.action.npoints))
    x = e1.wreath.encode(f, e1.wreath.top_group.identity)
    for g in e1.action.group.elements():
        if e2(g) != mul(mul(x, e1(g)), inv(x)):
            raise HypothesisError("conjugator does not transport the embedding")
    return x


def action_isomorphism_check(action1: GroupAction, point_bijection,
                             psi: Homomorphism):
    """Verify (phi, psi) transports action1 to psi's target action.

    point_bijection: tuple mapping action1 points to target points; psi's
    target group must act naturally on its own domain.
    """
    phi = tuple(point_bijection)
    for h in action1.group.elements():
        img = psi(h)
        for w in range(action1.npoints):
            if phi[action1.act(w, h)] != img[phi[w]]:
                return False
    return True


def wreath_of_homomorphisms(eta: Homomorphism, w1: WreathProduct,
                            w2: WreathProduct, point_bijection,
                            psi: Homomorphism, label=None) -> Homomorphism:
    """(f, h) -> (eta o f o phi^-1, psi(h)) along an action isomorphism."""
    if eta.source.degree != w1.base_group.degree:
        raise ValueError("eta does not start at the base group")
    if eta.target.degree != w2.base_group.degree:
        raise ValueError("eta does not land in the target base group")
    phi = tuple(point_bijection)
    if sorted(phi) != list(range(w2.npoints)) or len(phi) != w1.npoints:
        raise ValueError("point map is not a bijection onto the target points")
    if not action_isomorphism_check(w1.action, phi, psi):
        raise HypothesisError("(phi, psi) is not an action isomorphism")

    def apply(p):
        base, top = w1.decode(p)
        new_base = [None] * w2.npoints
        for w in range(w1.npoints):
            new_base[phi[w]] = eta(base[w])
        return w2.encode(tuple(new_base), psi(top))

    return Homomorphism.of_rule(w1.carrier, w2.carrier, apply,
                                label=label or "eta-wr-psi")
