"""Isomorphism and automorphism search by screened backtracking.

Screens: order, abelianness, element-order histogram, center order, derived
subgroup order. Backtracking assigns generator images in canonical order,
one level per generator: level k is the subgroup the first k+1 generators
of the canonical generating set generate, closed once by Dimino's method.
Two prunings: the images chosen so far must generate a subgroup of the
level's order (grown with Dimino's method), and they must define a
homomorphism on the level (`Homomorphism.from_gen_images`, proved by the
one edge check). The search is a lazy generator, so a caller that wants
one isomorphism stops at the first. Results are deterministic.
"""

from __future__ import annotations

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup, from_elements
from .homs import Homomorphism
from .perms import dimino_extend, identity_perm, inv, mul, perm_order


def _screen(g, h):
    if g.order() != h.order():
        return False
    if g.is_abelian() != h.is_abelian():
        return False
    if g.order_histogram() != h.order_histogram():
        return False
    if g.is_abelian():  # both: the centers are the groups, the derived trivial
        return True
    if g.center().order() != h.center().order():
        return False
    if g.derived_subgroup().order() != h.derived_subgroup().order():
        return False
    return True


def _iso_search(g, h):
    """Backtracking over generator images; yields full isomorphism tables,
    lazily and in canonical order."""
    gens = g.small_generating_set()
    if not gens:
        if h.order() == 1:
            yield {g.identity: h.identity}
        return
    h_orders = h.element_orders()
    by_order = {}
    for e in h.sorted_elements():
        by_order.setdefault(h_orders[e], []).append(e)

    # level k: the subgroup of g the first k+1 generators generate
    levels, grown = [], frozenset([g.identity])
    for k, gen in enumerate(gens):
        grown = dimino_extend(grown, gens[:k], gen)
        levels.append(FiniteGroup(g.degree, gens[:k + 1], elements=grown))

    def extend(k, chosen, closed, table):
        """`closed` is <chosen> in h and `table` the map the choices define."""
        if k == len(gens):  # the images generate h, and |g| = |h|
            yield table
            return
        level = levels[k]
        for cand in by_order.get(perm_order(gens[k]), []):
            trial = chosen + [cand]
            grown = dimino_extend(closed, chosen, cand, limit=level.order())
            if grown is None or len(grown) != level.order():
                continue
            try:
                table = Homomorphism.from_gen_images(
                    level, h, dict(zip(gens, trial))).tabulated()
            except HypothesisError:
                continue
            yield from extend(k + 1, trial, grown, table)

    try:
        yield from extend(0, [], frozenset([h.identity]), None)
    finally:
        del extend  # the closure refers to itself: drop it without the collector


def find_isomorphism(g, h, bounds=DEFAULT_BOUNDS):
    """A bijective homomorphism g -> h, or None (certified absence).

    Raises UndecidedError when the order exceeds the isomorphism bound.
    """
    if g.order() != h.order():
        return None
    if g.order() > bounds.iso:
        raise UndecidedError(
            f"isomorphism search bound {bounds.iso} exceeded: |G| = {g.order()}")
    if not _screen(g, h):
        return None
    for table in _iso_search(g, h):
        return Homomorphism(g, h, table=table,
                            label=f"iso_{g.label}_{h.label}", check=False)
    return None


def enumerate_isomorphisms(g, h, bounds=DEFAULT_BOUNDS):
    """All isomorphisms g -> h in canonical order."""
    if g.order() != h.order() or not _screen(g, h):
        return []
    if g.order() > bounds.iso:
        raise UndecidedError("isomorphism enumeration bound exceeded")
    return [Homomorphism(g, h, table=table, label="iso", check=False)
            for table in _iso_search(g, h)]


class AutomorphismSet:
    """A set of automorphisms of one group."""

    def __init__(self, group, autos):
        self.group = group
        self.autos = list(autos)
        self._keys = None

    def __len__(self):
        return len(self.autos)

    def __iter__(self):
        return iter(self.autos)

    def keys(self):
        """Hashable signatures (tables as sorted tuples) for membership."""
        if self._keys is None:
            self._keys = {self._key(a) for a in self.autos}
        return self._keys

    @staticmethod
    def _key(auto):
        return tuple(sorted(auto.tabulated().items()))

    def as_group(self, label=None):
        """Permutation realization on the group's canonical element list."""
        elems = self.group.sorted_elements()
        index = {e: i for i, e in enumerate(elems)}
        perms = set()
        for a in self.autos:
            perms.add(tuple(index[a(e)] for e in elems))
        perms.add(identity_perm(len(elems)))
        g = from_elements(perms, label or f"Aut({self.group.label})")
        return g

    def perm_of(self, auto):
        elems = self.group.sorted_elements()
        index = {e: i for i, e in enumerate(elems)}
        return tuple(index[auto(e)] for e in elems)

    def auto_of_perm(self, perm):
        elems = self.group.sorted_elements()
        table = {e: elems[perm[i]] for i, e in enumerate(elems)}
        return Homomorphism(self.group, self.group, table=table, label="aut")


def automorphism_set(g, bounds=DEFAULT_BOUNDS):
    """All automorphisms of g (complete), within the automorphism bound."""
    if g.order() > bounds.aut:
        raise UndecidedError(
            f"automorphism bound {bounds.aut} exceeded: |G| = {g.order()}")
    autos = enumerate_isomorphisms(g, g, bounds=bounds)
    return AutomorphismSet(g, autos)


def inner_automorphisms(g, bounds=DEFAULT_BOUNDS):
    """Inn(G) = conjugations, deduplicated; |Inn| * |Z| = |G| is checked.
    Conjugation by z*x is conjugation by x for z in Z = Z(G), so one map is
    propagated per coset Z*x, by its least element, in sorted order."""
    center = g.center(bounds.enum).members()
    taken, seen = set(), {}
    for x in g.sorted_elements(bounds.enum):
        if x in taken:
            continue
        taken.update(mul(z, x) for z in center)
        auto = Homomorphism.from_gen_images(
            g, g, {s: g.conjugate(s, x) for s in g.generators}, label="inn")
        seen.setdefault(AutomorphismSet._key(auto), auto)
    autos = list(seen.values())
    if len(autos) * len(center) != g.order():
        raise HypothesisError("inner automorphism count is inconsistent")
    return AutomorphismSet(g, autos)


def inner_automorphism(g, x, label=None):
    """Inn(x): e -> x e x^-1."""
    return Homomorphism.of_rule(
        g, g, lambda e, x=tuple(x): mul(mul(x, e), inv(x)),
        label=label or "inn")


def stabilized(auts: AutomorphismSet, sub: Subgroup) -> AutomorphismSet:
    """A_H: the automorphisms mapping the subgroup onto itself, in the
    order of `auts`; checked at its generators, as a(H) <= H gives a(H) = H."""
    keep = [a for a in auts
            if all(sub.contains(a(g)) for g in sub.group.generators)]
    return AutomorphismSet(auts.group, keep)


def restricted(auts_h: AutomorphismSet, sub: Subgroup) -> AutomorphismSet:
    """A^H: restrictions to the subgroup, deduplicated."""
    seen = {}
    for a in auts_h:
        table = {m: a(m) for m in sub.members()}
        key = tuple(sorted(table.items()))
        if key not in seen:
            seen[key] = Homomorphism(sub.group, sub.group, table=table,
                                     label=f"{a.label}|", check=False)
    return AutomorphismSet(sub.group, list(seen.values()))


def conjugate_transport(f: Homomorphism):
    """The map f_. : Aut(source) -> Aut(target), applicable to sets too."""
    finv = f.inverse()

    def apply(x):
        if isinstance(x, AutomorphismSet):
            return AutomorphismSet(
                f.target, [finv.then(a).then(f) for a in x])
        return finv.then(x).then(f)

    return apply
