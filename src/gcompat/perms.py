"""Permutations of {0..n-1} as tuples, with a small stabilizer-chain engine.

p[i] is the image of point i. Products apply the left factor first:
x^(p*q) = (x^p)^q, i.e. mul(p, q)[i] == q[p[i]]. All group machinery in this
package rides on these right-action conventions.

`mul` is the hot kernel: `operator.itemgetter(*p)(q)` gathers q at the
points of p in C, several times faster than a generator expression. With a
single index `itemgetter` returns the bare item rather than a 1-tuple, so
degree 1 takes a separate branch.

Generator closure is Dimino's method (`closure` over `dimino_extend`):
about one multiply per element, where a breadth-first search makes one
per element per generator.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

Perm = tuple


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p, n=None) -> bool:
    if n is not None and len(p) != n:
        return False
    return sorted(p) == list(range(len(p)))


def mul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return (q[p[0]],)


def inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_pow(p: Perm, k: int) -> Perm:
    n = len(p)
    if k < 0:
        return perm_pow(inv(p), -k)
    out = identity_perm(n)
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def cycles(p: Perm):
    """Nontrivial cycles of p, each starting at its least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def perm_from_cycles(n: int, cycs) -> Perm:
    out = list(range(n))
    for cyc in cycs:
        for a, b in zip(cyc, cyc[1:]):
            out[a] = b
        if cyc:
            out[cyc[-1]] = cyc[0]
    return tuple(out)


def perm_order(p: Perm) -> int:
    o = 1
    for cyc in cycles(p):
        o = o * len(cyc) // gcd(o, len(cyc))
    return o


def closure(generators, *, bound=None):
    """<generators> as a frozenset, by Dimino's method: each generator not
    yet in the group grows it through `dimino_extend`, at one multiply per
    new element plus one per (coset representative, generator), against
    |G| * |generators| for breadth-first search. Raises UndecidedError,
    never a partial set, exactly when the group has more than `bound`."""
    from .bounds import UndecidedError

    gens = list(generators)
    if not gens:
        raise ValueError("closure needs at least one permutation")
    closed, used = frozenset([identity_perm(len(gens[0]))]), []
    for g in gens:
        if g in closed:
            continue
        closed = dimino_extend(closed, used, g, limit=bound)
        if closed is None:
            raise UndecidedError(
                f"closure exceeded bound {bound} (degree {len(g)})")
        used.append(g)
    return closed


def dimino_extend(closed, gens, s, *, limit=None):
    """<gens, s> from the closed set `closed` = <gens>, by Dimino's method.

    The result is grown as a union of right cosets closed*r: a coset's
    image under a generator g is the coset of r*g, so one product per
    (representative, generator) decides it. Returns a frozenset, or None
    as soon as the growing set holds more than `limit` >= |closed| elements.
    (Butler, Fundamental Algorithms for Permutation Groups, LNCS 559.)
    """
    elems, reps = set(closed), [identity_perm(len(s))]
    for r in reps:  # reps grows while it is scanned
        for g in (*gens, s):
            y = mul(r, g)
            if y not in elems:
                reps.append(y)
                elems.update(mul(x, y) for x in closed)
                if limit is not None and len(elems) > limit:
                    return None
    return frozenset(elems)


class StabilizerChain:
    """Deterministic Schreier-Sims. Supports order and membership only.

    Scale target is degree in the low hundreds and orders up to ~1e9, which
    the witness constructions stay comfortably inside.
    """

    def __init__(self, degree: int, gens=()):
        self.degree = degree
        self.base = []
        self.sgens = []   # strong generators known at each level
        self.orbits = []  # per level: point -> transversal perm
        self.inverses = []  # per level: point -> inverse of that perm
        for g in gens:
            self.add(g)

    # -- queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        o = 1
        for tr in self.orbits:
            o *= len(tr)
        return o

    def _strip(self, p, start=0):
        for i in range(start, len(self.base)):
            x = p[self.base[i]]
            t_inv = self.inverses[i].get(x)
            if t_inv is None:
                return p, i
            p = mul(p, t_inv)
        return p, len(self.base)

    def contains(self, p) -> bool:
        if len(p) != self.degree:
            return False
        r, lev = self._strip(p)
        return lev == len(self.base) and r == identity_perm(self.degree)

    # -- construction ----------------------------------------------------

    def add(self, p):
        if not is_perm(p, self.degree):
            raise ValueError(f"not a permutation of degree {self.degree}: {p}")
        self._add_at(p, 0)
        self._verify()

    def _add_at(self, p, level):
        r, lev = self._strip(p, level)
        if r == identity_perm(self.degree):
            return False
        if lev == len(self.base):
            moved = min(i for i in range(self.degree) if r[i] != i)
            self.base.append(moved)
            self.sgens.append([])
            self.orbits.append({moved: identity_perm(self.degree)})
            self.inverses.append({moved: identity_perm(self.degree)})
        self.sgens[lev].append(r)
        self._rebuild_orbit(lev)
        return True

    def _rebuild_orbit(self, i):
        """Transversal of level i by breadth-first search, each element's
        inverse beside it: inv(t*g) = inv(g)*inv(t), one inv per generator."""
        b = self.base[i]
        gens = [g for lv in range(i, len(self.sgens)) for g in self.sgens[lv]]
        gens = [(g, inv(g)) for g in gens]
        tr = {b: identity_perm(self.degree)}
        itr = {b: tr[b]}
        frontier = [b]
        while frontier:
            nxt = []
            for x in frontier:
                tx, itx = tr[x], itr[x]
                for g, ig in gens:
                    y = g[x]
                    if y not in tr:
                        tr[y] = mul(tx, g)
                        itr[y] = mul(ig, itx)
                        nxt.append(y)
            frontier = nxt
        self.orbits[i] = tr
        self.inverses[i] = itr

    def _verify(self):
        """Close under Schreier generators until every level is stabilized."""
        changed = True
        while changed:
            changed = False
            for i in range(len(self.base)):
                self._rebuild_orbit(i)
                gens = [g for lv in range(i, len(self.sgens)) for g in self.sgens[lv]]
                for x, tx in list(self.orbits[i].items()):
                    for g in gens:
                        y = g[x]
                        ity = self.inverses[i].get(y)
                        if ity is None:
                            self._rebuild_orbit(i)
                            ity = self.inverses[i][y]
                        schreier = mul(mul(tx, g), ity)
                        if self._add_at(schreier, i + 1):
                            changed = True
                if changed:
                    break
