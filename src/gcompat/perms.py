"""Permutations of {0..n-1} as tuples, with a small stabilizer-chain engine.

p[i] is the image of point i. Products apply the left factor first:
x^(p*q) = (x^p)^q, i.e. mul(p, q)[i] == q[p[i]]. All group machinery in this
package rides on these right-action conventions.

`mul` is the hot kernel: `operator.itemgetter(*p)(q)` gathers q at the
points of p in C, several times faster than a generator expression. With a
single index `itemgetter` returns the bare item rather than a 1-tuple, so
degree 1 takes a separate branch.

A group acting on a disjoint union of blocks of points (a direct product,
an inverse limit, a wreath product's base) places a value on one block
with `place_block` and reads it back with `decode_block`; the one
placement fixes every point outside the block.

Generator closure is Dimino's method (`closure` over `dimino_extend`):
about one multiply per element, where a breadth-first search makes one
per element per generator.

Dimino's method (`dimino`) and the element-order sweep (`order_sweep`) are
each written once, over an encoding's product. The internal encoding
(`encoding`) at degree n <= 256 is the byte string bytes(p): x*y is
x.translate(y + pad), pad = bytes(range(n, 256)), a gather in C, and bytes
cache their hash and compare by memcmp in the tuples' order.
`right_products` multiplies a whole set of elements by one element, on
bytes in a loop that runs entirely in C: Dimino's coset sweep, the Cayley
graph (`groups.cayley_graph`) and the table edge check
(`homs.Homomorphism.check_table_edges`) make one such call per coset or
per column. Those three, canonical generating sets and element orders
(`groups.py`) use the encoding; tuples are the type of every interface,
and the encoding past degree 256.

Orders, memberships and sifting past enumeration come from
`StabilizerChain`, deterministic Schreier-Sims (Sims 1970; Seress,
Permutation Group Algorithms, 2003, §4.2) that closes each chain once:
deepest level first, each Schreier generator sifted once per transversal,
tree edges skipped. A chain may be given a prefix of its base, which a
map's graph chain (`homs.Homomorphism.graph_chain`) uses.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
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


def place_block(value, off, degree) -> Perm:
    """The permutation of `degree` points that acts as `value` on the
    points off..off+len(value)-1 and fixes every other point."""
    return (*range(off), *[x + off for x in value],
            *range(off + len(value), degree))


def decode_block(perm, off, deg) -> Perm:
    """perm's block on the points off..off+deg-1, shifted down to 0..deg-1;
    the inverse of `place_block` on its block."""
    return tuple([x - off for x in perm[off:off + deg]])


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
    """<gens, s> from the closed set `closed` = <gens> of tuples (`dimino`)."""
    return dimino(closed, gens, s, mul, identity_perm(len(s)), limit)


_POINTS = bytes(range(256))  # the byte-encoded identity of degree 256


def encoding(degree):
    """(encode, times, identity) at `degree`: times(x, y) is x*y, and
    `tuple` decodes. Past degree 256, times is `mul` as it is at the call."""
    if degree > 256:
        return tuple, mul, identity_perm(degree)
    return _byte_encoding(degree)


@lru_cache(maxsize=None)
def _byte_encoding(degree):
    pad = _POINTS[degree:]
    return bytes, lambda x, y: x.translate(y + pad), _POINTS[:degree]


def right_products(xs, y):
    """x*y for each x in xs, lazily and in order, with xs and y in one
    encoding (`encoding`): on bytes one `bytes.translate` per x, the whole
    loop in C; on tuples `mul`. A y longer than 256 bytes raises
    ValueError, and a point of x past the end of a tuple y IndexError."""
    if type(y) is bytes:
        return map(bytes.translate, xs, repeat(y + _POINTS[len(y):]))
    return map(mul, xs, repeat(y))


def left_products(x, ys):
    """x*y for each tuple y in ys, lazily and in order: one gather of y at
    x's points per y, in C (`mul`)."""
    if len(x) > 1:
        return map(itemgetter(*x), ys)
    return map(mul, repeat(x), ys)


def dimino(closed, gens, s, times, ident, limit=None):
    """<gens, s> from the closed set `closed` = <gens>, in the encoding
    whose product is `times` and identity `ident`.

    The result is grown as a union of right cosets closed*r: a coset's
    image under a generator g is the coset of r*g, so one product per
    (representative, generator) decides it, and a new coset is one
    `right_products` call. Returns a frozenset, or None
    as soon as the growing set holds more than `limit` >= |closed| elements.
    (Butler, Fundamental Algorithms for Permutation Groups, LNCS 559.)
    """
    elems, reps = set(closed), [ident]
    for r in reps:  # reps grows while it is scanned
        for g in (*gens, s):
            y = times(r, g)
            if y not in elems:
                reps.append(y)
                elems.update(right_products(closed, y))
                if limit is not None and len(elems) > limit:
                    return None
    return frozenset(elems)


def order_sweep(elems, times, ident, limit=None):
    """Element -> order over a group's elements, encoded as for `dimino`:
    each element not yet seen lists its powers, and e^k gets order
    o/gcd(o, k), one multiply per element of the cyclic subgroups walked.
    ValueError when `limit` powers of an element miss the identity: with
    limit = |elems|, as they never do in a group, the set is no group."""
    orders = {ident: 1}
    for e in elems:
        if e in orders:
            continue
        powers = [e]
        x = times(e, e)
        while x != ident:
            if len(powers) == limit:
                raise ValueError("element set is not a group")
            powers.append(x)
            x = times(x, e)
        o = len(powers) + 1
        for k, x in enumerate(powers, 1):
            orders[x] = o // gcd(o, k)
    return orders


class StabilizerChain:
    """Deterministic Schreier-Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, §4.2): order, membership and sifting.

    `base` is a prefix of the base: one level per given point is made
    first, in order, before any generator is sifted in, so the levels past
    it hold the pointwise stabiliser of those points. A map's graph chain
    (`homs.Homomorphism.graph_chain`) puts the target's base first: its
    levels past the prefix are the kernel, and `_strip` through the prefix
    levels sifts (y, 1) to (1, x^-1) with f(x) = y. Without a prefix the
    base is the first point each new residue moves.

    Level i holds the base point `base[i]`, the strong generators
    `sgens[i]` of its group G_i (each beside its inverse, computed once)
    and the transversal `orbits[i]` (point -> a perm taking `base[i]`
    there) with `inverses[i]` beside it. A permutation is sifted in from
    the level whose group it is known to lie in; a nontrivial residue that
    drops out at level j becomes a strong generator of every level from
    that one down to j (a new level when j is past the base), and their
    transversals grow by it, keeping every element they had. The levels
    above are left alone: the residue already lies in their groups, so
    their orbits cannot grow.

    `__init__` sifts every generator in, then closes once. Closing starts
    at the deepest level that changed and works up to level 0: at level i
    each Schreier generator t_x g t_{x^g}^-1 (x in the orbit, g a strong
    generator of the level) is sifted from level i+1, once per transversal
    element, and a tree edge (t_x g == t_{x^g}) is skipped unsifted. A
    nontrivial residue added at level j resumes the closing at j. The
    per-level record of what was sifted lives only while the chain
    closes; `add` to a closed chain starts from every pair marked done.

    Scale target is degree in the low hundreds and orders up to ~1e9, which
    the witness constructions stay comfortably inside.
    """

    def __init__(self, degree: int, gens=(), base=()):
        self.degree = degree
        self._identity = identity_perm(degree)
        self.base = []
        self.sgens = []     # per level: (g, inv(g)) for each strong generator
        self.orbits = []    # per level: point -> transversal perm
        self.inverses = []  # per level: point -> inverse of that perm
        # while closing, per level: point -> how many of the level's strong
        # generators its Schreier generators have been sifted with
        self._sifted = []
        for b in base:
            self._new_level(b)
        for g in gens:
            self._check(g)
            self._sift_in(g, 0)
        self._close(len(self.base) - 1)

    # -- queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        o = 1
        for tr in self.orbits:
            o *= len(tr)
        return o

    def _strip(self, p, start=0):
        base, inverses = self.base, self.inverses
        for i in range(start, len(base)):
            b = base[i]
            x = p[b]
            if x == b:  # the transversal element is the identity
                continue
            t_inv = inverses[i].get(x)
            if t_inv is None:
                return p, i
            p = mul(p, t_inv)
        return p, len(base)

    def contains(self, p) -> bool:
        """Membership; False for anything but a permutation of the degree.
        A point past the degree stops the strip (IndexError); a negative
        one is read modulo the degree by the products, so it is refused
        once p has stripped to the identity."""
        if len(p) != self.degree:
            return False
        try:
            r, lev = self._strip(p)
        except IndexError:
            return False
        return lev == len(self.base) and r == self._identity and min(p) >= 0

    # -- construction ----------------------------------------------------

    def add(self, p):
        self._check(p)
        # a closed chain sifts every Schreier generator it has to 1
        self._sifted = [dict.fromkeys(tr, len(gens))
                        for tr, gens in zip(self.orbits, self.sgens)]
        level = self._sift_in(p, 0)
        self._close(-1 if level is None else level)

    def _check(self, p):
        if not is_perm(p, self.degree):
            raise ValueError(f"not a permutation of degree {self.degree}: {p}")

    def _sift_in(self, p, top):
        """Sift p from level `top`. A nontrivial residue, dropping out at
        level j, becomes a strong generator of levels top..j and grows
        their transversals; returns j, or None when p sifts to 1."""
        r, j = self._strip(p, top)
        if r == self._identity:
            return None
        if j == len(self.base):
            self._new_level(next(i for i, x in enumerate(r) if x != i))
        pair = (r, inv(r))
        for level in range(top, j + 1):
            self.sgens[level].append(pair)
            self._grow(level)
        return j

    def _new_level(self, b):
        """A level at base point b, its group not yet known to move b."""
        self.base.append(b)
        self.sgens.append([])
        self.orbits.append({b: self._identity})
        self.inverses.append({b: self._identity})
        self._sifted.append({})

    def _grow(self, level):
        """Extend the transversal of `level` by its newest strong generator:
        the orbit's points under it, then each new point under every strong
        generator of the level, each new element's inverse beside it
        (inv(t*g) = inv(g)*inv(t))."""
        tr, itr = self.orbits[level], self.inverses[level]
        gens = self.sgens[level]
        edges = [(x, gens[-1]) for x in tr]
        for x, (g, ig) in edges:  # edges grows while it is scanned
            y = g[x]
            if y not in tr:
                tr[y] = mul(tr[x], g)
                itr[y] = mul(ig, itr[x])
                edges.extend((y, pair) for pair in gens)

    def _close(self, level):
        """Sift the Schreier generators not yet sifted, from `level` up to
        level 0, then drop the record of them."""
        while level >= 0:
            j = self._close_level(level)
            level = level - 1 if j is None else j
        self._sifted = None

    def _close_level(self, i):
        """Sift level i's unsifted Schreier generators from level i+1 until
        one leaves a residue; returns the level it was added at, or None."""
        tr, itr = self.orbits[i], self.inverses[i]
        gens, sifted = self.sgens[i], self._sifted[i]
        for x, tx in tr.items():
            for k in range(sifted.get(x, 0), len(gens)):
                sifted[x] = k + 1
                g = gens[k][0]
                y = g[x]
                txg = mul(tx, g)
                if txg == tr[y]:  # a tree edge: the Schreier generator is 1
                    continue
                j = self._sift_in(mul(txg, itr[y]), i + 1)
                if j is not None:
                    return j
        return None
