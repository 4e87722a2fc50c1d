"""Finite groups as faithful permutation groups, plus structure machinery.

Every group acts on {0..degree-1}; elements are permutation tuples (see
perms.py for the conventions). The canonical element ordering used for
deterministic choices everywhere is lexicographic on those tuples.

Element orders come from one sweep over cyclic subgroups
(`perms.order_sweep`) on the internal encoding (`perms.encoding`), made
afresh on each call; generating sets, order histograms and the subgroup
searches below each read their orders from one such sweep.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import partial
from math import gcd

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .perms import (
    StabilizerChain,
    closure,
    dimino,
    encoding,
    identity_perm,
    inv,
    is_perm,
    mul,
    order_sweep,
    perm_from_cycles,
    perm_pow,
    place_block,
    right_products,
)


class FiniteGroup:
    """A finite group with an explicit faithful permutation realization.

    Element enumeration is cached once computed and is bounded: operations
    needing the full element list past the bound raise UndecidedError.
    Order and membership stay available at any size via a stabilizer chain.
    """

    def __init__(self, degree, generators, label="G", *, elements=None):
        self.degree = int(degree)
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        ident = identity_perm(self.degree)
        gens = []
        for g in generators:
            g = tuple(g)
            if not is_perm(g, self.degree):
                raise ValueError(f"not a permutation of degree {self.degree}: {g}")
            if g != ident and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self.label = str(label)
        self._elements = None
        self._sorted = None
        self._chain = None
        self._cayley = None
        self._order = None
        if elements is not None:
            elems = frozenset(map(tuple, elements))
            if ident not in elems:
                raise ValueError("element set must contain the identity")
            self._elements = elems
            self._order = len(elems)

    # -- basics ------------------------------------------------------------

    @property
    def identity(self):
        return identity_perm(self.degree)

    def inv(self, a):
        return inv(a)

    def power(self, a, k):
        return perm_pow(a, k)

    def conjugate(self, a, g):
        """g a g^-1."""
        return mul(mul(g, a), inv(g))

    def commutator(self, a, b):
        """a b a^-1 b^-1."""
        return mul(mul(a, b), mul(inv(a), inv(b)))

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, degree={self.degree}, order={self.order()})"

    # -- enumeration and size ----------------------------------------------

    def elements(self, bound=None):
        """The full element set (frozenset), closed from the generators by
        Dimino's method (`perms.closure`); UndecidedError past `bound`.
        """
        if self._elements is None:
            limit = bound if bound is not None else DEFAULT_BOUNDS.enum
            self._elements = closure(self.generators or [self.identity],
                                     bound=limit)
            self._order = len(self._elements)
        return self._elements

    def sorted_elements(self, bound=None):
        """Elements in canonical (lexicographic) order."""
        if self._sorted is None:
            self._sorted = sorted(self.elements(bound))
        return self._sorted

    def cayley(self, bound=None):
        """The Cayley graph `cayley_graph(sorted_elements(), generators)`:
        computed once, each column one product loop in C at degree <= 256,
        and kept, so every map out of the group is checked on the same int
        columns."""
        if self._cayley is None:
            self._cayley = cayley_graph(self.sorted_elements(bound),
                                        self.generators)
        return self._cayley

    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self):
        """Group order; uses cached elements or a stabilizer chain."""
        if self._order is None:
            self._order = self.chain().order
        return self._order

    def is_enumerable(self, bound=None):
        """Whether the order is within `bound`, cached elements or not."""
        limit = bound if bound is not None else DEFAULT_BOUNDS.enum
        return self.order() <= limit

    def can_enumerate(self, bound=None):
        """Whether the elements are at hand: cached already, closed under
        whatever bound the caller that closed them had, or of an order
        within `bound`."""
        return self._elements is not None or self.is_enumerable(bound)

    def contains(self, p):
        if len(p) != self.degree:
            return False
        if self._elements is not None:
            return p in self._elements
        return self.chain().contains(p)

    # -- cheap structural predicates -----------------------------------------

    def is_abelian(self):
        gens = self.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                if mul(a, b) != mul(b, a):
                    return False
        return True

    def element_orders(self, bound=None):
        """Element -> order, from one sweep over cyclic subgroups (see the
        module docstring), keyed by the group's own tuples. Built afresh
        on each call and not kept."""
        elems = self.elements(bound)
        encode, times, ident = encoding(self.degree)
        codes = list(map(encode, elems))
        orders = order_sweep(codes, times, ident, len(codes))
        return dict(zip(elems, map(orders.__getitem__, codes)))

    def order_histogram(self, bound=None):
        """Multiset of element orders as a sorted tuple of (order, count)."""
        counts = Counter(self.element_orders(bound).values())
        return tuple(sorted(counts.items()))

    def exponent(self, bound=None):
        e = 1
        for o, _ in self.order_histogram(bound):
            e = e * o // gcd(e, o)
        return e

    # -- subgroups -----------------------------------------------------------

    def trivial_subgroup(self):
        return Subgroup(self, members=[self.identity], label="1")

    def full_subgroup(self):
        """The whole group as a subgroup: it takes over this group's
        generators and element cache, so nothing is closed again."""
        sub = Subgroup(self, gens=self.generators, label=self.label)
        sub.group._elements, sub.group._order = self._elements, self._order
        return sub

    def center(self, bound=None):
        gens = self.generators
        members = [e for e in self.elements(bound)
                   if all(mul(e, g) == mul(g, e) for g in gens)]
        return Subgroup(self, members=members, label=f"Z({self.label})")

    def normal_closure(self, seed, bound=None):
        """Smallest normal subgroup containing `seed` elements: generated
        by the seed's conjugates under the generators, closed once under
        `bound`, and kept with those generators."""
        limit = bound if bound is not None else DEFAULT_BOUNDS.enum
        gens = list(dict.fromkeys(tuple(s) for s in seed))
        while True:
            extra = []
            for s in gens:
                for g in self.generators:
                    c = self.conjugate(s, g)
                    if c not in gens and c not in extra:
                        extra.append(c)
            if not extra:
                break
            gens.extend(extra)
            if len(gens) > limit:
                raise UndecidedError("normal closure generator blow-up")
        sub = Subgroup(self, gens=gens)
        sub.members(limit)
        return sub

    def derived_subgroup(self, bound=None):
        comms = [self.commutator(a, b)
                 for a in self.generators for b in self.generators]
        return self.normal_closure(comms, bound)

    def is_nilpotent(self, bound=None):
        """Lower central series descends to 1."""
        current = self.full_subgroup()
        while current.order() > 1:
            comms = [self.commutator(a, g)
                     for a in current.group.generators for g in self.generators]
            nxt = self.normal_closure(comms, bound)
            if nxt.order() == current.order():
                return False
            current = nxt
        return True

    def small_generating_set(self, bound=None):
        """Greedy canonical generating set, preferring high-order elements,
        on the internal encoding. ValueError when the elements are not the
        group the chosen generators generate, i.e. an element set that is
        no group."""
        elems = self.elements(bound)
        if len(elems) == 1:
            return ()
        encode, times, ident = encoding(self.degree)
        codes = sorted(map(encode, elems))
        orders = order_sweep(codes, times, ident, len(codes))
        gens, have = [], frozenset([ident])
        # reverse=True keeps the sort stable: (-order, element) order
        for e in sorted(codes, key=orders.__getitem__, reverse=True):
            if e not in have:
                have = dimino(have, gens, e, times, ident, len(elems))
                gens.append(e)
                if have is None or len(have) == len(elems):
                    break
        if have != set(codes):
            raise ValueError(f"{self.label}: element set is not a group")
        return tuple(map(tuple, gens))


def cayley_graph(elems, gens):
    """(elems, generator indices, columns): per generator s the int array
    i -> index of elems[i]*s. The elements are encoded (`encoding`) once
    and indexed by their codes, and each column is one `right_products`
    call, a loop in C at degree <= 256. KeyError if elems is not closed
    under gens."""
    encode = encoding(len(elems[0]))[0]
    codes = list(map(encode, elems))
    index = dict(zip(codes, range(len(codes))))
    gens = list(map(encode, gens))
    return (elems, tuple(map(index.__getitem__, gens)),
            tuple(array("i", map(index.__getitem__, right_products(codes, s)))
                  for s in gens))


def from_elements(perms, label="G"):
    """Group from an explicit element set, with the canonical small
    generating set (`small_generating_set`); ValueError unless the set is
    a group. A group known by its generators is built from them instead
    (`FiniteGroup`)."""
    g = FiniteGroup(len(next(iter(perms), ())), (), label, elements=perms)
    g.generators = g.small_generating_set()
    return g


class Subgroup:
    """A subgroup presented inside a parent group (same permutation domain),
    given either by generators, closed when its elements are first asked
    for, or by its members, whose generators `from_elements` picks."""

    def __init__(self, parent, gens=None, members=None, label=None):
        if (gens is None) == (members is None):
            raise ValueError("need generators or members, not both")
        self.parent = parent
        name = label or f"{parent.label}-sub"
        if members is not None:
            sub = from_elements(members, name)
        else:
            sub = FiniteGroup(parent.degree, gens, name)
        if sub.degree != parent.degree:
            raise ValueError("subgroup domain mismatch")
        self.group = sub

    def members(self, bound=None):
        return self.group.elements(bound)

    def order(self):
        return self.group.order()

    def contains(self, p):
        return self.group.contains(p)

    def __le__(self, other):
        if isinstance(other, Subgroup):
            other = other.group
        return all(other.contains(g) for g in self.group.generators) \
            and other.contains(self.group.identity)

    def same_as(self, other):
        return self <= other and other <= self

    def is_normal(self):
        """Conjugation by parent generators keeps subgroup generators inside."""
        gens = self.group.generators or (self.group.identity,)
        for g in self.parent.generators:
            for s in gens:
                if not self.contains(self.parent.conjugate(s, g)):
                    return False
        return True

    def is_central(self):
        for s in self.group.generators:
            for g in self.parent.generators:
                if mul(s, g) != mul(g, s):
                    return False
        return True

    def __repr__(self):
        return f"Subgroup({self.group.label!r}, order={self.order()} in {self.parent.label!r})"


# -- constructors -----------------------------------------------------------


def trivial_group(label="1"):
    return FiniteGroup(1, [], label, elements=[(0,)])


def cyclic(n, label=None):
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    if n == 1:
        return trivial_group(label or "Z1")
    gen = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [gen], label or f"Z{n}")


def symmetric(n, label=None):
    if n < 1:
        raise ValueError("symmetric degree must be >= 1")
    if n == 1:
        return trivial_group(label or "S1")
    gens = [perm_from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(tuple((i + 1) % n for i in range(n)))
    return FiniteGroup(n, gens, label or f"S{n}")


def alternating(n, label=None):
    if n < 1:
        raise ValueError("alternating degree must be >= 1")
    if n <= 2:
        return trivial_group(label or f"A{n}")
    gens = [perm_from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return FiniteGroup(n, gens, label or f"A{n}")


def dihedral(order, label=None):
    """Dihedral group of the given (even) order, acting on the n-gon."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    if n == 1:
        return cyclic(2, label or "D2")
    if n == 2:
        return direct_product(cyclic(2), cyclic(2), label or "D4")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return FiniteGroup(n, [rot, ref], label or f"D{order}")


def elementary_abelian(p, k, label=None):
    if k < 0 or p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError("need a prime p and k >= 0")
    if k == 0:
        return trivial_group(label or "1")
    degree = p * k
    gens = []
    for i in range(k):
        cyc = tuple(range(i * p, (i + 1) * p))
        gens.append(perm_from_cycles(degree, [cyc]))
    return FiniteGroup(degree, gens, label or f"E({p}^{k})")


def direct_product(g, h, label=None):
    """Direct product acting on the disjoint union of the two domains."""
    lift_g, lift_h = pair_embeddings(g, h)
    gens = [lift_g(p) for p in g.generators] + [lift_h(p) for p in h.generators]
    out = FiniteGroup(g.degree + h.degree, gens, label or f"{g.label}x{h.label}")
    out._order = g.order() * h.order()
    return out


def pair_embeddings(g, h):
    """The two canonical injections of g, h into their direct product."""
    d = g.degree + h.degree
    return (partial(place_block, off=0, degree=d),
            partial(place_block, off=g.degree, degree=d))


def semidirect(p_group, q_group, twist, label=None):
    """Semidirect product P x| Q from a twist table q-perm -> (P automorphism).

    The twist maps each element of Q to a dict sending P-elements to
    P-elements; it must be an action of Q on P by automorphisms (validated
    by the caller, e.g. catalog.construct). Realized on the disjoint union
    of P's element list and Q's domain, which is always faithful.
    """
    p_elems = p_group.sorted_elements()
    p_index = {e: i for i, e in enumerate(p_elems)}
    np = len(p_elems)
    degree = np + q_group.degree

    def embed(p, q):
        # point x in P goes to twist(q)^{-1}(x * p); Q-block moves by q
        back = twist_inverse(twist, q)
        img = [0] * degree
        for x, i in p_index.items():
            img[i] = p_index[back[mul(x, p)]]
        for j in range(q_group.degree):
            img[np + j] = np + q[j]
        return tuple(img)

    def twist_inverse(tw, q):
        fwd = tw[q]
        return {v: k for k, v in fwd.items()}

    gens = [embed(p, q_group.identity) for p in p_group.generators]
    gens += [embed(p_group.identity, q) for q in q_group.generators]
    out = FiniteGroup(degree, gens, label or f"{p_group.label}:{q_group.label}")
    out._order = p_group.order() * q_group.order()
    return out


# -- structure operations ----------------------------------------------------


def central_subgroup_of_order_p(g, p=None, bound=None):
    """An order-p subgroup inside the computed center; p defaults to the
    smallest prime dividing |G|.

    The center is computed directly rather than trusted from a nilpotency
    claim; absence of an order-p central element is reported as a refuted
    hypothesis.
    """
    # order 1 has no prime factor: 2 stands in and is refused below
    p = p or (prime_factors(g.order()) + [2])[0]
    if g.order() % p:
        raise HypothesisError(f"{p} does not divide |{g.label}| = {g.order()}")
    z = g.center(bound)
    orders = z.group.element_orders()
    for e in z.group.sorted_elements():
        o = orders[e]
        if o % p == 0:
            x = perm_pow(e, o // p)
            return Subgroup(g, members=closure([x]), label=f"Z_{p}")
    raise HypothesisError(
        f"no central element of order {p} in {g.label} (non-nilpotent input?)")


def normal_sylow(g, bound=None):
    """For square-free |G|: the Sylow subgroup for the largest prime p,
    generated by the elements of order p. It is refused unless it has
    order p; it is then the only Sylow p-subgroup, so it is normal."""
    n = g.order()
    primes = prime_factors(n)
    if len(set(primes)) != len(primes):
        raise HypothesisError(f"|{g.label}| = {n} is not square-free")
    p = max(primes, default=1)
    orders = g.element_orders(bound)
    p_elems = [e for e in g.elements(bound) if orders[e] == p]
    members = closure(p_elems, bound=bound or DEFAULT_BOUNDS.enum)
    if len(members) != p:
        raise HypothesisError(f"Sylow {p}-subgroup of {g.label} is not normal")
    return Subgroup(g, members=members, label=f"P{p}")


def prime_factors(n):
    """The prime factors of n >= 1, ascending, with multiplicity (none for
    n = 1), by one trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


SUBGROUP_CAP = 20000  # subgroups `all_subgroups` lists before giving up


def all_subgroups(g):
    """Every subgroup of g, as a list of Subgroups in a deterministic order.

    Breadth-first over one-generator extensions; intended for small groups
    (UndecidedError past `SUBGROUP_CAP` subgroups).
    """
    elems = g.sorted_elements()
    seen = {frozenset([g.identity])}
    queue = [frozenset([g.identity])]
    out = [frozenset([g.identity])]
    while queue:
        current = queue.pop(0)
        for e in elems:
            if e in current:
                continue
            new = closure(list(current) + [e])
            if new not in seen:
                seen.add(new)
                out.append(new)
                queue.append(new)
                if len(out) > SUBGROUP_CAP:
                    raise UndecidedError(
                        f"subgroup enumeration of {g.label} exceeded "
                        f"{SUBGROUP_CAP}")
    out.sort(key=lambda s: (len(s), sorted(s)))
    return [Subgroup(g, members=s) for s in out]


def cyclic_normal_subgroup_of_order(g, m):
    """First (canonical) cyclic normal subgroup of the given order, or None."""
    orders = g.element_orders()
    for e in g.sorted_elements():
        if orders[e] == m:
            sub = Subgroup(g, members=closure([e]), label=f"<{m}>")
            if sub.is_normal():
                return sub
    return None
