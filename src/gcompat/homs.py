"""Homomorphisms between permutation-realized finite groups.

A Homomorphism carries a total element table whenever its source is
enumerable (built by Cayley-graph propagation from generator images), and
may instead carry a rule (callable) for maps out of generator-based groups.
Validation of the table form checks every Cayley edge f(x*s) = f(x)f(s),
which proves the homomorphism law for the whole table by induction on word
length; rule-backed maps are checked on generator pairs plus random samples.
Table checks run on element indices: the source's Cayley graph gives x*s
as int columns, the table's distinct values are multiplied once per
generator, and both sides of the law are compared as int lists; the pair
check of tiny sources reads x*y off the graph's spanning tree.
"""

from __future__ import annotations

import random

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup, cayley_graph
from .perms import closure, identity_perm, mul


class Homomorphism:
    """A structure-preserving map, total on the source's elements."""

    def __init__(self, source, target, *, table=None, rule=None, label="f",
                 check=True):
        if table is None and rule is None:
            raise ValueError("need a table or a rule")
        self.source = source
        self.target = target
        self.label = label
        self._table = dict(table) if table is not None else None
        self._rule = rule
        if check and self._table is not None:
            self.check_table_edges()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_gen_images(cls, source, target, images, label="f"):
        """Propagate generator images over the source's Cayley graph.

        `images`: dict source-generator -> target element (or pair list).
        Raises HypothesisError if the assignment is inconsistent, i.e. does
        not extend to a homomorphism.
        """
        if not isinstance(images, dict):
            images = dict(images)
        for g in source.generators:
            if g not in images:
                raise ValueError("missing image for a generator")
        table = extend_images(list(images.items()), source.identity,
                              target.identity)
        if table is None:
            raise HypothesisError(
                f"{label}: generator images are not consistent")
        return cls(source, target, table=table, label=label, check=False)

    @classmethod
    def of_rule(cls, source, target, fn, label="f", tabulate=False):
        if tabulate:
            table = {x: fn(x) for x in source.elements()}
            return cls(source, target, table=table, label=label)
        return cls(source, target, rule=fn, label=label, check=False)

    @classmethod
    def identity(cls, group, label=None):
        return cls.of_rule(group, group, lambda x: x,
                           label=label or f"id_{group.label}")

    @classmethod
    def trivial(cls, source, target, label="0"):
        ident = target.identity
        return cls.of_rule(source, target, lambda x: ident, label=label)

    @classmethod
    def inclusion(cls, sub: Subgroup, label=None):
        return cls.of_rule(sub.group, sub.parent, lambda x: x,
                           label=label or "incl")

    # -- application -------------------------------------------------------

    def __call__(self, x):
        x = tuple(x)
        if self._table is not None:
            try:
                return self._table[x]
            except KeyError:
                raise ValueError(f"{self.label}: element not in source table")
        return self._rule(x)

    def tabulated(self):
        """Force a total table (source must be enumerable)."""
        if self._table is None:
            self._table = {x: self._rule(x) for x in self.source.elements()}
        return self._table

    def gen_images(self):
        return {g: self(g) for g in self.source.generators}

    # -- algebra -----------------------------------------------------------

    def then(self, other: "Homomorphism", label=None) -> "Homomorphism":
        """x -> other(self(x))."""
        if self.target.degree != other.source.degree:
            raise ValueError(
                f"compose mismatch: {self.label} lands in degree "
                f"{self.target.degree}, {other.label} starts at {other.source.degree}")
        name = label or f"{other.label}*{self.label}"
        if self._table is not None:
            table = {x: other(y) for x, y in self._table.items()}
            return Homomorphism(self.source, other.target, table=table,
                                label=name, check=False)
        return Homomorphism.of_rule(self.source, other.target,
                                    lambda x: other(self(x)), label=name)

    def restrict(self, sub: Subgroup, target_sub: Subgroup, label=None):
        """Restriction to sub, landing in target_sub; containment is checked."""
        for x in sub.group.generators + (sub.group.identity,):
            if not target_sub.contains(self(x)):
                raise HypothesisError(
                    f"{self.label}: image of restriction not inside target")
        name = label or f"{self.label}|"
        if self._table is not None and sub.group.is_enumerable():
            table = {x: self(x) for x in sub.members()}
            return Homomorphism(sub.group, target_sub.group, table=table,
                                label=name, check=False)
        return Homomorphism.of_rule(sub.group, target_sub.group, self, label=name)

    def inverse(self, label=None):
        """Inverse of a bijective homomorphism (source enumerable)."""
        table = self.tabulated()
        back = {}
        for x, y in table.items():
            if y in back:
                raise HypothesisError(f"{self.label} is not injective")
            back[y] = x
        if len(back) != self.target.order():
            raise HypothesisError(f"{self.label} is not surjective")
        return Homomorphism(self.target, self.source, table=back,
                            label=label or f"{self.label}^-1", check=False)

    # -- kernels and images --------------------------------------------------

    def kernel(self) -> Subgroup:
        if not self.source.is_enumerable():
            raise UndecidedError(
                f"kernel of {self.label}: source not enumerable")
        ident = self.target.identity
        members = [x for x in self.source.elements() if self(x) == ident]
        return Subgroup(self.source, members=members,
                        label=f"ker({self.label})")

    def image(self) -> Subgroup:
        gens = [self(g) for g in self.source.generators]
        return Subgroup(self.target, gens=gens or None,
                        members=None if gens else [self.target.identity],
                        label=f"im({self.label})")

    def is_surjective(self):
        return self.image().order() == self.target.order()

    def is_bijective(self):
        return (self.source.order() == self.target.order()
                and self.is_surjective())

    def fibers(self):
        """target element -> sorted list of preimages (source enumerable)."""
        out = {}
        for x in self.source.sorted_elements():
            out.setdefault(self(x), []).append(x)
        return out

    def preimage(self, members) -> Subgroup:
        wanted = frozenset(tuple(m) for m in members)
        elems = [x for x in self.source.elements() if self(x) in wanted]
        return Subgroup(self.source, members=elems)

    def section(self):
        """Canonical transversal: target element -> minimal preimage."""
        return {y: xs[0] for y, xs in self.fibers().items()}

    # -- validation ----------------------------------------------------------

    def check_table_edges(self, pairs=False):
        """Check f(x*s) = f(x)f(s) on every Cayley edge of the source or,
        with `pairs`, f(x*y) = f(x)f(y) on all pairs, on element indices.
        Edges run over the source's kept graph if it has the table's size,
        else over the table's keys, which hold the whole source once they
        hold the identity and are closed under the generators. Pairs read
        x*y off a spanning tree of the source's graph: no multiplies there."""
        table = self._table
        if table.get(self.source.identity) != self.target.identity:
            raise HypothesisError(f"{self.label}: identity not preserved")
        graph = self.source.cayley() if pairs else self.source._cayley
        try:
            if graph is None or not pairs and len(graph[0]) != len(table):
                graph = cayley_graph(list(table), self.source.generators)
            images = list(map(table.__getitem__, graph[0]))
        except KeyError:
            raise HypothesisError(f"{self.label}: table not total") from None
        elems, gens, cols = graph
        number = {}  # the distinct image values, numbered as first seen
        f = [number.setdefault(v, len(number)) for v in images]
        values, right = list(number), {}
        for y, col in _pair_columns(cols, len(f)) if pairs else zip(gens, cols):
            b = f[y]
            if b not in right:  # number of v*f(y) for each value v, or -1
                right[b] = [number.get(mul(v, values[b]), -1) for v in values]
            if list(map(f.__getitem__, col)) != list(map(right[b].__getitem__, f)):
                raise HypothesisError(f"{self.label}: not a homomorphism")

    def validate(self, bounds=DEFAULT_BOUNDS, rng=None):
        """Re-check the homomorphism law; returns the number of checked pairs.

        Enumerable sources get the complete Cayley-edge check (plus a full
        pair loop when tiny); otherwise generator pairs and >= 10*|gens|
        random pairs are sampled.
        """
        if self.source.is_enumerable(bounds.enum):
            self.source.cayley(bounds.enum)  # kept, shared by maps out of it
            self.tabulated()
            self.check_table_edges()
            n = self.source.order()
            checked = n * max(1, len(self.source.generators))
            if n <= bounds.pair_check:
                self.check_table_edges(pairs=True)
                checked += n * n
            return checked
        rng = rng or random.Random(0)
        gens = self.source.generators
        for a in gens:
            for b in gens:
                if self(mul(a, b)) != mul(self(a), self(b)):
                    raise HypothesisError(f"{self.label}: not a homomorphism")
        samples = max(bounds.sample, 10 * len(gens))
        for _ in range(samples):
            x = self.source.random_element(rng)
            y = self.source.random_element(rng)
            if self(mul(x, y)) != mul(self(x), self(y)):
                raise HypothesisError(f"{self.label}: not a homomorphism")
        return len(gens) ** 2 + samples

    def table_equal(self, other):
        if self.source.degree != other.source.degree:
            return False
        mine = self.tabulated()
        return all(other(x) == y for x, y in mine.items())

    def __repr__(self):
        return (f"Homomorphism({self.label!r}: {self.source.label} -> "
                f"{self.target.label})")


# -- free functions matching the usual vocabulary -----------------------------


def extend_images(pairs, source_identity, target_identity):
    """Extend (generator, image) pairs over the source's Cayley graph.

    Returns the table x -> f(x), or None when two paths to one element
    give different images, i.e. the pairs define no homomorphism.
    """
    table = {source_identity: target_identity}
    reached = [source_identity]
    for x in reached:  # grows while it is scanned
        fx = table[x]
        for g, fg in pairs:
            y = mul(x, g)
            fy = mul(fx, fg)
            old = table.get(y)
            if old is None:
                table[y] = fy
                reached.append(y)
            elif old != fy:
                return None
    return table


def _pair_columns(cols, n):
    """(y, column x -> x*y) for every element index y < n, grown over a
    breadth-first spanning tree by x*(z*s) = (x*z)*s: no multiplies."""
    rows = [list(range(n))] + [None] * (n - 1)
    reached = [0]
    for z in reached:  # grows while it is scanned
        yield z, rows[z]
        for col in cols:
            y = col[z]
            if rows[y] is None:
                rows[y] = list(map(col.__getitem__, rows[z]))
                reached.append(y)


def kernel(f: Homomorphism) -> Subgroup:
    return f.kernel()


def image(f: Homomorphism) -> Subgroup:
    return f.image()


def compose(f: Homomorphism, g: Homomorphism, label=None) -> Homomorphism:
    """Mathematical composition f o g (apply g first)."""
    return g.then(f, label=label)


def restrict(f: Homomorphism, sub: Subgroup, target_sub: Subgroup,
             label=None) -> Homomorphism:
    return f.restrict(sub, target_sub, label=label)


def action_on_cosets(g: FiniteGroup, n: Subgroup, reps=None, label=None):
    """The right-multiplication action of g on the right cosets of n.

    Points are numbered by `reps` (one element of each coset) when given,
    else by the cosets' least elements in canonical order. Only the
    generators' point permutations are computed. The rest of the table is
    read off the induced group when the action is regular (n normal), and
    propagated over g's Cayley graph otherwise; it keeps g's canonical
    element order. Returns (reps, rho), rho mapping g onto the induced
    group `label`.
    """
    if not (n <= g):
        raise HypothesisError(
            f"{n.group.label} is not a subgroup of {g.label}")
    elems = g.sorted_elements()
    coset_of, least = {}, []
    for e in elems:
        if e not in coset_of:
            coset_of.update((mul(x, e), len(least)) for x in n.members())
            least.append(e)
    if reps is None:
        reps, point = least, range(len(least))
    else:
        reps = [tuple(r) for r in reps]
        point = {coset_of[r]: i for i, r in enumerate(reps)}
        if len(point) != len(reps):
            raise HypothesisError("representatives repeat a coset")
        if len(reps) != len(least):
            raise HypothesisError("representatives do not cover the cosets")
    gens = g.generators
    images = [tuple(point[coset_of[mul(r, s)]] for r in reps) for s in gens]
    ident = identity_perm(len(reps))
    image = closure(images, seed=[ident])
    if len(image) == len(reps):
        # a regular action (n is normal in g): x acts as the one element of
        # the image that takes the identity's coset to the coset of x
        start = point[coset_of[g.identity]]
        moved = {q[start]: q for q in image}
        table = {e: moved[point[coset_of[e]]] for e in elems}
    else:
        table = extend_images(list(zip(gens, images)), g.identity, ident)
        table = {e: table[e] for e in elems}
    target = FiniteGroup(len(reps), images, label or f"{g.label}-cosets",
                         elements=image)
    return reps, Homomorphism(g, target, table=table, label="rho", check=False)


def quotient(g: FiniteGroup, n: Subgroup, label=None):
    """Quotient by a normal subgroup via the right-coset action.

    Returns (Q, pi) where Q acts faithfully on the coset space and pi is the
    canonical surjection with kernel exactly n.
    """
    if not n.is_normal():
        raise HypothesisError(f"{n.group.label} is not normal in {g.label}")
    name = label or f"{g.label}/{n.group.label}"
    _, pi = action_on_cosets(g, n, label=name)
    pi.label = f"pi_{name}"
    return pi.target, pi


def direct_product_with_maps(g, h, label=None):
    """Direct product plus injections and projections as homomorphisms."""
    from .groups import direct_product, pair_embeddings

    prod = direct_product(g, h, label)
    lift_g, lift_h = pair_embeddings(g, h, prod)
    inj_g = Homomorphism.of_rule(g, prod, lambda p: lift_g(p), label="inj1")
    inj_h = Homomorphism.of_rule(h, prod, lambda p: lift_h(p), label="inj2")

    def proj_g(p):
        return tuple(p[:g.degree])

    def proj_h(p):
        return tuple(x - g.degree for x in p[g.degree:])

    pr_g = Homomorphism.of_rule(prod, g, proj_g, label="pr1")
    pr_h = Homomorphism.of_rule(prod, h, proj_h, label="pr2")
    return prod, inj_g, inj_h, pr_g, pr_h
