"""Homomorphisms between permutation-realized finite groups.

A Homomorphism carries a total element table whenever its source is
enumerable, and may instead carry a rule (callable) for maps out of
generator-based groups. The homomorphism law f(x*s) = f(x)f(s) has one
check, `check_table_edges`, over one graph, the source's kept Cayley graph
(`FiniteGroup.cayley`): every edge checked proves the law for the whole
table by induction on word length, and a table keyed by anything but the
source's elements is not total. A computed table has one source, its
generator images, which `from_gen_images` propagates along a spanning
tree of that graph and proves there: coset actions, series maps, twisted
branch maps, standard embeddings, inner automorphisms and the isomorphism
search all build their tables that way. A certificate's table is proved
by the verifier, and `then`, `restrict` and `inverse` derive tables from
proved ones. `validate` proves a map by its form, sampling nothing: a
block map by its block, which every generator must keep, a held table by
its edges, and a rule by its tabulation's edges within the enumeration
bound or by its graph chain past it.
The check runs on element indices: the graph gives x*s as int columns,
the table's distinct values are multiplied by each generator's image in
one batch product (`perms.right_products`), and both sides of the law are
compared as int lists.

A rule map's generator images are proved by its graph chain
(`graph_chain`), the stabilizer chain of <(f(g), g)> with the target's
base first: its order is |source| exactly when the images define a
homomorphism, and `graph_orders` reads |im f| and |ker f| off it. Sifting
through the prefix inverts a bijection, so `inverse()` of a rule map is a
rule and tabulates nothing (Holt, Eick and O'Brien 2005, section 3.3; Sims
1970); a table map's inverse flips its table.

A block map projects a group acting on a disjoint union of domains (a
direct product or an inverse limit) onto the block of points at one
offset, and records that offset as `offset` (None on any other map).
Block projections compose by offset arithmetic: block(b) after block(a)
is the block at offset a + b, so `then` fuses a chain of them into one
slice (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, section 2.1).

Kernels, preimages and canonical sections each come from one unsorted
pass over the source's elements (`preimage_members`, `section`): none of
them sorts the source, and a section sorts only its |image| least
preimages, once, at the end. A block map compares raw slices and decodes
nothing, and a composite from `then` recurses into its two maps. Nothing
reads them at verify time: a hand-built composition lifts its
extendability evidence through preimages once, when it is composed
(`witness.lifted_evidence`), and the `ker-p{d}-matches` check of
`witness.verify_witness` evaluates the map on the kernel's generators only
(Holt, Eick and O'Brien 2005, section 3.3).
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from math import prod
from operator import itemgetter
from types import MappingProxyType

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup
from .perms import (
    StabilizerChain,
    closure,
    decode_block,
    encoding,
    identity_perm,
    inv,
    mul,
    right_products,
)


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
        self.offset = None    # a block map's first point (`block`)
        self._then = None     # (inner, outer) of a rule composite from `then`
        self._kernel = None   # memo of kernel()
        self._graph = None    # memo of graph_chain()
        if check and self._table is not None:
            self.check_table_edges()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_gen_images(cls, source, target, images, label="f"):
        """Propagate generator images along a spanning tree of the source's
        Cayley graph (`source.cayley()`), one product per element, and prove
        the table with `check_table_edges`, the one check of the law.

        `images`: dict source-generator -> target element (or pair list).
        Raises HypothesisError if the assignment is inconsistent, i.e. does
        not extend to a homomorphism.
        """
        if not isinstance(images, dict):
            images = dict(images)
        for g in source.generators:
            if g not in images:
                raise ValueError("missing image for a generator")
        elems, gens, cols = source.cayley()
        steps = [(col, images[elems[s]]) for s, col in zip(gens, cols)]
        values = [None] * len(elems)
        values[0] = target.identity  # the identity sorts first
        reached = [0]
        for i in reached:  # grows while it is scanned
            for col, image in steps:
                j = col[i]
                if values[j] is None:
                    values[j] = mul(values[i], image)
                    reached.append(j)
        out = cls(source, target, table=dict(zip(elems, values)),
                  label=label, check=False)
        try:
            out.check_table_edges()
        except HypothesisError:
            raise HypothesisError(
                f"{label}: generator images are not consistent") from None
        return out

    @classmethod
    def of_rule(cls, source, target, fn, label="f"):
        return cls(source, target, rule=fn, label=label, check=False)

    @classmethod
    def block(cls, source, target, off, label="f"):
        """The projection of `source` onto its points off..off+deg-1,
        shifted down to `target`'s points 0..deg-1 (deg = target.degree)."""
        deg = target.degree
        if off + deg > source.degree:
            raise ValueError(
                f"{label}: block at {off} of degree {deg} overruns degree "
                f"{source.degree}")
        out = cls(source, target, rule=partial(decode_block, off=off, deg=deg),
                  label=label, check=False)
        out.offset = off
        return out

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

    @property
    def table(self):
        """A read-only view of the map's table; None for a rule map."""
        return None if self._table is None else MappingProxyType(self._table)

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
        """Force a total table (source must be enumerable). The table is
        kept on the map, so later `then`, `restrict` and `preimage_members`
        calls treat the map as a table map."""
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
        a, b = self.offset, other.offset
        if a is not None and b is not None:
            return Homomorphism.block(self.source, other.target, a + b, name)
        if self._table is not None:
            table = {x: other(y) for x, y in self._table.items()}
            return Homomorphism(self.source, other.target, table=table,
                                label=name, check=False)
        out = Homomorphism.of_rule(self.source, other.target,
                                   lambda x: other(self(x)), label=name)
        out._then = (self, other)
        return out

    def restrict(self, sub: Subgroup, target_sub: Subgroup, label=None):
        """Restriction to sub, landing in target_sub; containment is checked."""
        for x in sub.group.generators + (sub.group.identity,):
            if not target_sub.contains(self(x)):
                raise HypothesisError(
                    f"{self.label}: image of restriction not inside target")
        name = label or f"{self.label}|"
        if self._table is not None and sub.group.can_enumerate():
            table = {x: self(x) for x in sub.members()}
            return Homomorphism(sub.group, target_sub.group, table=table,
                                label=name, check=False)
        return Homomorphism.of_rule(sub.group, target_sub.group, self, label=name)

    def inverse(self, label=None):
        """Inverse of a bijective homomorphism. A table map flips its
        table. A rule map is proved a bijective homomorphism by its graph
        chain (`graph_chain`) and inverted by sifting through it, at any
        size and with nothing tabulated: the orders it reads off the chain
        (`graph_orders`) are |im f| = |target| and |ker f| = 1. Sifting
        (y, 1) through those levels leaves (1, x^-1) with f(x) = y; a y
        outside the image leaves a nontrivial target part and raises
        ValueError."""
        name = label or f"{self.label}^-1"
        if self._table is None:
            image, kernel = self.graph_orders()
            if kernel != 1:
                raise HypothesisError(f"{self.label} is not injective")
            if image != self.target.order():
                raise HypothesisError(f"{self.label} is not surjective")
            sift = partial(_sift_back, self.graph_chain(),
                           self.target.degree, name)
            return Homomorphism.of_rule(self.target, self.source, sift,
                                        label=name)
        table = self._table
        back = {}
        for x, y in table.items():
            if y in back:
                raise HypothesisError(f"{self.label} is not injective")
            back[y] = x
        if len(back) != self.target.order():
            raise HypothesisError(f"{self.label} is not surjective")
        return Homomorphism(self.target, self.source, table=back,
                            label=name, check=False)

    # -- kernels and images --------------------------------------------------

    def _closed_source(self, what, bound):
        """Close the source's elements for `what` ("kernel", "section")
        under `bound` (default `DEFAULT_BOUNDS.enum`), which a refusal
        names; a source whose elements were already closed under a larger
        bound is read (`FiniteGroup.can_enumerate`). Returns the bound."""
        limit = bound if bound is not None else DEFAULT_BOUNDS.enum
        if not self.source.can_enumerate(limit):
            raise UndecidedError(
                f"{what} of {self.label}: source not enumerable (order "
                f"{self.source.order()}, past the enumeration bound "
                f"{limit})")
        self.source.elements(limit)
        return limit

    def kernel(self, bound=None) -> Subgroup:
        """The preimage of the identity, kept on the map. A composite from
        `then` whose outer map has a trivial kernel returns the inner map's
        kernel Subgroup itself. The source is closed under `bound`
        (`_closed_source`)."""
        if self._kernel is None:
            limit = self._closed_source("kernel", bound)
            if self._then is not None and \
                    self._then[1].kernel(limit).order() == 1:
                self._kernel = self._then[0].kernel(limit)
            else:
                self._kernel = Subgroup(
                    self.source,
                    members=self.preimage_members([self.target.identity]),
                    label=f"ker({self.label})")
        return self._kernel

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

    def preimage_members(self, members) -> frozenset:
        """The elements mapped into `members`, from one pass over the
        source: a plain set, with no Subgroup and no generating set built.
        A composite from `then` pulls `members` back through its outer map,
        then its inner map; a block map compares raw slices, shifted up by
        its offset, and decodes nothing; a table map filters its items."""
        if self._then is not None:
            inner, outer = self._then
            return inner.preimage_members(outer.preimage_members(members))
        off = self.offset
        if off is not None:
            end = off + self.target.degree
            wanted = {tuple([v + off for v in m]) for m in members}
            return frozenset(x for x in self.source.elements()
                             if x[off:end] in wanted)
        wanted = set(map(tuple, members))
        if self._table is not None:
            return frozenset(x for x, y in self._table.items() if y in wanted)
        return frozenset(x for x in self.source.elements()
                         if self(x) in wanted)

    def preimage(self, members) -> Subgroup:
        """The preimage of `members` (a subgroup's elements) as a Subgroup
        (`preimage_members`)."""
        return Subgroup(self.source, members=self.preimage_members(members))

    def section(self, bound=None):
        """Canonical transversal: target element -> least preimage, keyed
        in the order of those preimages (Butler 1991's least coset
        representatives). One unsorted pass over the source's elements,
        closed under `bound` (`_closed_source`), keeps the least element
        per value, keyed by raw slice on a block map and by f(x) on any
        other; the |image| entries are then ordered by their preimages.
        A composite from `then` takes, for each outer value, the least of
        its inner section's values over it."""
        if self._then is not None:
            inner, outer = self._then
            out = {}
            for y, x in inner.section(bound).items():  # x increasing
                out.setdefault(outer(y), x)
            return out
        self._closed_source("section", bound)
        off = self.offset
        if off is None:
            key = self
        else:
            key = itemgetter(slice(off, off + self.target.degree))
        least = {}
        for x in self.source.elements():
            k = key(x)
            y = least.get(k)
            if y is None or x < y:
                least[k] = x
        out = sorted(least.items(), key=itemgetter(1))
        if off is None:
            return dict(out)
        return {tuple([v - off for v in k]): x for k, x in out}

    # -- validation ----------------------------------------------------------

    def check_table_edges(self):
        """Check f(x*s) = f(x)f(s) on every edge of the source's kept Cayley
        graph (`source.cayley`), on element indices: by induction on word
        length, the homomorphism law for the whole table. This is the one
        check of the law: a table from generator images (`from_gen_images`)
        or a certificate file is proved here, at every bound: the source
        closes under the table's size. Keys that are not the source's
        elements make the table not total."""
        table = self.tabulated()
        if table.get(self.source.identity) != self.target.identity:
            raise HypothesisError(f"{self.label}: identity not preserved")
        if len(table) != self.source.order():  # no enumeration needed
            raise HypothesisError(f"{self.label}: table not total")
        elems, gens, cols = self.source.cayley(len(table))
        try:
            images = list(map(table.__getitem__, elems))
        except KeyError:
            raise HypothesisError(f"{self.label}: table not total") from None
        number = {}  # the distinct image values, numbered as first seen
        f = [number.setdefault(v, len(number)) for v in images]
        encode = encoding(self.target.degree)[0]
        try:
            # a value that is no permutation of the target's points may fail
            # to encode (ValueError) or to multiply (IndexError); it is no
            # homomorphism's value either way
            codes = list(map(encode, number))
            coded = dict(zip(codes, range(len(codes))))
            # per generator image b: the number of v*b for each value v, or -1
            right = {b: list(map(coded.get, right_products(codes, codes[b]),
                                 repeat(-1)))
                     for b in {f[s] for s in gens}}
        except (ValueError, IndexError):
            right = None
        if right is None or any(
                list(map(f.__getitem__, col)) !=
                list(map(right[f[s]].__getitem__, f))
                for s, col in zip(gens, cols)):
            raise HypothesisError(f"{self.label}: not a homomorphism")

    def validate(self, bounds=DEFAULT_BOUNDS):
        """Prove the homomorphism law; returns the number of checks made.

        A block map is proved from its block: restriction to a block that
        every generator keeps is a homomorphism, so each generator must keep
        the block and send its image into the target (|gens| checks, nothing
        tabulated). A held table gets the complete Cayley-edge check at every
        bound, and a rule out of a source within `bounds.enum` gets it on its
        tabulation. Any other rule is proved by its graph chain, of order
        |source|.
        """
        gens = self.source.generators
        off = self.offset
        if off is not None:
            end = off + self.target.degree
            for g in gens:
                block = g[off:end]
                if min(block) < off or max(block) >= end:
                    raise HypothesisError(
                        f"{self.label}: a generator moves a point of block "
                        f"{off}..{end - 1} out of it")
                if not self.target.contains(self(g)):
                    raise HypothesisError(
                        f"{self.label}: a generator's block image is not in "
                        "the target")
            return len(gens)
        if self.source.is_enumerable(bounds.enum):
            self.source.cayley(bounds.enum)  # kept, shared by maps out of it
        elif self._table is None:
            return self.graph_chain().order
        self.check_table_edges()
        return len(self._table) * max(1, len(gens))

    def graph_chain(self):
        """The stabilizer chain of the graph <(f(g), g)> over the source's
        generators g, on the target's points followed by the source's,
        kept on the map. The graph projects onto the source, injectively
        iff its order is |source|: then, and only then, the generator
        images define a homomorphism (Holt, Eick and O'Brien 2005, section
        3.3; Sims 1970), and anything else is refused. Then every f(g)
        must lie in the target, or the map is refused as well. The chain's
        base starts with the base of the target's own chain
        (`StabilizerChain`'s prefix)."""
        if self._graph is None:
            source, target = self.source, self.target
            images = [self(g) for g in source.generators]
            shift = target.degree
            graph = StabilizerChain(
                shift + source.degree,
                [y + tuple(x + shift for x in g)
                 for g, y in zip(source.generators, images)],
                base=target.chain().base)
            if graph.order != source.order():
                raise HypothesisError(
                    f"{self.label}: generator graph has order {graph.order}, "
                    f"not the source's {source.order()}")
            if not all(map(target.contains, images)):
                raise HypothesisError(
                    f"{self.label}: a generator's image is not in the target")
            self._graph = graph
        return self._graph

    def graph_orders(self):
        """(|im f|, |ker f|) off the graph chain (`graph_chain`). An element
        of the target fixing its base is 1, so the levels past that prefix
        are the graph's elements (1, k), k in ker f, and the prefix levels'
        orbits multiply to |im f|."""
        orbits = list(map(len, self.graph_chain().orbits))
        cut = len(self.target.chain().base)
        return prod(orbits[:cut]), prod(orbits[cut:])

    def __repr__(self):
        return (f"Homomorphism({self.label!r}: {self.source.label} -> "
                f"{self.target.label})")


def _sift_back(graph, degree, label, y):
    """x with f(x) = y, from the graph chain of a bijective f whose target
    has `degree` points (`Homomorphism.inverse`): (y, 1) sifts to
    (1, x^-1). ValueError when y is not in the target."""
    y = tuple(y)
    if len(y) != degree or min(y) < 0:
        raise ValueError(f"{label}: element not in source")
    try:
        r, level = graph._strip(y + tuple(range(degree, graph.degree)))
    except IndexError:
        raise ValueError(f"{label}: element not in source") from None
    if level != len(graph.base) or r[:degree] != tuple(range(degree)):
        raise ValueError(f"{label}: element not in source")
    return inv(decode_block(r, degree, graph.degree - degree))


# -- free functions matching the usual vocabulary -----------------------------


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
    generators' point permutations are computed; the table is propagated
    from those images and proved by `Homomorphism.from_gen_images`, in g's
    canonical element order.
    Returns (reps, rho), rho mapping g onto the induced group `label`.
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
    # the image's elements, kept so that its order takes no stabilizer chain
    target = FiniteGroup(len(reps), images, label or f"{g.label}-cosets",
                         elements=closure(images or [identity_perm(len(reps))]))
    return reps, Homomorphism.from_gen_images(
        g, target, dict(zip(gens, images)), label="rho")


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
    lift_g, lift_h = pair_embeddings(g, h)
    inj_g = Homomorphism.of_rule(g, prod, lift_g, label="inj1")
    inj_h = Homomorphism.of_rule(h, prod, lift_h, label="inj2")
    pr_g = Homomorphism.block(prod, g, 0, label="pr1")
    pr_h = Homomorphism.block(prod, h, g.degree, label="pr2")
    return prod, inj_g, inj_h, pr_g, pr_h
