"""Homomorphisms between permutation-realized finite groups.

A Homomorphism carries a total element table whenever its source is
enumerable (built by Cayley-graph propagation from generator images), and
may instead carry a rule (callable) for maps out of generator-based groups.
Validation of the table form checks every Cayley edge f(x*s) = f(x)f(s),
which proves the homomorphism law for the whole table by induction on word
length; a block map is proved from its block, which every generator must
keep, and any other rule out of a group past the enumeration bound is left
undecided rather than sampled.
Table checks run on element indices: the source's Cayley graph gives x*s
as int columns, the table's distinct values are multiplied once per
generator, and both sides of the law are compared as int lists.

A block map projects a group acting on a disjoint union of domains (a
direct product or an inverse limit) onto the block of points at one
offset, and records that offset as `offset` (None on any other map).
Block projections compose by offset arithmetic: block(b) after block(a)
is the block at offset a + b, so `then` fuses a chain of them into one
slice (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, section 2.1).

Each map makes one pass over its source's elements: `fibers()` is kept on
the map, and `kernel()`, `section()` and `preimage()` read it. Nothing
reads these memos at verify time: a hand-built composition lifts its
extendability evidence through the fibers once, when it is composed
(`witness.lifted_evidence`), and the `ker-p{d}-matches` check of
`witness.verify_witness` evaluates the map on the kernel's generators
only (Holt, Eick and O'Brien 2005, section 3.3).
"""

from __future__ import annotations

from functools import partial
from itertools import chain

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup, cayley_graph
from .perms import closure, decode_block, identity_perm, mul


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
        self._fibers = None   # memo of fibers(); read by kernel, section, ...
        self._kernel = None   # memo of kernel()
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

    def kernel(self, bound=None) -> Subgroup:
        """The kernel: the identity's fiber, read off `fibers()` on the
        first call; later calls return the same Subgroup, so the callers
        that need the kernel of one map share it. A rule composite whose
        identity fiber is its inner map's, unmerged (the outer map sends
        no other inner value to the identity), returns the inner map's
        kernel Subgroup itself. `verify_witness` never reads this memo: its
        `ker-p{d}-matches` check evaluates the map on the certificate
        kernel's generators. The source is closed under `bound` (default
        `DEFAULT_BOUNDS.enum`), and a refusal names it; a source whose
        elements were already closed under a larger bound is read
        (`FiniteGroup.can_enumerate`)."""
        if self._kernel is None:
            limit = bound if bound is not None else DEFAULT_BOUNDS.enum
            if not self.source.can_enumerate(limit):
                raise UndecidedError(
                    f"kernel of {self.label}: source not enumerable (order "
                    f"{self.source.order()}, past the enumeration bound "
                    f"{limit})")
            self.source.elements(limit)
            members = self.fibers().get(self.target.identity, [])
            inner = self._then[0] if self._then is not None else None
            if inner is not None and \
                    members is inner.fibers().get(inner.target.identity):
                self._kernel = inner.kernel(limit)
            else:
                self._kernel = Subgroup(self.source, members=members,
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

    def fibers(self):
        """Target element -> sorted list of its preimages, the keys in the
        order of their least preimage (source enumerable).

        Computed in one pass on the first call and kept: a block map groups
        the sorted elements by their raw slice and decodes each slice once;
        a rule composite from `then` regroups its inner map's fibers by the
        outer map's value, with one sort per merged fiber; any other map
        evaluates itself once per element. `kernel()`, `section()` and
        `preimage()` read the memo; nothing reads it at verify time. The
        dict and its lists are shared with every caller: read them, never
        change them."""
        if self._fibers is None:
            off = self.offset
            if self._then is not None:
                inner, outer = self._then
                merged = {}
                for y, xs in inner.fibers().items():
                    merged.setdefault(outer(y), []).append(xs)
                fibers = {z: parts[0] if len(parts) == 1
                          else sorted(chain.from_iterable(parts))
                          for z, parts in merged.items()}
            elif off is not None:
                end = off + self.target.degree
                slices = {}
                for x in self.source.sorted_elements():
                    key = x[off:end]
                    fiber = slices.get(key)
                    if fiber is None:
                        slices[key] = [x]
                    else:
                        fiber.append(x)
                fibers = {tuple([v - off for v in key]): xs
                          for key, xs in slices.items()}
            else:
                fibers = {}
                for x in self.source.sorted_elements():
                    fibers.setdefault(self(x), []).append(x)
            self._fibers = fibers
        return self._fibers

    def preimage_members(self, members) -> frozenset:
        """The elements mapped into `members`, as the union of their kept
        fibers: a plain set, with no Subgroup and no generating set built.
        The builders and `witness.lifted_evidence` read it, when a
        witness is built or composed; nothing reads it at verify time."""
        fibers = self.fibers()
        return frozenset(chain.from_iterable(
            fibers.get(tuple(m), ()) for m in members))

    def preimage(self, members) -> Subgroup:
        """The preimage of `members` (a subgroup's elements) as a Subgroup,
        its elements read off the kept `fibers()` (`preimage_members`). The
        series builders call it; at verify time nothing does, and
        `ker-p{d}-matches` in `verify_witness` never reads the memo behind
        it."""
        return Subgroup(self.source, members=self.preimage_members(members))

    def section(self):
        """Canonical transversal: target element -> minimal preimage, read
        off `fibers()`."""
        return {y: xs[0] for y, xs in self.fibers().items()}

    # -- validation ----------------------------------------------------------

    def check_table_edges(self):
        """Check f(x*s) = f(x)f(s) on every Cayley edge of the source, on
        element indices: by induction on word length, the homomorphism law
        for the whole table. Edges run over the source's kept graph if it
        has the table's size, else over the table's keys, which hold the
        whole source once they hold the identity and are closed under the
        generators."""
        table = self.tabulated()
        if table.get(self.source.identity) != self.target.identity:
            raise HypothesisError(f"{self.label}: identity not preserved")
        graph = self.source._cayley
        try:
            if graph is None or len(graph[0]) != len(table):
                graph = cayley_graph(list(table), self.source.generators)
            images = list(map(table.__getitem__, graph[0]))
        except KeyError:
            raise HypothesisError(f"{self.label}: table not total") from None
        _, gens, cols = graph
        number = {}  # the distinct image values, numbered as first seen
        f = [number.setdefault(v, len(number)) for v in images]
        values, right = list(number), {}
        for s, col in zip(gens, cols):
            b = f[s]
            if b not in right:  # number of v*f(s) for each value v, or -1
                right[b] = [number.get(mul(v, values[b]), -1) for v in values]
            if list(map(f.__getitem__, col)) != list(map(right[b].__getitem__, f)):
                raise HypothesisError(f"{self.label}: not a homomorphism")

    def validate(self, bounds=DEFAULT_BOUNDS):
        """Prove the homomorphism law; returns the number of checks made.

        A block map is proved from its block: restriction to a block that
        every generator keeps is a homomorphism, so each generator must keep
        the block and send its image into the target (|gens| checks, nothing
        tabulated). A table map, or a map out of an enumerable source, gets
        the complete Cayley-edge check. Any other map raises
        UndecidedError: nothing is sampled.
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
        enumerable = self.source.is_enumerable(bounds.enum)
        if self._table is None and not enumerable:
            raise UndecidedError(
                f"{self.label}: rule map out of a source of order "
                f"{self.source.order()}, past the enumeration bound "
                f"{bounds.enum}; homomorphism not decided")
        if enumerable:
            self.source.cayley(bounds.enum)  # kept, shared by maps out of it
        n = len(self.tabulated())
        self.check_table_edges()
        return n * max(1, len(gens))

    def check_generator_graph(self):
        """Prove that the generator images define a homomorphism, whatever
        the source's order: the graph <(g, f(g))>, on the two domains side
        by side, projects onto the source, injectively iff its order is
        |source| (Holt, Eick and O'Brien 2005, section 3.3). Returns that
        order; the graph's chain decides it."""
        shift = self.source.degree
        graph = FiniteGroup(
            shift + self.target.degree,
            [g + tuple(x + shift for x in self(g))
             for g in self.source.generators], f"graph({self.label})")
        if graph.order() != self.source.order():
            raise HypothesisError(
                f"{self.label}: generator graph has order {graph.order()}, "
                f"not the source's {self.source.order()}")
        return graph.order()

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
    image = closure(images or [ident])
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
    lift_g, lift_h = pair_embeddings(g, h)
    inj_g = Homomorphism.of_rule(g, prod, lift_g, label="inj1")
    inj_h = Homomorphism.of_rule(h, prod, lift_h, label="inj2")
    pr_g = Homomorphism.block(prod, g, 0, label="pr1")
    pr_h = Homomorphism.block(prod, h, g.degree, label="pr2")
    return prod, inj_g, inj_h, pr_g, pr_h
