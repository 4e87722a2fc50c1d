"""Inverse systems of finite groups over finite posets, and their limits.

The limit is the coherent-tuple subgroup of the direct product, realized as
a permutation group on the disjoint union of the node domains (faithful
because each node realization is). Star-shaped surjective systems, the only
shape the witness construction needs, get structural generators so the
limit stays available past the enumeration bound.
"""

from __future__ import annotations

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import FiniteGroup, Subgroup, from_elements, trivial_group
from .homs import Homomorphism
from .perms import decode_block, place_block
from .posets import Poset, star_poset


class InverseSystem:
    """Groups on poset nodes with coherent downward transition maps.

    `maps` holds a Homomorphism X_j -> X_i for every strict pair i < j;
    transition(i, i) is the identity. Validation checks transition
    composition exhaustively on elements.
    """

    def __init__(self, poset: Poset, groups, maps, *, check=True):
        self.poset = poset
        self.groups = dict(groups)
        self.maps = {tuple(k): v for k, v in maps.items()}
        for n in poset.nodes:
            if n not in self.groups:
                raise ValueError(f"no group at node {n!r}")
        for (i, j) in poset.comparable_pairs():
            if (i, j) not in self.maps:
                raise ValueError(f"missing transition for {i!r} <= {j!r}")
        if check:
            self.validate()

    @classmethod
    def from_cover_maps(cls, poset: Poset, groups, cover_maps):
        """Fill composite transitions from cover maps (in-forest posets)."""
        if not poset.is_in_forest():
            raise HypothesisError("cover-map construction needs an in-forest poset")
        maps = {tuple(k): v for k, v in cover_maps.items()}
        order = poset.linear_extension()
        for j in order:
            covers = poset.lower_covers(j)
            if not covers:
                continue
            (c,) = covers
            for i in poset.nodes:
                if i in (j, c):
                    continue
                if poset.le(i, j) and (i, j) not in maps:
                    maps[(i, j)] = maps[(c, j)].then(maps[(i, c)])
        return cls(poset, groups, maps)

    def transition(self, i, j) -> Homomorphism:
        if i == j:
            return Homomorphism.identity(self.groups[i])
        return self.maps[(i, j)]

    def validate(self):
        for (i, j) in self.poset.comparable_pairs():
            f = self.maps[(i, j)]
            if f.source is not self.groups[j] or f.target is not self.groups[i]:
                if (f.source.degree != self.groups[j].degree
                        or f.target.degree != self.groups[i].degree):
                    raise ValueError(f"transition ({i},{j}) endpoint mismatch")
        for (i, j) in self.poset.comparable_pairs():
            for (j2, k) in self.poset.comparable_pairs():
                if j2 != j or not self.poset.le(i, j):
                    continue
                # i <= j <= k: composite must agree
                fij, fjk, fik = self.maps[(i, j)], self.maps[(j, k)], self.maps[(i, k)]
                for x in self.groups[k].elements():
                    if fij(fjk(x)) != fik(x):
                        raise HypothesisError(
                            f"transitions do not compose at {i} <= {j} <= {k}")

    def node_list(self):
        return list(self.poset.nodes)


class Subsystem:
    """Node-wise subgroups closed under the transitions."""

    def __init__(self, system: InverseSystem, subgroups, *, check=True):
        self.system = system
        self.subgroups = dict(subgroups)
        for n in system.poset.nodes:
            if n not in self.subgroups:
                raise ValueError(f"no subgroup at node {n!r}")
        if check:
            for (i, j) in system.poset.comparable_pairs():
                f = system.maps[(i, j)]
                yi, yj = self.subgroups[i], self.subgroups[j]
                for s in yj.group.generators + (yj.group.identity,):
                    if not yi.contains(f(s)):
                        raise HypothesisError(
                            f"subgroups not closed under transition ({i},{j})")

    def as_system(self) -> InverseSystem:
        groups = {n: s.group for n, s in self.subgroups.items()}
        maps = {}
        for (i, j) in self.system.poset.comparable_pairs():
            maps[(i, j)] = self.system.maps[(i, j)].restrict(
                self.subgroups[j], self.subgroups[i])
        return InverseSystem(self.system.poset, groups, maps, check=False)


class SystemMorphism:
    """Level maps source -> target over one poset, commuting with transitions."""

    def __init__(self, source: InverseSystem, target: InverseSystem,
                 level_map):
        if source.poset.nodes != target.poset.nodes:
            raise ValueError("systems live over different posets")
        self.source = source
        self.target = target
        self.level_map = dict(level_map)
        self.validate()

    def validate(self):
        for (i, j) in self.source.poset.comparable_pairs():
            f = self.source.maps[(i, j)]
            g = self.target.maps[(i, j)]
            phi_i, phi_j = self.level_map[i], self.level_map[j]
            for x in self.source.groups[j].elements():
                if g(phi_j(x)) != phi_i(f(x)):
                    raise HypothesisError(
                        f"level maps do not commute with transitions at ({i},{j})")


class LimitGroup:
    """The coherent-tuple group of a system, with its projections.

    Elements act block-diagonally on the disjoint union of node domains;
    encode/decode convert between node assignments and permutations.
    """

    def __init__(self, system: InverseSystem, group: FiniteGroup):
        self.system = system
        self.group = group
        self.node_order, self.offsets, self.degree = _layout(system)
        # the block maps hold only their offsets, not self, so a dropped
        # limit is freed at once rather than left as a cycle for the collector
        self.projections = {
            n: Homomorphism.block(group, system.groups[n], self.offsets[n],
                                  label=f"p_{n}")
            for n in self.node_order}

    def encode(self, assignment) -> tuple:
        """Concatenate the node values, each block shifted to its offset."""
        out = []
        for n in self.node_order:
            off = self.offsets[n]
            out.extend(map(off.__add__, assignment[n]) if off else assignment[n])
        return tuple(out)

    def place(self, node, value) -> tuple:
        """`value` at `node` and the identity at every other node, encoded."""
        return place_block(value, self.offsets[node], self.degree)

    def decode(self, perm, node) -> tuple:
        return decode_block(perm, self.offsets[node],
                            self.system.groups[node].degree)

    def decode_all(self, perm):
        return {n: self.decode(perm, n) for n in self.node_order}

    def projection(self, node) -> Homomorphism:
        return self.projections[node]

    def is_coherent(self, perm) -> bool:
        vals = self.decode_all(perm)
        for (i, j) in self.system.poset.comparable_pairs():
            if self.system.maps[(i, j)](vals[j]) != vals[i]:
                return False
        return True


def _layout(system):
    """node order, node -> offset of its block, and the limit's degree."""
    node_order = system.node_list()
    offsets, off = {}, 0
    for n in node_order:
        offsets[n] = off
        off += system.groups[n].degree
    return node_order, offsets, off


def limit(system: InverseSystem, bounds=DEFAULT_BOUNDS) -> LimitGroup:
    """Inverse limit by coherent-tuple enumeration (any finite poset).

    Nodes are processed minimal-first; partial assignments exceed the
    enumeration bound only by raising UndecidedError.
    """
    order = system.poset.linear_extension()
    fibers = {}
    for (i, j) in system.poset.comparable_pairs():
        fb = {}
        for x in system.groups[j].sorted_elements(bounds.enum):
            fb.setdefault(system.maps[(i, j)](x), []).append(x)
        fibers[(i, j)] = fb

    partials = [{}]
    for j in order:
        below = [i for i in order[:order.index(j)] if system.poset.le(i, j)]
        nxt = []
        elems_j = system.groups[j].sorted_elements(bounds.enum)
        for part in partials:
            if below:
                cands = fibers[(below[0], j)].get(part[below[0]], [])
                for i in below[1:]:
                    allowed = fibers[(i, j)].get(part[i])
                    if allowed is None:
                        cands = []
                        break
                    allowed = set(allowed)
                    cands = [x for x in cands if x in allowed]
            else:
                cands = elems_j
            for x in cands:
                new = dict(part)
                new[j] = x
                nxt.append(new)
                if len(nxt) > bounds.enum:
                    raise UndecidedError(
                        f"limit enumeration exceeded bound {bounds.enum}")
        partials = nxt

    lim = LimitGroupBuilder(system)
    elems = [lim.encode(part) for part in partials]
    return LimitGroup(system, from_elements(elems, label="lim"))


class LimitGroupBuilder:
    """The limit encoder before the limit group exists, for the constructors."""

    encode = LimitGroup.encode
    place = LimitGroup.place

    def __init__(self, system):
        self.system = system
        self.node_order, self.offsets, self.degree = _layout(system)


def star_system(root_group, branch_groups, branch_maps) -> InverseSystem:
    """System over a star poset: root "r" below branches 0..n-1."""
    n = len(branch_groups)
    poset = star_poset(n)
    groups = {"r": root_group}
    maps = {}
    for i, (bg, bm) in enumerate(zip(branch_groups, branch_maps)):
        groups[i] = bg
        maps[("r", i)] = bm
    return InverseSystem(poset, groups, maps)


def star_limit(system: InverseSystem, bounds=DEFAULT_BOUNDS) -> LimitGroup:
    """Limit of a surjective star system, built from generators at any size.

    The generators are coherent lifts of the root generators plus the
    branch-kernel generators placed at their branch, so they lie in the
    limit; the group they generate is the limit exactly when its order is
    |root| * prod |ker b|, which is checked (HypothesisError otherwise).
    The branch maps' sections and kernels close their sources under
    `bounds.enum`, and a branch past it is refused (UndecidedError).
    Within `bounds.enum` the group is closed once here and callers reuse
    its elements; past it, order and membership come from a stabilizer
    chain.
    """
    root = system.poset.minimal_nodes()
    if len(root) != 1:
        raise ValueError("not a star system")
    (root,) = root
    branches = [n for n in system.poset.nodes if n != root]
    if any(system.poset.le(a, b) for a in branches for b in branches if a != b):
        raise ValueError("not a star system")
    for b in branches:
        if not system.maps[(root, b)].is_surjective():
            raise HypothesisError("star limit requires surjective branch maps")

    builder = LimitGroupBuilder(system)
    rg = system.groups[root]
    sections = {b: system.maps[(root, b)].section(bounds.enum)
                for b in branches}
    kernels = {b: system.maps[(root, b)].kernel(bounds.enum)
               for b in branches}

    def lift(r):
        asg = {root: r}
        for b in branches:
            asg[b] = sections[b][r]
        return builder.encode(asg)

    gens = [lift(r) for r in rg.generators]
    for b in branches:
        gens.extend(builder.place(b, k) for k in kernels[b].group.generators)

    total = rg.order()
    for b in branches:
        total *= kernels[b].order()
    group = FiniteGroup(builder.degree, gens, label="lim")
    if total <= bounds.enum:
        # closed once under the caller's bound: the order check then needs
        # no stabilizer chain, and every later element scan reuses the set
        group.elements(bounds.enum)
    if group.order() != total:
        raise HypothesisError("star limit generator set has wrong order")

    out = LimitGroup(system, group)
    for g in gens:
        if not out.is_coherent(g):
            raise HypothesisError("star limit generator is not coherent")
    return out


def subsystem_limit(lim: LimitGroup, sub: Subsystem,
                    bounds=DEFAULT_BOUNDS) -> Subgroup:
    """Coherent tuples through the node subgroups, inside the given limit."""
    if sub.system is not lim.system:
        raise ValueError("subsystem belongs to a different system")
    sub_lim = limit(sub.as_system(), bounds)
    members = [lim.encode(sub_lim.decode_all(p))
               for p in sub_lim.group.elements()]
    return Subgroup(lim.group, members=members, label="sublim")


def preimage_system(phi: SystemMorphism, z: Subsystem) -> Subsystem:
    """Node-wise full preimages of a target subsystem."""
    if z.system is not phi.target:
        raise ValueError("subsystem does not live in the morphism target")
    subs = {}
    for n in phi.source.poset.nodes:
        wanted = z.subgroups[n].members()
        subs[n] = phi.level_map[n].preimage(wanted)
    return Subsystem(phi.source, subs)


def trivial_subsystem(system: InverseSystem) -> Subsystem:
    return Subsystem(system, {n: system.groups[n].trivial_subgroup()
                              for n in system.poset.nodes}, check=False)


def full_subsystem(system: InverseSystem) -> Subsystem:
    return Subsystem(system, {n: system.groups[n].full_subgroup()
                              for n in system.poset.nodes}, check=False)


def kernel_system(phi: SystemMorphism) -> Subsystem:
    return preimage_system(phi, trivial_subsystem(phi.target))


def limit_of_morphism(phi: SystemMorphism, source_limit=None, target_limit=None,
                      bounds=DEFAULT_BOUNDS):
    """Tuple-wise map between the limits, with the limits it connects."""
    ls = source_limit or limit(phi.source, bounds)
    lt = target_limit or limit(phi.target, bounds)

    def apply(p):
        vals = ls.decode_all(p)
        return lt.encode({n: phi.level_map[n](vals[n]) for n in ls.node_order})

    hom = Homomorphism.of_rule(ls.group, lt.group, apply, label="lim(phi)")
    return hom, ls, lt


def section_of_set_system(poset: Poset, sets, maps):
    """One coherent tuple of a surjective nonempty set system (in-forest).

    Built rank-stratified: free canonical choice at the roots, then lifting
    along each node's unique lower cover; transitions may be dicts or
    callables. Raises HypothesisError if a lift fails.
    """
    if not poset.is_in_forest():
        raise HypothesisError("in-forest poset required")
    sets = {n: list(v) for n, v in sets.items()}
    for n in poset.nodes:
        if not sets[n]:
            raise HypothesisError(f"empty fiber at node {n!r}")

    def apply(i, j, x):
        m = maps[(i, j)]
        return m[x] if isinstance(m, dict) else m(x)

    chosen = {}
    for n in sorted(poset.nodes, key=lambda i: (len(poset.downset(i)), str(i))):
        covers = poset.lower_covers(n)
        if not covers:
            chosen[n] = sorted(sets[n], key=str)[0]
            continue
        (c,) = covers
        pre = [x for x in sets[n] if apply(c, n, x) == chosen[c]]
        if not pre:
            raise HypothesisError(
                f"transition to {c!r} is not surjective onto the chosen value")
        chosen[n] = sorted(pre, key=str)[0]
    for (i, j) in poset.comparable_pairs():
        if apply(i, j, chosen[j]) != chosen[i]:
            raise HypothesisError("constructed tuple is not coherent")
    return chosen


def projection_system(system: InverseSystem, i0):
    """The node-i0 comparison system and the morphism whose limit is p_i0.

    Returns (target_system, morphism). Nodes with no meet with i0 carry the
    trivial group and trivial maps.
    """
    poset = system.poset
    if not poset.is_in_forest():
        raise HypothesisError("in-forest poset required")
    triv = trivial_group()
    groups, phis = {}, {}
    meets = {i: poset.meet(i, i0) for i in poset.nodes}
    for i in poset.nodes:
        m = meets[i]
        if m is None:
            groups[i] = triv
            phis[i] = Homomorphism.trivial(system.groups[i], triv)
        else:
            groups[i] = system.groups[m]
            phis[i] = system.transition(m, i)
    maps = {}
    for (i, j) in poset.comparable_pairs():
        if meets[j] is None:
            maps[(i, j)] = Homomorphism.trivial(groups[j], groups[i])
        else:
            maps[(i, j)] = system.transition(meets[i], meets[j])
    target = InverseSystem(poset, groups, maps)
    phi = SystemMorphism(system, target, phis)
    return target, phi
