"""Group sequences: chains S_l -> ... -> S_0 = 1 and their surgeries.

A sequence of length l stores groups[0..l] with groups[0] trivial and maps
pi_i : S_i -> S_{i-1}. Normal series of a group convert to sequences by
taking successive quotients, and back by taking kernels of the composites.
The witness recursion runs on these surgeries: it fuses two tops, put on a
common base by `concatenation`, by `sharp`, and contracts by `contraction`.
"""

from __future__ import annotations

from .bounds import DEFAULT_BOUNDS, HypothesisError
from .groups import FiniteGroup, Subgroup, trivial_group
from .homs import Homomorphism, quotient
from .inverse_limits import star_limit, star_system


class GroupSequence:
    """groups[0] = 1, maps[i-1]: groups[i] -> groups[i-1] for 1 <= i <= l."""

    def __init__(self, groups, maps):
        self.groups = list(groups)
        self.maps = list(maps)
        if len(self.groups) != len(self.maps) + 1:
            raise ValueError("need one map per step")
        if self.groups[0].order() != 1:
            raise ValueError("sequence must end at the trivial group")
        for i, f in enumerate(self.maps, start=1):
            if f.source.degree != self.groups[i].degree \
                    or f.target.degree != self.groups[i - 1].degree:
                raise ValueError(f"map {i} endpoints mismatch")

    @property
    def length(self):
        return len(self.maps)

    @property
    def top(self) -> FiniteGroup:
        return self.groups[-1]

    def map(self, i) -> Homomorphism:
        """pi_i : S_i -> S_{i-1} (1-indexed)."""
        return self.maps[i - 1]

    def group(self, i) -> FiniteGroup:
        return self.groups[i]

    def is_surjective(self):
        return all(f.is_surjective() for f in self.maps)

    def kernel(self, i) -> Subgroup:
        return self.map(i).kernel()

    def composite_to(self, i) -> Homomorphism:
        """The composite S_l -> S_i."""
        f = Homomorphism.identity(self.top)
        for k in range(self.length, i, -1):
            f = f.then(self.map(k))
        return f

    def kernel_orders(self):
        return tuple(self.kernel(i).order() for i in range(1, self.length + 1))

    def __repr__(self):
        orders = "->".join(str(g.order()) for g in reversed(self.groups))
        return f"GroupSequence({orders})"


def series_to_sequence(l_group: FiniteGroup, chain) -> GroupSequence:
    """Sequence of the normal series 1 = chain[0] <= ... <= chain[l] = L.

    S_i = L / chain[l-i] with the induced maps between successive quotients.
    A proper nontrivial term's normality is tested once, by `quotient`
    (HypothesisError); the terms 1 and L need no test.
    """
    chain = list(chain)
    if chain[0].order() != 1 or chain[-1].order() != l_group.order():
        raise HypothesisError("series must run from 1 to the whole group")
    for i in range(len(chain) - 1):
        if not (chain[i] <= chain[i + 1]):
            raise HypothesisError(f"series term {i} not below term {i + 1}")
    terms = []  # each term closed once, as a subgroup of L
    for i, term in enumerate(chain):
        if not term <= l_group:
            raise HypothesisError(
                f"series term {i} is not inside {l_group.label}")
        terms.append(Subgroup(l_group, members=term.members()))
    ell = len(chain) - 1
    groups = [trivial_group()]
    quots: list[Homomorphism] = []
    for i in range(1, ell + 1):
        n = terms[ell - i]
        if n.order() == l_group.order():
            raise HypothesisError("series repeats the whole group")
        if n.order() == 1:
            # keep the caller's realization at this level
            groups.append(l_group)
            quots.append(Homomorphism.identity(l_group))
            continue
        q, pi = quotient(l_group, n, label=f"{l_group.label}/{ell - i}")
        groups.append(q)
        quots.append(pi)
    # S_i's generators are the images of L's (a quotient's generators are
    # their point permutations), and the series is nested, so hi(g)
    # determines lo(g); the one-term series [1] gives length 0
    maps = [Homomorphism.trivial(g, groups[0]) for g in groups[1:2]]
    for i in range(2, ell + 1):
        hi, lo = quots[i - 1], quots[i - 2]
        maps.append(Homomorphism.from_gen_images(
            groups[i], groups[i - 1],
            {hi(g): lo(g) for g in l_group.generators}, label=f"pi_{i}"))
    return GroupSequence(groups, maps)


def sequence_to_series(seq: GroupSequence):
    """Normal series of the top group: term i = ker(S_l -> S_{l-i})."""
    return [seq.composite_to(seq.length - i).kernel()
            for i in range(seq.length + 1)]


def contraction(seq: GroupSequence) -> GroupSequence:
    """Merge the two top maps."""
    if seq.length < 2:
        raise ValueError("contraction needs length >= 2")
    groups = seq.groups[:-2] + [seq.groups[-1]]
    maps = seq.maps[:-2] + [seq.maps[-1].then(seq.maps[-2])]
    return GroupSequence(groups, maps)


def contraction2(seq: GroupSequence) -> GroupSequence:
    return contraction(contraction(seq))


def concatenation(g: FiniteGroup, f: Homomorphism, seq: GroupSequence) -> GroupSequence:
    """Prepend g -> S_l on top of the sequence."""
    if f.source.degree != g.degree or f.target.degree != seq.top.degree:
        raise ValueError("concatenation map endpoints mismatch")
    return GroupSequence(seq.groups + [g], seq.maps + [f])


def almost_equal(s: GroupSequence, t: GroupSequence) -> bool:
    """Same groups, and maps that agree on generators, below the top."""
    if s.length != t.length:
        return False
    for i in range(s.length):  # groups[0..l-1]
        if s.groups[i] is not t.groups[i]:
            return False
    for i in range(1, s.length):
        if s.maps[i - 1].gen_images() != t.maps[i - 1].gen_images():
            return False
    return True


def sharp(s: GroupSequence, t: GroupSequence, bounds=DEFAULT_BOUNDS):
    """Fuse two almost-equal sequences: the new top is the fiber product of
    the two tops over S_{l-1}, with the limit projection as the new top map.

    Returns (sequence, limit) so callers can reach the fiber structure.
    """
    if not almost_equal(s, t):
        raise HypothesisError("sharp needs almost-equal sequences")
    lim = star_limit(star_system(s.groups[-2], [s.top, t.top],
                                 [s.maps[-1], t.maps[-1]]), bounds)
    return GroupSequence(s.groups[:-1] + [lim.group],
                         s.maps[:-1] + [lim.projection("r")]), lim


def pad_to_length(seq: GroupSequence, length: int) -> GroupSequence:
    """Insert trivial steps at the bottom until the sequence has the length."""
    if length < seq.length:
        raise ValueError("cannot shorten by padding")
    out = seq
    while out.length < length:
        triv = trivial_group()
        groups = [out.groups[0], triv] + out.groups[1:]
        maps = [Homomorphism.trivial(triv, out.groups[0])] \
            + [Homomorphism.trivial(g, triv) for g in out.groups[1:2]] \
            + out.maps[1:]
        out = GroupSequence(groups, maps)
    return out


def compatible(s: GroupSequence, t: GroupSequence) -> bool:
    """Level-wise isomorphic kernels (order screen only; isomorphisms are
    found by the witness layer, which needs them explicitly anyway)."""
    if s.length != t.length:
        return False
    return s.kernel_orders() == t.kernel_orders()
