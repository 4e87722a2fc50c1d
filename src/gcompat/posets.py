"""Finite posets with the in-forest property, rank functions, and meets.

A poset is in-forest when every down-set is a chain; equivalently every
node has at most one lower cover. Those are exactly the index shapes whose
limit projections behave well downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import HypothesisError


@dataclass(frozen=True)
class Poset:
    nodes: tuple
    leq: frozenset = field(default_factory=frozenset)

    def __init__(self, nodes, leq=()):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate nodes")
        rel = {(i, i) for i in nodes}
        for i, j in leq:
            if i not in nodes or j not in nodes:
                raise ValueError(f"relation on unknown node: {(i, j)}")
            rel.add((i, j))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        for (a, b) in rel:
            if a != b and (b, a) in rel:
                raise ValueError(f"antisymmetry violated at {a}, {b}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "leq", frozenset(rel))

    # -- relations -----------------------------------------------------------

    def le(self, i, j):
        self._known(i), self._known(j)
        return (i, j) in self.leq

    def _known(self, i):
        if i not in self.nodes:
            raise ValueError(f"unknown node {i!r}")

    def downset(self, i):
        self._known(i)
        return frozenset(x for x in self.nodes if (x, i) in self.leq)

    def comparable_pairs(self):
        """All strictly ordered pairs (i, j) with i < j."""
        return [(i, j) for (i, j) in sorted(self.leq, key=self._pair_key)
                if i != j]

    def _pair_key(self, pair):
        order = {n: k for k, n in enumerate(self.nodes)}
        return (order[pair[0]], order[pair[1]])

    def lower_covers(self, j):
        below = [i for i in self.downset(j) if i != j]
        return [i for i in below
                if not any(self.le(i, k) and self.le(k, j) and k not in (i, j)
                           for k in below)]

    def minimal_nodes(self):
        return [i for i in self.nodes if self.downset(i) == frozenset([i])]

    def linear_extension(self):
        """Minimal-first topological order, node order as tiebreak."""
        remaining = list(self.nodes)
        out = []
        placed = set()
        while remaining:
            for i in remaining:
                if all(x in placed for x in self.downset(i) if x != i):
                    out.append(i)
                    placed.add(i)
                    remaining.remove(i)
                    break
            else:
                raise ValueError("not a partial order")
        return out

    # -- in-forest structure ---------------------------------------------------

    def is_in_forest(self):
        """Every down-set is totally ordered."""
        for i in self.nodes:
            down = sorted(self.downset(i), key=lambda n: str(n))
            for a in down:
                for b in down:
                    if not (self.le(a, b) or self.le(b, a)):
                        return False
        return True

    def rank(self, i):
        """|downset(i)| - 1; a rank function precisely on in-forest posets."""
        if not self.is_in_forest():
            raise HypothesisError("rank is defined for in-forest posets only")
        return len(self.downset(i)) - 1

    def meet(self, i, j):
        """Greatest common lower bound, or None when there is none."""
        self._known(i), self._known(j)
        common = [x for x in self.nodes if self.le(x, i) and self.le(x, j)]
        for x in common:
            if all(self.le(y, x) for y in common):
                return x
        if common and self.is_in_forest():
            raise HypothesisError("common lower bounds without a greatest one")
        return None


def chain_poset(n):
    nodes = tuple(range(n))
    return Poset(nodes, [(i, i + 1) for i in range(n - 1)])


def star_poset(n_leaves, root="r"):
    """One root below n leaves 0..n-1."""
    nodes = (root,) + tuple(range(n_leaves))
    return Poset(nodes, [(root, i) for i in range(n_leaves)])
