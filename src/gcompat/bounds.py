"""Resource bounds and the package's failure vocabulary.

Operations that would need to enumerate past a bound raise UndecidedError
("don't know") instead of guessing; refuted mathematical preconditions raise
HypothesisError. Plain ValueError is reserved for malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass


class UndecidedError(Exception):
    """The answer exceeds a configured bound; nothing was guessed."""


class HypothesisError(ValueError):
    """A stated precondition was checked and refuted."""


@dataclass(frozen=True)
class Bounds:
    enum: int = 20000        # full element enumeration cap
    iso: int = 2000          # isomorphism / automorphism backtracking cap
    aut: int = 512           # automorphism-group enumeration cap (on |G|)

    def with_mode(self, mode: str) -> "Bounds":
        """Returns self: every size is built the same way, from generators.
        Kept only for the benchmark's workloads, which still call it."""
        if mode not in ("enumerated", "stretch"):
            raise ValueError(f"unknown mode {mode!r}")
        return self


DEFAULT_BOUNDS = Bounds()
