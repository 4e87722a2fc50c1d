"""Resource bounds, execution modes and the package's failure vocabulary.

Operations that would need to enumerate past a bound raise UndecidedError
("don't know") instead of guessing; refuted mathematical preconditions raise
HypothesisError. Plain ValueError is reserved for malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ENUMERATED = "enumerated"
STRETCH = "stretch"


class UndecidedError(Exception):
    """The answer exceeds a configured bound; nothing was guessed."""


class HypothesisError(ValueError):
    """A stated precondition was checked and refuted."""


@dataclass(frozen=True)
class Bounds:
    enum: int = 20000        # full element enumeration cap
    iso: int = 2000          # isomorphism / automorphism backtracking cap
    aut: int = 512           # automorphism-group enumeration cap (on |G|)
    subgroups: int = 20000   # cap on the number of subgroups enumerated
    mode: str = ENUMERATED

    def with_mode(self, mode: str) -> "Bounds":
        if mode not in (ENUMERATED, STRETCH):
            raise ValueError(f"unknown mode {mode!r}")
        return replace(self, mode=mode)

    @property
    def stretch(self) -> bool:
        return self.mode == STRETCH


DEFAULT_BOUNDS = Bounds()
