"""Wear leveling by periodic set-index rotation (paper group 1).

An intra-cache levelling scheme in the spirit of WriteSmoothing /
LastingNVCache (the paper's refs [20], [38]): every ``period`` data-array
writes the block-to-set mapping rotates by one set, so a write-hot
address walks across the physical sets over time instead of grinding one
of them down.  Rotation invalidates the remapped residency, which the
replay engine models as a flush of the cache (the scheme's transition
cost is amortised over a long period).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.techniques.base import Technique


class SetRotationLeveling(Technique):
    """Rotate the set mapping every ``period`` writes."""

    name = "wear-leveling"

    #: The offset advances with data-array writes, read-miss fills
    #: included, so each access's set depends on how earlier ones hit.
    PER_ACCESS_REPLAY = True

    def __init__(self, period: int = 4096) -> None:
        if period <= 0:
            raise ConfigurationError("rotation period must be positive")
        self.period = period
        self._writes_seen = 0
        self._offset = 0
        #: Number of rotations performed (each costs a flush).
        self.rotations = 0

    def map_set(self, block: int, n_sets: int) -> int:
        return (block + self._offset) % n_sets

    def observe_write(self, block: int) -> None:
        self._writes_seen += 1
        if self._writes_seen % self.period == 0:
            self._offset += 1
            self.rotations += 1

    @property
    def rotated(self) -> bool:
        """Whether the mapping moved since construction."""
        return self._offset > 0
