"""Write-wear tracking over an LLC replay.

Collects per-line and per-set write counts while a stream replays
through a cache geometry, then summarises the *distribution* of wear —
the quantity that determines lifetime under limited endurance, since the
hottest line fails first (paper Section II-A's stuck-at discussion, and
the intra-set write-variation literature the paper cites [20], [38],
[39]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import check_geometry, lru_events
from repro.sim.hierarchy import LLCStream
from repro.sim.llc import LLCCounts


@dataclass
class WearSummary:
    """Distribution statistics of data-array write wear.

    ``set_writes`` is exact per physical set.  ``hottest_line_writes``
    is keyed by *block address* (under set-rotation leveling, by the
    remapped block id), not by physical frame: it is the most writes any
    one block received, wherever in its set each write landed.  A block
    that is evicted and refilled into another way is counted as one
    line, and two blocks that share a way are counted apart.  Per-frame
    (set x way) wear is ROADMAP open item 1's follow-up.
    """

    n_sets: int
    associativity: int
    total_writes: int
    set_writes: np.ndarray  # writes landing in each set
    hottest_line_writes: int  # max writes to a single block address

    @property
    def mean_set_writes(self) -> float:
        """Average writes per set."""
        return float(self.set_writes.mean()) if self.n_sets else 0.0

    @property
    def max_set_writes(self) -> int:
        """Writes into the hottest set."""
        return int(self.set_writes.max()) if self.n_sets else 0

    @property
    def imbalance(self) -> float:
        """Hottest-set writes over the mean (1.0 = perfectly level)."""
        mean = self.mean_set_writes
        return self.max_set_writes / mean if mean > 0 else 0.0

    @property
    def coefficient_of_variation(self) -> float:
        """Std/mean of per-set writes — the wear-variation metric."""
        mean = self.mean_set_writes
        if mean == 0:
            return 0.0
        return float(self.set_writes.std() / mean)


def replay_with_wear(
    stream: LLCStream,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
) -> WearSummary:
    """Replay a stream and account data-array writes per set and line.

    Every write access *and* every demand-miss fill programs the data
    array, so both wear the cells — this is the physical accounting,
    independent of the energy model's fill switch.  One
    :func:`~repro.sim.engine.lru_events` pass gives the hit flags; the
    per-set and per-block tallies are counts over the written accesses.
    """
    n_sets = check_geometry(capacity_bytes, block_bytes, associativity)
    blocks = np.asarray(stream.blocks, dtype=np.uint64)
    writes = np.asarray(stream.writes, dtype=bool)
    hit, _ = lru_events(blocks, writes, n_sets, associativity)
    wrote = writes | ~hit  # writeback, or fill
    return wear_of_writes(blocks[wrote], n_sets, associativity)


def wear_of_writes(
    written_blocks: np.ndarray, n_sets: int, associativity: int
) -> WearSummary:
    """Summarise wear from the block of every data-array write, with
    ``block % n_sets`` as the set each write lands in."""
    set_writes = np.bincount(
        (written_blocks % np.uint64(n_sets)).astype(np.int64),
        minlength=n_sets,
    )
    if len(written_blocks):
        hottest = int(np.unique(written_blocks, return_counts=True)[1].max())
    else:
        hottest = 0
    return WearSummary(
        n_sets=n_sets,
        associativity=associativity,
        total_writes=len(written_blocks),
        set_writes=set_writes,
        hottest_line_writes=hottest,
    )


def wear_from_counts(counts: LLCCounts) -> int:
    """Total data-array writes implied by aggregate counts (fills plus
    writeback traffic) — a fast proxy when the distribution is not
    needed."""
    return counts.data_writes
