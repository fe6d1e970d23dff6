"""Technique interface for NVM-friendly LLC management.

The paper's Section I sorts prior NVM-LLC work into three groups:

1. existing architectural techniques adapted for NVMs (e.g. wear
   leveling [20]),
2. novel architectural techniques (e.g. cache bypassing [14,16,17,21]),
3. device-level techniques (e.g. relaxed/terminated writes [15,18,19,22,23]).

:class:`Technique` is the hook interface the technique replay engine
(:mod:`repro.techniques.replay`) drives; one concrete class per group
lives in this subpackage.  The default hooks are no-ops, so a bare
``Technique()`` reproduces the baseline LLC exactly.

Whole-stream hooks and the two replay paths
-------------------------------------------
:meth:`Technique.bypass_write_mask` and :meth:`Technique.line_sizes` see
the whole LLC stream at once, before replay, because neither depends on
replay outcomes: the bypass predictor watches demand reads only, and a
line's compressed size is a property of its data.  A technique whose
hooks stop there replays through one
:func:`~repro.sim.engine.lru_events` pass — the baseline,
:class:`~repro.techniques.early_write_termination.EarlyWriteTermination`
and :class:`~repro.techniques.write_bypass.ReuseWriteBypass` do.

A technique sets :attr:`Technique.PER_ACCESS_REPLAY` when its set
mapping or its cache state depends on replay outcomes; the replay engine
then drives it access by access through :meth:`map_set`,
:meth:`observe_write` and the cache from :meth:`make_cache`.  Two do:

- :class:`~repro.techniques.wear_leveling.SetRotationLeveling` — the set
  offset moves with every data-array write, read-miss fills included, so
  where an access maps depends on how earlier accesses hit;
- :class:`~repro.techniques.compression.CompressedLLC` — its
  compacted-way cache holds a variable number of lines per set under a
  byte budget, which the fixed-way kernel cannot model.
"""

from __future__ import annotations

import numpy as np


class Technique:
    """Base class: a baseline LLC with no management technique."""

    #: Human-readable identifier used in evaluation tables.
    name = "baseline"

    #: Whether replay must drive this technique access by access (set
    #: mapping or cache state depends on replay outcomes).  False means
    #: the whole-stream hooks describe it completely.
    PER_ACCESS_REPLAY = False

    def map_set(self, block: int, n_sets: int) -> int:
        """Physical set index for a block (wear leveling remaps here)."""
        return block % n_sets

    def bypass_write_mask(self, blocks: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Which accesses of the stream are writebacks sent to DRAM.

        Called once per replay with the whole stream; returns a bool
        array, true only at write positions whose writeback skips the
        LLC.  The default bypasses nothing.
        """
        return np.zeros(len(blocks), dtype=bool)

    def observe_write(self, block: int) -> None:
        """Called on every data-array write (per-access replay only)."""

    def write_energy_factor(self) -> float:
        """Multiplier on per-write dynamic energy (device techniques)."""
        return 1.0

    def write_latency_factor(self) -> float:
        """Multiplier on per-write latency (device techniques)."""
        return 1.0

    def line_sizes(self, blocks: np.ndarray, block_bytes: int) -> np.ndarray:
        """Bytes actually written when each block's line is programmed.

        Called once per replay with the whole stream's block addresses.
        Compression techniques return each line's compressed size; the
        default writes the full block.  The replay engine sums these
        over the data-array writes into
        :attr:`~repro.techniques.replay.TechniqueOutcome.write_bytes`,
        which scales write energy and per-cell wear.
        """
        return np.full(len(blocks), block_bytes, dtype=np.int64)

    def make_cache(self, capacity_bytes: int, block_bytes: int, associativity: int):
        """The cache the per-access replay should drive, or None.

        Capacity-changing techniques (compacted-way compression) return
        their own cache variant here; the default None means the plain
        :class:`~repro.sim.cache.SetAssocCache`.
        """
        return None
