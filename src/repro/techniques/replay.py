"""Technique-aware LLC replay.

Extends the plain LLC replay (:mod:`repro.sim.llc`) with the
:class:`~repro.techniques.base.Technique` hooks: set remapping (wear
leveling), writeback bypassing, device-level energy/latency factors,
technique-supplied cache variants (compacted-way compression) and
per-line write sizing.  Also tracks the wear distribution so the
endurance model can price each technique's lifetime effect.

Invariants
----------
- A bare :class:`~repro.techniques.base.Technique` replays through
  :func:`~repro.sim.engine.lru_events` with full-size writes,
  reproducing the baseline LLC bit-for-bit (``write_bytes`` is exactly
  ``total_writes * block_bytes``).  The per-access path, kept for
  techniques declaring ``PER_ACCESS_REPLAY``, produces the same counts
  as the kernel whenever the technique's mapping is the identity
  (``tests/property/test_engine_equivalence.py`` pins the kernel paths
  against a :class:`~repro.sim.cache.SetAssocCache` oracle).
- ``compressed_writes + uncompressed_writes == wear.total_writes``:
  every data-array write is classified by whether it programmed fewer
  bytes than the block (the count-sum invariant
  :func:`repro.validate.guard.guard_compression` pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sim.cache import SetAssocCache
from repro.sim.engine import check_geometry, lru_events
from repro.sim.hierarchy import LLCStream
from repro.sim.llc import LLCCounts
from repro.endurance.wear import WearSummary, wear_of_writes
from repro.techniques.base import Technique


@dataclass
class TechniqueOutcome:
    """Counts, wear, and technique side effects from one replay.

    ``write_bytes`` is the number of data-array bytes actually
    programmed — ``total_writes * block_bytes`` for full-size writes,
    less under compression — and drives both the energy scaling and the
    per-cell wear fraction of the lifetime forecast.  ``n_frames`` is
    the physical frame count of the replayed geometry (sets × ways);
    capacity-changing techniques hold *more lines* in the same frames,
    never more frames.
    """

    technique: str
    counts: LLCCounts
    wear: WearSummary
    bypassed_writes: int
    write_energy_factor: float
    write_latency_factor: float
    block_bytes: int = 64
    write_bytes: int = 0
    compressed_writes: int = 0
    uncompressed_writes: int = 0
    n_frames: int = 0
    mean_resident_lines: float = 0.0

    @property
    def extra_dram_writes(self) -> int:
        """Writebacks redirected to DRAM by bypassing."""
        return self.bypassed_writes

    @property
    def write_bytes_fraction(self) -> float:
        """Bytes programmed over the full-size equivalent.

        1.0 means no compression; this is the ``cell_write_fraction``
        fed to the lifetime forecast and the ``write_energy_scale`` fed
        to pricing.
        """
        full = self.wear.total_writes * self.block_bytes
        if full == 0:
            return 1.0
        return self.write_bytes / full

    @property
    def effective_capacity_bytes(self) -> float:
        """Measured effective capacity: mean resident lines per set
        times the line size, across all sets."""
        return self.mean_resident_lines * self.wear.n_sets * self.block_bytes


def replay_with_technique(
    stream: LLCStream,
    technique: Technique,
    capacity_bytes: int,
    associativity: int = 16,
    block_bytes: int = 64,
    n_cores: int = 4,
) -> TechniqueOutcome:
    """Replay an LLC stream under a management technique.

    The whole-stream hooks run first: bypassed writebacks are dropped
    from the replayed stream (and counted as DRAM writes), and every
    access gets its line size from the *true* block address.  The rest
    replays through one :func:`~repro.sim.engine.lru_events` pass, or —
    for techniques declaring ``PER_ACCESS_REPLAY`` — access by access
    (see :func:`_replay_per_access`).
    """
    blocks = np.asarray(stream.blocks, dtype=np.uint64)
    writes = np.asarray(stream.writes, dtype=bool)
    if technique.PER_ACCESS_REPLAY:
        cache = technique.make_cache(capacity_bytes, block_bytes, associativity)
        if cache is None:
            cache = SetAssocCache(capacity_bytes, block_bytes, associativity)
        n_sets = cache.n_sets
    else:
        n_sets = check_geometry(capacity_bytes, block_bytes, associativity)
    bypassed = technique.bypass_write_mask(blocks, writes)
    sizes = technique.line_sizes(blocks, block_bytes)

    keep = ~bypassed
    blocks, writes, sizes = blocks[keep], writes[keep], sizes[keep]
    cores = np.asarray(stream.cores, dtype=np.int64)[keep]
    if technique.PER_ACCESS_REPLAY:
        hit, evictions, lines = _replay_per_access(
            technique, cache, blocks, writes, sizes, n_sets
        )
        resident = float(getattr(cache, "mean_resident_lines", associativity))
    else:
        hit, dirty_evict = lru_events(blocks, writes, n_sets, associativity)
        evictions = int(dirty_evict.sum())
        lines = blocks
        resident = float(associativity)

    n_bypassed = int(bypassed.sum())
    reads = ~writes
    read_hit = hit & reads
    read_miss = ~hit & reads
    counts = LLCCounts(capacity_bytes=capacity_bytes, associativity=associativity)
    counts.read_hits = int(read_hit.sum())
    counts.read_misses = int(read_miss.sum())
    counts.read_lookups = counts.read_hits + counts.read_misses
    counts.write_hits = int((hit & writes).sum())
    counts.write_misses = int((~hit & writes).sum())
    counts.write_accesses = counts.write_hits + counts.write_misses
    # Bypassed writebacks go straight to DRAM.
    counts.dirty_evictions = evictions + n_bypassed
    counts.per_core_read_hits = np.bincount(
        cores[read_hit], minlength=n_cores
    ).tolist()
    counts.per_core_read_misses = np.bincount(
        cores[read_miss], minlength=n_cores
    ).tolist()
    counts.per_core_mlp = [1.0] * n_cores

    # Every kept write and every demand-miss fill programs the array.
    wrote = writes | ~hit
    written_sizes = sizes[wrote]
    wear = wear_of_writes(lines[wrote], n_sets, associativity)
    compressed_writes = int((written_sizes < block_bytes).sum())
    return TechniqueOutcome(
        technique=technique.name,
        counts=counts,
        wear=wear,
        bypassed_writes=n_bypassed,
        write_energy_factor=technique.write_energy_factor(),
        write_latency_factor=technique.write_latency_factor(),
        block_bytes=block_bytes,
        write_bytes=int(written_sizes.sum()),
        compressed_writes=compressed_writes,
        uncompressed_writes=wear.total_writes - compressed_writes,
        n_frames=n_sets * associativity,
        mean_resident_lines=resident,
    )


def _replay_per_access(technique, cache, blocks, writes, sizes, n_sets):
    """Drive ``cache`` one access at a time under the technique's set
    mapping; returns per-access hit flags, the dirty-eviction total and
    each access's line id.

    Only techniques whose mapping or cache state depends on replay
    outcomes come here (set rotation advances with every data-array
    write; the compacted-way cache is size-aware).  The line id is a
    block id in the technique-chosen set, ``(block // n_sets) * n_sets +
    mapped_set``, so the same tag space lands where the technique says.
    """
    size_aware = bool(getattr(cache, "SIZE_AWARE", False))
    hits: List[bool] = []
    lines: List[int] = []
    evictions = 0
    for block, is_write, size in zip(
        blocks.tolist(), writes.tolist(), sizes.tolist()
    ):
        mapped = (block // n_sets) * n_sets + technique.map_set(block, n_sets)
        if size_aware:
            outcome = cache.access(mapped, is_write, size)
            evictions += len(outcome.dirty_victims)
        else:
            outcome = cache.access(mapped, is_write)
            evictions += outcome.dirty_victim is not None
        hits.append(outcome.hit)
        lines.append(mapped)
        if is_write or not outcome.hit:
            technique.observe_write(block)
    return (
        np.array(hits, dtype=bool),
        evictions,
        np.array(lines, dtype=np.uint64),
    )
