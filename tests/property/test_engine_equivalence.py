"""Property tests: every accelerated engine is bit-identical to the
reference.

The fast engine (:mod:`repro.sim.engine`) re-implements the private
hierarchy and LLC replay as flat loops, and the vector engine replays
the whole LLC trace as numpy array rounds; the correctness contract of
both is *exact* event-count equality with the dict-of-caches reference
path on every stream.  These tests drive all engines over randomized
traces — single- and multi-threaded (exercising the directory's
invalidate / downgrade / sharing-writeback paths), with and without the
next-line prefetcher, and through memmap-backed spilled traces —
against deliberately tiny cache geometries so evictions and coherence
conflicts are frequent.
"""

import dataclasses

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import units
from repro.sim.config import ArchitectureConfig, CacheLevelConfig, gainestown
from repro.sim.hierarchy import LLCStream, filter_private
from repro.sim.llc import simulate_llc
from repro.trace.access import BLOCK_BITS
from repro.trace.stream import Trace


def _tiny_arch(n_cores=1, prefetch=False) -> ArchitectureConfig:
    """A deliberately cramped hierarchy: 2-way 256 B L1, 2-way 512 B L2.

    With addresses drawn from a few dozen blocks this evicts and
    invalidates constantly, covering the paths a realistic geometry
    would leave cold at hypothesis-sized trace lengths.
    """
    return dataclasses.replace(
        gainestown(n_cores=n_cores),
        l1d=CacheLevelConfig(256, 2),
        l2=CacheLevelConfig(512, 2),
        l2_next_line_prefetch=prefetch,
    )


def _trace(accesses, n_threads) -> Trace:
    n = len(accesses)
    return Trace(
        addresses=np.array(
            [(a << BLOCK_BITS) | (a % 7) for a, _, _, _ in accesses],
            dtype=np.uint64,
        ),
        writes=np.array([w for _, w, _, _ in accesses], dtype=bool),
        thread_ids=np.array(
            [t % n_threads for _, _, t, _ in accesses], dtype=np.uint16
        ),
        gaps=np.array([g for _, _, _, g in accesses], dtype=np.uint32),
        name="equiv",
    )


ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),   # block
        st.booleans(),                            # write
        st.integers(min_value=0, max_value=7),    # thread
        st.integers(min_value=0, max_value=20),   # gap
    ),
    min_size=1,
    max_size=300,
)


def assert_private_equal(fast, ref):
    np.testing.assert_array_equal(fast.stream.blocks, ref.stream.blocks)
    np.testing.assert_array_equal(fast.stream.writes, ref.stream.writes)
    np.testing.assert_array_equal(fast.stream.cores, ref.stream.cores)
    np.testing.assert_array_equal(
        fast.stream.instr_positions, ref.stream.instr_positions
    )
    assert fast.per_core == ref.per_core
    assert fast.directory == ref.directory
    assert fast.n_threads == ref.n_threads


@given(accesses=ACCESSES)
@settings(max_examples=60, deadline=None)
def test_private_filter_single_thread_equivalence(accesses):
    trace = _trace(accesses, n_threads=1)
    arch = _tiny_arch(n_cores=1)
    assert_private_equal(
        filter_private(trace, arch, engine="fast"),
        filter_private(trace, arch, engine="reference"),
    )


@given(accesses=ACCESSES, n_threads=st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_private_filter_coherence_equivalence(accesses, n_threads):
    """Multi-threaded traces: directory fills, invalidations, downgrades
    and coherence writebacks must match event for event."""
    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=4)
    fast = filter_private(trace, arch, engine="fast")
    ref = filter_private(trace, arch, engine="reference")
    assert_private_equal(fast, ref)


@given(accesses=ACCESSES, n_threads=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_private_filter_prefetch_equivalence(accesses, n_threads):
    """The L2 next-line prefetcher adds fill/eviction traffic on a
    second code path; it must match too."""
    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=2, prefetch=True)
    assert_private_equal(
        filter_private(trace, arch, engine="fast"),
        filter_private(trace, arch, engine="reference"),
    )


@given(
    accesses=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=511),
            st.booleans(),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=400,
    ),
    capacity_blocks=st.sampled_from((16, 64, 256)),
)
@settings(max_examples=60, deadline=None)
def test_llc_replay_equivalence(accesses, capacity_blocks):
    stream = LLCStream(
        blocks=np.array([a for a, _, _ in accesses], dtype=np.uint64),
        writes=np.array([w for _, w, _ in accesses], dtype=bool),
        cores=np.array([c for _, _, c in accesses], dtype=np.uint16),
        instr_positions=np.cumsum(
            np.ones(len(accesses), dtype=np.uint64)
        ),
    )
    kwargs = dict(
        capacity_bytes=capacity_blocks * 64,
        associativity=min(16, capacity_blocks),
        block_bytes=64,
        n_cores=4,
    )
    fast = simulate_llc(stream, engine="fast", **kwargs)
    vector = simulate_llc(stream, engine="vector", **kwargs)
    ref = simulate_llc(stream, engine="reference", **kwargs)
    assert fast == ref
    assert vector == ref


@given(
    accesses=ACCESSES,
    n_threads=st.integers(min_value=1, max_value=4),
    prefetch=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_full_path_three_way_equivalence(accesses, n_threads, prefetch):
    """Whole pipeline under each engine: the private filter (coherence
    invalidates, prefetch fills) feeds the LLC replay, and all three
    engines must agree on the final counts."""
    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=2, prefetch=prefetch)
    kwargs = dict(
        capacity_bytes=16 * 64, associativity=4, block_bytes=64, n_cores=2
    )
    results = {}
    for engine in ("reference", "fast", "vector"):
        private = filter_private(trace, arch, engine=engine)
        results[engine] = simulate_llc(private.stream, engine=engine, **kwargs)
    assert results["fast"] == results["reference"]
    assert results["vector"] == results["reference"]


@given(accesses=ACCESSES, n_threads=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_memmap_trace_equivalence(accesses, n_threads):
    """A spilled, memmap-backed trace must replay exactly like its
    in-memory original under every engine."""
    import tempfile

    trace = _trace(accesses, n_threads=n_threads)
    arch = _tiny_arch(n_cores=2)
    kwargs = dict(
        capacity_bytes=16 * 64, associativity=4, block_bytes=64, n_cores=2
    )
    baseline = filter_private(trace, arch, engine="reference")
    ref_counts = simulate_llc(baseline.stream, engine="reference", **kwargs)
    with tempfile.TemporaryDirectory(prefix="repro-equiv-") as spill_dir:
        mapped = trace.spill(spill_dir).load()
        for engine in ("fast", "vector"):
            private = filter_private(mapped, arch, engine=engine)
            assert_private_equal(private, baseline)
            assert simulate_llc(private.stream, engine=engine, **kwargs) == ref_counts


def test_unknown_engine_rejected():
    import pytest

    from repro.errors import ConfigurationError
    from repro.sim.engine import resolve_engine

    with pytest.raises(ConfigurationError):
        resolve_engine("warp")


def test_engine_env_var_controls_default(monkeypatch):
    from repro.sim.engine import ENGINE_ENV, resolve_engine

    monkeypatch.setenv(ENGINE_ENV, "reference")
    assert resolve_engine() == "reference"
    assert resolve_engine("fast") == "fast"
    monkeypatch.setenv(ENGINE_ENV, "vector")
    assert resolve_engine() == "vector"
    monkeypatch.delenv(ENGINE_ENV)
    assert resolve_engine() == "fast"


# -- wear and technique replay on the event kernel -------------------------
#
# ``replay_with_wear`` and the kernel path of ``replay_with_technique``
# derive everything from ``repro.sim.engine.lru_events``; the oracle
# below is the per-access ``SetAssocCache`` loop they replaced.  Blocks
# at or above 2**63 collide with the kernel's empty-way sentinel and
# must stay exact.

KERNEL_BLOCKS = st.one_of(
    st.integers(min_value=0, max_value=23),
    st.integers(min_value=1 << 63, max_value=(1 << 63) + 8),
    st.integers(min_value=(1 << 64) - 3, max_value=(1 << 64) - 1),
)

KERNEL_STREAMS = st.lists(
    st.tuples(KERNEL_BLOCKS, st.booleans(), st.integers(0, 3)),
    min_size=0,
    max_size=200,
)


def _llc_stream(accesses) -> LLCStream:
    n = len(accesses)
    return LLCStream(
        blocks=np.array([b for b, _, _ in accesses], dtype=np.uint64),
        writes=np.array([w for _, w, _ in accesses], dtype=bool),
        cores=np.array([c for _, _, c in accesses], dtype=np.uint16),
        instr_positions=np.arange(n, dtype=np.uint64),
    )


def _oracle(accesses, n_sets, assoc, filter_blocks=None):
    """Per-access SetAssocCache replay with an optional read-recency
    bypass filter; returns (counts, set_writes, line_writes, bypassed)."""
    from repro.sim.cache import SetAssocCache
    from repro.sim.llc import LLCCounts

    cache = SetAssocCache(n_sets * assoc * 64, 64, assoc)
    counts = LLCCounts(
        capacity_bytes=n_sets * assoc * 64,
        associativity=assoc,
        per_core_read_hits=[0] * 4,
        per_core_read_misses=[0] * 4,
        per_core_mlp=[1.0] * 4,
    )
    set_writes = np.zeros(n_sets, dtype=np.int64)
    line_writes = {}
    recent = []  # distinct read blocks, least recent first
    bypassed = 0
    for block, is_write, core in accesses:
        if filter_blocks is not None and is_write and block not in recent:
            bypassed += 1
            counts.dirty_evictions += 1
            continue
        if filter_blocks is not None and not is_write:
            recent = [b for b in recent if b != block] + [block]
            recent = recent[-filter_blocks:]
        outcome = cache.access(block, is_write)
        counts.dirty_evictions += outcome.dirty_victim is not None
        if is_write:
            counts.write_accesses += 1
            counts.write_hits += outcome.hit
            counts.write_misses += not outcome.hit
        else:
            counts.read_lookups += 1
            counts.read_hits += outcome.hit
            counts.read_misses += not outcome.hit
            hits_or_misses = (
                counts.per_core_read_hits
                if outcome.hit
                else counts.per_core_read_misses
            )
            hits_or_misses[core] += 1
        if is_write or not outcome.hit:
            set_writes[block % n_sets] += 1
            line_writes[block] = line_writes.get(block, 0) + 1
    return counts, set_writes, line_writes, bypassed


def _assert_wear_equal(wear, set_writes, line_writes):
    np.testing.assert_array_equal(wear.set_writes, set_writes)
    assert wear.total_writes == sum(line_writes.values())
    assert wear.hottest_line_writes == max(line_writes.values(), default=0)


@given(
    accesses=KERNEL_STREAMS,
    n_sets=st.integers(1, 4),
    assoc=st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_wear_replay_matches_oracle(accesses, n_sets, assoc):
    from repro.endurance.wear import replay_with_wear

    _, set_writes, line_writes, _ = _oracle(accesses, n_sets, assoc)
    wear = replay_with_wear(_llc_stream(accesses), n_sets * assoc * 64, assoc, 64)
    assert (wear.n_sets, wear.associativity) == (n_sets, assoc)
    _assert_wear_equal(wear, set_writes, line_writes)


@given(
    accesses=KERNEL_STREAMS,
    n_sets=st.integers(1, 4),
    assoc=st.integers(1, 4),
    kind=st.sampled_from(["baseline", "ewt", "bypass"]),
    filter_blocks=st.integers(1, 8),
)
@settings(max_examples=120, deadline=None)
def test_technique_replay_matches_oracle(accesses, n_sets, assoc, kind, filter_blocks):
    from repro.techniques.base import Technique
    from repro.techniques.early_write_termination import EarlyWriteTermination
    from repro.techniques.replay import replay_with_technique
    from repro.techniques.write_bypass import ReuseWriteBypass

    technique = {
        "baseline": Technique,
        "ewt": EarlyWriteTermination,
        "bypass": lambda: ReuseWriteBypass(filter_blocks=filter_blocks),
    }[kind]()
    counts, set_writes, line_writes, bypassed = _oracle(
        accesses, n_sets, assoc, filter_blocks if kind == "bypass" else None
    )
    outcome = replay_with_technique(
        _llc_stream(accesses), technique, n_sets * assoc * 64, assoc, 64, 4
    )
    assert outcome.counts == counts
    _assert_wear_equal(outcome.wear, set_writes, line_writes)
    assert outcome.bypassed_writes == bypassed
    assert getattr(technique, "bypassed", 0) == bypassed
    assert outcome.write_bytes == outcome.wear.total_writes * 64
    assert outcome.compressed_writes == 0
    assert outcome.uncompressed_writes == outcome.wear.total_writes
    assert outcome.n_frames == n_sets * assoc
    assert outcome.mean_resident_lines == float(assoc)
