"""Tests for the LLC management techniques."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.sim.hierarchy import LLCStream
from repro.techniques.base import Technique
from repro.techniques.early_write_termination import EarlyWriteTermination
from repro.techniques.replay import replay_with_technique
from repro.techniques.wear_leveling import SetRotationLeveling
from repro.techniques.write_bypass import ReuseWriteBypass


def _stream(blocks, writes):
    n = len(blocks)
    return LLCStream(
        blocks=np.array(blocks, dtype=np.uint64),
        writes=np.array(writes, dtype=bool),
        cores=np.zeros(n, dtype=np.uint16),
        instr_positions=np.arange(n, dtype=np.uint64),
    )


class TestBaselineTechnique:
    def test_noop_hooks(self):
        technique = Technique()
        assert technique.map_set(123, 64) == 123 % 64
        mask = technique.bypass_write_mask(
            np.array([123], dtype=np.uint64), np.array([True])
        )
        assert not mask.any()
        assert technique.write_energy_factor() == 1.0
        assert technique.write_latency_factor() == 1.0

    def test_baseline_replay_matches_plain_llc(self):
        from repro.sim.llc import simulate_llc

        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 8192, size=3000)
        writes = rng.random(3000) < 0.3
        stream = _stream(blocks, writes)
        plain = simulate_llc(stream, 256 * units.KB, 16, 64, 1)
        technique = replay_with_technique(stream, Technique(), 256 * units.KB)
        assert technique.counts.read_hits == plain.read_hits
        assert technique.counts.read_misses == plain.read_misses
        assert technique.counts.write_accesses == plain.write_accesses


class TestSetRotationLeveling:
    def test_rotates_after_period(self):
        leveler = SetRotationLeveling(period=3)
        before = leveler.map_set(0, 64)
        for _ in range(3):
            leveler.observe_write(0)
        after = leveler.map_set(0, 64)
        assert leveler.rotated
        assert after == (before + 1) % 64

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            SetRotationLeveling(period=0)

    def test_spreads_hot_set_wear(self):
        # A single write-hot block, long stream, aggressive rotation.
        stream = _stream([7] * 3000, [True] * 3000)
        base = replay_with_technique(stream, Technique(), 64 * units.KB)
        leveled = replay_with_technique(
            stream, SetRotationLeveling(period=100), 64 * units.KB
        )
        assert leveled.wear.hottest_line_writes < base.wear.hottest_line_writes
        assert (leveled.wear.set_writes > 0).sum() > 1
        assert (base.wear.set_writes > 0).sum() == 1


class TestReuseWriteBypass:
    def test_bypasses_unread_blocks(self):
        stream = _stream([1, 2, 3], [True, True, True])
        outcome = replay_with_technique(
            stream, ReuseWriteBypass(filter_blocks=16), 64 * units.KB
        )
        assert outcome.bypassed_writes == 3
        assert outcome.counts.write_accesses == 0
        # Bypassed writebacks go to DRAM.
        assert outcome.counts.dirty_evictions == 3

    def test_keeps_recently_read_blocks(self):
        stream = _stream([1, 1], [False, True])
        outcome = replay_with_technique(
            stream, ReuseWriteBypass(filter_blocks=16), 64 * units.KB
        )
        assert outcome.bypassed_writes == 0
        assert outcome.counts.write_accesses == 1

    def test_filter_eviction(self):
        bypass = ReuseWriteBypass(filter_blocks=2)
        # Reads of 1, 2, 3 (the third evicts 1), then writes of 1 and 3.
        mask = bypass.bypass_write_mask(
            np.array([1, 2, 3, 1, 3], dtype=np.uint64),
            np.array([False, False, False, True, True]),
        )
        assert mask[3]
        assert not mask[4]

    def test_rejects_empty_filter(self):
        with pytest.raises(ConfigurationError):
            ReuseWriteBypass(filter_blocks=0)


class TestEarlyWriteTermination:
    def test_energy_factor_scales_with_redundancy(self):
        none = EarlyWriteTermination(redundant_fraction=0.0)
        typical = EarlyWriteTermination()
        total = EarlyWriteTermination(redundant_fraction=1.0)
        assert none.write_energy_factor() == pytest.approx(1.0)
        assert 0.1 < typical.write_energy_factor() < 0.4
        assert total.write_energy_factor() < typical.write_energy_factor()

    def test_latency_factor_modest(self):
        technique = EarlyWriteTermination()
        assert 0.8 < technique.write_latency_factor() <= 1.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            EarlyWriteTermination(redundant_fraction=1.5)

    def test_does_not_change_counts(self):
        rng = np.random.default_rng(4)
        blocks = rng.integers(0, 2048, size=1000)
        writes = rng.random(1000) < 0.4
        stream = _stream(blocks, writes)
        base = replay_with_technique(stream, Technique(), 128 * units.KB)
        ewt = replay_with_technique(
            stream, EarlyWriteTermination(), 128 * units.KB
        )
        assert ewt.counts.read_hits == base.counts.read_hits
        assert ewt.wear.total_writes == base.wear.total_writes
        assert ewt.write_energy_factor < base.write_energy_factor
