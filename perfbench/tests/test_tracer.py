"""Coverage tests for the benchmark's layer tracer, at a tiny scale.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import batch, harness, run, serve_load  # noqa: E402
from perfbench.tracer import LAYERS, LayerTracer  # noqa: E402

TINY = 0.02

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]

#: (entry point, module whose by-name binding a tiny run must call it
#: through).  Every ``from <module> import <name>`` site the two batch
#: suites execute is listed, plus the defining module where the program
#: calls through it (e.g. ``runner`` calls ``table5.render``).  Sites the
#: suites never execute (``techniques.evaluate.filter_private`` only
#: runs without a precomputed private replay) are checked for rebinding
#: by the install test instead.
EXPECTED_CALLERS = {
    ("repro.workloads.generators.generate_from_profile", "repro.experiments.common"),
    ("repro.sim.hierarchy.filter_private", "repro.sim.system"),
    ("repro.sim.llc.simulate_llc", "repro.sim.system"),
    ("repro.sim.replay_cache.ReplayCache.get", "repro.sim.system"),
    ("repro.sim.replay_cache.ReplayCache.put", "repro.sim.system"),
    ("repro.techniques.replay.replay_with_technique", "repro.techniques.evaluate"),
    ("repro.techniques.replay.replay_with_technique", "repro.experiments.compression"),
    ("repro.techniques.evaluate.evaluate_technique", "repro.experiments.techniques_study"),
    ("repro.endurance.wear.replay_with_wear", "repro.experiments.lifetime"),
    ("repro.endurance.lifetime.estimate_lifetime", "repro.experiments.lifetime"),
    ("repro.endurance.lifetime.estimate_lifetime", "repro.techniques.evaluate"),
    ("repro.endurance.lifetime.estimate_lifetime", "repro.experiments.compression"),
    ("repro.nvsim.pricing.price_counts", "repro.sim.system"),
    ("repro.nvsim.pricing.price_counts", "repro.experiments.compression"),
    ("repro.prism.profile.extract_features", "repro.experiments.table6"),
    ("repro.prism.profile.extract_features", "repro.experiments.lifetime"),
    ("repro.prism.profile.extract_features", "repro.experiments.sensitivity"),
    ("repro.correlate.framework.run_framework", "repro.experiments.figure4"),
} | {
    (f"repro.experiments.{m}.render", "repro.experiments.runner")
    for m in ("table2", "table3", "table5", "table6", "figure1", "figure2",
              "figure4", "lifetime", "techniques_study", "compression",
              "sensitivity")
}


@pytest.fixture(scope="module")
def runs():
    """One traced run of each batch suite at a tiny scale."""
    return {
        w: batch.run(w, seed=0, seconds=1, trace=True, scale=TINY,
                     report=lambda line: None)
        for w in batch.SUITES
    }


def test_install_rebinds_every_by_name_site_and_uninstall_restores():
    importlib.import_module("repro.experiments.runner")
    originals = {}
    for entries in LAYERS.values():
        for module_name, attr, _ in entries:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
            originals[f"{module_name}.{attr}"] = owner
    tracer = LayerTracer().install()
    try:
        for key, original in originals.items():
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and module is not None:
                    held = [a for a, v in vars(module).items() if v is original]
                    assert not held, f"{name}.{held} still holds bare {key}"
        system = sys.modules["repro.sim.system"]
        assert ("repro.sim.system", "filter_private") in tracer.sites
        assert ("repro.sim.system", "simulate_llc") in tracer.sites
        assert ("repro.experiments.lifetime", "replay_with_wear") in tracer.sites
        assert ("repro.techniques.evaluate", "filter_private") in tracer.sites
        assert system.filter_private is not originals[
            "repro.sim.hierarchy.filter_private"]
    finally:
        tracer.uninstall()
    system = sys.modules["repro.sim.system"]
    assert system.filter_private is originals["repro.sim.hierarchy.filter_private"]
    replay_cache = sys.modules["repro.sim.replay_cache"]
    assert replay_cache.ReplayCache.get is originals[
        "repro.sim.replay_cache.ReplayCache.get"]


def test_every_entry_point_is_reached_through_each_import_site(runs):
    seen = {
        (entry, caller)
        for run in runs.values()
        for entry, callers in run["callers"].items()
        for caller in callers
    }
    missing = EXPECTED_CALLERS - seen
    assert not missing, f"never called through: {sorted(missing)}"


def test_layers_predicted_idle_on_paper_read_zero(runs):
    metrics, missing = run.score(runs["paper"], PER_LAYER, traced=True)
    assert not missing
    for name in ("techniques.calls", "endurance.calls",
                 "techniques.self_s", "endurance.self_s"):
        assert name not in runs["paper"]["per_layer"]
        assert metrics[name]["value"] == 0
    endurance = runs["endurance"]["per_layer"]
    assert endurance["techniques.calls"] > 0
    assert endurance["endurance.calls"] > 0


def test_every_per_layer_metric_is_measured_or_predicted_idle(runs):
    for workload, result in runs.items():
        _, missing = run.score(result, PER_LAYER, traced=True)
        assert not missing, (workload, missing)


def test_an_entry_point_no_longer_reached_fails_the_run(runs):
    broken = dict(runs["paper"])
    broken["per_layer"] = {k: v for k, v in broken["per_layer"].items()
                           if not k.startswith("sim.llc.")}
    _, missing = run.score(broken, PER_LAYER, traced=True)
    assert missing == ["sim.llc.self_s", "sim.llc.calls",
                       "sim.llc.accesses_per_s"]


def test_unattributed_time_is_reported_for_every_batch_workload(runs):
    for workload, run in runs.items():
        layers = run["per_layer"]
        assert "unattributed_s" in layers, workload
        assert "trace_overhead_fraction" in layers, workload
        run_s = run["end_to_end"]["run_s"]
        assert 0 <= layers["unattributed_s"] < run_s, workload
        assert not run["failures"], run["failures"]


def test_self_times_do_not_exceed_the_run(runs):
    for workload, run in runs.items():
        layers = run["per_layer"]
        attributed = sum(v for k, v in layers.items()
                         if k.endswith(".self_s"))
        assert attributed <= run["end_to_end"]["run_s"] * 1.01, workload


def test_serve_sequence_is_seeded_mixed_and_balanced():
    home = serve_load.ring_home(["http://127.0.0.1:1", "http://127.0.0.1:2"])
    first = serve_load.job_sequence(7, 200, home)
    assert first == serve_load.job_sequence(7, 200, home)
    assert first != serve_load.job_sequence(8, 200, home)
    kinds = [kind for kind, _, _ in first]
    assert kinds.count("repeat") == 40 and kinds.count("reseed") == 40
    offered = set()
    for kind, experiment, seed in first:
        if kind == "repeat":
            assert (experiment, seed) in offered
        else:
            assert (experiment, seed) not in offered
        if kind == "reseed":
            # The reseed reads replays its source cached: the same seed
            # under another experiment.
            assert seed in {s for _, s in offered}
        offered.add((experiment, seed))
    # Both jobs of a round (pair) land on one shard, the shards take
    # turns, and each executes four distinct specs per block.
    shards = [home(e, s) for _, e, s in first]
    assert all(shards[i] == shards[i + 1] != shards[i + 2]
               for i in range(0, len(first) - 2, 2))
    size = len(serve_load.BLOCK)
    for start in range(0, len(first), size):
        executed = [shards[i] for i in range(start, start + size)
                    if first[i][0] != "repeat"]
        assert sorted(executed) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([3.0], 90) == 3.0


def test_ledger_keeps_every_source_tree(tmp_path):
    """Alternating runs of two trees (an A/B) keep both trees' digests."""
    path = tmp_path / "ledger.json"
    for source, render in (("tree-a", "a1"), ("tree-b", "b1")):
        ledger = harness.Ledger(path, source=source)
        assert ledger.check_digests("paper:0.5:1", {"table2": render}) == []
        ledger.record_run_s("paper:0.5", 10.0)
        ledger.save()
    again = harness.Ledger(path, source="tree-a")
    assert again.untraced_run_s("paper:0.5") == 10.0
    assert again.check_digests("paper:0.5:1", {"table2": "a1"}) == []
    assert again.check_digests("paper:0.5:1", {"table2": "moved"}) == ["table2"]
    other = harness.Ledger(path, source="tree-b")
    assert other.check_digests("paper:0.5:1", {"table2": "b1"}) == []


def test_fleet_counters_must_be_reported(monkeypatch):
    present = {name: 1 for name in serve_load.REQUIRED_COUNTERS}
    counts, failures = serve_load._counters(dict(present))
    assert not failures
    assert all(counts[name] == 0 for name in serve_load.OPTIONAL_COUNTERS)
    del present["replay_cache.hits"]
    _, failures = serve_load._counters(present)
    assert failures == ["fleet counter replay_cache.hits missing from /metrics"]
    monkeypatch.setattr(serve_load, "OPTIONAL_COUNTERS",
                        ("serve.store.renamed_hits",))
    present["replay_cache.hits"] = 1
    _, failures = serve_load._counters(present)
    assert failures == [
        "fleet counter serve.store.renamed_hits missing from /metrics"]
