"""Batch workloads: experiment suites run in one ``ExperimentContext``.

Each suite runs in a fresh child process (``python3 perfbench/batch.py
suite ...``) with its own empty replay cache, ``jobs=1`` and the
program's default engine, so the parent can read the child's peak RSS
and CPU time without the benchmark's own footprint.  Set-up time is
sampled again in short ``setup`` children and reported as a median.

A *job* of a batch workload is the whole suite: ``jobs_per_s`` is
``1 / run_s`` and ``job_p50_s`` = ``job_p90_s`` = ``run_s``.  They
repeat ``run_s`` because every workload prints every end-to-end metric;
per-experiment times are sub-second for half the experiments, too short
to compare across runs on a shared host, and are per-layer metrics
(``experiments.<id>_s``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness

#: Experiments per batch workload, in run order.  ``paper`` leaves out
#: coresweep: at scale 0.5 it took 44 of the suite's 56 s on a 2-vCPU
#: host, more than one run may take, and table5/figure2's four-thread
#: NPB traces already drive the private filter's coherence path.
SUITES: Dict[str, List[str]] = {
    "paper": [
        "table2", "table3", "table5", "table6", "figure1", "figure2",
        "figure4", "sensitivity",
    ],
    "endurance": ["lifetime", "techniques", "compression"],
}

#: Trace-length scale per suite.  ``repro.experiments.common`` notes
#: that below ~0.5 the fixed-area capacity effects of the paper's LLC
#: study fade, so ``paper`` runs at 0.5.  ``endurance`` took 34-42 s at
#: 0.5 and about 20 s at 0.25 on a 2-vCPU host, with technique and wear
#: replay still ~87% of it, so it runs at 0.25 to fit the time budget.
SCALES: Dict[str, float] = {"paper": 0.5, "endurance": 0.25}

#: Tracer layers each suite is predicted not to reach.  Their metrics,
#: the other suite's experiment times and the serve layers read 0; any
#: other per-layer metric a traced run does not produce means an entry
#: point is no longer reached, and fails the run.
IDLE_LAYERS: Dict[str, List[str]] = {
    "paper": ["techniques", "endurance"],
    "endurance": ["correlate"],
}

#: Set-up samples per run (the suite child's own set-up is one more).
SETUP_PROBES = 4

#: Offset between the benchmark seed and the trace seed, keeping the
#: generated traces apart from the fixed seeds some experiments use.
TRACE_SEED_BASE = 100_000


def trace_seed(seed: int) -> int:
    return TRACE_SEED_BASE + seed


# -- child side -----------------------------------------------------------


def _setup(seed: int, scale: float):
    """Imports plus context start-up; returns (context, run_experiment,
    seconds)."""
    start = time.perf_counter()
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import run_experiment

    context = ExperimentContext(scale=scale, seed=trace_seed(seed), jobs=1)
    return context, run_experiment, time.perf_counter() - start


def child_setup(args) -> dict:
    _, _, setup_s = _setup(args.seed, args.scale)
    return {"setup_s": setup_s}


def child_suite(args) -> dict:
    import resource

    context, run_experiment, setup_s = _setup(args.seed, args.scale)
    from repro.errors import ReproError

    tracer = None
    if args.trace:
        from perfbench.tracer import LayerTracer

        tracer = LayerTracer().install()
    experiments: Dict[str, dict] = {}
    errors: List[str] = []
    features = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for name in SUITES[args.workload]:
        start = time.perf_counter()
        try:
            title, text, features = run_experiment(name, context, features)
        except ReproError as error:
            errors.append(f"{name}: {type(error).__name__}: {error}")
            continue
        experiments[name] = {
            "s": time.perf_counter() - start,
            "digest": harness.digest(f"{title}\n{text}".encode()),
        }
    run_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "experiments": experiments,
        "errors": errors,
        "defaults": harness.resolved_defaults(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["attributed_s"] = tracer.attributed_s()
        out["sites"] = sorted(f"{m}.{a}" for m, a in tracer.sites)
        out["callers"] = {k: sorted(v) for k, v in tracer.callers.items()}
        tracer.uninstall()
    return out


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/batch.py")
    parser.add_argument("mode", choices=("setup", "suite"))
    parser.add_argument("--workload", choices=sorted(SUITES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = child_setup(args) if args.mode == "setup" else child_suite(args)
    print(json.dumps(result, sort_keys=True))
    return 0


# -- parent side ----------------------------------------------------------


def _suite(workload: str, seed: int, scale: float, trace: bool,
           timeout_s: float) -> dict:
    argv = [str(Path(__file__)), "suite", "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale)]
    if trace:
        argv.append("--trace")
    with harness.run_directory(workload) as run_dir:
        return harness.run_child(argv, harness.isolated_env(run_dir), timeout_s)


def _setup_samples(workload: str, seed: int, scale: float) -> List[float]:
    argv = [str(Path(__file__)), "setup", "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale)]
    samples = []
    with harness.run_directory(f"{workload}-setup") as run_dir:
        env = harness.isolated_env(run_dir)
        for _ in range(SETUP_PROBES):
            samples.append(harness.run_child(argv, env, 60.0)["setup_s"])
    return samples


def run(workload: str, seed: int, seconds: int, trace: bool,
        scale: Optional[float] = None, report=print) -> dict:
    """One batch run; returns the result record for :mod:`perfbench.run`.

    ``seconds`` does not bound a batch run: the work is one whole suite
    so every run measures the same computation.  ``scale`` defaults to
    the suite's :data:`SCALES` entry.
    """
    if scale is None:
        scale = SCALES[workload]
    suite = _suite(workload, seed, scale, trace, timeout_s=170.0)
    setup = [suite["setup_s"]] + _setup_samples(workload, seed, scale)
    names = SUITES[workload]
    attempted = len(names)
    failures = list(suite["errors"])

    ledger = harness.Ledger()
    run_key = f"{workload}:{scale!r}"
    digests = {n: e["digest"] for n, e in suite["experiments"].items()}
    for name in ledger.check_digests(f"{run_key}:{seed}", digests):
        failures.append(f"{name}: render differs from an earlier run "
                        "of the same source tree")
    for name in names:
        if name in digests:
            report(f"digest {name} {digests[name]} "
                   f"({suite['experiments'][name]['s']:.3f} s)")

    e2e = {
        "run_s": suite["run_s"],
        "cpu_s": suite["cpu_s"],
        "peak_rss_mb": suite["peak_rss_mb"],
        "jobs_per_s": 1 / suite["run_s"],
        "job_p50_s": suite["run_s"],
        "job_p90_s": suite["run_s"],
        "setup_s": harness.median(setup),
    }
    info = {"defaults": suite["defaults"], "scale": scale,
            "trace_seed": trace_seed(seed), "setup_samples": setup}
    layers = {}
    if trace:
        untraced = ledger.untraced_run_s(run_key)
        if untraced is None:
            untraced = _suite(workload, seed, scale, False, 170.0)["run_s"]
        layers = dict(suite["layers"])
        for name in names:
            layers[f"experiments.{name}_s"] = (
                suite["experiments"].get(name, {}).get("s", 0.0)
            )
        layers["unattributed_s"] = suite["run_s"] - suite["attributed_s"]
        layers["trace_overhead_fraction"] = suite["run_s"] / untraced - 1
        info["untraced_run_s"] = untraced
    else:
        ledger.record_run_s(run_key, suite["run_s"])
    ledger.save()
    idle = [f"{layer}." for layer in IDLE_LAYERS[workload]] + ["serve."]
    idle += [f"experiments.{name}_s" for suite_name, suite_names in
             SUITES.items() if suite_name != workload for name in suite_names]
    return {
        "attempted": attempted,
        "failures": failures,
        "end_to_end": e2e,
        "per_layer": layers,
        "idle": idle,
        "info": info,
        "callers": suite.get("callers", {}),
    }


if __name__ == "__main__":
    sys.exit(child_main())
