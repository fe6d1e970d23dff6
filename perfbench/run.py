"""Repository benchmark: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the checkout root.

Workloads (see ``perfbench/README.md`` for why each exists):

- ``paper``      the paper's tables and figures (all but coresweep) at
                 trace scale 0.5;
- ``endurance``  the lifetime, techniques and compression studies at
                 trace scale 0.25;
- ``serve``      a router and two shards under a closed-loop job mix.

Every number is host time or host memory.  Simulated statistics are
checked for identity (render and payload digests), never scored.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness  # noqa: E402

WORKLOADS = ("paper", "endurance", "serve")


def _spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def score(result: dict, entries: list, traced: bool):
    """The scored metrics of ``result`` and the names it failed to measure.

    Per-layer metrics a workload does not run (its ``idle`` names or
    name prefixes) read 0.  Any other metric the workload did not
    produce is a broken measurement, not a 0.
    """
    section = "per_layer" if traced else "end_to_end"
    idle = tuple(result["idle"]) if traced else ()
    metrics, missing = {}, []
    for entry in entries:
        name = entry["name"]
        if name in result[section]:
            value = float(result[section][name])
        else:
            value = 0.0
            if not name.startswith(idle):
                missing.append(name)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still unwinds, so the fleet and suite
    # children it started are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        harness.require_program()
        spec = _spec()
        if args.workload == "serve":
            from perfbench import serve_load as workload
        else:
            from perfbench import batch as workload
        result = workload.run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except harness.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    metrics, missing = score(result, spec[section], bool(args.trace))
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    attempted = result["attempted"]
    # A missing metric fails the run as a whole: one failure, however
    # many metrics are missing.
    failed = min(attempted, len(result["failures"]) + bool(missing))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"FAILED metric {name} was not measured")
    print(f"failed_fraction: {failed / attempted:.6g} fraction "
          f"({failed} of {attempted})")
    print("host " + json.dumps(harness.host_fingerprint(), sort_keys=True))
    print("settings " + json.dumps(result["info"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
