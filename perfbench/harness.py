"""Shared plumbing for the benchmark: checkout layout, run isolation,
statistics, render digests and the cross-run digest ledger.

Everything the benchmark writes lives under ``<checkout>/.perfbench``:
one throwaway directory per run (removed when the run ends) and a small
ledger of render digests and untraced run times keyed by a fingerprint
of the program's source tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: Checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parents[1]

#: The program's import root.
SRC = ROOT / "src"

#: Scratch space for every run (ignored by git).
STATE_DIR = ROOT / ".perfbench"

#: Environment knobs cleared for every run: the first three so the
#: program runs at its defaults (the resolved values are printed with
#: every result, so a change of default shows up as a program change),
#: the rest so observability stays off and no state is shared with
#: anything outside the run directory.
STRIPPED_KNOBS = (
    "REPRO_REPLAY_CACHE",
    "REPRO_SIM_ENGINE",
    "REPRO_VALIDATE",
    "REPRO_METRICS",
    "REPRO_TRACE_FILE",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_MB",
    "REPRO_SPILL_DIR",
    "REPRO_FAULT_HOOK",
    "REPRO_SERVE_URL",
    "REPRO_SERVE_SHARDS",
    "REPRO_SERVE_DIR",
    "REPRO_SERVE_STORE_DIR",
    "REPRO_SERVE_STORE_URL",
    "REPRO_SERVE_PORT",
    "REPRO_SERVE_WORKERS",
    "REPRO_SERVE_LOG",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC}: expected src/repro")


@contextmanager
def run_directory(tag: str) -> Iterator[Path]:
    """A fresh, empty directory for one run, removed afterwards."""
    path = STATE_DIR / "runs" / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def isolated_env(run_dir: Path) -> Dict[str, str]:
    """Child environment: program on the path, shared state in ``run_dir``."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_KNOBS}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_CACHE_DIR"] = str(run_dir / "replay")
    env["TMPDIR"] = str(run_dir / "tmp")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def isolate_process(run_dir: Path) -> None:
    """Apply :func:`isolated_env` to this process (before importing the
    program) and put the program on ``sys.path``."""
    env = isolated_env(run_dir)
    for knob in STRIPPED_KNOBS:
        os.environ.pop(knob, None)
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_child(
    argv: Sequence[str], env: Dict[str, str], timeout_s: float
) -> dict:
    """Run a benchmark child process; returns its last stdout line as JSON.

    The child is killed (and reaped) on timeout or when the caller is
    interrupted; a non-zero exit or a missing result raises :class:`BenchError` with the stderr tail.
    """
    process = subprocess.Popen(
        [sys.executable, *argv],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} timed out after {timeout_s:g}s") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(argv)} exited {process.returncode}: {err[-800:]}"
        )
    return json.loads(lines[-1])


def host_fingerprint() -> Dict[str, object]:
    """The host facts that change what a second means."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def resolved_defaults() -> Dict[str, object]:
    """The program's defaults for the knobs the benchmark leaves alone
    (call in a process whose environment :func:`isolated_env` built)."""
    from repro.sim.engine import resolve_engine
    from repro.sim.replay_cache import cache_enabled
    from repro.validate.policy import current_policy

    return {
        "engine": resolve_engine(None),
        "replay_cache": cache_enabled(),
        "validate": current_policy().value,
        "metrics": bool(os.environ.get("REPRO_METRICS")),
    }


# -- statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# -- digests and ledger -------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def source_fingerprint() -> str:
    """Digest of every file of the program's source tree."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class Ledger:
    """Render digests and untraced run times of earlier runs of the same
    source tree, so a render that changes between runs of one commit is
    caught, and a traced run can be compared to an untraced one."""

    def __init__(
        self,
        path: Path = STATE_DIR / "ledger.json",
        source: Optional[str] = None,
    ) -> None:
        self.path = path
        self.source = source or source_fingerprint()
        try:
            self.trees: dict = json.loads(path.read_text())
        except (OSError, ValueError):
            self.trees = {}
        # Every tree's entries are kept, so runs of two trees can
        # alternate in one checkout (an A/B) without erasing each other.
        self.entries: dict = self.trees.setdefault(self.source, {})

    def check_digests(self, key: str, digests: Dict[str, str]) -> List[str]:
        """Record ``digests`` under ``key``; returns the names whose
        digest differs from an earlier run's."""
        seen = self.entries.setdefault("digests", {}).setdefault(key, {})
        moved = [n for n, d in digests.items() if seen.get(n, d) != d]
        for name, value in digests.items():
            seen.setdefault(name, value)
        return moved

    def record_run_s(self, key: str, run_s: float) -> None:
        self.entries.setdefault("run_s", {}).setdefault(key, []).append(run_s)

    def untraced_run_s(self, key: str) -> Optional[float]:
        values = self.entries.get("run_s", {}).get(key)
        return median(values) if values else None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.trees, sort_keys=True))
        os.replace(tmp, self.path)
