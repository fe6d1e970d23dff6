"""Serve workload: a router and two shards under a closed-loop load.

The fleet is three ``python -m repro.cli`` processes (two ``serve``
shards sharing one result store, one ``router``), started with fresh
state, store and replay-cache directories on ports derived from the
seed.  One process drives it over two connections in a closed loop of
rounds: each connection sends one job, waits for its result, and the
next round starts when both are done.  A run offers a fixed number of
jobs, :data:`JOBS_PER_SECOND` per ``--seconds`` and at least
:data:`MIN_JOBS`, in whole blocks, so every seed offers the same mix
and the p90 has ten samples beyond it.

The job sequence is seeded and mixes three kinds of small real spec:

- ``new``     a fresh (experiment, seed): execution and a store write;
- ``repeat``  a recent spec again: queue dedup and router coalescing;
- ``reseed``  an earlier seed under another experiment: replay-cache
              reads of the traces that seed already replayed (see
              :data:`SPEC_SCALE`).
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import harness

#: Experiments the load draws from.  table5 and figure1 replay the same
#: twenty traces per seed, so a ``reseed`` between them reads what its
#: source cached.  sensitivity replays traces of its own fixed seeds,
#: so every sensitivity job after the first reads them from the cache.
EXPERIMENTS = ("table5", "figure1", "sensitivity")

#: Trace scale of every spec, the smallest that still reaches the
#: replay cache: it skips traces under ``DEFAULT_MIN_ACCESSES`` (10 000)
#: accesses, and at 0.02 exchange2's trace has 11 000 (the other
#: nineteen have 5 000-6 000).  So the reads above are of exchange2's
#: replays.  One scale for every spec keeps the latency distribution in
#: one cluster: with the sources at 0.05 and the rest at 0.02, the
#: median fell in the gap between two clusters and spread 13% over five
#: seeds.
SPEC_SCALE = 0.02

#: One block of the job sequence: ``(kind, experiment slot, source,
#: shard)``.  Slots index the block's rotation of :data:`EXPERIMENTS`;
#: ``source`` is the position in the block whose spec seed is reused
#: (``reseed``) or whose spec is offered again (``repeat``); ``shard``
#: is the ring shard the spec must land on (swapped every other block).
#: The loop offers the sequence in rounds of two consecutive jobs (see
#: :class:`ClosedLoop`), both on one shard and the shards taking turns,
#: so one job executes at a time and the second vCPU of a 2-vCPU host is
#: left to the router and the client.  Each block is five rounds:
#:
#: 1. a spec and its repeat: queue dedup of a job in flight and router
#:    wait coalescing;
#: 2. two new specs: one waits in the queue;
#: 3. a reseed of round 1's spec (replay-cache reads) and a new spec;
#: 4. a new spec and a reseed of round 2's first spec;
#: 5. a repeat of round 3's new spec, finished by then (dedup of a done
#:    job), and a new spec.
#:
#: 60% new, 20% repeat, 20% reseed; each shard executes four specs.
#: With seed-drawn placement and free-running connections, which jobs
#: overlapped changed from run to run: ``run_s`` spread 22% over ten
#: seeds against 9% for the fleet's CPU time.  Rounds with one job per
#: shard ran two jobs beside the router and the client on two vCPUs,
#: and spread 31% over five seeds; these rounds spread 10-17%.
BLOCK = (
    ("new", 0, None, 0),
    ("repeat", None, 0, None),
    ("new", 1, None, 1),
    ("new", 2, None, 1),
    ("reseed", 1, 0, 0),
    ("new", 0, None, 0),
    ("new", 1, None, 1),
    ("reseed", 0, 2, 1),
    ("repeat", None, 5, None),
    ("new", 2, None, 0),
)

#: Jobs offered per ``--seconds`` (about the rate of a 2-vCPU host, so
#: a run lasts about ``--seconds`` there), and the floor on jobs per run.
JOBS_PER_SECOND = 3
MIN_JOBS = 100

#: Concurrent closed-loop connections.
CONNECTIONS = 2

#: Worker threads per shard.  With one, two jobs placed on the same shard
#: queue instead of sharing one interpreter lock, so the queue layer
#: does real work and latency grows smoothly with the wait.
SHARD_WORKERS = 1

#: Fleet start-ups per run; the median is ``setup_s`` and the last
#: fleet carries the load.
SETUP_CYCLES = 3

#: Served payloads re-executed in-process to check the bytes.
SAMPLED_CHECKS = 3

JOB_TIMEOUT_S = 60.0
STARTUP_TIMEOUT_S = 30.0
PORT_LOW, PORT_SPAN = 20000, 12000  # below the Linux ephemeral range


def job_sequence(
    seed: int, length: int, home: Callable[[str, int], int]
) -> List[Tuple[str, str, int]]:
    """``length`` seeded ``(kind, experiment, spec_seed)`` entries.

    Blocks follow :data:`BLOCK` with the experiments rotated by one slot
    per block; the seed draws the spec seeds.  ``home(experiment,
    spec_seed)`` is the index of the shard the router sends a spec to,
    and a seed is redrawn until its spec (and the ``reseed`` that reuses
    it) lands on the block's shard.  So every seed offers the same
    number of each kind and experiment, the same reuse pattern and the
    same per-shard split, over different traces.
    """
    rng = random.Random(f"serve-mix:{seed}")
    reseeds = {source: (slot, shard)
               for kind, slot, source, shard in BLOCK if kind == "reseed"}
    used = set()
    out: List[Tuple[str, str, int]] = []
    block_index = 0
    while len(out) < length:
        shift = block_index % len(EXPERIMENTS)
        rotation = EXPERIMENTS[shift:] + EXPERIMENTS[:shift]
        flip = block_index % 2

        def fits(position: int, spec_seed: int) -> bool:
            _, slot, _, shard = BLOCK[position]
            targets = [(slot, shard)]
            if position in reseeds:
                targets.append(reseeds[position])
            return spec_seed not in used and all(
                home(rotation[slot], spec_seed) == shard ^ flip
                for slot, shard in targets)

        block: List[Tuple[str, str, int]] = []
        for position, (kind, slot, source, _) in enumerate(BLOCK):
            if kind == "repeat":
                block.append(("repeat",) + block[source][1:])
                continue
            if kind == "reseed":
                spec_seed = block[source][2]
            else:
                spec_seed = rng.randrange(1, 1 << 30)
                while not fits(position, spec_seed):
                    spec_seed = rng.randrange(1, 1 << 30)
                used.add(spec_seed)
            block.append((kind, rotation[slot], spec_seed))
        out.extend(block)
        block_index += 1
    return out[:length]


def ring_home(shard_urls: List[str]) -> Callable[[str, int], int]:
    """The router's placement: spec -> index of its shard in ``shard_urls``."""
    from repro.serve.jobs import normalize_spec, spec_digest
    from repro.serve.ring import VersionedRing

    ring = VersionedRing(shard_urls)

    def home(experiment: str, seed: int) -> int:
        spec = normalize_spec(
            {"experiment": experiment, "scale": SPEC_SCALE, "seed": seed})
        return shard_urls.index(ring.node_for(spec_digest(spec)))

    return home


def fleet_ports(seed: int) -> List[int]:
    """Three consecutive free ports drawn from a seeded sequence."""
    rng = random.Random(f"serve-ports:{seed}")
    for _ in range(50):
        base = PORT_LOW + rng.randrange(PORT_SPAN - 3)
        ports = [base, base + 1, base + 2]
        if all(_port_free(p) for p in ports):
            return ports
    raise harness.BenchError("no free port triple for the fleet")


def _port_free(port: int) -> bool:
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def _healthy(url: str) -> bool:
    try:
        with urllib.request.urlopen(url + "/healthz", timeout=1.0) as r:
            return r.status == 200
    except OSError:
        return False


class BenchFleet:
    """Two :class:`repro.serve.fleet.ShardProcess` shards and a router
    process on fixed ports.

    The program's own ``Fleet`` runs its router in-process; here the
    router is a separate ``repro.cli router`` process, as in a deployed
    fleet.  ``ShardProcess`` leaves the shard's stdout pipe undrained
    after the start-up banner, which is safe because a shard logs no
    requests unless ``REPRO_SERVE_LOG`` is set (the harness clears it).
    """

    def __init__(self, run_dir: Path, ports: List[int], env: Dict[str, str]):
        self.run_dir = run_dir
        self.ports = ports
        self.env = env
        self.shards: list = []
        self.router: Optional[subprocess.Popen] = None
        self._log = None
        self.url = f"http://127.0.0.1:{ports[2]}"

    def start(self, generation: int) -> float:
        """Spawn the fleet with fresh dirs; returns seconds to healthy."""
        from repro.errors import ServeError
        from repro.serve.fleet import ShardProcess

        root = self.run_dir / f"fleet{generation}"
        start = time.perf_counter()
        for index, port in enumerate(self.ports[:2]):
            shard = ShardProcess(index, root / f"shard{index}", root / "store",
                                 workers=SHARD_WORKERS, port=port,
                                 extra_env=self.env)
            self.shards.append(shard)
            try:
                shard.start()
            except ServeError as error:
                raise harness.BenchError(str(error)) from None
        self._log = open(self.run_dir / f"router{generation}.log", "w")
        self.router = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "router",
             "--shards", ",".join(s.url for s in self.shards),
             "--host", "127.0.0.1", "--port", str(self.ports[2])],
            cwd=str(harness.ROOT), env=self.env,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not _healthy(self.url):
            if self.router.poll() is not None:
                raise harness.BenchError(
                    f"router exited during start-up; see {self.run_dir}")
            if time.monotonic() > deadline:
                raise harness.BenchError(f"router not healthy: {self.url}")
            time.sleep(0.02)
        return time.perf_counter() - start

    def _pids(self) -> List[int]:
        return [s.process.pid for s in self.shards] + [self.router.pid]

    def usage(self) -> Tuple[float, float]:
        """(CPU seconds, largest peak RSS in MB) over live fleet processes."""
        tick = os.sysconf("SC_CLK_TCK")
        cpu, rss = 0.0, 0.0
        for pid in self._pids():
            proc = Path(f"/proc/{pid}")
            fields = (proc / "stat").read_text().rsplit(")", 1)[1].split()
            cpu += (int(fields[11]) + int(fields[12])) / tick
            for line in (proc / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    rss = max(rss, int(line.split()[1]) / 1024)
        return cpu, rss

    def stop(self) -> None:
        """SIGTERM (graceful drain) the router, then every shard; reap all."""
        if self.router is not None:
            if self.router.poll() is None:
                self.router.send_signal(signal.SIGTERM)
            try:
                self.router.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.router.kill()
                self.router.wait(timeout=10.0)
            self._log.close()
        for shard in self.shards:
            shard.terminate(timeout_s=30.0)
        self.shards, self.router, self._log = [], None, None


class ClosedLoop:
    """Offers the sequence in rounds of :data:`CONNECTIONS` consecutive
    jobs, one per connection: each connection sends its job of the round
    and waits for the result, and the next round starts when every job
    of the round is done.  So the jobs that run side by side are the
    same on every run."""

    def __init__(self, url: str, sequence, traced: bool) -> None:
        from repro.serve import ServeClient

        if len(sequence) % CONNECTIONS:
            raise harness.BenchError("sequence is not whole rounds")
        self.clients = [ServeClient(url, timeout_s=JOB_TIMEOUT_S)
                        for _ in range(CONNECTIONS)]
        self.sequence = sequence
        self.traced = traced
        self.records: List[dict] = []
        self._lock = threading.Lock()
        self._round = threading.Barrier(CONNECTIONS)

    def _job(self, client, kind: str, experiment: str, seed: int) -> dict:
        from repro.errors import ReproError

        rec = {"kind": kind, "spec": (experiment, seed), "error": None}
        t0 = time.perf_counter()
        try:
            job = client.submit(experiment, scale=SPEC_SCALE, seed=seed)["job"]
            t1 = time.perf_counter()
            running = t1
            if self.traced:
                client.wait_state(job["id"], "running", timeout_s=JOB_TIMEOUT_S)
                running = time.perf_counter()
            state = client.wait(job["id"], timeout_s=JOB_TIMEOUT_S)
            t3 = time.perf_counter()
            if state["state"] != "done":
                raise harness.BenchError(
                    f"job {job['id']} ended {state['state']}: {state['error']}")
            payload = client.result_bytes(job["id"])
            t4 = time.perf_counter()
        except (ReproError, harness.BenchError, OSError) as error:
            rec["error"] = f"{type(error).__name__}: {error}"
            return rec
        rec.update(digest=job["digest"], payload=payload, latency=t4 - t0,
                   submit=t1 - t0, queue=running - t1, run=t3 - running,
                   fetch=t4 - t3)
        return rec

    def _connection(self, index: int) -> None:
        try:
            for entry in self.sequence[index::CONNECTIONS]:
                rec = self._job(self.clients[index], *entry)
                with self._lock:
                    self.records.append(rec)
                self._round.wait(timeout=3 * JOB_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass
        finally:
            # A connection that stops early releases the other one.
            self._round.abort()

    def run(self, timeout_s: float) -> float:
        """Offer the whole sequence; returns the loop's wall time."""
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._connection, args=(i,), daemon=True)
            for i in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, start + timeout_s - time.perf_counter()))
        if any(t.is_alive() for t in threads):
            self._round.abort()
            raise harness.BenchError(f"closed loop not done in {timeout_s:g}s")
        if len(self.records) < len(self.sequence):
            raise harness.BenchError("closed loop stalled between rounds")
        return time.perf_counter() - start


def _fleet_counts(url: str) -> Dict[str, float]:
    with urllib.request.urlopen(url + "/metrics", timeout=30.0) as response:
        return json.loads(response.read()).get("counters", {})


def _check_payloads(records: List[dict], seed: int) -> List[str]:
    """Repeats must match the first bytes; a seeded sample must match an
    in-process execution of the same spec."""
    from repro.serve.jobs import JobSpec, execute_spec

    failures = []
    first: Dict[str, Tuple[tuple, bytes]] = {}
    for rec in records:
        if rec["error"] is not None:
            continue
        seen = first.setdefault(rec["digest"], (rec["spec"], rec["payload"]))
        if seen[1] != rec["payload"]:
            failures.append(f"{rec['spec']}: repeat bytes differ")
    rng = random.Random(f"serve-check:{seed}")
    specs = sorted(first)
    for key in rng.sample(specs, min(SAMPLED_CHECKS, len(specs))):
        (experiment, spec_seed), served = first[key]
        local = execute_spec(JobSpec(experiment, SPEC_SCALE, spec_seed))
        if local != served:
            failures.append(f"{first[key][0]}: served bytes differ "
                            "from in-process execute_spec")
    return failures


def _p(values: List[float], q: float) -> float:
    return harness.percentile(values, q) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: bool,
        report=print) -> dict:
    """One serve run; returns the result record for :mod:`perfbench.run`."""
    with harness.run_directory(workload) as run_dir:
        env = harness.isolated_env(run_dir)
        # The in-process checks below use their own replay cache.
        harness.isolate_process(run_dir / "local")
        defaults = harness.resolved_defaults()
        ports = fleet_ports(seed)
        fleet = BenchFleet(run_dir, ports, env)
        setup = []
        try:
            for generation in range(SETUP_CYCLES):
                if generation:
                    fleet.stop()
                setup.append(fleet.start(generation))
            n_jobs = max(MIN_JOBS, JOBS_PER_SECOND * seconds)
            n_jobs = -(-n_jobs // len(BLOCK)) * len(BLOCK)
            home = ring_home([shard.url for shard in fleet.shards])
            loop = ClosedLoop(fleet.url, job_sequence(seed, n_jobs, home),
                              trace)
            cpu0, _ = fleet.usage()
            wall = loop.run(timeout_s=120.0)
            cpu1, peak_rss = fleet.usage()
            counts = _fleet_counts(fleet.url) if trace else {}
        finally:
            fleet.stop()
        records = loop.records
        ok = [r for r in records if r["error"] is None]
        failures = [f"{r['spec']}: {r['error']}" for r in records if r["error"]]
        failures += _check_payloads(records, seed)
        if trace:
            counts, missing = _counters(counts)
            failures += missing
    latencies = [r["latency"] for r in ok] or [wall]
    digests = sorted({(r["spec"], harness.digest(r["payload"])) for r in ok})
    report(f"digest served {harness.digest(repr(digests).encode())} "
           f"({len(digests)} distinct specs)")
    e2e = {
        "run_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss,
        "jobs_per_s": len(ok) / wall,
        "job_p50_s": harness.median(latencies),
        "job_p90_s": harness.percentile(latencies, 90),
        "setup_s": harness.median(setup),
    }
    info = {"defaults": defaults, "ports": ports, "jobs": len(records),
            "kinds": {k: sum(r["kind"] == k for r in records)
                      for k in ("new", "repeat", "reseed")},
            "setup_samples": setup}
    layers = {}
    if trace:
        layers = _layers(ok, counts)
    return {
        "attempted": max(1, len(records)),
        "failures": failures,
        "end_to_end": e2e,
        "per_layer": layers,
        "idle": IDLE,
        "info": info,
    }


#: Fleet counters every run must report: new jobs probe the result
#: store, execute and write it; each repeat finds its source in the
#: home shard's queue; reseeds read the traces an earlier job cached.
REQUIRED_COUNTERS = (
    "serve.jobs.executed", "serve.jobs.deduped", "serve.store.misses",
    "serve.store.stores", "replay_cache.hits", "replay_cache.misses",
    "replay_cache.stores",
)

#: Counters a correct run may leave unset: a shard the ring gives no
#: job, a repeat whose source had finished before it arrived (no wait to
#: coalesce), and result-store hits, which need a spec to reach a shard
#: other than the one whose queue holds it.
OPTIONAL_COUNTERS = (
    "serve.shard.0.jobs.executed", "serve.shard.1.jobs.executed",
    "serve.router.wait_coalesced", "serve.store.hits",
)

#: Per-layer metrics (names or prefixes) the serve workload does not
#: measure: the tracer's layers live in the batch workloads, and the
#: replay cache's time is spent inside the shard processes.
IDLE = (
    "workloads.", "sim.hierarchy.", "sim.llc.", "sim.replay_cache.self_s",
    "techniques.", "endurance.", "nvsim.", "prism.", "correlate.",
    "report.", "experiments.", "unattributed_s", "trace_overhead_fraction",
)


def _counters(counts: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """The fleet counters the layers need, and failures for any missing.

    A required counter must be present.  An optional one reads 0 when
    absent, but only while the program still increments a counter of
    that name, so a renamed counter fails rather than reads 0.
    """
    source = "\n".join(p.read_text() for p in (harness.SRC / "repro").rglob("*.py"))
    out, failures = {}, []
    for name in REQUIRED_COUNTERS + OPTIONAL_COUNTERS:
        if name in counts:
            out[name] = counts[name]
            continue
        # The router derives the per-shard names from the shards' own.
        literal = ('"serve.shard.{' if name.startswith("serve.shard.")
                   else f'"{name}"')
        if name in REQUIRED_COUNTERS or literal not in source:
            failures.append(f"fleet counter {name} missing from /metrics")
        out[name] = 0
    return out, failures


def _layers(ok: List[dict], counts: Dict[str, float]) -> Dict[str, float]:
    executed = counts["serve.jobs.executed"]
    offered = len(ok)
    distinct = len({r["digest"] for r in ok})
    per_shard = [counts[f"serve.shard.{i}.jobs.executed"] for i in range(2)]
    mean = sum(per_shard) / len(per_shard)
    return {
        "serve.submit_p50_s": _p([r["submit"] for r in ok], 50),
        "serve.queue_wait_p50_s": _p([r["queue"] for r in ok], 50),
        "serve.queue_wait_p90_s": _p([r["queue"] for r in ok], 90),
        "serve.run_p50_s": _p([r["run"] for r in ok], 50),
        "serve.fetch_p50_s": _p([r["fetch"] for r in ok], 50),
        "serve.jobs.executed": executed,
        "serve.jobs.deduped": counts["serve.jobs.deduped"],
        "serve.router.wait_coalesced": counts["serve.router.wait_coalesced"],
        "serve.store.hits": counts["serve.store.hits"],
        "serve.store.misses": counts["serve.store.misses"],
        "serve.store.stores": counts["serve.store.stores"],
        "serve.dedup_ratio": (
            (offered - executed) / (offered - distinct)
            if offered > distinct else 0.0
        ),
        "serve.shard_imbalance": max(per_shard) / mean if mean else 0.0,
        "sim.replay_cache.hits": counts["replay_cache.hits"],
        "sim.replay_cache.misses": counts["replay_cache.misses"],
        "sim.replay_cache.stores": counts["replay_cache.stores"],
    }
