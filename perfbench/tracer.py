"""Per-layer host-time tracer for the batch workloads.

The tracer wraps each layer's public entry points and rebinds the
wrapper at every by-name import site: the defining module, every
``repro.*`` module that did ``from <module> import <name>`` (for
example :mod:`repro.sim.system` holds its own ``filter_private`` and
``simulate_llc``) and, for methods, the class.  Imports made after
:meth:`LayerTracer.install` bind the wrapper because the defining
module already holds it.

Time is kept on a call stack, so a layer's *self* time excludes the
layers it calls (``evaluate_technique`` -> ``filter_private`` counts
the filter once, under ``sim.hierarchy``).  The tracer is meant for
the single-threaded batch runs; every number is host time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

#: Experiment modules whose ``render`` forms the ``report`` layer.
EXPERIMENT_MODULES = (
    "table2", "table3", "table5", "table6", "figure1", "figure2",
    "figure4", "coresweep", "lifetime", "techniques_study", "compression",
    "sensitivity",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _len_arg(index: int, name: str) -> Callable:
    return lambda args, kwargs: len(_arg(args, kwargs, index, name))


def _private_split(args, kwargs) -> Tuple[int, str]:
    trace = _arg(args, kwargs, 0, "trace")
    return len(trace), ("mt" if trace.n_threads > 1 else "st")


#: layer -> [(module, attribute, accesses-before-call)].  The optional
#: callable returns the accesses the call processes (or ``(accesses,
#: kind)``); generators count their output instead (see ``_RESULT_LEN``).
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "workloads": [
        ("repro.workloads.generators", "generate_from_profile", None),
        ("repro.workloads.generators", "generate_trace", None),
    ],
    "sim.hierarchy": [("repro.sim.hierarchy", "filter_private", _private_split)],
    "sim.llc": [("repro.sim.llc", "simulate_llc", _len_arg(0, "stream"))],
    "sim.replay_cache": [
        ("repro.sim.replay_cache", "ReplayCache.get", None),
        ("repro.sim.replay_cache", "ReplayCache.put", None),
    ],
    "techniques": [
        ("repro.techniques.replay", "replay_with_technique", _len_arg(0, "stream")),
        ("repro.techniques.evaluate", "evaluate_technique", None),
    ],
    "endurance": [
        ("repro.endurance.wear", "replay_with_wear", _len_arg(0, "stream")),
        ("repro.endurance.lifetime", "estimate_lifetime", None),
    ],
    "nvsim.pricing": [("repro.nvsim.pricing", "price_counts", None)],
    "prism": [
        ("repro.prism.profile", "extract_features", None),
        ("repro.prism.reuse", "stream_reuse_profile", None),
    ],
    "correlate": [("repro.correlate.framework", "run_framework", None)],
    "report": [
        (f"repro.experiments.{name}", "render", None)
        for name in EXPERIMENT_MODULES
    ],
}

#: Entry points whose work is the length of what they return
#: (``generate_trace`` delegates to ``generate_from_profile``).
_RESULT_LEN = {"generate_from_profile"}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    accesses: Dict[str, int] = field(default_factory=dict)
    busy_s: Dict[str, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    stores: int = 0


class LayerTracer:
    """Wraps :data:`LAYERS` entry points; aggregates self time per layer."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {n: LayerStats() for n in LAYERS}
        #: (module, attribute) -> (owner object, original) for uninstall.
        self.sites: Dict[Tuple[str, str], Tuple[object, object]] = {}
        #: entry -> modules whose code called it (the import sites used).
        self.callers: Dict[str, Set[str]] = {}
        self._stack: List[List[float]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "LayerTracer":
        for layer, entries in LAYERS.items():
            for module_name, attr, counter in entries:
                module = importlib.import_module(module_name)
                owner, name = module, attr
                if "." in attr:
                    class_name, name = attr.split(".")
                    owner = getattr(module, class_name)
                original = getattr(owner, name)
                wrapper = self._wrap(layer, f"{module_name}.{attr}", original, counter)
                self._bind(owner, name, original, wrapper)
        return self

    def _bind(self, owner, name: str, original, wrapper) -> None:
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                m for key, m in list(sys.modules.items())
                if key.startswith("repro") and m is not owner and m is not None
            ]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is original:
                    setattr(target, attr, wrapper)
                    site = getattr(target, "__name__", repr(target))
                    if isinstance(target, type):
                        site = f"{target.__module__}.{target.__name__}"
                    self.sites[(site, attr)] = (target, original)

    def uninstall(self) -> None:
        for (_, attr), (target, original) in self.sites.items():
            setattr(target, attr, original)
        self.sites.clear()

    # -- timing -----------------------------------------------------------

    def _wrap(self, layer: str, entry: str, original, counter):
        stats = self.layers[layer]
        callers = self.callers.setdefault(entry, set())
        stack = self._stack
        short = entry.rsplit(".", 1)[1]
        is_get = entry.endswith("ReplayCache.get")
        is_put = entry.endswith("ReplayCache.put")
        counts_result = short in _RESULT_LEN

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            callers.add(sys._getframe(1).f_globals.get("__name__", "?"))
            work = counter(args, kwargs) if counter is not None else None
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                self_s = elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += self_s
            if counts_result:
                work = len(result)
            if work is not None:
                n, kind = work if isinstance(work, tuple) else (work, "all")
                stats.accesses[kind] = stats.accesses.get(kind, 0) + n
                stats.busy_s[kind] = stats.busy_s.get(kind, 0.0) + self_s
            if is_get and args[0].enabled:
                if result is None:
                    stats.misses += 1
                else:
                    stats.hits += 1
            elif is_put and args[0].enabled:
                stats.stores += 1
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def attributed_s(self) -> float:
        return sum(s.self_s for s in self.layers.values())

    def metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics (names as in ``BENCHMARK.json``).

        A layer that made no call, and a rate with no accesses behind
        it, are left out rather than read as 0: the caller decides
        whether that absence was predicted or means an entry point is
        no longer reached.
        """
        out: Dict[str, float] = {}
        reached = {n: s for n, s in self.layers.items() if s.calls}
        for layer, s in reached.items():
            out[f"{layer}.self_s"] = s.self_s
            out[f"{layer}.calls"] = s.calls
        rates = {
            "workloads.accesses_per_s": ("workloads", "all"),
            "sim.hierarchy.st_accesses_per_s": ("sim.hierarchy", "st"),
            "sim.hierarchy.mt_accesses_per_s": ("sim.hierarchy", "mt"),
            "sim.llc.accesses_per_s": ("sim.llc", "all"),
            "techniques.accesses_per_s": ("techniques", "all"),
            "endurance.accesses_per_s": ("endurance", "all"),
        }
        for name, (layer, kind) in rates.items():
            stats = self.layers[layer]
            if stats.accesses.get(kind) and stats.busy_s.get(kind, 0.0) > 0:
                out[name] = stats.accesses[kind] / stats.busy_s[kind]
        if "sim.replay_cache" in reached:
            rc = reached["sim.replay_cache"]
            out["sim.replay_cache.hits"] = rc.hits
            out["sim.replay_cache.misses"] = rc.misses
            out["sim.replay_cache.stores"] = rc.stores
        return out
