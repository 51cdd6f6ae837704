"""Layer spans recorded from outside the program.

The traced run replaces a named set of layer entry points with
wrappers that record one span per call: layer name, start, end, parent
span and run id.  Spans stay in memory and are written out when the
run ends.  A layer's self time is its spans' durations minus the time
covered by their direct child spans (which belong to other layers).

A call that enters a layer while the innermost open span is already
that layer (``transfer_params`` calling ``bandwidth_forecast``) opens
no new span, so a layer never double-counts its own time.  Every call
is still counted per entry point, for the rename guard.

:class:`SimulatorLog` is separate and cheap (one list append per
simulator built); both the traced and the untraced runs use it to read
each simulator's ``KernelStats`` after a run.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from types import FunctionType
from typing import Dict, List, Tuple

#: (module, class.method, layer, workload that must call it)
#:
#: ``Topology._start_flow``, ``Topology._wake`` and
#: ``MetaScheduler._round`` are named explicitly because the kernel
#: dispatches them from callbacks rather than through a public method.
#: ``_FastBuilder._transfer_rows`` is counted for the base of the
#: scheduler's memo hit rate.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator.run", "sim", "qr-reschedule"),
    ("repro.nws.forecasting", "AdaptiveForecaster.update", "nws.update",
     "qr-reschedule"),
    ("repro.nws.service", "NetworkWeatherService.cpu_forecast", "nws.read",
     "metasched-stream"),
    ("repro.nws.service", "NetworkWeatherService.bandwidth_forecast",
     "nws.read", "eman-workflow"),
    ("repro.nws.service", "NetworkWeatherService.latency_forecast",
     "nws.read", "eman-workflow"),
    ("repro.nws.service", "NetworkWeatherService.transfer_params",
     "nws.read", "eman-workflow"),
    ("repro.nws.service", "NetworkWeatherService.transfer_forecast",
     "nws.read", "qr-reschedule"),
    ("repro.microgrid.network", "Topology.transfer", "microgrid.transfer",
     "eman-workflow"),
    ("repro.microgrid.network", "Topology._start_flow", "microgrid.alloc",
     "eman-workflow"),
    ("repro.microgrid.network", "Topology._wake", "microgrid.alloc",
     "eman-workflow"),
    ("repro.scheduler.scheduler", "GradsWorkflowScheduler.schedule",
     "scheduler.schedule", "eman-workflow"),
    ("repro.scheduler.heuristics", "_FastBuilder._transfer_rows",
     "scheduler.schedule", "eman-workflow"),
    ("repro.metasched.service", "MetaScheduler.submit", "metasched.submit",
     "metasched-stream"),
    ("repro.metasched.service", "MetaScheduler._round", "metasched.round",
     "metasched-stream"),
    ("repro.rescheduling.rescheduler", "Rescheduler.evaluate",
     "rescheduling.evaluate", "qr-reschedule"),
)

LAYERS = tuple(sorted({layer for _m, _q, layer, _w in ENTRY_POINTS}))


def _resolve(module: str, qualname: str) -> Tuple[type, str, FunctionType]:
    """(class, attribute, function) for an entry point; raises
    ``LookupError`` when the name no longer exists (a rename)."""
    cls_name, attr = qualname.split(".")
    cls = getattr(importlib.import_module(module), cls_name, None)
    fn = None if cls is None else cls.__dict__.get(attr)
    if not isinstance(fn, FunctionType):
        raise LookupError(f"layer entry point {module}.{qualname} not found; "
                          f"was it renamed?")
    return cls, attr, fn


class Tracer:
    """Spans around :data:`ENTRY_POINTS`, kept in parallel lists."""

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.entry_points = tuple(entry_points)
        self.run_id = 0
        self.names: List[str] = []
        self.parents: List[int] = []
        self.runs: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.calls: Dict[str, int] = {f"{m}.{q}": 0
                                      for m, q, _l, _w in self.entry_points}
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, FunctionType]] = []

    def install(self) -> None:
        """Wrap every entry point; resolves all names before patching any."""
        resolved = [(_resolve(module, qualname), f"{module}.{qualname}", layer)
                    for module, qualname, layer, _w in self.entry_points]
        for (cls, attr, fn), key, layer in resolved:
            setattr(cls, attr, self._wrap(fn, key, layer))
            self._saved.append((cls, attr, fn))

    def uninstall(self) -> None:
        for cls, attr, fn in reversed(self._saved):
            setattr(cls, attr, fn)
        self._saved.clear()

    def _wrap(self, fn: FunctionType, key: str, layer: str):
        calls, stack, names = self.calls, self._stack, self.names
        parents, runs, starts, ends = (self.parents, self.runs, self.starts,
                                       self.ends)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack and names[stack[-1]] == layer:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())  # simlint: ignore[SL001] — benchmark span start
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()  # simlint: ignore[SL001] — benchmark span end
                stack.pop()

        return wrapper

    def layer_times(self, run_ids) -> Dict[str, dict]:
        """Per layer, over the spans of ``run_ids``: calls, inclusive and
        self seconds, and each span's duration."""
        wanted = set(run_ids)
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                       "durations": []} for layer in LAYERS}
        for i, layer in enumerate(self.names):
            if self.runs[i] not in wanted:
                continue
            duration = self.ends[i] - self.starts[i]
            entry = out[layer]
            entry["calls"] += 1
            entry["incl_s"] += duration
            entry["self_s"] += duration - child[i]
            entry["durations"].append(duration)
        return out

    def write(self, path) -> None:
        """Every span as CSV: run, span, parent, layer, start, end."""
        with open(path, "w") as out:
            out.write("run,span,parent,layer,start_s,end_s\n")
            for i, layer in enumerate(self.names):
                out.write(f"{self.runs[i]},{i},{self.parents[i]},{layer},"
                          f"{self.starts[i]!r},{self.ends[i]!r}\n")


class SimulatorLog:
    """Keeps every ``Simulator`` built while installed, so a run's
    ``KernelStats`` can be read after the experiment returns."""

    def __init__(self) -> None:
        self.sims: list = []
        self._saved = None

    def install(self) -> None:
        cls, attr, init = _resolve("repro.sim.kernel", "Simulator.__init__")
        sims = self.sims

        @functools.wraps(init)
        def logged_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sims.append(sim)

        setattr(cls, attr, logged_init)
        self._saved = (cls, attr, init)

    def uninstall(self) -> None:
        if self._saved is not None:
            cls, attr, init = self._saved
            setattr(cls, attr, init)
            self._saved = None

    def take_counters(self) -> Dict[str, float]:
        """Sum of the logged simulators' counters; forgets them."""
        total: Dict[str, float] = {}
        for sim in self.sims:
            for name, value in sim.stats.snapshot().items():
                total[name] = total.get(name, 0) + value
        self.sims.clear()
        # a sum of rates is meaningless: recompute from the summed counts
        lookups = (total.get("route_cache_hits", 0)
                   + total.get("route_cache_misses", 0))
        total["route_cache_hit_rate"] = (total.get("route_cache_hits", 0)
                                         / lookups if lookups else 1.0)
        return total
