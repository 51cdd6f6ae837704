"""One benchmark worker process: set up a workload, run it repeatedly
for a time budget, and report every run as JSON on standard output.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC`` where SPEC
is a JSON object with ``workload``, ``inputs``, ``budget_s``, ``trace``
and ``spans_path``.  The worker prints ``ready`` once the workload is
set up (``run.py`` times set-up from process start to that line), then
one JSON line with the runs.

With ``trace`` on, the layer wrappers are installed before the workload
is built, so no bound method is captured unwrapped.
"""

from __future__ import annotations

import gc
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_loop(workload, inputs, prepared, budget_s, sim_log, tracer=None):
    """Run the workload until ``budget_s`` host seconds are used (at
    least once); a run is started only when the last one would still
    fit, so the loop ends close to the budget.  A speed probe runs
    alongside every run (see calibration.py)."""
    runs = []
    start = perf_counter()  # simlint: ignore[SL001] — benchmark budget clock
    while True:
        gc.collect()
        sim_log.take_counters()
        if tracer is not None:
            tracer.run_id = len(runs)
        error = None
        probe = calibration.SpeedProbe()
        t0 = perf_counter()  # simlint: ignore[SL001] — benchmark wall time
        try:
            with probe:
                result = workloads.run(workload, inputs, prepared)
            wall = perf_counter() - t0  # simlint: ignore[SL001] — benchmark wall time
            sim_s, problems = workloads.check(workload, inputs, result)
            output = workloads.canonical(workload, result)
            if problems:
                error = "; ".join(problems)
        except Exception:  # a failed run is reported, not fatal
            wall = perf_counter() - t0  # simlint: ignore[SL001] — benchmark wall time
            sim_s, output = 0.0, ""
            error = traceback.format_exc(limit=8)
        runs.append({"warmup": not runs, "wall_s": wall,
                     "probe": {"spent_s": probe.spent_s,
                               "speed_s": probe.speed()},
                     "sim_s": sim_s,
                     "digest": workloads.digest(output),
                     "error": error, "counters": sim_log.take_counters()})
        used = perf_counter() - start  # simlint: ignore[SL001] — benchmark budget clock
        if used + wall > budget_s:
            return runs


def layer_report(tracer, runs):
    """Per-layer sums over the passing runs, divided by their number."""
    ok = [i for i, r in enumerate(runs) if r["error"] is None]
    times = tracer.layer_times(ok)
    n = max(len(ok), 1)
    layers = {}
    for layer, entry in times.items():
        durations = sorted(entry["durations"])
        layers[layer] = {
            "calls": entry["calls"] / n,
            "incl_s": entry["incl_s"] / n,
            "self_s": entry["self_s"] / n,
            "p50_s": _nearest_rank(durations, 0.50),
            "p99_s": _nearest_rank(durations, 0.99),
            "samples": len(durations),
        }
    return layers


def _nearest_rank(ordered, q):
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv) -> int:
    spec = json.loads(argv[1])
    workload, inputs = spec["workload"], spec["inputs"]
    setup_probe = calibration.SpeedProbe()
    with setup_probe:
        tracer = None
        if spec["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
        sim_log = tracing.SimulatorLog()
        sim_log.install()
        import repro
        if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
            raise SystemExit(f"imported repro from {repro.__file__}, "
                             f"not from {ROOT / 'src'}")
        prepared = workloads.setup(workload, inputs)
        sim_log.take_counters()
    print("ready", flush=True)
    runs = run_loop(workload, inputs, prepared, spec["budget_s"], sim_log,
                    tracer)
    report = {"runs": runs,
              "setup_probe": {"spent_s": setup_probe.spent_s,
                              "speed_s": setup_probe.speed()}}
    if tracer is not None:
        report["layers"] = layer_report(tracer, runs)
        report["entry_calls"] = dict(tracer.calls)
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
