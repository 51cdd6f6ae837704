"""Benchmark entry point: run one workload for a time budget, check its
output, and print the metrics as one JSON line.

    python3 perfbench/run.py --workload qr-reschedule --seed 0 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it builds nothing and imports the
program from ``src/``.  Every run of the workload happens in a worker
process (``worker.py``), one after another, so this process times set-up
and reads peak memory from outside the program.

``--trace 0`` reports the end-to-end metrics (wall time, set-up time,
peak memory, simulated seconds per host second); ``--trace 1`` reports
the per-layer metrics from a traced worker, next to an untraced one for
the tracing overhead.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from calibration import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"

#: untraced workers per end-to-end run; each gives one set-up sample
WORKERS = 3
#: every worker of one run is killed after this many host seconds
RUN_LIMIT_S = 170.0

_TRANSFER_ROWS = "repro.scheduler.heuristics._FastBuilder._transfer_rows"


class WorkerFailed(RuntimeError):
    """A worker exited, timed out or printed no report."""


def pinned_digest(workload: str, seed: int):
    """The pinned output digest for ``seed``, or None if it has none."""
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def spawn(workload, inputs, budget_s, trace, deadline, spans_path=None):
    """Run one worker; returns its report plus ``setup_s`` (process
    start to ``ready``) and ``peak_rss_mb`` (from the kernel's rusage)."""
    spec = json.dumps({"workload": workload, "inputs": inputs,
                       "budget_s": budget_s, "trace": trace,
                       "spans_path": spans_path and str(spans_path)})
    # a fixed hash seed keeps str-keyed set order, and so timing, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")  # simlint: ignore[SL010] — worker environment
    t0 = perf_counter()  # simlint: ignore[SL001] — benchmark set-up clock
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), spec],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    left = deadline - perf_counter()  # simlint: ignore[SL001] — benchmark deadline
    timer = threading.Timer(max(left, 1.0), proc.kill)
    timer.start()
    try:
        with proc.stdout:
            first = proc.stdout.readline()
            setup_s = perf_counter() - t0  # simlint: ignore[SL001] — benchmark set-up clock
            rest = proc.stdout.read()
    finally:
        timer.cancel()
        _pid, status, usage = os.wait4(proc.pid, 0)  # simlint: ignore[SL001] — benchmark peak memory
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return report


def judge(runs, expected):
    """Mark each run that differs from the pinned digest (or, for a seed
    without one, from the first passing run) or from the first passing
    run's counters.  Returns the passing runs."""
    reference = None
    for run in runs:
        if run["error"] is not None:
            continue
        want = expected or (reference or run)["digest"]
        if run["digest"] != want:
            run["error"] = f"output digest {run['digest']} != {want}"
        elif reference is None:
            reference = run
        elif run["counters"] != reference["counters"]:
            run["error"] = "KernelStats counters differ between runs"
    return [run for run in runs if run["error"] is None]


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed(passing):
    """The passing runs that are timed: all but each worker's first,
    which pays lazy first-use work."""
    return [r for r in passing if not r["warmup"]] or passing


def end_to_end(reports, passing):
    passing = timed(passing)
    walls = [scaled(r["wall_s"], r["probe"]) for r in passing]
    return {
        "wall_s": _metric(_median(walls), "s"),
        "setup_s": _metric(_median([scaled(r["setup_s"], r["setup_probe"])
                                    for r in reports]), "s"),
        "peak_rss_mb": _metric(_median([r["peak_rss_mb"] for r in reports]),
                               "MB"),
        "sim_s_per_wall_s": _metric(
            _median([r["sim_s"] / w for r, w in zip(passing, walls)]), "s/s"),
    }


def per_layer(traced, untraced_passing, traced_passing):
    """The per-layer metrics: span times per run from the traced
    worker, exact counts from its first passing run's KernelStats."""
    layers = traced["layers"]
    counts = traced_passing[0]["counters"] if traced_passing else {}

    def c(name):
        return counts.get(name, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    n_runs = max(len(traced["runs"]), 1)
    memo_lookups = traced["entry_calls"][_TRANSFER_ROWS] / n_runs
    plan_decisions = c("meta_plan_kept") + c("meta_plan_rebuilt")
    route_lookups = c("route_cache_hits") + c("route_cache_misses")
    alloc = layers["microgrid.alloc"]
    rnd = layers["metasched.round"]
    overhead = (_median([scaled(r["wall_s"], r["probe"])
                         for r in timed(traced_passing)])
                - _median([scaled(r["wall_s"], r["probe"])
                           for r in timed(untraced_passing)]))
    metrics = {
        "nws.update.calls": (layers["nws.update"]["calls"], "count"),
        "nws.update.self_s": (layers["nws.update"]["self_s"], "s"),
        "nws.read.calls": (layers["nws.read"]["calls"], "count"),
        "nws.read.self_s": (layers["nws.read"]["self_s"], "s"),
        "metasched.round.calls": (rnd["calls"], "count"),
        "metasched.round.self_s": (rnd["self_s"], "s"),
        "metasched.round_ms.p50": (rnd["p50_s"] * 1e3, "ms"),
        "metasched.round_ms.p99": (rnd["p99_s"] * 1e3, "ms"),
        "metasched.round_ms.samples": (rnd["samples"], "count"),
        "metasched.submit.self_s": (layers["metasched.submit"]["self_s"], "s"),
        "metasched.window_probes": (c("meta_plan_window_probes"), "count"),
        "metasched.kept_ratio": (ratio(c("meta_plan_kept"), plan_decisions),
                                 "ratio"),
        "metasched.plan_decisions": (plan_decisions, "count"),
        "microgrid.reallocations": (c("reallocations"), "count"),
        "microgrid.alloc.self_s": (alloc["self_s"], "s"),
        "microgrid.alloc.us_per_realloc": (
            ratio(alloc["self_s"], c("reallocations")) * 1e6, "us"),
        "microgrid.transfers": (layers["microgrid.transfer"]["calls"],
                                "count"),
        "microgrid.route_hit_rate": (ratio(c("route_cache_hits"),
                                           route_lookups), "ratio"),
        "microgrid.route_lookups": (route_lookups, "count"),
        "scheduler.schedule.self_s": (layers["scheduler.schedule"]["self_s"],
                                      "s"),
        "scheduler.evaluations": (c("sched_evaluations"), "count"),
        "scheduler.memo_hit_rate": (ratio(c("sched_memo_hits"), memo_lookups),
                                    "ratio"),
        "scheduler.memo_lookups": (memo_lookups, "count"),
        "rescheduling.evaluate.calls": (
            layers["rescheduling.evaluate"]["calls"], "count"),
        "rescheduling.evaluate.self_s": (
            layers["rescheduling.evaluate"]["self_s"], "s"),
        "sim.events": (c("events_processed"), "count"),
        "sim.self_s": (layers["sim"]["self_s"], "s"),
        "sim.stale_wakeup_ratio": (ratio(c("wakeups_cancelled"),
                                         c("events_processed")), "ratio"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


def layer_table(layers) -> str:
    """Per-run self and inclusive time per layer, largest self first
    (printed before the result)."""
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    return "\n".join(f"{name:24s} self {entry['self_s']:9.4f} s  "
                     f"incl {entry['incl_s']:9.4f} s  "
                     f"calls {entry['calls']:10.0f}"
                     for name, entry in rows)


def measure(workload, seed, seconds, trace, inputs=None, expected=None):
    """One benchmark run.  ``inputs``/``expected`` default to the seed's
    generated inputs and pinned digest; the self-test passes a perturbed
    input with the unperturbed digest."""
    if inputs is None:
        inputs = workloads.make_inputs(workload, seed)
        expected = pinned_digest(workload, seed)
    deadline = perf_counter() + RUN_LIMIT_S  # simlint: ignore[SL001] — benchmark deadline
    reports, failed_workers = [], 0
    plan = ([(False, seconds / 2), (True, seconds / 2)] if trace
            else [(False, seconds / WORKERS)] * WORKERS)
    spans_path = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.csv"
    for traced, budget in plan:
        try:
            reports.append(spawn(workload, inputs, budget, traced, deadline,
                                 spans_path if traced else None))
            reports[-1]["traced"] = traced
        except WorkerFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            failed_workers += 1
    runs = [run for report in reports for run in report["runs"]]
    passing = judge(runs, expected)
    for run in runs:
        if run["error"] is not None:
            print(f"perfbench: {workload} run failed: {run['error']}",
                  file=sys.stderr)
    attempted = len(runs) + failed_workers
    failed = attempted - len(passing)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed}
    if not passing:
        result["metrics"] = {}
    elif not trace:
        result["metrics"] = end_to_end(reports, passing)
    else:
        traced = next((r for r in reports if r["traced"]), None)
        untraced = [run for r in reports if not r["traced"]
                    for run in r["runs"] if run["error"] is None]
        traced_ok = [] if traced is None else [
            run for run in traced["runs"] if run["error"] is None]
        if traced is None or not traced_ok or not untraced:
            result["correct"] = False
            result["metrics"] = {}
        else:
            print(layer_table(traced["layers"]))
            result["metrics"] = per_layer(traced, untraced, traced_ok)
            result["entry_calls"] = traced["entry_calls"]
    result["runs"] = runs
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for run in result["runs"]:
        print(f"run: wall {run['wall_s']:.4f} s, kernel "
              f"{run['probe']['speed_s'] * 1e3:.3f} ms, "
              f"simulated {run['sim_s']:.1f} s"
              f"{'' if run['error'] is None else ', FAILED'}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
