"""Self-tests of the benchmark, run from the root of a checkout:

    python3 -m pytest perfbench

They run every workload briefly (about two minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL = sorted(workloads.WORKLOADS)


def _perturbed(workload):
    """Seed 0's inputs with one value nudged."""
    inputs = workloads.make_inputs(workload, 0)
    if workload == "qr-reschedule":
        inputs["load_at"] += 1.0
    elif workload == "metasched-stream":
        inputs["arrival_jitter"][0] += 0.5
    else:
        inputs["n_particles"] += 40
    return inputs


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ALL)
def test_perturbed_input_is_reported_failed_not_timed(workload):
    result = run.measure(workload, 0, 1.0, False, inputs=_perturbed(workload),
                         expected=run.pinned_digest(workload, 0))
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"] == {}


@pytest.mark.parametrize("workload", ALL)
def test_held_out_seed_matches_its_pin(workload):
    assert run.pinned_digest(workload, 101) is not None
    result = run.measure(workload, 101, 1.0, False)
    assert result["correct"], [r["error"] for r in result["runs"]]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_reaches_every_entry_point_and_repeats_counts(workload):
    result = run.measure(workload, 0, 2.0, True)
    assert result["correct"], [r["error"] for r in result["runs"]]
    # one untraced and one traced process: the KernelStats counts of
    # same-seed runs repeat exactly, with or without the wrappers
    counters = [r["counters"] for r in result["runs"]]
    assert len(counters) >= 2
    assert all(c == counters[0] for c in counters)
    for module, qualname, _layer, exercised_by in tracing.ENTRY_POINTS:
        if exercised_by == workload:
            assert result["entry_calls"][f"{module}.{qualname}"] > 0, qualname
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_renamed_entry_point_fails_loudly_and_patches_nothing():
    import repro.sim.kernel as kernel
    original = kernel.Simulator.run
    tracer = tracing.Tracer([
        ("repro.sim.kernel", "Simulator.run", "sim", ALL[0]),
        ("repro.microgrid.network", "Topology._renamed", "microgrid.alloc",
         ALL[0]),
    ])
    with pytest.raises(LookupError, match="Topology._renamed"):
        tracer.install()
    assert kernel.Simulator.run is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", ALL[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
