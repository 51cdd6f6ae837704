"""Benchmark: NWS forecaster-battery ablation.

The adaptive selector is the substrate every scheduling decision reads
through.  This bench replays synthetic CPU-availability traces with
qualitatively different dynamics (flat+noise, on/off load, trending)
and compares each battery member's mean absolute error against the
adaptive selector — whose selling point is being near-best on *every*
regime without per-series tuning.
"""

from typing import Dict

import numpy as np
import pytest

from repro.nws import AdaptiveForecaster, default_battery
from repro.experiments import format_table
from repro.experiments.forecast_replay import forecast_traces


def make_traces(length=600, seed=7) -> Dict[str, np.ndarray]:
    """The four load regimes of the forecaster replay."""
    traces = forecast_traces(length, seed)
    return {name: traces[name] for name in ("flat", "onoff", "trend", "spiky")}


def score(trace: np.ndarray) -> Dict[str, float]:
    """MAE of each battery member and the adaptive selector."""
    members = default_battery()
    errors = {m.name: 0.0 for m in members}
    adaptive = AdaptiveForecaster()
    errors["adaptive"] = 0.0
    n_scored = 0
    for x in trace:
        for m in members:
            p = m.predict()
            if p is not None:
                errors[m.name] += abs(p - x)
        p = adaptive.predict()
        if p is not None:
            errors["adaptive"] += abs(p - x)
            n_scored += 1
        for m in members:
            m.update(x)
        adaptive.update(x)
    return {name: err / max(n_scored, 1) for name, err in errors.items()}


@pytest.fixture(scope="module")
def scores():
    return {name: score(trace) for name, trace in make_traces().items()}


def test_bench_forecasting(benchmark):
    trace = make_traces(length=200)["onoff"]
    out = benchmark.pedantic(lambda: score(trace), rounds=3, iterations=1)
    assert out["adaptive"] >= 0


class TestForecasterAblation:
    def test_print_error_table(self, scores):
        methods = sorted(next(iter(scores.values())))
        rows = [[m] + [scores[t][m] for t in sorted(scores)]
                for m in methods]
        print()
        print(format_table(["method"] + sorted(scores), rows,
                           title="Forecaster MAE per trace regime"))

    def test_adaptive_near_best_on_every_regime(self, scores):
        for trace_name, table in scores.items():
            best = min(err for name, err in table.items()
                       if name != "adaptive")
            assert table["adaptive"] <= best * 1.6 + 0.01, trace_name

    def test_no_single_member_dominates(self, scores):
        """The reason the battery exists: per-regime winners differ."""
        winners = set()
        for table in scores.values():
            members = {k: v for k, v in table.items() if k != "adaptive"}
            winners.add(min(members, key=members.get))
        assert len(winners) >= 2

    def test_adaptive_beats_naive_mean_overall(self, scores):
        adaptive_total = sum(t["adaptive"] for t in scores.values())
        mean_total = sum(t["mean"] for t in scores.values())
        assert adaptive_total < mean_total
