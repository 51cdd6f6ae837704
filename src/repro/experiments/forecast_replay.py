"""NWS forecaster replay: feed a synthetic load trace through an
:class:`AdaptiveForecaster` and record every forecast it made.

The traces are the regimes the forecaster-battery ablation
(``benchmarks/test_bench_nws.py``) scores — flat+noise, on/off load,
trending, spiky — plus the two that exercise the battery's numerical
edges: a constant trace and CPU fractions quantised to k/9, which fill
the AR and median windows with repeats and ties.

With ``battery=reference_battery`` (``repro.oracles.forecaster``) it
replays the same trace through the pre-overhaul AR and median members.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..nws.forecasting import AdaptiveForecaster, Forecaster, default_battery

__all__ = ["TRACES", "forecast_traces", "replay_forecasts"]

#: every trace :func:`forecast_traces` builds, in build order
TRACES = ("flat", "onoff", "trend", "spiky", "constant", "quantised")


def forecast_traces(length: int = 600, seed: int = 7
                    ) -> Dict[str, np.ndarray]:
    """Synthetic CPU-availability traces in [0, 1], one per regime."""
    rng = np.random.default_rng(seed)
    flat = np.clip(0.8 + rng.normal(0, 0.05, length), 0, 1)
    onoff = np.clip(np.where((np.arange(length) // 60) % 2 == 0, 0.95, 0.45)
                    + rng.normal(0, 0.02, length), 0, 1)
    trend = np.clip(np.linspace(1.0, 0.2, length)
                    + rng.normal(0, 0.03, length), 0, 1)
    spiky = np.clip(0.9 - 0.7 * (rng.random(length) < 0.05)
                    + rng.normal(0, 0.02, length), 0, 1)
    return {"flat": flat, "onoff": onoff, "trend": trend, "spiky": spiky,
            "constant": np.full(length, 0.7),
            "quantised": np.round(onoff * 9) / 9}


def replay_forecasts(trace: str, length: int = 600, seed: int = 7,
                     battery: Callable[[], Sequence[Forecaster]]
                     = default_battery) -> dict:
    """Replay one trace; returns every member's and the selector's
    forecast before each sample, the final per-member errors and the
    final best member's name."""
    adaptive = AdaptiveForecaster(battery())
    members: List[List[Optional[float]]] = []
    selected: List[Optional[float]] = []
    for x in forecast_traces(length, seed)[trace].tolist():
        members.append([m.predict() for m in adaptive.battery])
        selected.append(adaptive.predict())
        adaptive.update(x)
    best = adaptive.best_method()
    return {"members": [m.name for m in adaptive.battery],
            "member_forecasts": members, "forecasts": selected,
            "errors": adaptive.errors(),
            "best": best.name if best is not None else None}
