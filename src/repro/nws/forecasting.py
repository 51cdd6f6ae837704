"""NWS-style time-series forecasting.

The Network Weather Service keeps a battery of simple predictors per
measurement series, scores each one by its historical error on that
very series, and answers queries with the prediction of the currently
best-scoring method (Wolski et al., FGCS 1999).  We implement that
design: last-value, running mean, sliding-window means/medians,
exponential smoothing at several gains, and an adaptive selector over
all of them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AutoRegressive",
    "Forecaster",
    "HISTORY_RETENTION",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "SlidingWindowMedian",
    "ExponentialSmoothing",
    "AdaptiveForecaster",
    "default_battery",
]

#: samples an :class:`AdaptiveForecaster` (and each NWS sensor) keeps
#: for inspection; forecasts never read them, so long runs stay flat
HISTORY_RETENTION = 1024


class Forecaster:
    """Online one-step-ahead predictor for a scalar series."""

    name = "base"

    def update(self, value: float) -> None:
        """Feed one new measurement."""
        raise NotImplementedError

    def predict(self) -> Optional[float]:
        """Forecast of the next value, or None before any data."""
        raise NotImplementedError


class LastValue(Forecaster):
    """Predict the most recent measurement (a martingale model)."""

    name = "last"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def predict(self) -> Optional[float]:
        return self._last


class RunningMean(Forecaster):
    """Predict the mean of the entire history."""

    name = "mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._n += 1

    def predict(self) -> Optional[float]:
        return self._sum / self._n if self._n else None


class SlidingWindowMean(Forecaster):
    """Predict the mean over the last ``window`` measurements."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"win_mean_{window}"
        self._buf: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> Optional[float]:
        if not self._buf:
            return None
        return sum(self._buf) / len(self._buf)


class SlidingWindowMedian(Forecaster):
    """Predict the median over the last ``window`` measurements.

    Medians resist the load spikes that make means lie; NWS includes
    them for exactly that reason.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"win_median_{window}"
        self._buf: Deque[float] = deque(maxlen=window)
        self._cached: Optional[float] = None
        self._dirty = True

    def update(self, value: float) -> None:
        self._buf.append(value)
        self._dirty = True

    def predict(self) -> Optional[float]:
        # The median only changes when the buffer does; callers (the
        # adaptive selector, admission control) ask far more often.
        if self._dirty:
            self._cached = self._median()
            self._dirty = False
        return self._cached

    def _median(self) -> Optional[float]:
        # Bit-identical to np.median: the middle element, or the two
        # middle ones summed then halved, without NumPy's call overhead.
        n = len(self._buf)
        if n == 0:
            return None
        ordered = sorted(self._buf)
        mid = n // 2
        if n % 2:
            return float(ordered[mid])
        return float((ordered[mid - 1] + ordered[mid]) / 2)


class ExponentialSmoothing(Forecaster):
    """Predict with s <- gain*x + (1-gain)*s."""

    def __init__(self, gain: float) -> None:
        if not 0.0 < gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.gain = gain
        self.name = f"exp_{gain:g}"
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state = self.gain * value + (1.0 - self.gain) * self._state

    def predict(self) -> Optional[float]:
        return self._state


class AutoRegressive(Forecaster):
    """Sliding-window AR(p) predictor, refitted on every update.

    NWS ships autoregressive members in its battery; they win on series
    with short-range correlation structure (oscillating load).  The
    least-squares fit runs over the last ``window`` samples; before the
    window fills, the prediction falls back to the last value.
    """

    def __init__(self, order: int = 2, window: int = 30) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if window < 2 * order + 2:
            raise ValueError("window too small to fit the requested order")
        self.order = order
        self.window = window
        self.name = f"ar_{order}"
        self._buf: Deque[float] = deque(maxlen=window)
        self._cached: Optional[float] = None
        self._dirty = True

    def update(self, value: float) -> None:
        self._buf.append(value)
        self._dirty = True

    def predict(self) -> Optional[float]:
        # One least-squares fit per *measurement*, not per query: the
        # fit is a pure function of the buffer, so it is cached until
        # the next update.
        if self._dirty:
            self._cached = self._fit_predict()
            self._dirty = False
        return self._cached

    def _fit_predict(self) -> Optional[float]:
        buf = self._buf
        n = len(buf)
        if n == 0:
            return None
        p = self.order
        if n < 2 * p + 2:
            return buf[-1]
        lo, hi = min(buf), max(buf)
        if lo == hi:
            # The clamp below forces any fit on a constant window to
            # that constant, so the fit is skipped, not approximated.
            return float(lo)
        series = np.asarray(buf, dtype=float)
        m = n - p
        # rows: series[t-p:t] -> series[t], plus an intercept column
        design = np.ones((m, p + 1))
        for lag in range(p):
            design[:, lag] = series[lag:lag + m]
        # Min-norm lstsq, not solve: non-constant windows can still be
        # rank-deficient (an alternating a, b, a, b... at order 2).
        coef = np.linalg.lstsq(design, series[p:], rcond=None)[0]
        recent = np.ones(p + 1)
        recent[:p] = series[-p:]
        raw = float(recent @ coef)
        # Clamp into the observed window: AR lines extrapolate, but a
        # resource measurement cannot leave the range its neighbours
        # span (and real NWS clamps CPU availability the same way).
        return float(min(max(raw, lo), hi))


def default_battery() -> List[Forecaster]:
    """The predictor set used for every series unless overridden."""
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(5),
        SlidingWindowMean(20),
        SlidingWindowMedian(5),
        SlidingWindowMedian(20),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.75),
        AutoRegressive(order=1),
        AutoRegressive(order=2),
    ]


class AdaptiveForecaster(Forecaster):
    """NWS's postcast selector: track each method's mean absolute error
    against the measurements that actually arrived, answer with the
    lowest-error method's prediction."""

    name = "adaptive"

    def __init__(self, battery: Optional[Sequence[Forecaster]] = None) -> None:
        self.battery: List[Forecaster] = (
            list(battery) if battery is not None else default_battery())
        if not self.battery:
            raise ValueError("battery must not be empty")
        # Errors are keyed by name: two members sharing one would
        # silently share one error sum and corrupt the selection.
        names = [f.name for f in self.battery]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate battery member names: {names}")
        self._abs_err: Dict[str, float] = dict.fromkeys(names, 0.0)
        self._n_scored = 0
        self._n_samples = 0
        self._history: Deque[float] = deque(maxlen=HISTORY_RETENTION)
        #: (best method, its prediction); None until asked, dropped on
        #: every update — the selection is a pure function of the series
        self._choice: Optional[Tuple[Optional[Forecaster],
                                     Optional[float]]] = None

    def update(self, value: float) -> None:
        # Score yesterday's predictions against today's truth (postcast),
        # then let every method absorb the new measurement.  Each
        # member's prediction is read once and reused for both the
        # scoring pass and the scored-round check.
        preds = [method.predict() for method in self.battery]
        for method, pred in zip(self.battery, preds):
            if pred is not None:
                self._abs_err[method.name] += abs(pred - value)
        if any(pred is not None for pred in preds):
            self._n_scored += 1
        for method in self.battery:
            method.update(value)
        self._history.append(value)
        self._n_samples += 1
        self._choice = None

    def _select(self) -> Tuple[Optional[Forecaster], Optional[float]]:
        if self._choice is None:
            candidates = [m for m in self.battery
                          if m.predict() is not None]
            if not candidates:
                self._choice = (None, None)
            else:
                best = min(candidates,
                           key=lambda m: self._abs_err[m.name])
                self._choice = (best, best.predict())
        return self._choice

    def predict(self) -> Optional[float]:
        return self._select()[1]

    def best_method(self) -> Optional[Forecaster]:
        """The battery member with the lowest cumulative error so far."""
        return self._select()[0]

    def errors(self) -> Dict[str, float]:
        """Mean absolute error per method over the scored history."""
        n = max(self._n_scored, 1)
        return {name: err / n for name, err in self._abs_err.items()}

    @property
    def n_samples(self) -> int:
        """Measurements absorbed so far (not bounded by the retention)."""
        return self._n_samples

    def history(self) -> List[float]:
        """The last :data:`HISTORY_RETENTION` measurements, oldest first."""
        return list(self._history)
