"""Reference oracle for the NWS forecaster battery (DESIGN.md §4.2).

:class:`ReferenceAutoRegressive` refits every window with the
pre-overhaul NumPy glue (``np.stack``/``np.hstack``/``np.append``) and
clamps with ``series.min()``/``series.max()``; it has no constant-window
shortcut.  :class:`ReferenceSlidingWindowMedian` takes ``np.median``.
The fast members must match them bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nws.forecasting import (AutoRegressive, Forecaster, SlidingWindowMedian,
                               default_battery)

__all__ = ["ReferenceAutoRegressive", "ReferenceSlidingWindowMedian",
           "reference_battery"]


class ReferenceAutoRegressive(AutoRegressive):
    """:class:`AutoRegressive` with the pre-overhaul fit."""

    def _fit_predict(self) -> Optional[float]:
        n = len(self._buf)
        if n == 0:
            return None
        if n < 2 * self.order + 2:
            return self._buf[-1]
        series = np.asarray(self._buf, dtype=float)
        p = self.order
        # rows: series[t-p:t] -> series[t]
        rows = np.stack([series[i:i + p] for i in range(n - p)])
        targets = series[p:]
        design = np.hstack([rows, np.ones((len(rows), 1))])
        coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        recent = np.append(series[-p:], 1.0)
        raw = float(recent @ coef)
        # Clamp into the observed window: AR lines extrapolate, but a
        # resource measurement cannot leave the range its neighbours
        # span (and real NWS clamps CPU availability the same way).
        return float(min(max(raw, series.min()), series.max()))


class ReferenceSlidingWindowMedian(SlidingWindowMedian):
    """:class:`SlidingWindowMedian` with the pre-overhaul ``np.median``."""

    def _median(self) -> Optional[float]:
        return float(np.median(list(self._buf))) if self._buf else None


def reference_battery() -> List[Forecaster]:
    """:func:`default_battery` with its AR and median members swapped
    for the reference twins (same names, same order)."""
    battery: List[Forecaster] = []
    for member in default_battery():
        if isinstance(member, AutoRegressive):
            member = ReferenceAutoRegressive(member.order, member.window)
        elif isinstance(member, SlidingWindowMedian):
            member = ReferenceSlidingWindowMedian(member.window)
        battery.append(member)
    return battery
