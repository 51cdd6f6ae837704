"""Machine-speed probe: rescale host times to a fixed machine speed.

The benchmark's hosts are shared.  Measured on the 2-core VM of the
baseline in README.md, the machine flips between a fast and a slow
state (about 1.7x apart) every few tens of milliseconds, and spends
spells of seconds to minutes mostly in one of them, so the same run of
the same code takes up to 1.5x longer from one minute to the next, and
no median over one benchmark run removes that.

So while a timed interval runs, a timer signal interrupts it every
:data:`INTERVAL_S` to time a small fixed kernel.  The mean kernel time
over the interval says how fast the machine ran during it, and

    scaled = (measured - probe time) * REFERENCE_S / mean kernel time

is the interval at the speed at which the kernel takes
:data:`REFERENCE_S`.  The kernel is independent of the program (no
change to ``src/`` can move it) and mixes what the program spends its
time on: interpreter work on dicts and floats, and small NumPy
least-squares calls.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: mean kernel seconds on the baseline VM with no neighbour load (py3.11,
#: NumPy 2.4): scaled times read as seconds on that machine at rest
REFERENCE_S = 0.0009
#: seconds between kernel samples; the probe costs about 4% of a run
INTERVAL_S = 0.05

_X = np.arange(30.0)
_DESIGN = np.stack([_X, np.sin(_X), np.ones(30)], axis=1)


def _kernel() -> float:
    table = {}
    total = 0.0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] / (i + 1)
    for i in range(15):
        coef, *_ = np.linalg.lstsq(_DESIGN, _X + i, rcond=None)
        total += float(coef[0])
    return total


class SpeedProbe:
    """Context manager that samples the kernel every :data:`INTERVAL_S`
    while its block runs (main thread only: it uses ``SIGALRM``)."""

    def __init__(self) -> None:
        self.samples = []
        #: host seconds spent in the probe itself
        self.spent_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        # The first kernel run refills the caches the program evicted;
        # only the second is timed, so the sample does not depend on
        # what the program was doing when the signal came.
        t0 = perf_counter()  # simlint: ignore[SL001] — probe kernel time
        _kernel()
        t1 = perf_counter()  # simlint: ignore[SL001] — probe kernel time
        _kernel()
        t2 = perf_counter()  # simlint: ignore[SL001] — probe kernel time
        self.samples.append(t2 - t1)
        self.spent_s += t2 - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Mean kernel seconds over the block (one extra sample if the
        block was shorter than one interval)."""
        if not self.samples:
            self._tick(None, None)
        return sum(self.samples) / len(self.samples)


def scaled(measured_s: float, probe: dict) -> float:
    """``measured_s`` less the probe's own time, at the reference speed;
    ``probe`` holds a finished probe's ``spent_s`` and ``speed_s``."""
    return ((measured_s - probe["spent_s"]) * REFERENCE_S
            / probe["speed_s"])
