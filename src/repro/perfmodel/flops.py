"""Floating-point operation count models (§3.2).

GrADS builds architecture-independent component models by running the
program on "several executions ... with different, small-size input
problems", reading hardware performance counters, and applying least
squares curve fitting.  We reproduce that pipeline: feed in (size,
flop-count) samples, fit a non-negative combination of monomial basis
terms, and extrapolate to production sizes.

Non-negative least squares (:func:`nnls`, Lawson–Hanson) matters here:
an unconstrained fit happily produces negative low-order coefficients
that make extrapolated counts negative for sizes outside the training
range, which would poison every downstream scheduling decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["FlopModel", "fit_flop_model", "nnls", "power_law_fit"]


def nnls(A: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """``argmin ||A x - b||`` subject to ``x >= 0``, as ``(x, residual)``.

    Lawson–Hanson active set ("Solving Least Squares Problems", ch. 23):
    free the variable with the largest positive gradient, solve least
    squares on the free set, and step back toward the last feasible
    point while that solve leaves the orthant.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    # Gradient entries below tol are rounding noise of A.T @ residual.
    tol = (10 * max(m, n) * np.finfo(float).eps
           * np.linalg.norm(A, axis=0).max(initial=0.0) * np.linalg.norm(b))
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    skip = np.zeros(n, dtype=bool)
    solves = 0
    # Column sums in one fixed order (not BLAS ``A.T @ r``) give equal
    # columns bit-equal gradients, so ties go to the lowest index.
    w = (A * b[:, None]).sum(axis=0)
    while n and (gain := np.where(free | skip, -np.inf, w)).max() > tol:
        j = int(np.argmax(gain))
        free[j] = True
        while True:
            solves += 1
            if solves > 3 * n:  # SciPy's default bound
                raise RuntimeError("nnls: iteration limit reached")
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
            neg = np.flatnonzero(free & (z < 0))
            if not len(neg):
                break
            ratios = x[neg] / (x[neg] - z[neg])
            x += ratios.min() * (z - x)
            free[neg[ratios == ratios.min()]] = False
            free &= x > 0
            x[~free] = 0.0
        # A variable dropped straight back out would be re-picked
        # forever: skip it until another variable enters.
        skip[:] = False
        skip[j] = not free[j]
        x = z
        w = (A * (b - A @ x)[:, None]).sum(axis=0)
    return x, float(np.linalg.norm(A @ x - b))


@dataclass(frozen=True)
class FlopModel:
    """A fitted flop-count model: count(n) = sum_i coef[i] * n**degree[i]."""

    degrees: Tuple[int, ...]
    coefficients: Tuple[float, ...]
    residual: float  # least-squares residual norm on the training data

    def __call__(self, n: float) -> float:
        """Predicted flop count at problem size ``n``."""
        if n < 0:
            raise ValueError("problem size must be non-negative")
        return float(sum(c * n ** d
                         for c, d in zip(self.coefficients, self.degrees)))

    def mflop(self, n: float) -> float:
        """Predicted work in Mflop (the project's compute unit)."""
        return self(n) / 1e6

    @property
    def dominant_degree(self) -> int:
        """The highest-order term with a non-negligible coefficient."""
        best = 0
        for c, d in zip(self.coefficients, self.degrees):
            if c > 0 and d > best:
                best = d
        return best


def fit_flop_model(sizes: Sequence[float], counts: Sequence[float],
                   max_degree: int = 3) -> FlopModel:
    """Least-squares fit of flop counts against problem size.

    ``sizes`` and ``counts`` come from instrumented small-size runs.
    Columns are scaled before solving so that NNLS is well conditioned
    even when n**3 dwarfs n**0 across the sample range.
    """
    sizes = np.asarray(sizes, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if sizes.ndim != 1 or sizes.shape != counts.shape:
        raise ValueError("sizes and counts must be equal-length 1-D sequences")
    if len(sizes) < 2:
        raise ValueError("need at least two samples to fit")
    if np.any(sizes <= 0):
        raise ValueError("sample sizes must be positive")
    if np.any(counts < 0):
        raise ValueError("flop counts cannot be negative")
    degrees = tuple(range(max_degree + 1))
    basis = np.stack([sizes ** d for d in degrees], axis=1)
    scale = np.linalg.norm(basis, axis=0)
    scale[scale == 0] = 1.0
    solution, residual = nnls(basis / scale, counts)
    coefficients = tuple(float(c) for c in solution / scale)
    return FlopModel(degrees=degrees, coefficients=coefficients,
                     residual=float(residual))


def power_law_fit(sizes: Sequence[float], values: Sequence[float]
                  ) -> Tuple[float, float]:
    """Fit ``value = a * n**p`` in log space; returns ``(a, p)``.

    Used by the MRD models, where per-reference reuse distances grow as
    clean power laws of the problem size.  Zero values are clamped to a
    tiny epsilon so cold references (distance 0) stay representable.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.shape != values.shape or sizes.ndim != 1:
        raise ValueError("sizes and values must be equal-length 1-D sequences")
    if len(sizes) < 2:
        raise ValueError("need at least two samples to fit")
    if np.any(sizes <= 0):
        raise ValueError("sample sizes must be positive")
    if np.any(values < 0):
        raise ValueError("values cannot be negative")
    clamped = np.maximum(values, 1e-12)
    logn = np.log(sizes)
    logv = np.log(clamped)
    p, log_a = np.polyfit(logn, logv, 1)
    return float(np.exp(log_a)), float(p)
