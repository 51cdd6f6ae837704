"""The numpy-only Lawson–Hanson NNLS against ``scipy.optimize.nnls``."""

import numpy as np
import pytest

from repro.perfmodel.flops import nnls

optimize = pytest.importorskip("scipy.optimize")

RTOL = 1e-10


def assert_matches_scipy(A, b):
    want_x, want_r = optimize.nnls(A, b)
    got_x, got_r = nnls(A, b)
    scale = max(np.abs(want_x).max(), 1.0)
    np.testing.assert_allclose(got_x, want_x, rtol=RTOL, atol=RTOL * scale)
    assert got_r == pytest.approx(want_r, rel=RTOL, abs=RTOL * np.linalg.norm(b))
    assert (got_x >= 0).all()


def random_problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = n + int(rng.integers(1, 12))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n) + 0.1 * rng.normal(size=m)
    return rng, A, b


@pytest.mark.parametrize("seed", range(40))
def test_full_rank(seed):
    _rng, A, b = random_problem(seed)
    assert_matches_scipy(A, b)


@pytest.mark.parametrize("seed", range(40))
def test_rank_deficient_duplicated_column(seed):
    rng, A, b = random_problem(seed)
    A[:, -1] = A[:, int(rng.integers(A.shape[1] - 1))]
    assert_matches_scipy(A, b)


@pytest.mark.parametrize("seed", range(40))
def test_active_constraints(seed):
    """The unconstrained optimum is negative in some coordinates, so
    the solution sits on the boundary of the orthant."""
    rng, A, _b = random_problem(seed)
    truth = rng.normal(size=A.shape[1])
    truth[0] = -abs(truth[0]) - 1.0
    b = A @ truth + 0.01 * rng.normal(size=A.shape[0])
    unconstrained = np.linalg.lstsq(A, b, rcond=None)[0]
    assert unconstrained.min() < 0
    assert_matches_scipy(A, b)
    assert nnls(A, b)[0].min() == 0.0


def test_all_negative_target_gives_zero():
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x, r = nnls(A, np.array([-1.0, -1.0, -1.0]))
    assert x.tolist() == [0.0, 0.0]
    assert r == pytest.approx(np.sqrt(3.0))
