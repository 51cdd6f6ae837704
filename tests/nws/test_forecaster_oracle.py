"""The fast NWS battery against its reference twins, bit for bit, and
the numerical edge cases the fast AR fit and median must keep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.forecast_replay import forecast_traces
from repro.microgrid import fig3_testbed
from repro.nws import (
    AdaptiveForecaster,
    AutoRegressive,
    CpuSensor,
    LastValue,
    NetworkSensor,
    SlidingWindowMean,
    SlidingWindowMedian,
    default_battery,
)
from repro.nws.forecasting import HISTORY_RETENTION
from repro.oracles import ORACLES
from repro.oracles.forecaster import (
    ReferenceAutoRegressive,
    ReferenceSlidingWindowMedian,
    reference_battery,
)
from repro.sim import Simulator


def _bits(value):
    """Exact identity of a forecast: None, or the float's hex form
    (which, unlike ``==``, tells 0.0 from -0.0)."""
    return None if value is None else float(value).hex()


def _replay_pair(fast, reference, series):
    for x in series:
        assert _bits(fast.predict()) == _bits(reference.predict())
        fast.update(x)
        reference.update(x)
    assert _bits(fast.predict()) == _bits(reference.predict())


def _runs(values):
    """Series built from runs of repeated values, so that windows are
    often constant and often straddle a change."""
    return st.lists(st.tuples(values, st.integers(1, 40)),
                    max_size=6).map(
        lambda runs: [v for v, n in runs for _ in range(n)])


UNIT = st.floats(min_value=0.0, max_value=1.0)
NINTHS = st.integers(0, 9).map(lambda k: k / 9)
BANDWIDTH = st.floats(min_value=1e6, max_value=1e9)

SERIES = st.one_of(
    st.lists(UNIT, max_size=80),
    st.lists(NINTHS, max_size=80),
    st.lists(BANDWIDTH, max_size=80),
    _runs(UNIT),
    _runs(NINTHS),
    _runs(BANDWIDTH),
)


class TestOracleCases:
    @pytest.mark.parametrize(
        "case", ORACLES["forecaster"].cases, ids=lambda c: c["trace"])
    def test_fast_battery_matches_reference(self, case):
        oracle = ORACLES["forecaster"]
        assert oracle.compare(oracle.fast(case), oracle.reference(case)) \
            is None

    def test_cases_cover_constant_and_mixed_windows(self):
        """The quantised trace holds both constant AR windows (the
        shortcut) and non-constant ones (the lstsq fit)."""
        trace = forecast_traces()["quantised"].tolist()
        windows = [trace[i:i + 30] for i in range(len(trace) - 29)]
        constant = sum(min(w) == max(w) for w in windows)
        assert 0 < constant < len(windows)
        assert set(forecast_traces()["constant"].tolist()) == {0.7}

    def test_comparator_names_first_divergent_member(self):
        oracle = ORACLES["forecaster"]
        case = dict(trace="flat", length=60)
        fast = oracle.fast(case)
        bad = oracle.fast(case)
        bad["member_forecasts"][40][-1] += 1e-12
        assert oracle.compare(fast, bad) == (
            f"ar_2 at sample 40: {fast['member_forecasts'][40][-1]!r} "
            f"!= {bad['member_forecasts'][40][-1]!r}")


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("tight", [False, True], ids=["window30", "tight"])
@settings(max_examples=60, deadline=None)
@given(series=SERIES)
def test_property_ar_matches_reference(order, tight, series):
    window = 2 * order + 2 if tight else 30
    _replay_pair(AutoRegressive(order, window),
                 ReferenceAutoRegressive(order, window), series)


@pytest.mark.parametrize("window", [4, 5, 20])
@settings(max_examples=60, deadline=None)
@given(series=SERIES)
def test_property_median_matches_reference(window, series):
    _replay_pair(SlidingWindowMedian(window),
                 ReferenceSlidingWindowMedian(window), series)


@settings(max_examples=30, deadline=None)
@given(series=SERIES)
def test_property_adaptive_matches_reference(series):
    fast = AdaptiveForecaster(default_battery())
    reference = AdaptiveForecaster(reference_battery())
    _replay_pair(fast, reference, series)
    assert fast.errors() == reference.errors()
    best, ref_best = fast.best_method(), reference.best_method()
    assert (best and best.name) == (ref_best and ref_best.name)


class TestNumericalEdges:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("value", [0.7, 1 / 9, 123456789.123])
    def test_constant_window_returns_constant_exactly(self, order, value):
        f = AutoRegressive(order)
        for x in [0.2] * 10 + [value] * 30:  # the 0.2s slide out
            f.update(x)
        pred = f.predict()
        assert type(pred) is float
        assert pred == value

    def test_rank_deficient_window_keeps_min_norm_lstsq(self):
        """a, b, a, b... at order 2: the lag columns sum to (a+b) times
        the intercept column, so the design has rank 2 of 3.  ``solve``
        on it is singular; the fit must stay min-norm ``lstsq``."""
        series = [0.9 if i % 2 == 0 else 0.3 for i in range(30)]
        fast, reference = AutoRegressive(2), ReferenceAutoRegressive(2)
        for x in series:
            fast.update(x)
            reference.update(x)
        design = np.column_stack(
            [series[:-2], series[1:-1], np.ones(28)])
        assert np.linalg.matrix_rank(design) == 2
        coef = np.linalg.lstsq(design, series[2:], rcond=None)[0]
        expected = float(min(max(float(np.append(series[-2:], 1.0) @ coef),
                                 0.3), 0.9))
        assert fast.predict() == reference.predict() == expected
        assert fast.predict() == pytest.approx(0.9)

    @pytest.mark.parametrize("window", [4, 5])
    def test_median_equals_numpy_full_and_partial(self, window):
        f = SlidingWindowMedian(window)
        values = [0.5, 0.1, 0.9, 0.1, 0.3, 0.7, 0.2, 1 / 3]
        for i, x in enumerate(values):
            f.update(x)
            kept = values[max(0, i + 1 - window):i + 1]
            assert f.predict() == float(np.median(kept)), (window, i + 1)
            assert type(f.predict()) is float


class TestBattery:
    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AdaptiveForecaster([SlidingWindowMean(5), SlidingWindowMean(5)])


class TestBoundedMemory:
    def test_n_samples_counts_past_retention(self):
        f = AdaptiveForecaster([LastValue()])
        total = HISTORY_RETENTION + 100
        for i in range(total):
            f.update(float(i))
        assert f.n_samples == total
        history = f.history()
        assert len(history) == HISTORY_RETENTION
        assert history[0] == 100.0 and history[-1] == total - 1.0

    def test_sensor_readings_bounded(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        utk, uiuc = grid.clusters["utk"][0], grid.clusters["uiuc"][0]
        cpu = CpuSensor(sim, utk, period=1.0)
        net = NetworkSensor(sim, grid.topology, utk.name, uiuc.name,
                            period=1.0)
        sim.run(until=HISTORY_RETENTION + 50.5)
        assert len(cpu.readings) == HISTORY_RETENTION
        assert cpu.latest().time == HISTORY_RETENTION + 50.0
        assert len(net.bandwidth_readings) == HISTORY_RETENTION
        assert len(net.latency_readings) == HISTORY_RETENTION
