"""End-to-end scenario execution: lanes, determinism, engine checks."""

import json

from repro.oracles.planner import ReferenceMetaScheduler
from repro.soak import run_scenario, run_with_checks, sample_scenario
from repro.soak.scenario import ScenarioSpec


def _clean_smoke_spec():
    # one of everything, deterministic, fast: a couple of jobs, a
    # crash/recover window, a burst, a WAN re-provision, a services
    # lane with one kill, and a swap lane that gets stopped mid-run
    return ScenarioSpec(
        index=0, seed=3, duration=240.0,
        jobs=[
            {"name": "u0-j0", "user": "u0", "kind": "qr",
             "submit_time": 5.0, "n_hosts": 2, "size": 800.0},
            {"name": "u1-j1", "user": "u1", "kind": "eman",
             "submit_time": 30.0, "n_hosts": 1, "size": 2500.0},
        ],
        faults=[{"host": "uiuc.n3", "at": 40.0, "recover_at": 100.0}],
        bursts=[{"host": "utk.n2", "at": 20.0, "until": 90.0,
                 "nprocs": 2}],
        links=[{"a": "utk.switch", "b": "uiuc.switch", "via": None,
                "bandwidth": 4e6, "latency": 0.01, "at": 60.0}],
        services={"capacity": 2, "count": 2, "producers": 2,
                  "consumers": 2, "workers": 2, "items_per_producer": 4,
                  "kills": [{"victim": "svc-worker-0", "at": 15.0}]},
        swap={"n_bodies": 8000, "n_iterations": 40, "policy": "gang",
              "period": 10.0, "improvement": 1.05, "stop_at": 35.0},
    )


class TestRunScenario:
    def test_smoke_scenario_runs_clean(self):
        outcome = run_scenario(_clean_smoke_spec())
        assert outcome.violations == []
        assert outcome.quiesced
        assert outcome.lanes["metasched"] == "ok"
        assert outcome.lanes["services"] == "ok"
        assert outcome.lanes["swap"] == "ok"
        assert outcome.lanes["srs"] == "absent"
        assert len(outcome.jobs) == 2
        assert outcome.counters["meta_submitted"] == 2

    def test_report_is_deterministic(self):
        a = run_scenario(_clean_smoke_spec()).report()
        b = run_scenario(_clean_smoke_spec()).report()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_fast_and_reference_engines_agree(self):
        spec = _clean_smoke_spec()
        fast = run_scenario(spec).report()
        ref = run_scenario(spec,
                           service_cls=ReferenceMetaScheduler).report()
        assert fast == ref


class TestRunWithChecks:
    def test_engine_check_records_agreement(self):
        spec = sample_scenario(7, 0)
        assert spec.engine_check
        result = run_with_checks(spec)
        assert result["engine_agreement"] is True
        assert result["violations"] == []

    def test_engine_check_skipped_when_disabled(self):
        spec = sample_scenario(7, 1)
        assert not spec.engine_check
        result = run_with_checks(spec)
        assert result["engine_agreement"] is None

    def test_sampled_scenarios_run_clean(self):
        for index in range(4):
            result = run_with_checks(sample_scenario(11, index))
            assert result["violations"] == [], (index, result["violations"])
            assert result["quiesced"], index

    def test_same_seed_reports_byte_identical(self):
        spec = sample_scenario(7, 2)
        a = json.dumps(run_with_checks(spec), sort_keys=True)
        b = json.dumps(run_with_checks(spec), sort_keys=True)
        assert a == b
