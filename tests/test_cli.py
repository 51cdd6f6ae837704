"""Tests for the command-line interface."""

import dataclasses
import json
import math
import os

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.oracles import ORACLES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.command == "fig3"
        assert "6000" in args.sizes

    def test_fig4_policy_choices(self):
        args = build_parser().parse_args(["fig4", "--policy", "single"])
        assert args.policy == "single"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--policy", "bogus"])

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_experiments_accept_trace_option(self):
        for command in ("fig3", "fig4", "eman", "opportunistic"):
            args = build_parser().parse_args([command, "--trace", "t.json"])
            assert args.trace == "t.json"

    def test_every_experiment_accepts_seed(self):
        # the repo-wide convention: every experiment subcommand takes
        # --seed (default 0)
        for argv in (["fig3"], ["fig4"], ["eman"], ["opportunistic"],
                     ["faults", "run"], ["metasched", "run"]):
            args = build_parser().parse_args(argv)
            assert args.seed == 0, argv
            args = build_parser().parse_args(argv + ["--seed", "7"])
            assert args.seed == 7, argv

    def test_trace_group_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_metasched_group_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metasched"])


class TestCommands:
    def test_fig3_small(self, capsys):
        rc = main(["fig3", "--sizes", "4000", "--no-decisions"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "no-reschedule" in out

    def test_fig3_bad_sizes(self, capsys):
        assert main(["fig3", "--sizes", "abc"]) == 2
        assert main(["fig3", "--sizes", ""]) == 2

    def test_fig4_none_policy(self, capsys):
        rc = main(["fig4", "--policy", "none", "--iterations", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "policy: none" in out

    def test_opportunistic_disabled(self, capsys):
        rc = main(["opportunistic", "--disable"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "daemon off" in out

    def test_describe(self, tmp_path, capsys):
        dml = tmp_path / "grid.dml"
        dml.write_text("arch a mflops=100\n"
                       "cluster c arch=a hosts=3 nic=100Mb lat=0.1ms\n")
        rc = main(["describe", str(dml)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 hosts" in out
        assert "c" in out

    def test_describe_missing_file(self, capsys):
        assert main(["describe", "/nonexistent/grid.dml"]) == 2

    def test_bench_json(self, capsys):
        rc = main(["bench", "--transfers", "60", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["allocator"] == "incremental"
        assert payload["transfers_completed"] == 60
        assert payload["events_processed"] > 0

    def test_fig4_json(self, capsys):
        rc = main(["fig4", "--policy", "none", "--iterations", "10",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["policy"] == "none"
        assert payload["iterations"] == 10
        assert payload["stats"]["events_processed"] > 0

    def test_uncaught_experiment_error_exits_one(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "run_fig4", boom)
        assert main(["fig4", "--iterations", "5"]) == 1
        err = capsys.readouterr().err
        assert "synthetic failure" in err


def _perturb_schedule(result):
    schedule = result["schedules"][result["heuristics"][0]]
    name = min(schedule.placements)
    placement = schedule.placements[name]
    schedule.placements[name] = dataclasses.replace(
        placement, est_finish=placement.est_finish + 1.0)
    return result


#: one output nudged per registry entry, each past its comparator's bar
PERTURB = {
    "scheduler": _perturb_schedule,
    "allocator": lambda stats: {
        **stats, "bytes_delivered": stats["bytes_delivered"] * (1 + 1e-6)},
    # one ulp: the exact oracle tolerates no rounding difference at all
    "allocator-exact": lambda stats: {
        **stats, "bytes_delivered": math.nextafter(stats["bytes_delivered"],
                                                   math.inf)},
    "planner": lambda report: {**report, "conflicts": ["perturbed"]},
    "forecaster": lambda replay: {**replay, "best": "perturbed"},
}

#: CI-sized cases shrunk to test size
SMALL_CASES = {
    "scheduler": (dict(n_tasks=16, n_hosts=4),),
    "allocator": (dict(total_transfers=40),),
    "allocator-exact": (dict(bench="churn", total_transfers=40),
                        dict(bench="fanout", total_transfers=60)),
    "planner": (dict(users=2, arrival_rate=0.01, duration=600.0, seed=0,
                     max_jobs=3),),
    "forecaster": (dict(trace="onoff", length=60),),
}


class TestBenchCompare:
    @pytest.fixture
    def small_oracles(self, monkeypatch):
        for name, oracle in list(ORACLES.items()):
            monkeypatch.setitem(ORACLES, name,
                                oracle._replace(cases=SMALL_CASES[name]))

    def test_every_oracle_agrees(self, small_oracles, capsys):
        assert main(["bench", "--compare"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    @pytest.mark.parametrize("name", sorted(PERTURB))
    def test_divergent_reference_exits_one(self, small_oracles, monkeypatch,
                                           capsys, name):
        oracle = ORACLES[name]
        monkeypatch.setitem(ORACLES, name, oracle._replace(
            reference=lambda case: PERTURB[name](oracle.reference(case))))
        assert main(["bench", "--compare"]) == 1
        assert f"ORACLE DIVERGENCE in {name}" in capsys.readouterr().err


class TestMetaschedCommands:
    ARGS = ["metasched", "run", "--users", "3", "--arrival-rate", "0.01",
            "--duration", "900", "--seed", "3"]

    def test_run_tables(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "metasched:" in out
        assert "0 reservation conflicts" in out
        assert "stream summary" in out

    def test_run_json_same_seed_byte_identical(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["conflicts"] == []
        assert payload["summary"]["submitted"] == len(payload["jobs"])
        assert payload["counters"]["meta_submitted"] == len(payload["jobs"])

    def test_run_out_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "stream.json"
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["metasched", "report", str(out_path)]) == 0
        assert "stream summary" in capsys.readouterr().out

    def test_run_trace_carries_metasched_lane(self, tmp_path):
        path = tmp_path / "m.trace.json"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        obj = json.loads(path.read_text())
        cats = {e.get("cat") for e in obj["traceEvents"]}
        assert "metasched" in cats

    def test_run_bad_usage(self, capsys):
        assert main(["metasched", "run", "--users", "0"]) == 2
        assert main(["metasched", "run", "--arrival-rate", "-1"]) == 2

    def test_report_conflict_exits_one(self, tmp_path, capsys):
        doctored = {
            "schema_version": 1,
            "params": {}, "jobs": [], "counters":
                {"meta_reservations": 0},
            "conflicts": ["h: claims overlap"],
            "summary": {"submitted": 0, "completed": 0, "rejected": 0,
                        "conflicts": 1, "makespan_seconds": 0.0,
                        "throughput_jobs_per_hour": 0.0,
                        "mean_queue_wait_seconds": 0.0,
                        "backfilled": 0, "failed": 0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doctored))
        assert main(["metasched", "report", str(path)]) == 1


class TestSoakCommands:
    ARGS = ["soak", "run", "--scenarios", "3", "--seed", "7"]
    SOAK_DIR = os.path.join(os.path.dirname(__file__), "soak")
    FIXTURE = os.path.join(SOAK_DIR, "fixtures", "known_violation.json")

    def test_run_json_same_seed_byte_identical(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["scenarios"] == 3

    def test_run_out_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "soak.json"
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["soak", "report", str(out_path)]) == 0
        assert "soak: 3 scenarios" in capsys.readouterr().out

    def test_replay_clean_reproducer(self, capsys):
        rc = main(["soak", "replay",
                   os.path.join(self.SOAK_DIR, "reproducers",
                                "resources-dead-waiters.json")])
        assert rc == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_replay_violating_fixture_shrinks(self, tmp_path, capsys):
        shrunk = tmp_path / "minimal.json"
        assert main(["soak", "replay", self.FIXTURE,
                     "--shrink", str(shrunk)]) == 1
        assert "marker-canary" in capsys.readouterr().out
        # the emitted reproducer must itself replay to the violation
        assert main(["soak", "replay", str(shrunk)]) == 1

    def test_bad_usage(self, tmp_path, capsys):
        assert main(["soak", "run", "--scenarios", "0"]) == 2
        assert main(["soak", "run", "--minutes", "-1"]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["soak", "replay", str(garbage)]) == 2


class TestTraceCommands:
    def _export(self, tmp_path, name, iterations=10):
        path = tmp_path / name
        rc = main(["fig4", "--policy", "none",
                   "--iterations", str(iterations), "--trace", str(path)])
        assert rc == 0
        return path

    def test_trace_export_and_validate(self, tmp_path, capsys):
        path = self._export(tmp_path, "t.json")
        capsys.readouterr()
        assert main(["trace", "validate", str(path)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert main(["trace", "validate", str(bad)]) == 1

    def test_same_seed_diff_is_clean(self, tmp_path, capsys):
        a = self._export(tmp_path, "a.json")
        b = self._export(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_one(self, tmp_path, capsys):
        a = self._export(tmp_path, "a.json", iterations=10)
        b = self._export(tmp_path, "b.json", iterations=12)
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_summary(self, tmp_path, capsys):
        path = self._export(tmp_path, "t.json")
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
