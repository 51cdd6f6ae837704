"""End-to-end instrumentation tests: real experiments, real hooks.

These run small fig3/fig4 scenarios with a tracer attached and check
that every instrumented layer emitted records consistent with the
experiment's own reported numbers.
"""

import numpy as np
import pytest

from repro.experiments.fig3_qr import run_fig3_point
from repro.experiments.fig4_swap import run_fig4
from repro.experiments.scheduler_bench import build_scheduler_bench_env
from repro.oracles.scheduler import REFERENCE_HEURISTICS
from repro.scheduler import HEURISTICS
from repro.trace import Tracer, violation_timeline
from repro.trace.export import write_jsonl


@pytest.fixture(scope="module")
def fig3_traced():
    tracer = Tracer()
    point = run_fig3_point(8000, "reschedule", tracer=tracer)
    return tracer, point


@pytest.fixture(scope="module")
def fig4_traced():
    tracer = Tracer()
    result = run_fig4(n_iterations=120, tracer=tracer)
    return tracer, result


class TestFig3Instrumentation:
    def test_checkpoint_and_restore_spans_present(self, fig3_traced):
        tracer, point = fig3_traced
        names = [r.name for r in tracer.select("reschedule")]
        assert "checkpoint" in names
        assert "restore" in names

    def test_restore_follows_migration(self, fig3_traced):
        tracer, point = fig3_traced
        assert point.migrations >= 1
        restores = [r for r in tracer.select("reschedule")
                    if r.name == "restore"]
        # every migrated rank restores from the depot
        assert len(restores) >= point.migrations

    def test_violations_precede_migration_requests(self, fig3_traced):
        tracer, _point = fig3_traced
        contract = tracer.select("contract")
        violations = [r for r in contract if r.name == "violation"]
        requests = [r for r in contract if r.name == "migration-request"]
        assert violations and requests
        assert min(r.ts for r in violations) <= min(r.ts for r in requests)

    def test_violation_timeline_matches_records(self, fig3_traced):
        tracer, _point = fig3_traced
        timeline = violation_timeline(tracer)
        assert len(timeline) == len(
            [r for r in tracer.select("contract") if r.name == "violation"])
        assert all(v["kind"] in ("slow", "fast") for v in timeline)

    def test_checkpoint_spans_have_positive_duration_and_host(self,
                                                              fig3_traced):
        tracer, _point = fig3_traced
        for record in tracer.select("reschedule"):
            if record.name == "checkpoint":
                assert record.dur > 0
                assert record.args["host"].startswith(("utk.", "uiuc."))

    def test_network_and_kernel_layers_fire(self, fig3_traced):
        tracer, _point = fig3_traced
        network = {r.name for r in tracer.select("network")}
        assert "flow-add" in network
        assert "realloc" in network
        assert tracer.select("kernel")

    def test_meta_marker_identifies_run(self, fig3_traced):
        tracer, _point = fig3_traced
        (marker,) = tracer.select("meta")
        assert marker.args["experiment"] == "fig3"
        assert marker.args["mode"] == "reschedule"


class TestFig4Instrumentation:
    def test_swap_spans_match_swap_log(self, fig4_traced):
        tracer, result = fig4_traced
        swaps = [r for r in tracer.select("reschedule") if r.name == "swap"]
        assert len(swaps) == len(result.swap_times)
        assert sorted(r.args["new_host"] for r in swaps) == \
            sorted(result.swapped_to)

    def test_swap_decisions_recorded(self, fig4_traced):
        tracer, result = fig4_traced
        decisions = [r for r in tracer.select("reschedule")
                     if r.name == "swap-decision"]
        assert len(decisions) >= len(result.swap_times)

    def test_trace_spans_sim_duration(self, fig4_traced):
        tracer, result = fig4_traced
        last = max(r.ts for r in tracer.records)
        assert last == pytest.approx(result.finished_at)


class TestSchedulerTraceParity:
    """The fast engine must emit byte-identical ``scheduler`` spans to
    the reference oracle — tracing is part of the equivalence contract,
    not just the placements."""

    @staticmethod
    def _export(tmp_path, engine_table, name, label):
        env = build_scheduler_bench_env(n_tasks=24, n_hosts=8)
        workflow, matrix, nws = env
        tracer = Tracer(categories=["scheduler"]).bind(nws.sim)
        if name == "random":
            engine_table[name](workflow, matrix, nws,
                               rng=np.random.default_rng(7))
        else:
            engine_table[name](workflow, matrix, nws)
        path = tmp_path / f"{label}-{name}.jsonl"
        write_jsonl(tracer, str(path))
        return path.read_bytes()

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_exports_are_byte_identical(self, tmp_path, name):
        fast = self._export(tmp_path, HEURISTICS, name, "fast")
        reference = self._export(tmp_path, REFERENCE_HEURISTICS, name,
                                 "reference")
        assert fast == reference
        assert fast  # spans actually emitted, not two empty files

    def test_spans_cover_every_task(self, tmp_path):
        env = build_scheduler_bench_env(n_tasks=16, n_hosts=8)
        workflow, matrix, nws = env
        tracer = Tracer(categories=["scheduler"]).bind(nws.sim)
        HEURISTICS["min-min"](workflow, matrix, nws)
        spans = [r for r in tracer.select("scheduler")
                 if r.name.startswith("task:")]
        assert len(spans) == len(matrix.tasks)
        (summary,) = [r for r in tracer.select("scheduler")
                      if r.name.startswith("heuristic:")]
        assert summary.args["tasks"] == len(matrix.tasks)


class TestDisabledTracerBehaviour:
    def test_disabled_tracer_changes_nothing(self):
        baseline = run_fig4(n_iterations=15)
        traced = run_fig4(n_iterations=15, tracer=Tracer(enabled=False))
        assert traced.finished_at == baseline.finished_at
        assert traced.stats["events_processed"] == \
            baseline.stats["events_processed"]

    def test_enabled_tracer_does_not_perturb_results(self):
        baseline = run_fig4(n_iterations=15)
        traced = run_fig4(n_iterations=15, tracer=Tracer())
        assert traced.finished_at == baseline.finished_at
        assert traced.stats["events_processed"] == \
            baseline.stats["events_processed"]
