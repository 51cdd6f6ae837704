"""Benchmark: the MicroGrid substrate hot paths (kernel + network).

Every figure in the paper runs through `repro.sim` and
`repro.microgrid`, so this is the perf trajectory for the whole
reproduction: a 32-host / 8-cluster grid carrying 64 concurrent flows
under closed-loop churn (each completion launches a replacement), with
events/sec recorded for the incremental max-min allocator and the
from-scratch reference allocator.

Two claims are checked, matching the overhaul's contract:

* **Equivalence** — both allocators drive the same simulation (same
  simulated makespan and bytes delivered to ``rel=1e-9``, and one
  reallocation per instant at which the reference filled); the
  allocation-level property test lives in
  ``tests/microgrid/test_network.py``.
* **Speedup** — the incremental allocator completes the workload at
  least 2x faster in wall-clock terms.

A second, EMAN-shaped case fans out from one head node: hundreds of
concurrent flows over a few dozen routes.  There the path-bundled
allocator must match the per-flow allocator bit for bit (``==`` on
bytes delivered and makespan, one reallocation per instant at which
the per-flow allocator filled).

The fast topology fills once per simulated instant while the references
fill at every flow event, so events/s no longer compares engines on
equal work; ``transfers_per_sec`` does.
"""

import pytest

from repro.experiments.substrate import run_fanout_bench, run_substrate_bench
from repro.oracles.allocator import (PerFlowTopology, ReferenceTopology,
                                     run_flow_bench)

TRANSFERS = 1500
#: required wall-clock advantage of the incremental allocator
MIN_SPEEDUP = 2.0
#: completed transfers in the head-node fan-out case (256 in flight)
FANOUT_TRANSFERS = 1500


@pytest.fixture(scope="module")
def results():
    incremental = run_substrate_bench(total_transfers=TRANSFERS)
    reference = run_flow_bench(run_substrate_bench, ReferenceTopology,
                               total_transfers=TRANSFERS)
    return incremental, reference


def test_bench_substrate_churn(benchmark):
    stats = benchmark.pedantic(
        lambda: run_substrate_bench(total_transfers=TRANSFERS),
        rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(stats["events_per_sec"])
    benchmark.extra_info["transfers_per_sec"] = round(
        stats["transfers_per_sec"])
    benchmark.extra_info["events_processed"] = stats["events_processed"]
    assert stats["transfers_completed"] == TRANSFERS


class TestAllocatorEquivalence:
    def test_workload_completes(self, results):
        incremental, reference = results
        assert incremental["transfers_completed"] == TRANSFERS
        assert reference["transfers_completed"] == TRANSFERS

    def test_one_reallocation_per_reference_fill_instant(self, results):
        incremental, reference = results
        # Same flows, same completion instants -> one close per instant
        # at which the per-event reference filled, however many times.
        assert incremental["reallocations"] == reference["fill_instants"]
        assert reference["reallocations"] > reference["fill_instants"]

    def test_identical_simulated_outcome(self, results):
        incremental, reference = results
        assert incremental["sim_seconds"] == \
            pytest.approx(reference["sim_seconds"], rel=1e-9)
        assert incremental["bytes_delivered"] == \
            pytest.approx(reference["bytes_delivered"], rel=1e-9)


class TestSubstrateSpeed:
    def test_incremental_allocator_speedup(self, results):
        incremental, reference = results
        speedup = reference["wall_seconds"] / incremental["wall_seconds"]
        print(f"\nincremental {incremental['wall_seconds']:.3f}s "
              f"({incremental['transfers_per_sec']:,.0f} transfers/s) vs "
              f"reference {reference['wall_seconds']:.3f}s "
              f"({reference['transfers_per_sec']:,.0f} transfers/s) "
              f"-> {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP

    def test_route_cache_amortises(self, results):
        incremental, _reference = results
        # 32 sources, thousands of lookups: the SSSP cache must serve
        # nearly everything after warm-up.
        assert incremental["route_cache_hit_rate"] > 0.9


def test_bench_substrate_fanout(benchmark):
    bundled = benchmark.pedantic(
        lambda: run_fanout_bench(total_transfers=FANOUT_TRANSFERS),
        rounds=1, iterations=1)
    per_flow = run_flow_bench(run_fanout_bench, PerFlowTopology,
                              total_transfers=FANOUT_TRANSFERS)
    benchmark.extra_info["events_per_sec"] = round(bundled["events_per_sec"])
    benchmark.extra_info["transfers_per_sec"] = round(
        bundled["transfers_per_sec"])
    benchmark.extra_info["per_flow_transfers_per_sec"] = round(
        per_flow["transfers_per_sec"])
    assert bundled["transfers_completed"] == FANOUT_TRANSFERS
    assert bundled["reallocations"] == per_flow["fill_instants"]
    assert bundled["bytes_delivered"] == per_flow["bytes_delivered"]
    assert bundled["sim_seconds"] == per_flow["sim_seconds"]
