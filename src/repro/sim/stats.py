"""Cheap performance counters for the simulation substrate.

Every :class:`~repro.sim.kernel.Simulator` owns a :class:`KernelStats`
instance (``sim.stats``).  The kernel increments ``events_processed``
per agenda entry, the LATE-band instant closes included; the MicroGrid
layers increment the substrate counters (``reallocations`` once per
perturbed simulated instant — one fill of max-min rates however many
flows started or finished in it, ``wakeups_cancelled`` whenever a stale
epoch-guarded completion wake-up fires, and the route cache hit/miss
pair); the workflow scheduler increments the ``sched_*``
trio (list-scheduling rounds, per-cell completion-time evaluations, and
NWS transfer-forecast memo hits); the metascheduler increments the
``meta_*`` family (submissions, rejections, starts, completions,
backfills, reservations, cumulative queue-wait and served
cpu-seconds) plus the ``meta_plan_*`` planning-engine family (rounds,
reservations booked by rounds, candidate window starts probed,
backlogged jobs skipped without a probe, estimate memo hits, scheduled
wakes) — the ``meta_plan_*`` counters describe *how* a plan was
computed, so they are the one family excluded from deterministic
experiment reports (they differ between the fast and reference
engines by design).
Counters are plain integer attributes on a
slotted object, so updating one costs a single attribute store — cheap
enough to leave enabled in every run.

These numbers answer the questions the substrate benchmarks ask: how
many agenda entries a workload costs, how much of that is wasted on
stale wake-ups, and whether routing work is being amortised.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["KernelStats", "format_stats"]


class KernelStats:
    """Per-simulator performance counters (all monotonically increasing)."""

    __slots__ = (
        "events_processed",
        "reallocations",
        "wakeups_cancelled",
        "route_cache_hits",
        "route_cache_misses",
        "sched_rounds",
        "sched_evaluations",
        "sched_memo_hits",
        "meta_submitted",
        "meta_rejected",
        "meta_started",
        "meta_completed",
        "meta_backfilled",
        "meta_reservations",
        "meta_queue_wait_seconds",
        "meta_cpu_seconds",
        "meta_plan_rounds",
        "meta_plan_rebuilt",
        "meta_plan_window_probes",
        "meta_plan_probes_skipped",
        "meta_plan_estimate_memo_hits",
        "meta_plan_wakes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (e.g. after a warm-up phase)."""
        self.events_processed = 0
        self.reallocations = 0
        self.wakeups_cancelled = 0
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.sched_rounds = 0
        self.sched_evaluations = 0
        self.sched_memo_hits = 0
        self.meta_submitted = 0
        self.meta_rejected = 0
        self.meta_started = 0
        self.meta_completed = 0
        self.meta_backfilled = 0
        self.meta_reservations = 0
        self.meta_queue_wait_seconds = 0.0
        self.meta_cpu_seconds = 0.0
        self.meta_plan_rounds = 0
        self.meta_plan_rebuilt = 0
        self.meta_plan_window_probes = 0
        self.meta_plan_probes_skipped = 0
        self.meta_plan_estimate_memo_hits = 0
        self.meta_plan_wakes = 0

    @property
    def route_cache_hit_rate(self) -> float:
        """Fraction of route lookups served from cache (1.0 when idle)."""
        total = self.route_cache_hits + self.route_cache_misses
        if total == 0:
            return 1.0
        return self.route_cache_hits / total

    def snapshot(self) -> Dict[str, float]:
        """Counters as a plain dict (for results objects and the CLI)."""
        return {
            "events_processed": self.events_processed,
            "reallocations": self.reallocations,
            "wakeups_cancelled": self.wakeups_cancelled,
            "route_cache_hits": self.route_cache_hits,
            "route_cache_misses": self.route_cache_misses,
            "route_cache_hit_rate": self.route_cache_hit_rate,
            "sched_rounds": self.sched_rounds,
            "sched_evaluations": self.sched_evaluations,
            "sched_memo_hits": self.sched_memo_hits,
            "meta_submitted": self.meta_submitted,
            "meta_rejected": self.meta_rejected,
            "meta_started": self.meta_started,
            "meta_completed": self.meta_completed,
            "meta_backfilled": self.meta_backfilled,
            "meta_reservations": self.meta_reservations,
            "meta_queue_wait_seconds": self.meta_queue_wait_seconds,
            "meta_cpu_seconds": self.meta_cpu_seconds,
            "meta_plan_rounds": self.meta_plan_rounds,
            "meta_plan_rebuilt": self.meta_plan_rebuilt,
            "meta_plan_window_probes": self.meta_plan_window_probes,
            "meta_plan_probes_skipped": self.meta_plan_probes_skipped,
            "meta_plan_estimate_memo_hits": self.meta_plan_estimate_memo_hits,
            "meta_plan_wakes": self.meta_plan_wakes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<KernelStats events={self.events_processed}"
                f" reallocs={self.reallocations}"
                f" stale_wakeups={self.wakeups_cancelled}"
                f" route_hit_rate={self.route_cache_hit_rate:.3f}>")


def format_stats(stats: "KernelStats", elapsed_wall: float = 0.0) -> str:
    """Human-readable counter block, optionally with an events/sec rate."""
    lines = [
        f"events processed     : {stats.events_processed}",
        f"reallocations        : {stats.reallocations}",
        f"stale wake-ups       : {stats.wakeups_cancelled}",
        f"route cache hits     : {stats.route_cache_hits}",
        f"route cache misses   : {stats.route_cache_misses}",
        f"route cache hit rate : {stats.route_cache_hit_rate:.3f}",
        f"scheduler rounds     : {stats.sched_rounds}",
        f"candidate evals      : {stats.sched_evaluations}",
        f"forecast memo hits   : {stats.sched_memo_hits}",
        f"jobs submitted       : {stats.meta_submitted}",
        f"jobs rejected        : {stats.meta_rejected}",
        f"jobs started         : {stats.meta_started}",
        f"jobs completed       : {stats.meta_completed}",
        f"jobs backfilled      : {stats.meta_backfilled}",
        f"reservations made    : {stats.meta_reservations}",
        f"queue-wait seconds   : {stats.meta_queue_wait_seconds:.1f}",
        f"cpu-seconds served   : {stats.meta_cpu_seconds:.1f}",
        f"planning rounds      : {stats.meta_plan_rounds}",
        f"reservations rebuilt : {stats.meta_plan_rebuilt}",
        f"window probes        : {stats.meta_plan_window_probes}",
        f"probes skipped       : {stats.meta_plan_probes_skipped}",
        f"estimate memo hits   : {stats.meta_plan_estimate_memo_hits}",
        f"wakes scheduled      : {stats.meta_plan_wakes}",
    ]
    if elapsed_wall > 0:
        rate = stats.events_processed / elapsed_wall
        lines.append(f"events/sec (wall)    : {rate:,.0f}")
    return "\n".join(lines)
