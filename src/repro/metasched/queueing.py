"""The fair-share submission queue.

Priority is *fair share with aging*: a job's effective priority is its
owner's accumulated resource usage (cpu-seconds, normalized by the
heaviest user) minus an aging credit that grows with time spent
queued.  Light users therefore go first, but nobody starves — any job
eventually ages past the usage spread.  Ties (including the cold-start
case where nobody has usage) break by submission order, which keeps
the queue deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .jobs import JobSpec

__all__ = ["FairShareQueue"]


class FairShareQueue:
    """Queued specs ordered by fair-share priority (lower = sooner)."""

    def __init__(self, aging_weight: float = 1e-4) -> None:
        """``aging_weight`` converts queue-wait seconds into priority
        credit; at the default a job gains the full usage spread after
        ``1/aging_weight`` seconds of waiting."""
        if aging_weight < 0:
            raise ValueError("aging_weight must be non-negative")
        self.aging_weight = aging_weight
        self._entries: List[tuple] = []  # (seq, spec)
        self._ticket = 0
        #: cpu-seconds each user has consumed so far
        self.usage: Dict[str, float] = {}
        #: memoized dispatch order; valid until push/remove/charge
        self._order_cache: Optional[List[JobSpec]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return any(spec.name == name for _seq, spec in self._entries)

    def user_queued(self, user: str) -> int:
        return sum(1 for _seq, spec in self._entries if spec.user == user)

    def specs(self) -> List[JobSpec]:
        """Queued specs in arrival order (no priority sort)."""
        return [spec for _seq, spec in self._entries]

    def push(self, spec: JobSpec) -> None:
        self._entries.append((self._ticket, spec))
        self._ticket += 1
        self._order_cache = None

    def remove(self, name: str) -> JobSpec:
        for i, (_seq, spec) in enumerate(self._entries):
            if spec.name == name:
                del self._entries[i]
                self._order_cache = None
                return spec
        raise KeyError(f"job {name!r} is not queued")

    def charge(self, user: str, cpu_seconds: float) -> None:
        """Account completed work against a user's fair share."""
        self.usage[user] = self.usage.get(user, 0.0) + cpu_seconds
        self._order_cache = None

    def ordered(self, now: float) -> List[JobSpec]:
        """Queued specs in dispatch order at simulated time ``now``.

        The order is memoized between mutations: every queued job's
        aging credit grows at the same ``aging_weight`` rate, so the
        *relative* ranking is invariant in ``now`` while the entry set,
        priorities and usage table are unchanged — only push/remove/
        charge can reorder, and each of those drops the cache.  A job's
        key is ``(share - aging - priority, ticket)``.
        """
        cached = self._order_cache
        if cached is not None:
            return list(cached)
        usage = self.usage
        weight = self.aging_weight
        scale = max(max(usage.values(), default=0.0), 1.0)
        ranked = sorted(
            (usage.get(spec.user, 0.0) / scale
             - weight * max(now - spec.submit_time, 0.0) - spec.priority,
             seq, spec)
            for seq, spec in self._entries)
        order = [spec for _key, _seq, spec in ranked]
        self._order_cache = order
        return list(order)
