"""Admission control for the submission service.

Every submission is checked against *live* directory state before it
may queue: the GIS must hold enough registered, currently-alive hosts
matching the job's requirements, the NWS forecasts for those hosts
must show usable capacity, and per-service/per-user queue caps must
hold.  A rejection carries a stable reason string (the trace and the
report group by it).

The same validity predicate (:meth:`AdmissionController.usable_hosts`)
is re-evaluated by the service at every planning round, so a host that
is unregistered or crashes *after* its jobs were admitted is dropped
from candidate sets before any placement happens — stale directory
entries can never be admitted onto (the churn tests pin this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..gis.directory import GridInformationService
from ..microgrid.host import Host
from ..nws.service import NetworkWeatherService
from .jobs import JobSpec

__all__ = ["AdmissionController"]


class AdmissionController:
    """GIS/NWS-backed admission decisions."""

    def __init__(self, gis: GridInformationService,
                 nws: NetworkWeatherService,
                 max_queue: Optional[int] = None,
                 max_per_user: Optional[int] = None,
                 min_forecast: float = 0.05) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_per_user is not None and max_per_user < 1:
            raise ValueError("max_per_user must be >= 1")
        if not 0.0 <= min_forecast <= 1.0:
            raise ValueError("min_forecast must be in [0, 1]")
        self.gis = gis
        self.nws = nws
        self.max_queue = max_queue
        self.max_per_user = max_per_user
        self.min_forecast = min_forecast
        #: isa -> (GIS version, [(name, host)] in preference order)
        self._ranked: Dict[Optional[str],
                           Tuple[int, List[Tuple[str, Host]]]] = {}

    # -- live resource state ------------------------------------------------
    def usable_hosts(self, spec: JobSpec) -> List[str]:
        """Names of registered, alive hosts matching the spec, ordered
        fastest-first (then by name) — the planner's preference order.
        The ranking is kept until the GIS registry changes; liveness is
        read on every call."""
        cached = self._ranked.get(spec.isa)
        if cached is None or cached[0] != self.gis.version:
            # query() is in name order and the sort is stable
            records = sorted(self.gis.query(isa=spec.isa),
                             key=lambda r: -r.mflops)
            cached = self._ranked[spec.isa] = (
                self.gis.version,
                [(r.name, self.gis.host(r.name)) for r in records])
        return [name for name, host in cached[1] if host.alive]

    # -- the admission rule ---------------------------------------------------
    def admit(self, spec: JobSpec, queue_length: int,
              user_queued: int) -> Tuple[bool, str]:
        """``(admitted, reason)``; reason is "" when admitted."""
        if self.max_queue is not None and queue_length >= self.max_queue:
            return False, "queue-full"
        if self.max_per_user is not None and user_queued >= self.max_per_user:
            return False, "user-quota"
        hosts = self.usable_hosts(spec)
        if len(hosts) < spec.n_hosts:
            return False, "insufficient-resources"
        forecasts = sorted(
            (self.nws.cpu_forecast(name) for name in hosts), reverse=True)
        if forecasts[spec.n_hosts - 1] < self.min_forecast:
            return False, "resources-overloaded"
        return True, ""
