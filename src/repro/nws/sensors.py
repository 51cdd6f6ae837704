"""NWS sensors: periodic measurement processes.

Real NWS runs sensor daemons that periodically measure CPU availability
on each host and probe bandwidth/latency between host pairs with small
transfers.  We do the same inside the simulation: CPU sensors sample the
host's processor-sharing state (with optional measurement noise);
network sensors issue genuine probe transfers through the topology, so
they observe — and very slightly cause — contention, exactly like the
real tool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from ..microgrid.host import Host
from ..microgrid.network import Topology
from ..sim.kernel import Simulator
from .forecasting import HISTORY_RETENTION

__all__ = ["Measurement", "CpuSensor", "NetworkSensor"]


@dataclass(frozen=True)
class Measurement:
    """One timestamped sensor reading."""

    time: float
    value: float


class CpuSensor:
    """Periodically samples the CPU availability of one host."""

    def __init__(self, sim: Simulator, host: Host, period: float = 10.0,
                 noise_std: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if noise_std > 0 and rng is None:
            raise ValueError("noisy sensors need an rng")
        self.sim = sim
        self.host = host
        self.period = period
        self.noise_std = noise_std
        self.rng = rng
        #: the last HISTORY_RETENTION readings, oldest first
        self.readings: Deque[Measurement] = deque(maxlen=HISTORY_RETENTION)
        self._listeners: list = []
        sim.process(self._run(), name=f"cpusensor:{host.name}")

    def on_reading(self, callback) -> None:
        """Register ``callback(measurement)`` for each new reading."""
        self._listeners.append(callback)

    def measure_once(self) -> Measurement:
        """Take an immediate reading outside the periodic schedule."""
        value = self.host.availability()
        if self.noise_std > 0:
            value += float(self.rng.normal(0.0, self.noise_std))
        value = min(max(value, 0.0), 1.0)
        reading = Measurement(self.sim.now, value)
        self.readings.append(reading)
        for listener in self._listeners:
            listener(reading)
        return reading

    def _run(self):
        while True:
            yield self.sim.timeout(self.period)
            self.measure_once()

    def latest(self) -> Optional[Measurement]:
        return self.readings[-1] if self.readings else None


class NetworkSensor:
    """Probes achievable bandwidth and latency between two endpoints.

    Each probe pushes ``probe_bytes`` through the real flow simulation
    and derives bandwidth from the measured time minus the path latency
    — the same experiment NWS's 64 KB TCP probes run.
    """

    def __init__(self, sim: Simulator, topology: Topology, src: str, dst: str,
                 period: float = 30.0, probe_bytes: float = 64 * 1024) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        if probe_bytes <= 0:
            raise ValueError("probe size must be positive")
        self.sim = sim
        self.topology = topology
        self.src = src
        self.dst = dst
        self.period = period
        self.probe_bytes = probe_bytes
        #: the last HISTORY_RETENTION readings of each kind, oldest first
        self.bandwidth_readings: Deque[Measurement] = deque(
            maxlen=HISTORY_RETENTION)
        self.latency_readings: Deque[Measurement] = deque(
            maxlen=HISTORY_RETENTION)
        self._listeners: list = []
        sim.process(self._run(), name=f"netsensor:{src}->{dst}")

    def on_reading(self, callback) -> None:
        """Register ``callback(kind, measurement)``; kind is 'bandwidth'
        or 'latency'."""
        self._listeners.append(callback)

    def _run(self):
        while True:
            yield self.sim.timeout(self.period)
            latency = self.topology.path_latency(self.src, self.dst)
            elapsed = yield self.topology.transfer(
                self.src, self.dst, self.probe_bytes, tag="nws-probe")
            stream_time = max(elapsed - latency, 1e-9)
            bandwidth = self.probe_bytes / stream_time
            now = self.sim.now
            bw_reading = Measurement(now, bandwidth)
            lat_reading = Measurement(now, latency)
            self.bandwidth_readings.append(bw_reading)
            self.latency_readings.append(lat_reading)
            for listener in self._listeners:
                listener("bandwidth", bw_reading)
                listener("latency", lat_reading)

    def latest_bandwidth(self) -> Optional[Measurement]:
        return self.bandwidth_readings[-1] if self.bandwidth_readings else None

    def latest_latency(self) -> Optional[Measurement]:
        return self.latency_readings[-1] if self.latency_readings else None
