"""Grid Information Service (GIS), in the spirit of MDS.

The GrADS scheduler and binder both start by asking "what resources
exist and what is installed where" (§2, §3.1).  This module provides
that directory: resource records for hosts with attribute-based
queries, the way MDS's LDAP-style lookups were used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..microgrid.dml import Grid
from ..microgrid.host import Host

__all__ = ["ResourceRecord", "GridInformationService", "GISError"]


class GISError(KeyError):
    """Raised when a lookup cannot be satisfied."""


@dataclass(frozen=True)
class ResourceRecord:
    """Directory entry for one compute resource."""

    name: str
    site: str
    cluster: Optional[str]
    isa: str
    mflops: float
    cores: int
    memory_bytes: int
    cache_bytes: int

    @classmethod
    def from_host(cls, host: Host) -> "ResourceRecord":
        cluster = host.cluster.name if host.cluster is not None else None
        site = host.cluster.site if host.cluster is not None else host.name
        return cls(
            name=host.name,
            site=site,
            cluster=cluster,
            isa=host.arch.isa,
            mflops=host.arch.mflops,
            cores=host.cores,
            memory_bytes=host.arch.memory_bytes,
            cache_bytes=host.arch.caches[0].size if host.arch.caches else 0,
        )


class GridInformationService:
    """An in-memory MDS: register resources, query by attributes."""

    def __init__(self) -> None:
        self._records: Dict[str, ResourceRecord] = {}
        self._hosts: Dict[str, Host] = {}
        #: bumped by every (un)registration, so clients may memoize
        #: query results until the registry changes
        self.version = 0

    # -- registration ---------------------------------------------------------
    def register_host(self, host: Host) -> ResourceRecord:
        record = ResourceRecord.from_host(host)
        self._records[record.name] = record
        self._hosts[record.name] = host
        self.version += 1
        return record

    def register_grid(self, grid: Grid) -> None:
        """Register every host of a built grid."""
        for host in grid.all_hosts():
            self.register_host(host)

    def unregister(self, name: str) -> None:
        if name not in self._records:
            raise GISError(f"unknown resource {name!r}")
        del self._records[name]
        del self._hosts[name]
        self.version += 1

    # -- lookups ----------------------------------------------------------------
    def lookup(self, name: str) -> ResourceRecord:
        try:
            return self._records[name]
        except KeyError:
            raise GISError(f"unknown resource {name!r}") from None

    def host(self, name: str) -> Host:
        """Resolve a record name back to the live host object."""
        try:
            return self._hosts[name]
        except KeyError:
            raise GISError(f"unknown resource {name!r}") from None

    def resources(self) -> List[ResourceRecord]:
        """All registered resources, in a stable (name) order."""
        return [self._records[k] for k in sorted(self._records)]

    def query(self, *,
              site: Optional[str] = None,
              cluster: Optional[str] = None,
              isa: Optional[str] = None,
              min_mflops: float = 0.0,
              min_memory_bytes: int = 0,
              predicate: Optional[Callable[[ResourceRecord], bool]] = None,
              ) -> List[ResourceRecord]:
        """Attribute-filtered resource search."""
        out = []
        for record in self.resources():
            if site is not None and record.site != site:
                continue
            if cluster is not None and record.cluster != cluster:
                continue
            if isa is not None and record.isa != isa:
                continue
            if record.mflops < min_mflops:
                continue
            if record.memory_bytes < min_memory_bytes:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def sites(self) -> List[str]:
        return sorted({r.site for r in self._records.values()})

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records
