"""Warehouse-local micro-partition data cache (paper §2).

In the paper's disaggregated architecture, warehouses "cache table
data on local storage" so that pruning and caching *jointly* determine
how many bytes actually cross the network: pruning shrinks the scan
set, the local cache absorbs the repeated fraction of what remains.
:class:`PartitionCache` models that local SSD cache:

* **Byte budget** — entries are charged by the bytes they keep
  resident (column-subset aware: a scan that only read two columns
  only charges those two columns' bytes), and the total never exceeds
  ``budget_bytes``.
* **Segmented LRU** — new entries enter a *probation* segment; a
  re-reference promotes them to the *protected* segment (capped at
  ``protected_fraction`` of the budget, overflow demotes back to
  probation). One-shot scans therefore wash through probation without
  evicting the hot working set.
* **Keyed by (partition_id, checksum)** — micro-partitions are
  immutable and DML/recluster rewrites always mint fresh ids (the
  storage layer enforces id uniqueness), so a resident entry can only
  go stale by a partition being *unregistered*. The cache subscribes
  to :meth:`~repro.storage.metadata_store.MetadataStore.unregister`
  via :meth:`attach`, and additionally refuses to serve an entry whose
  recorded checksum mismatches a caller-supplied expectation.
* **Failure hygiene** — the cache is only populated by callers that
  hold a successfully loaded, checksum-verified partition; corrupt or
  unavailable loads raise before :meth:`put` and never pollute it.

The cache is shared by all queries of one warehouse and is safe to
use from concurrent threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.metadata_store import MetadataStore
    from ..storage.micropartition import MicroPartition

__all__ = ["CacheStats", "PartitionCache"]

#: resident-set segments, in eviction order
_PROBATION = "probation"
_PROTECTED = "protected"


@dataclass
class CacheStats:
    """Point-in-time counters of one :class:`PartitionCache`."""

    hits: int = 0
    misses: int = 0
    bytes_saved: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0
    resident_bytes: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """hits / (hits + misses); 0.0 before any traffic."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 6),
            "bytes_saved": self.bytes_saved,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejected": self.rejected,
            "resident_bytes": self.resident_bytes,
            "entries": self.entries,
        }


class _Entry:
    """One resident partition: the object plus its byte accounting."""

    __slots__ = ("partition", "checksum", "columns", "nbytes", "hits",
                 "segment")

    def __init__(self, partition: "MicroPartition",
                 columns: frozenset[str] | None, nbytes: int):
        self.partition = partition
        self.checksum = partition.checksum
        #: resident column subset; ``None`` = every column is resident
        self.columns = columns
        #: bytes charged against the budget for the resident columns
        self.nbytes = nbytes
        self.hits = 0
        self.segment = _PROBATION

    def covers(self, columns: Sequence[str] | None) -> bool:
        if self.columns is None:
            return True
        if columns is None:
            return False
        return {c.lower() for c in columns} <= self.columns


class PartitionCache:
    """Byte-budget segmented-LRU cache of immutable micro-partitions."""

    def __init__(self, budget_bytes: int, *,
                 protected_fraction: float = 0.8,
                 name: str = "data-cache"):
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        if not 0.0 <= protected_fraction <= 1.0:
            raise ValueError("protected_fraction must be in [0, 1]")
        self.budget_bytes = budget_bytes
        self.protected_budget = int(budget_bytes * protected_fraction)
        self.name = name
        self._lock = threading.RLock()
        # Both segments are OrderedDicts in LRU -> MRU order; an entry
        # lives in exactly one of them (entry.segment says which).
        self._segments: dict[str, OrderedDict[int, _Entry]] = {
            _PROBATION: OrderedDict(),
            _PROTECTED: OrderedDict(),
        }
        self._resident_bytes = 0
        self._stats = CacheStats()
        self._metadata: "MetadataStore | None" = None

    # ------------------------------------------------------------------
    # Lookup / populate
    # ------------------------------------------------------------------
    def get(self, partition_id: int,
            columns: Sequence[str] | None = None,
            expected_checksum: int | None = None,
            record: bool = True) -> "MicroPartition | None":
        """The resident partition, or ``None`` on a miss.

        A hit requires the resident entry to cover the requested
        ``columns`` (a partial entry stays resident — the following
        :meth:`put` widens it) and, when ``expected_checksum`` is
        given, to match it (a mismatch invalidates the entry: the id
        was reused for different content, which the storage layer
        normally makes impossible). ``record=False`` skips hit/miss
        accounting (the caller counts with :meth:`record_lookups`).
        """
        with self._lock:
            entry = self._find(partition_id)
            if entry is not None and expected_checksum is not None \
                    and entry.checksum != expected_checksum:
                self._drop(partition_id, entry)
                self._stats.invalidations += 1
                entry = None
            if entry is None or not entry.covers(columns):
                if record:
                    self._stats.misses += 1
                return None
            entry.hits += 1
            self._touch(partition_id, entry)
            if record:
                saved = entry.partition.project_bytes(columns)
                self._stats.hits += 1
                self._stats.bytes_saved += saved
            return entry.partition

    def record_lookups(self, hits: int, bytes_saved: int,
                       misses: int) -> None:
        """Account lookups made with ``record=False`` (a scan counts its
        batch's lookups once)."""
        with self._lock:
            self._stats.hits += hits
            self._stats.bytes_saved += bytes_saved
            self._stats.misses += misses

    def put(self, partition: "MicroPartition",
            columns: Sequence[str] | None = None) -> list[int]:
        """Admit (or widen) a successfully loaded partition.

        ``columns`` names the column subset the caller actually read;
        only those columns' bytes are charged. A later put with more
        columns widens the resident set and re-charges. Returns the
        partition ids evicted to make room (for ``cache:evict`` trace
        events).
        """
        requested = (frozenset(c.lower() for c in columns)
                     if columns is not None else None)
        with self._lock:
            entry = self._find(partition.partition_id)
            if entry is not None and entry.checksum != partition.checksum:
                # Id reuse with different content: never serve the old
                # bytes again.
                self._drop(partition.partition_id, entry)
                self._stats.invalidations += 1
                entry = None
            if entry is not None:
                if requested is not None and entry.columns is not None:
                    widened = entry.columns | requested
                else:
                    widened = None
                nbytes = partition.project_bytes(widened)
                if nbytes > self.budget_bytes:
                    # The widened entry can never fit; drop it rather
                    # than thrash the rest of the resident set.
                    self._drop(partition.partition_id, entry)
                    self._stats.rejected += 1
                    return []
                self._resident_bytes += nbytes - entry.nbytes
                entry.columns = widened
                entry.nbytes = nbytes
                entry.partition = partition
                self._touch(partition.partition_id, entry)
                return self._evict_to_budget()
            nbytes = partition.project_bytes(requested)
            if nbytes > self.budget_bytes:
                self._stats.rejected += 1
                return []
            entry = _Entry(partition, requested, nbytes)
            self._segments[_PROBATION][partition.partition_id] = entry
            self._resident_bytes += nbytes
            return self._evict_to_budget()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, partition_id: int) -> bool:
        """Drop one partition (stale after a rewrite); True if resident."""
        with self._lock:
            entry = self._find(partition_id)
            if entry is None:
                return False
            self._drop(partition_id, entry)
            self._stats.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            for segment in self._segments.values():
                segment.clear()
            self._resident_bytes = 0

    # ------------------------------------------------------------------
    # Metadata-store wiring
    # ------------------------------------------------------------------
    def attach(self, metadata: "MetadataStore") -> "PartitionCache":
        """Subscribe to unregister events: any partition whose metadata
        is removed (DML rewrite, recluster, DROP TABLE) is invalidated
        here automatically. Returns self for chaining."""
        if self._metadata is not None:
            raise ValueError(f"{self.name} is already attached")
        metadata.add_invalidation_listener(self._on_unregister)
        self._metadata = metadata
        return self

    def close(self) -> None:
        """Detach from the metadata store and drop all entries."""
        if self._metadata is not None:
            self._metadata.remove_invalidation_listener(
                self._on_unregister)
            self._metadata = None
        self.clear()

    def _on_unregister(self, table: str, partition_id: int) -> None:
        self.invalidate(partition_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._segments.values())

    def __contains__(self, partition_id: int) -> bool:
        with self._lock:
            return self._find(partition_id) is not None

    def stats(self) -> CacheStats:
        """A consistent copy of the counters."""
        with self._lock:
            snap = CacheStats(**{
                k: getattr(self._stats, k)
                for k in ("hits", "misses", "bytes_saved", "evictions",
                          "invalidations", "rejected")})
            snap.resident_bytes = self._resident_bytes
            snap.entries = sum(len(s)
                               for s in self._segments.values())
            return snap

    def segment_ids(self) -> dict[str, list[int]]:
        """Partition ids per segment in LRU -> MRU order (tests)."""
        with self._lock:
            return {name: list(segment)
                    for name, segment in self._segments.items()}

    def __repr__(self) -> str:
        snap = self.stats()
        return (f"PartitionCache({self.name}, "
                f"{snap.entries} entries, "
                f"{snap.resident_bytes}/{self.budget_bytes} bytes, "
                f"hit_ratio={snap.hit_ratio:.2f})")

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _find(self, partition_id: int) -> _Entry | None:
        for segment in self._segments.values():
            entry = segment.get(partition_id)
            if entry is not None:
                return entry
        return None

    def _drop(self, partition_id: int, entry: _Entry) -> None:
        del self._segments[entry.segment][partition_id]
        self._resident_bytes -= entry.nbytes

    def _touch(self, partition_id: int, entry: _Entry) -> None:
        """Re-reference: promote probation hits, refresh protected."""
        if entry.segment == _PROTECTED:
            self._segments[_PROTECTED].move_to_end(partition_id)
            return
        del self._segments[_PROBATION][partition_id]
        entry.segment = _PROTECTED
        self._segments[_PROTECTED][partition_id] = entry
        self._shrink_protected()

    def _shrink_protected(self) -> None:
        """Demote protected LRU entries while over the segment cap."""
        protected = self._segments[_PROTECTED]
        while len(protected) > 1 and self._protected_bytes() \
                > self.protected_budget:
            pid, entry = next(iter(protected.items()))
            del protected[pid]
            entry.segment = _PROBATION
            self._segments[_PROBATION][pid] = entry

    def _protected_bytes(self) -> int:
        return sum(e.nbytes
                   for e in self._segments[_PROTECTED].values())

    def _evict_to_budget(self) -> list[int]:
        """Evict LRU entries (probation first) until within budget."""
        evicted: list[int] = []
        while self._resident_bytes > self.budget_bytes:
            for segment_name in (_PROBATION, _PROTECTED):
                segment = self._segments[segment_name]
                if segment:
                    pid, entry = next(iter(segment.items()))
                    self._drop(pid, entry)
                    self._stats.evictions += 1
                    evicted.append(pid)
                    break
            else:  # pragma: no cover - both segments empty
                break
        return evicted
