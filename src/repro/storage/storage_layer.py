"""Simulated disaggregated cloud object storage with I/O accounting.

The paper's central argument is that in a decoupled compute/storage
architecture, pruning primarily saves *network I/O* (§1, §2). We model
cloud object storage (S3/Azure Blob/GCS) as an in-process store that
counts every request and byte and charges a simple latency+bandwidth
cost model, so experiments can report simulated runtimes
deterministically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from ..errors import PartitionUnavailableError, StorageError
from .micropartition import MicroPartition, project_bytes


@dataclass
class CostModel:
    """Time model for simulated query execution.

    The defaults loosely mirror cloud object storage: a fixed per-request
    latency, a bandwidth term per byte, and a CPU term per row processed.
    All costs are in milliseconds.
    """

    request_latency_ms: float = 10.0
    ms_per_mb: float = 10.0          # ~100 MB/s effective bandwidth
    cpu_ms_per_krow: float = 0.5     # per 1000 rows scanned/filtered
    metadata_lookup_ms: float = 0.02  # per-partition metadata access
    prune_check_ms: float = 0.002    # per predicate/partition prune check
    #: amortized per-partition cost when a compiled kernel classifies
    #: the whole table in one vectorized pass (~10x cheaper; §7 treats
    #: pruning time itself as a first-class cost).
    vectorized_prune_check_ms: float = 0.0002
    #: fixed cost of serving a partition from the warehouse-local data
    #: cache (§2): local SSD/memory, no object-store round trip.
    cached_hit_cost_ms: float = 0.5
    #: bandwidth term for cached reads (~1 GB/s effective local
    #: bandwidth vs ~100 MB/s to object storage).
    cached_ms_per_mb: float = 1.0
    #: fixed front-end cost of a cold compile: lexing, parsing, and
    #: building the logical plan (§7 treats compile time as a
    #: first-class cost; the plan cache exists to avoid this).
    parse_cost_ms: float = 0.25
    #: per-column binding/name-resolution cost across the referenced
    #: tables' schemas — full width cold, touched-columns-only with
    #: compile-time schema pruning (repro.plancache.schema_prune).
    bind_column_cost_ms: float = 0.03
    #: flat cost of rebinding literals into a cached plan template on
    #: a plan-cache hit (replaces parse + bind entirely).
    plan_rebind_cost_ms: float = 0.05

    def load_cost(self, nbytes: int, loads: int = 1) -> float:
        """Cost of fetching ``nbytes`` from object storage."""
        return (loads * self.request_latency_ms
                + self.ms_per_mb * nbytes / 2**20)

    def cached_load_cost(self, nbytes: int, loads: int = 1) -> float:
        """Cost of reading ``nbytes`` from the warehouse-local cache."""
        return (loads * self.cached_hit_cost_ms
                + self.cached_ms_per_mb * nbytes / 2**20)

    def scan_cost(self, rows: int) -> float:
        """CPU cost of scanning/filtering ``rows`` rows."""
        return self.cpu_ms_per_krow * rows / 1000.0


@dataclass
class IOStats:
    """Mutable counters for storage traffic during an execution.

    Counter updates are guarded by an internal lock so concurrent
    scans (e.g. through :class:`repro.service.QueryService`) never
    lose accounting increments; plain attribute reads stay lock-free
    and may observe a slightly stale value mid-flight. Use
    :meth:`snapshot` for a consistent point-in-time copy.
    """

    requests: int = 0
    bytes_read: int = 0
    partitions_loaded: int = 0
    failed_requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_saved: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record_load(self, count: int, nbytes: int) -> None:
        """Atomically account partition fetches."""
        with self._lock:
            self.requests += count
            self.bytes_read += nbytes
            self.partitions_loaded += count

    def record_cache_traffic(self, hits: int, nbytes: int,
                             misses: int) -> None:
        """Account data-cache lookups: hits kept ``nbytes`` in storage."""
        with self._lock:
            self.cache_hits += hits
            self.cache_bytes_saved += nbytes
            self.cache_misses += misses

    @property
    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def record_failed_request(self) -> None:
        with self._lock:
            self.failed_requests += 1

    def _counters(self) -> dict[str, float]:
        """Every counter by name (all fields but the lock)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare}

    def reset(self) -> None:
        with self._lock:
            for f in fields(self):
                if f.compare:
                    setattr(self, f.name, f.default)

    def snapshot(self) -> "IOStats":
        with self._lock:
            return IOStats(**self._counters())

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` was snapshotted.

        The minuend is taken as one locked :meth:`snapshot`, never as a
        sequence of live field reads: with concurrent queries
        mutating the counters, unlocked field-by-field
        reads produce torn diffs (e.g. ``bytes_read`` of loads that
        ``requests`` does not count yet).
        """
        return IOStats(**{name: value - getattr(earlier, name) for name, value
                          in self.snapshot()._counters().items()})


class StorageLayer:
    """An addressable store of micro-partitions with traffic accounting.

    Every data access goes through :meth:`load_many`, which records request
    counts and bytes so pruning effectiveness translates into observable
    I/O savings. Metadata access is *not* a data load — it goes through
    the metadata store — mirroring the paper's architecture where the
    metadata service allows pruning "without loading the actual data".
    """

    def __init__(self, cost_model: CostModel | None = None):
        self._partitions: dict[int, MicroPartition] = {}
        # Guards _partitions: DML put/delete runs concurrently with
        # other queries' scans (CPython dict ops are atomic, but the
        # put-collision check-then-set below is not).
        self._map_lock = threading.Lock()
        self.cost_model = cost_model or CostModel()
        self.stats = IOStats()

    def put(self, partition: MicroPartition) -> int:
        """Store a partition; returns its id (see :meth:`put_all`)."""
        return self.put_all([partition])[0]

    def put_all(self, partitions: Iterable[MicroPartition]) -> list[int]:
        """Store partitions under one lock acquisition; returns their ids.

        Micro-partitions are immutable and ids are never reused (DML
        rewrites mint fresh ids), so an id collision is always a bug —
        and silently overwriting would let caches serve stale bytes.

        Raises:
            StorageError: a different partition already holds an id.
        """
        ids = []
        with self._map_lock:
            for partition in partitions:
                existing = self._partitions.get(partition.partition_id)
                if existing is not None and existing is not partition:
                    raise StorageError(
                        f"partition id {partition.partition_id} already "
                        f"exists; micro-partition ids are immutable and "
                        f"never reused")
                self._partitions[partition.partition_id] = partition
                ids.append(partition.partition_id)
        return ids

    def delete(self, partition_id: int) -> None:
        with self._map_lock:
            if partition_id not in self._partitions:
                raise StorageError(f"no partition with id {partition_id}")
            del self._partitions[partition_id]

    def __contains__(self, partition_id: int) -> bool:
        with self._map_lock:
            return partition_id in self._partitions

    def __len__(self) -> int:
        with self._map_lock:
            return len(self._partitions)

    def load(self, partition_id: int,
             columns: Sequence[str] | None = None) -> MicroPartition:
        """One partition: :meth:`load_many` of one id."""
        return self.load_many([partition_id], columns)[0][0]

    def load_many(self, partition_ids: Sequence[int],
                  columns: Sequence[str] | None = None,
                  loaded: "list[MicroPartition] | None" = None
                  ) -> "tuple[list[MicroPartition], int]":
        """Fetch partitions in order, charging one request each plus the
        bytes of ``columns`` (PAX reads a column subset; the whole
        partitions are returned); returns ``(partitions, bytes)``.

        One map lookup and one :class:`IOStats` update. An id that is
        not stored raises :class:`PartitionUnavailableError`; the
        partitions before it are accounted first and, when ``loaded``
        is given, appended to it.
        """
        with self._map_lock:
            got = list(map(self._partitions.get, partition_ids))
        end = got.index(None) if None in got else len(got)
        del got[end:]
        nbytes = project_bytes(got, columns)
        if got:
            self.stats.record_load(len(got), nbytes)
            if loaded is not None:
                loaded.extend(got)
        if end < len(partition_ids):
            self.stats.record_failed_request()
            raise PartitionUnavailableError(
                f"no partition with id {partition_ids[end]}",
                partition_id=partition_ids[end])
        return got, nbytes

    def peek(self, partition_id: int) -> MicroPartition:
        """Access a partition without accounting (testing/admin only)."""
        with self._map_lock:
            partition = self._partitions.get(partition_id)
        if partition is None:
            raise StorageError(f"no partition with id {partition_id}")
        return partition

    def load_cost_ms(self, partition_id: int,
                     columns: Sequence[str] | None = None) -> float:
        """Simulated cost of loading a partition, without loading it."""
        return self.cost_model.load_cost(
            self.peek(partition_id).project_bytes(columns))
