"""The metadata service: a transactional-ish key-value store of zone maps.

Snowflake's cloud services layer keeps partition metadata in a dedicated
scalable KV store so the compiler can prune "without loading the actual
data" (§2). We model it as a versioned in-memory KV store keyed by
``(table, partition_id)``, with lookup accounting so experiments can
charge metadata access in the cost model.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..errors import MetadataError
from .zonemap import ZoneMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pruning.sketches import PartitionSketches, SketchIndex
    from ..pruning.stats_index import StatsIndex


class MetadataStore:
    """Versioned key-value store mapping partitions to zone maps.

    Thread safety: all access to ``_entries``/``_table_partitions`` and
    the ``version``/``lookups`` counters is guarded by an internal
    re-entrant lock, so concurrent DML (register/unregister) and
    compile-time reads never observe torn state.
    """

    def __init__(self):
        self._entries: dict[tuple[str, int], ZoneMap] = {}
        # Dict-backed ordered set: preserves registration order while
        # making unregister O(1) instead of list.remove's O(n).
        self._table_partitions: dict[str, dict[int, None]] = {}
        self.version = 0
        self.lookups = 0
        self._lock = threading.RLock()
        # Vectorized-pruning support: per-table SoA StatsIndex snapshots
        # plus the write deltas accumulated since each snapshot, so
        # stats_index() refreshes copy-on-write instead of rescanning
        # the table (see pruning/stats_index.py).
        self._stats_indexes: dict[str, "StatsIndex"] = {}
        self._stats_dirty: dict[str, dict[int, ZoneMap | None]] = {}
        # Secondary sketches (pruning/sketches.py) registered alongside
        # the zone maps, plus per-table SoA SketchIndex caches. The
        # caches are simply dropped on any sketch write for the table:
        # sketch writes ride DML, which is orders of magnitude rarer
        # than the compile-time reads the cache serves.
        self._sketches: dict[str, dict[int, "PartitionSketches"]] = {}
        self._sketch_indexes: dict[str, "SketchIndex"] = {}
        # Invalidation listeners: called as fn(table, partition_id)
        # after a partition's metadata is removed (unregister /
        # drop_table). Warehouse-local data caches subscribe here so
        # DML/recluster rewrites evict stale entries automatically.
        # Listeners run *outside* the lock to keep lock ordering simple.
        self._invalidation_listeners: list[Callable[[str, int], None]] = []

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def register(self, table: str, partition_id: int,
                 zone_map: ZoneMap) -> None:
        """Add or replace metadata for one partition of a table."""
        self.register_table(table, [(partition_id, zone_map)])

    def unregister(self, table: str, partition_id: int) -> None:
        """Remove a partition's metadata (after DELETE/rewrite)."""
        table = table.lower()
        key = (table, partition_id)
        with self._lock:
            if key not in self._entries:
                raise MetadataError(
                    f"no metadata for partition {partition_id} of {table!r}")
            del self._entries[key]
            bucket = self._table_partitions[table]
            del bucket[partition_id]
            if not bucket:
                # Don't leak empty per-table buckets for dropped data.
                del self._table_partitions[table]
            if table in self._stats_indexes:
                self._stats_dirty.setdefault(table, {})[partition_id] = None
            if self._sketches.get(table, {}).pop(
                    partition_id, None) is not None:
                self._sketch_indexes.pop(table, None)
            self.version += 1
            listeners = list(self._invalidation_listeners)
        for listener in listeners:
            listener(table, partition_id)

    def register_table(self, table: str,
                       zone_maps: Iterable[tuple[int, ZoneMap]]) -> None:
        """Add or replace metadata for partitions of a table, in order,
        under one lock acquisition."""
        table = table.lower()
        with self._lock:
            for partition_id, zone_map in zone_maps:
                key = (table, partition_id)
                if key not in self._entries:
                    self._table_partitions.setdefault(
                        table, {})[partition_id] = None
                    if partition_id in self._stats_dirty.get(table, ()):
                        # Dropped since the last snapshot and back again:
                        # it now lists last, which a delta per id cannot
                        # say. Resnapshot on the next stats_index().
                        del self._stats_indexes[table]
                        del self._stats_dirty[table]
                self._entries[key] = zone_map
                if table in self._stats_indexes:
                    self._stats_dirty.setdefault(table, {})[partition_id] = \
                        zone_map
                self.version += 1

    def drop_table(self, table: str) -> None:
        table = table.lower()
        with self._lock:
            removed = list(self._table_partitions.pop(table, {}))
            for partition_id in removed:
                del self._entries[(table, partition_id)]
            self._stats_indexes.pop(table, None)
            self._stats_dirty.pop(table, None)
            self._sketches.pop(table, None)
            self._sketch_indexes.pop(table, None)
            self.version += 1
            listeners = list(self._invalidation_listeners)
        for listener in listeners:
            for partition_id in removed:
                listener(table, partition_id)

    # ------------------------------------------------------------------
    # Invalidation listeners
    # ------------------------------------------------------------------
    def add_invalidation_listener(
            self, listener: Callable[[str, int], None]) -> None:
        """Subscribe ``fn(table, partition_id)`` to metadata removals."""
        with self._lock:
            self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(
            self, listener: Callable[[str, int], None]) -> None:
        with self._lock:
            try:
                self._invalidation_listeners.remove(listener)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, table: str, partition_id: int) -> ZoneMap:
        table = table.lower()
        with self._lock:
            self.lookups += 1
            try:
                return self._entries[(table, partition_id)]
            except KeyError:
                raise MetadataError(
                    f"no metadata for partition {partition_id} of "
                    f"{table!r}") from None

    def partitions_of(self, table: str) -> list[int]:
        """All partition ids of a table, in registration order."""
        with self._lock:
            return list(self._table_partitions.get(table.lower(), {}))

    def iter_table(self, table: str) -> Iterator[tuple[int, ZoneMap]]:
        for partition_id in self.partitions_of(table):
            yield partition_id, self.get(table, partition_id)

    def stats_index(self, table: str) -> "StatsIndex":
        """Current SoA :class:`~repro.pruning.StatsIndex` for a table.

        Kept incrementally: the first call snapshots the table; later
        calls apply the register/unregister deltas recorded since,
        copy-on-write, so readers always hold a consistent immutable
        index and steady-state refreshes cost O(changed partitions)
        bookkeeping rather than a metadata rescan. This is an internal
        metadata-service structure, so reads here are not charged as
        lookups. Its rows hold the very ZoneMap objects :meth:`get`
        returns: ``Catalog.scan_set`` takes the index as the fetch
        itself (:meth:`fetch_index`); when that read fails and it
        reads per partition, a scan set trusts the index per entry
        only through ``ScanSet.trusted_rows``' zone-map identity
        check.
        """
        from ..pruning.stats_index import StatsIndex

        table = table.lower()
        with self._lock:
            index = self._stats_indexes.get(table)
            dirty = self._stats_dirty.pop(table, None)
            if index is None:
                index = StatsIndex(
                    (pid, self._entries[(table, pid)])
                    for pid in self._table_partitions.get(table, {}))
            elif dirty:
                index = index.with_changes(dirty)
            self._stats_indexes[table] = index
            return index

    def fetch_index(self, table: str) -> "StatsIndex":
        """``Catalog.scan_set``'s one read of a table's metadata: the
        stats index, counted as one lookup per partition, as reading
        each through :meth:`get` would be."""
        with self._lock:
            index = self.stats_index(table)
            self.lookups += len(index)
            return index

    # ------------------------------------------------------------------
    # Secondary sketches (pruning/sketches.py)
    # ------------------------------------------------------------------
    def register_sketches(self, table: str, partition_id: int,
                          sketches: "PartitionSketches") -> None:
        """Attach secondary sketches to a registered partition."""
        table = table.lower()
        with self._lock:
            if (table, partition_id) not in self._entries:
                raise MetadataError(
                    f"no metadata for partition {partition_id} of "
                    f"{table!r}")
            self._sketches.setdefault(table, {})[partition_id] = sketches
            self._sketch_indexes.pop(table, None)

    def sketches_of(self, table: str) -> dict[int, "PartitionSketches"]:
        """All registered sketches of a table, keyed by partition id.

        A compile-time metadata read: when it fails, the compiler
        fails open (scans without sketch pruning).
        """
        with self._lock:
            self.lookups += 1
            return dict(self._sketches.get(table.lower(), {}))

    def sketch_index(self, table: str,
                     ngram_size: int = 3) -> "SketchIndex":
        """Cached SoA :class:`~repro.pruning.SketchIndex` for a table.

        Like :meth:`stats_index` this is an internal metadata-service
        structure: reads are not charged as lookups. Partition ids are never reused, so a cached row can
        never describe different data than the scalar sketch it was
        packed from — the pruner's covered-row check handles the rest.
        """
        from ..pruning.sketches import SketchIndex

        table = table.lower()
        with self._lock:
            index = self._sketch_indexes.get(table)
            if index is None or index.ngram_size != ngram_size:
                index = SketchIndex(
                    self._sketches.get(table, {}).items(),
                    ngram_size=ngram_size)
                self._sketch_indexes[table] = index
            return index

    def table_row_count(self, table: str) -> int:
        return sum(zm.row_count for _, zm in self.iter_table(table))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
