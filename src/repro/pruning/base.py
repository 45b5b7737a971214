"""Scan sets and pruning results.

A *scan set* is "a serialized list of micro-partition identifiers to be
processed as part of the query" (§2). Pruning techniques transform scan
sets; :class:`PruningResult` captures one technique's effect so the
profiler can attribute savings per technique (Figures 1, 11).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import StorageError
from ..expr.pruning import TriState
from ..storage.zonemap import ZoneMap

if TYPE_CHECKING:  # pragma: no cover - stats_index imports this module
    from .stats_index import StatsIndex

#: int8 verdict codes: what a pruning kernel emits per index row and
#: :meth:`ScanSet.gather` returns per entry. A may-join answer is a
#: code too: False reads as NEVER, True as MAYBE.
NEVER_CODE, MAYBE_CODE, ALWAYS_CODE = 0, 1, 2
VERDICT_CODE = {TriState.NEVER: NEVER_CODE, TriState.MAYBE: MAYBE_CODE,
                TriState.ALWAYS: ALWAYS_CODE}


class ScanSet:
    """An ordered list of (partition_id, zone_map) entries to scan.

    Order matters: top-k pruning processes partitions in a boundary-
    friendly order (§5.3) and LIMIT pruning puts fully-matching
    partitions first (§4.1).

    A scan set also owns the :class:`~repro.pruning.StatsIndex`
    snapshot it was fetched with and, per entry, the index row that
    describes the zone map the entry actually holds
    (:attr:`trusted_rows`). Zone-map pruners run their numpy kernels
    over :attr:`stats_index` and read the verdicts back through
    :meth:`gather` / :meth:`trusted_row`; entries the index cannot
    vouch for (degraded ``without_stats()`` copies, rows gone stale
    under DML, ids the index lacks) take the scalar path there, in
    one place.

    A scan set made by :meth:`of_index` is *rows of that snapshot*:
    ids, sizes, derivation and the trusted branch of :meth:`gather`
    read the index's lanes, and the ``(pid, ZoneMap)`` entries are
    built only when someone iterates them, i.e. for the survivors of
    pruning or for everything on a scalar fallback.
    """

    def __init__(self, entries: Iterable[tuple[int, ZoneMap]] = (),
                 degraded_ids: Iterable[int] = (),
                 index: "StatsIndex | None" = None):
        #: None while an :meth:`of_index` scan set has not been
        #: iterated; see :meth:`_materialised`.
        self._entries: list[tuple[int, ZoneMap]] | None = list(entries)
        #: lazy id -> entry-position mapping; the entries never change
        #: after construction (transforms build new scan sets), so
        #: building it twice under a race is merely wasted work. The
        #: same holds for ``_entries`` itself, ``_trusted_rows`` and a
        #: hand-built set's ``_stats_index``: each is computed into a
        #: local and published with one assignment, and every reader
        #: takes one read of it.
        self._position_of: dict[int, int] | None = None
        #: the index snapshot the entries were fetched with; a scan
        #: set built by hand packs its own entries on first use.
        self._stats_index = index
        self._trusted_rows: np.ndarray | None = None
        #: partitions whose metadata could not be fetched — their zone
        #: maps are stats-free placeholders, so every pruning check
        #: answers MAYBE and they are always scanned (fail open).
        self.degraded_ids: frozenset[int] = frozenset(degraded_ids)

    @classmethod
    def of_index(cls, index: "StatsIndex",
                 rows: np.ndarray | None = None) -> "ScanSet":
        """The scan set whose entries are ``index``'s own ``rows``
        (default: every row, in index order), built on demand."""
        scan = cls(index=index)
        scan._entries = None
        scan._trusted_rows = np.arange(len(index)) if rows is None else rows
        return scan

    def _materialised(self) -> list[tuple[int, ZoneMap]]:
        entries = self._entries
        if entries is None:
            entries = self._entries = list(zip(
                self.partition_ids,
                map(self._stats_index.zone_map_at,
                    self._trusted_rows.tolist())))
        return entries

    @property
    def degraded(self) -> bool:
        """True when any entry lost its metadata to a failure."""
        return bool(self.degraded_ids)

    @property
    def partition_ids(self) -> list[int]:
        entries = self._entries
        if entries is None:
            return self.ids.tolist()
        return [pid for pid, _ in entries]

    @property
    def ids(self) -> np.ndarray:
        """The partition ids as int64: the index's id lane at this
        set's rows, or the entries' ids for a hand-built set."""
        entries = self._entries
        if entries is None:
            return self._stats_index.partition_ids[self._trusted_rows]
        return np.array([pid for pid, _ in entries], dtype=np.int64)

    @property
    def entries(self) -> list[tuple[int, ZoneMap]]:
        return list(self._materialised())

    def _positions(self) -> dict[int, int]:
        if self._position_of is None:
            self._position_of = {
                pid: i for i, pid in enumerate(self.partition_ids)}
        return self._position_of

    def zone_map(self, partition_id: int) -> ZoneMap:
        return self._materialised()[self._positions()[partition_id]][1]

    def __len__(self) -> int:
        entries = self._entries
        return len(self._trusted_rows if entries is None else entries)

    def __iter__(self) -> Iterator[tuple[int, ZoneMap]]:
        return iter(self._materialised())

    def __contains__(self, partition_id: int) -> bool:
        return partition_id in self._positions()

    @property
    def row_counts(self) -> np.ndarray:
        """The entries' row counts as int64, beside :attr:`ids` (the
        index's lane, or a hand-built set's zone maps')."""
        entries = self._entries
        if entries is None:
            return self._stats_index.row_counts[self._trusted_rows]
        return np.array([zm.row_count for _, zm in entries],
                        dtype=np.int64)

    def total_rows(self) -> int:
        return int(self.row_counts.sum())

    # ------------------------------------------------------------------
    # The stats index and which of its rows this scan set may trust
    # ------------------------------------------------------------------
    @property
    def stats_index(self) -> "StatsIndex":
        """The SoA zone-map index the pruning kernels classify."""
        if self._stats_index is None:
            from .stats_index import StatsIndex

            index = StatsIndex(self._entries)
            self._trusted_rows = np.arange(len(self._entries))
            self._stats_index = index
        return self._stats_index

    @property
    def trusted_rows(self) -> np.ndarray:
        """Per entry, the :attr:`stats_index` row describing the zone
        map the entry holds, or -1 when no row does.

        An :meth:`of_index` scan set's trusted rows *are* its rows:
        its entries are the index's own ZoneMap objects by
        construction. For fetched or hand-built entries the index is
        a snapshot taken beside them, not from them: a metadata fault
        leaves the entry a ``without_stats()`` copy, DML between the
        two reads leaves a row stale or missing. There, only a row
        holding the *same* ZoneMap object is trusted.
        Computed once; derived scan sets carry their slice of it.
        """
        index = self.stats_index  # packing its own trusts every entry
        if self._trusted_rows is None:
            row_of, zone_map_at = index.row_of, index.zone_map_at
            rows = np.full(len(self._entries), -1, dtype=np.intp)
            for i, (pid, zone_map) in enumerate(self._entries):
                row = row_of(pid)
                if row is not None and zone_map_at(row) is zone_map:
                    rows[i] = row
            self._trusted_rows = rows
        return self._trusted_rows

    def trusted_row(self, partition_id: int) -> int | None:
        """One partition's trusted index row, or None (scalar path)."""
        position = self._positions().get(partition_id)
        if position is None:
            return None
        row = int(self.trusted_rows[position])
        return row if row >= 0 else None

    def gather(self, per_row: "np.ndarray | None",
               scalar: Callable[[ZoneMap], int]) -> tuple[np.ndarray, int]:
        """Turn a kernel's per-index-row verdict codes into per-entry
        codes (int8; see :data:`VERDICT_CODE`).

        Trusted entries read ``per_row`` at their row; every other
        entry — all of them when ``per_row`` is None, i.e. the kernel
        could not compile or bind — is judged by ``scalar(zone_map)``,
        the per-partition reference path, which returns a code.
        Returns the codes in entry order and how many came from
        ``per_row``.
        """
        if per_row is None or not len(per_row) or not len(self):
            return np.array([scalar(zone_map) for _, zone_map in self],
                            dtype=np.int8), 0
        rows = self.trusted_rows
        codes = per_row[rows].astype(np.int8, copy=False)
        untrusted = np.flatnonzero(rows < 0)
        if len(untrusted):
            entries = self._materialised()
            codes[untrusted] = [scalar(entries[i][1])
                                for i in untrusted.tolist()]
        return codes, len(codes) - len(untrusted)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def take(self, positions: Sequence[int]) -> "ScanSet":
        """The entries at ``positions``, in that order.

        Every transform derives through here, so degradation, the
        index snapshot and the trusted rows all travel with the
        entries. Pruning techniques must not
        rebuild their output as ``ScanSet(entries)``: that loses
        ``degraded_ids`` and runtime pruners can no longer tell which
        entries must fail open.
        """
        entries, rows = self._entries, self._trusted_rows
        positions = np.asarray(positions, dtype=np.intp)
        if rows is not None:
            rows = rows[positions]
        if entries is None:
            derived = ScanSet.of_index(self._stats_index, rows)
        else:
            derived = ScanSet([entries[i] for i in positions.tolist()],
                              index=self._stats_index)
            derived._trusted_rows = rows
        if self.degraded_ids:
            derived.degraded_ids = self.degraded_ids.intersection(
                derived.partition_ids)
        return derived

    def restrict(self, keep_ids: Iterable[int]) -> "ScanSet":
        """Keep only the given partitions, preserving order."""
        keep = set(keep_ids)
        return self.take([i for i, pid in enumerate(self.partition_ids)
                          if pid in keep])

    def reorder(self, ordered_ids: Iterable[int]) -> "ScanSet":
        """Reorder entries to match ``ordered_ids`` (must be a subset)."""
        positions = self._positions()
        return self.take([positions[pid] for pid in ordered_ids])

    def with_entries(
            self, entries: Iterable[tuple[int, ZoneMap]]) -> "ScanSet":
        """This scan set's own entries, filtered and/or reordered."""
        return self.reorder(pid for pid, _ in entries)

    # ------------------------------------------------------------------
    # Serialization: scan sets travel from cloud services to warehouse
    # workers (§2). Only partition ids are shipped; workers re-fetch
    # metadata from the metadata store. Effective pruning therefore
    # shrinks the serialized payload (§2.1 benefit 4).
    # ------------------------------------------------------------------
    _MAGIC = b"SSET"

    def serialize(self) -> bytes:
        """Encode as magic + count + delta-varint partition ids."""
        ids = self.partition_ids
        payload = bytearray(self._MAGIC)
        payload += struct.pack("<I", len(ids))
        previous = 0
        for pid in ids:
            delta = pid - previous
            previous = pid
            payload += _zigzag_varint(delta)
        return bytes(payload)

    @classmethod
    def deserialize(cls, data: bytes,
                    zone_map_lookup: Callable[[int], ZoneMap]
                    ) -> "ScanSet":
        """Decode a serialized scan set, resolving metadata by lookup.

        Raises:
            StorageError: if the payload is malformed.
        """
        if data[:4] != cls._MAGIC:
            raise StorageError("not a serialized scan set")
        (count,) = struct.unpack_from("<I", data, 4)
        offset = 8
        entries = []
        previous = 0
        for _ in range(count):
            delta, offset = _read_zigzag_varint(data, offset)
            previous += delta
            entries.append((previous, zone_map_lookup(previous)))
        if offset != len(data):
            raise StorageError("trailing bytes in serialized scan set")
        return cls(entries)

    def serialized_size(self) -> int:
        return len(self.serialize())

    def __repr__(self) -> str:
        return f"ScanSet({self.partition_ids})"


def _zigzag_varint(value: int) -> bytes:
    encoded = (value << 1) ^ (value >> 63) if value < 0 \
        else value << 1
    out = bytearray()
    while True:
        byte = encoded & 0x7F
        encoded >>= 7
        if encoded:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _read_zigzag_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise StorageError("truncated varint in scan set")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    value = (result >> 1) ^ -(result & 1)
    return value, offset


def pruning_mode(vector_checks: int, fallback_checks: int) -> str:
    """Which route a zone-map pruner's checks took: ``"vectorized"``
    (all from a kernel), ``"mixed"``, or ``"fallback"`` (all scalar)."""
    if not vector_checks:
        return "fallback"
    return "mixed" if fallback_checks else "vectorized"


class PruneCategory:
    """Names of the pruning techniques, used as profile keys."""

    FILTER = "filter"
    SKETCH = "sketch"
    JOIN = "join"
    LIMIT = "limit"
    TOPK = "topk"
    ALL = (FILTER, SKETCH, JOIN, LIMIT, TOPK)


class PruningResult:
    """Outcome of applying one pruning technique to a scan set.

    Attributes:
        technique: a :class:`PruneCategory` name.
        before: partition count entering this technique.
        kept: the surviving scan set.
        pruned_id_array: int64 ids of the partitions removed by this
            technique; :attr:`pruned_ids` lists them (and any
            :meth:`add_pruned` added) when someone asks.
        fully_matching_ids: partitions proven fully-matching (§4.1);
            only filter pruning populates this.
        checks: number of (partition, predicate) pruning evaluations
            performed, for the cost model.
    """

    def __init__(self, technique: str, before: int, kept: ScanSet,
                 pruned_ids: "Sequence[int] | np.ndarray" = (),
                 fully_matching_ids: Iterable[int] = (),
                 checks: int = 0):
        self.technique = technique
        self.before = before
        self.kept = kept
        self.pruned_id_array = np.asarray(pruned_ids, dtype=np.int64)
        #: appended one at a time by runtime pruning, so a list
        self._added: list[int] = []
        self.fully_matching_ids = list(fully_matching_ids)
        self.checks = checks

    @classmethod
    def from_codes(cls, technique: str, scan_set: ScanSet,
                   codes: np.ndarray, checks: int) -> "PruningResult":
        """The result of per-entry verdict codes (in entry order):
        NEVER prunes the entry, ALWAYS records it as fully matching."""
        ids = scan_set.ids
        return cls(technique, len(scan_set),
                   scan_set.take(np.flatnonzero(codes != NEVER_CODE)),
                   ids[codes == NEVER_CODE],
                   ids[codes == ALWAYS_CODE].tolist(), checks)

    def add_pruned(self, ids: Iterable[int]) -> None:
        """Count more partitions as pruned by this technique: a second
        join into the same scan, or a deferred filter's runtime skip."""
        self._added.extend(ids)

    @property
    def pruned_ids(self) -> list[int]:
        """The pruned partition ids, as a new list."""
        return self.pruned_id_array.tolist() + self._added

    @property
    def after(self) -> int:
        return len(self.kept)

    @property
    def pruned(self) -> int:
        return len(self.pruned_id_array) + len(self._added)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of incoming partitions removed (0 when none came in)."""
        if self.before == 0:
            return 0.0
        return self.pruned / self.before

    def __repr__(self) -> str:
        return (f"PruningResult({self.technique}: {self.before} -> "
                f"{self.after}, ratio={self.pruning_ratio:.2%})")
