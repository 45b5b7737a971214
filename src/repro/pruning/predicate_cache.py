"""Predicate caching, extended to top-k queries (§8.2).

The one remembered-partitions store. An entry is keyed by (table,
predicate) — for top-k entries also by the full ordering and the
number of rows kept (``k + offset``) — and holds two things: the frozen
ids of the micro-partitions that *contributed* to one complete
execution, and the table's largest partition id at that moment (the
high-water mark). A repeat keeps a partition iff it is in the entry or
newer than the mark (:meth:`CacheEntry.keeps`).

That rule needs no DML notification for filter entries, because
micro-partitions are immutable and ids are never reused: a partition at
or below the mark that is in the table now was in it then, with these
rows, and the recorded execution saw it hold no match (or pruning
proved so). INSERT, DELETE and UPDATE only ever add partitions above
the mark, which are scanned — given that ids grow in commit order. They
are handed out when a partition is built, so this needs one writer at a
time to build and commit its DML (``QueryService``'s write lock);
``Catalog`` checks it on every commit and drops the table's entries if
an id arrives out of order. This is the paper's analysis:

* **INSERT** — safe for both entry kinds: new partitions are scanned.
* **DELETE** — safe for filter entries (a removed partition cannot make
  another one qualify); *invalidates* top-k entries that cached a
  removed partition, because the replacement (k+1-th) row may live
  outside the cached set.
* **UPDATE** — a rewrite: the new partitions are above the mark. Top-k
  entries are additionally invalidated when the *ordering column* is
  updated anywhere in the table, since reordered rows can displace
  cached ones.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..expr import ast

#: an ordering as the cache keys it: ((column, descending), ...)
Ordering = Sequence[tuple[str, bool]]


@dataclass(frozen=True)
class CacheEntry:
    """The partitions one complete execution needed (immutable)."""

    table: str
    partition_ids: frozenset[int]
    #: the table's largest partition id when this was recorded
    high_water: int
    #: top-k only: the columns the rows were ordered by
    order_columns: frozenset[str] = frozenset()

    @property
    def kind(self) -> str:
        """"filter" or "topk"."""
        return "topk" if self.order_columns else "filter"

    def keeps(self, partition_id: int) -> bool:
        """Must a repeat execution scan this partition?"""
        return (partition_id in self.partition_ids
                or partition_id > self.high_water)


def _cache_key(table: str, predicate: ast.Expr | None,
               order: Ordering, keep: int | None) -> tuple:
    return (table.lower(),
            predicate.to_sql() if predicate is not None else "",
            tuple((column.lower(), desc) for column, desc in order), keep)


class PredicateCache:
    """LRU cache of per-query contributing partition sets.

    ``max_entries`` bounds the number of cached queries and
    ``max_partitions_per_entry`` bounds each entry's size — entries
    that would exceed it are not admitted, modelling the paper's
    observation that cache space limits effectiveness on large tables.
    Entries never grow after admission.

    All public methods are guarded by a lock (mirroring
    :class:`~repro.caching.ResultCache`): compile-time lookups run on
    service worker threads while catalog DML invalidates top-k entries.
    Entries are frozen, so a lookup hands out the entry itself.
    """

    def __init__(self, max_entries: int = 1024,
                 max_partitions_per_entry: int = 256):
        self.max_entries = max_entries
        self.max_partitions_per_entry = max_partitions_per_entry
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.records = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def record(self, table: str, predicate: ast.Expr | None,
               partition_ids: Iterable[int], high_water: int,
               order: Ordering = (), keep: int | None = None) -> bool:
        """Cache the partitions a complete execution needed: those with
        a matching row (filter entry), or, given ``order`` and ``keep``,
        those holding the ``keep`` best rows (top-k entry)."""
        ids = frozenset(partition_ids)
        if len(ids) > self.max_partitions_per_entry:
            return False
        key = _cache_key(table, predicate, order, keep)
        entry = CacheEntry(key[0], ids, high_water,
                           frozenset(column for column, _ in key[2]))
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            self.records += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)  # evict least recent
        return True

    def lookup(self, table: str, predicate: ast.Expr | None,
               order: Ordering = (),
               keep: int | None = None) -> CacheEntry | None:
        key = _cache_key(table, predicate, order, keep)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def on_rewrite(self, table: str, removed_ids: Iterable[int],
                   columns: Iterable[str]) -> None:
        """DELETE / UPDATE / recluster replaced ``removed_ids`` and
        changed ``columns``: drop the top-k entries that cached a
        removed partition or are ordered by a changed column. Filter
        entries need nothing (see the module docstring)."""
        table = table.lower()
        removed = set(removed_ids)
        touched = {c.lower() for c in columns}
        self._drop(lambda e: e.table == table and e.kind == "topk"
                   and (e.order_columns & touched
                        or e.partition_ids & removed),
                   invalidation=True)

    def drop_table(self, table: str) -> None:
        table = table.lower()
        self._drop(lambda e: e.table == table)

    def _drop(self, stale, invalidation: bool = False) -> None:
        with self._lock:
            for key in [k for k, e in self._entries.items() if stale(e)]:
                del self._entries[key]
                if invalidation:
                    self.invalidations += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "records": self.records,
                    "invalidations": self.invalidations}
