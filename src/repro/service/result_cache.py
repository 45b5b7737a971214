"""Query result cache keyed on parameterized SQL + table versions.

Snowflake's Cloud Services layer answers repeated queries from a
result cache without ever touching a warehouse (§2). Our cache key is
the statement's *(plan-shape key, bound-literal tuple)* pair (see
:mod:`repro.plancache.parameterize`) — so literal spellings that
normalize differently as text (``1.0`` vs ``1.00``) share one entry —
with the normalized statement text (:mod:`repro.sql.normalize`) as a
fallback key. An entry additionally pins the data **version** of
every table the query read (:meth:`~ResultCache.tables` names them, so
a lookup needs no parse). A lookup only hits when each table still has
the version recorded at store time, so DML and reclustering invalidate
results automatically — version-mismatched entries are evicted as
stale the moment they are seen (and eagerly via
:meth:`invalidate_table`, wired to the catalog's change listener).

Entries are kept LRU; capacity is bounded by ``max_entries``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

from ..catalog import QueryResult

__all__ = ["CacheStats", "CacheEntry", "ResultCache"]


@dataclass
class CacheStats:
    """Lifetime counters (all guarded by the cache's lock)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stale_evictions: int = 0
    capacity_evictions: int = 0
    stores: int = 0
    invalidations: int = 0


@dataclass
class CacheEntry:
    """One cached result with its validity snapshot."""

    key: Hashable
    result: QueryResult
    table_versions: dict[str, int] = field(default_factory=dict)
    hits: int = 0


class ResultCache:
    """LRU result cache with version-based invalidation.

    Keys are any hashable value — the service uses
    ``(shape_key, binds)`` tuples so same-shape queries with equal
    literals share an entry regardless of spelling.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def tables(self, key: Hashable) -> tuple[str, ...]:
        """Sorted names of the tables the entry under ``key`` read
        (``()`` if none): whose versions :meth:`lookup` needs."""
        with self._lock:
            entry = self._entries.get(key)
            return () if entry is None else tuple(entry.table_versions)

    def lookup(self, key: Hashable,
               current_versions: dict[str, int]) -> QueryResult | None:
        """The cached result, or None on miss/stale.

        ``current_versions`` must cover every table the statement
        references (version snapshot taken under the service's read
        lock, so no DML can commit between the check and the return);
        versions of another table set miss without evicting.
        """
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.table_versions != current_versions:
                if entry.table_versions.keys() == current_versions.keys():
                    del self._entries[key]
                    self.stats.stale_evictions += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.stats.hits += 1
            return entry.result

    def store(self, key: Hashable, result: QueryResult,
              table_versions: dict[str, int]) -> None:
        """Insert/replace an entry; evicts LRU beyond capacity."""
        entry = CacheEntry(key=key, result=result,
                           table_versions=dict(table_versions))
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.capacity_evictions += 1

    # ------------------------------------------------------------------
    def invalidate_table(self, table: str) -> int:
        """Eagerly drop every entry that read ``table``; returns the
        number dropped. (Version checks would catch them lazily; eager
        invalidation frees memory and keeps stats honest.)"""
        table = table.lower()
        with self._lock:
            doomed = [key for key, entry in self._entries.items()
                      if table in entry.table_versions]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)
