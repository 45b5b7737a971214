"""Async readahead over a post-pruning scan set.

The paper's scan pipeline knows the full (pruned) scan-set order
before it loads the first byte, so a warehouse can overlap object-store
fetches with downstream work. :class:`Prefetcher` models that: a small
thread pool walks the scan-set order ahead of the consumer, keeping at
most ``window`` partitions in flight, and deposits successful loads
into the shared :class:`~repro.cache.partition_cache.PartitionCache`.

Runtime pruners (top-k boundaries, deferred join/filter verdicts) are
no obstacle to readahead because their decisions are *monotone*: a
partition the boundary prunes now stays pruned forever. The scan
passes a ``should_fetch`` re-validation callback; each partition is
re-checked against the current boundary at fetch-issue time, and a
partition that tightening later proves useless is surrendered via
:meth:`drop` — the scan counts those bytes as prefetched-then-skipped
instead of charging them to the query.

Failure hygiene: the prefetcher *never* surfaces or caches a failed
load. A fetch that raises (transient fault, corruption, unavailable
partition) is swallowed; the consumer's demand load re-attempts it
with the query's own retry budget and raises the typed error at the
correct position in the scan, exactly as an unprefetched scan would.
Prefetch fetches use a zero-retry policy so background readahead never
burns the query's retry budget or doubles fault-injector accesses for
partitions the demand path will retry anyway.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.micropartition import MicroPartition
    from ..storage.storage_layer import StorageLayer
    from .partition_cache import PartitionCache

__all__ = ["Prefetcher"]


class Prefetcher:
    """Bounded readahead of one scan's partition order into the cache."""

    def __init__(self, cache: "PartitionCache", storage: "StorageLayer",
                 order: Sequence[int], *,
                 columns: Sequence[str] | None = None,
                 window: int = 4, workers: int | None = None,
                 should_fetch: Callable[[int], bool] | None = None):
        self._cache = cache
        self._storage = storage
        self._order = list(order)
        self._columns = list(columns) if columns is not None else None
        self._window = max(1, window)
        #: claim-time re-validation hook: called once per partition as
        #: its fetch is about to be issued; False skips the fetch
        #: entirely (sound for monotone pruners — a skip never
        #: un-skips). Runs on the consumer thread (claim/drop refills).
        self._should_fetch = should_fetch
        self._lock = threading.Lock()
        self._futures: dict[int, Future] = {}
        self._next = 0
        self._closed = False
        #: fetches suppressed by ``should_fetch`` (never issued).
        self.suppressed = 0
        self._pool = ThreadPoolExecutor(
            max_workers=workers or cache.prefetch_workers,
            thread_name_prefix="prefetch")
        self._fill()

    # ------------------------------------------------------------------
    def claim(self, partition_id: int) -> bool:
        """Wait for any in-flight fetch of ``partition_id`` and top up
        the readahead window. True if this prefetcher fetched it into
        the cache (the consumer found it resident *because of* the
        readahead, i.e. bytes were read from storage this query)."""
        with self._lock:
            future = self._futures.pop(partition_id, None)
        fetched = False
        if future is not None:
            fetched = future.result() is not None
        self._fill()
        return fetched

    def drop(self, partition_id: int) -> tuple[int, int]:
        """Surrender a partition the scan decided not to consume.

        Returns ``(fetched, nbytes)``: ``(1, bytes read)`` when the
        readahead had already pulled the partition from storage —
        wasted work the scan surfaces as its prefetched-then-skipped
        counters — or ``(0, 0)`` when the fetch never ran (not yet
        issued, cancelled in the queue, suppressed, or failed). The
        fetched partition stays in the cache: it is a verified load
        and later queries may still want it.
        """
        with self._lock:
            future = self._futures.pop(partition_id, None)
        dropped = (0, 0)
        if future is not None and not future.cancel():
            try:
                nbytes = future.result()
            except Exception:  # pragma: no cover - _fetch never raises
                nbytes = None
            if nbytes is not None:
                dropped = (1, nbytes)
        self._fill()
        return dropped

    def close(self) -> None:
        """Stop issuing fetches and release the pool (in-flight fetches
        finish in the background; their results still land in the
        cache, which is correct — they are verified loads)."""
        with self._lock:
            self._closed = True
            self._futures.clear()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    def _fill(self) -> None:
        with self._lock:
            if self._closed:
                return
            while len(self._futures) < self._window \
                    and self._next < len(self._order):
                pid = self._order[self._next]
                self._next += 1
                if pid in self._futures or pid in self._cache:
                    continue
                if self._should_fetch is not None \
                        and not self._should_fetch(pid):
                    self.suppressed += 1
                    continue
                self._futures[pid] = self._pool.submit(self._fetch, pid)

    def _fetch(self, partition_id: int) -> int | None:
        """Background load; deposits into the cache on success only.

        Returns the partition's projected byte size on success (what
        the readahead actually pulled over the wire), None on failure.
        """
        try:
            partition = self._storage.load(partition_id, retries=False)
        except Exception:
            # Leave the error for the demand path to re-raise with the
            # query's retry budget and typed-error reporting.
            return None
        self._cache.put(partition, self._columns)
        self._cache.record_prefetch_load()
        return partition.project_bytes(self._columns)
