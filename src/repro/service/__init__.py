"""The concurrent query service layer (the paper's Cloud Services, §2).

A thread-based, multi-tenant front end over a
:class:`~repro.catalog.Catalog`:

- :mod:`.server` — the :class:`QueryService` facade
  (``submit``/``result``/``cancel`` plus a synchronous ``sql`` shim);
- :mod:`.admission` — per-cluster concurrency slots, bounded FIFO
  queueing, queue-wait timeouts, cooperative cancellation, and
  typed backpressure errors;
- :mod:`.result_cache` — result cache keyed on (shape, binds),
  invalidated by table version bumps;
- :mod:`.pool` — elastic multi-cluster warehouse pool (scale-out on
  queueing, scale-in when idle);
- :mod:`.metrics` — thread-safe counters/histograms fed from each
  query's profile.

Quickstart::

    from repro import Catalog
    from repro.service import QueryService

    service = QueryService(catalog, slots_per_cluster=4)
    result = service.sql("SELECT * FROM t WHERE ts >= 100")
    handle = service.submit("SELECT count(*) FROM t")
    print(service.result(handle).rows)
    print(service.metrics.render())
"""

from .admission import (
    AdmissionController,
    AdmissionError,
    AdmissionRejected,
    CancelToken,
    QueryCancelled,
    QueueWaitTimeout,
    ReadWriteLock,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .pool import ScalingEvent, WarehouseCluster, WarehousePool
from .result_cache import CacheEntry, CacheStats, ResultCache
from .server import QueryHandle, QueryService, QueryStatus, ServiceError

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionRejected",
    "CancelToken",
    "QueryCancelled",
    "QueueWaitTimeout",
    "ReadWriteLock",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ScalingEvent",
    "WarehouseCluster",
    "WarehousePool",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "QueryHandle",
    "QueryService",
    "QueryStatus",
    "ServiceError",
]
