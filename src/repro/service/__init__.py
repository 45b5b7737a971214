"""The query service layer (the paper's Cloud Services, §2).

A front end over a :class:`~repro.catalog.Catalog` that runs one
statement at a time:

- :mod:`.server` — the :class:`QueryService` facade (``sql``,
  ``insert``, ``describe``);
- :mod:`.result_cache` — result cache keyed on (shape, binds),
  invalidated by table version bumps;
- :mod:`.metrics` — counters/histograms fed from each statement's
  profile.

Quickstart::

    from repro import Catalog
    from repro.service import QueryService

    service = QueryService(catalog, data_cache_bytes=1 << 24)
    result = service.sql("SELECT * FROM t WHERE ts >= 100")
    again = service.sql("SELECT * FROM t WHERE ts >= 100")  # cached
    print(service.metrics.render())
"""

from .metrics import Counter, Histogram, MetricsRegistry
from .result_cache import CacheEntry, CacheStats, ResultCache
from .server import QueryService

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "QueryService",
]
