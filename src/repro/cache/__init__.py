"""Warehouse-local data caching (paper §2).

:class:`PartitionCache` keeps recently scanned micro-partitions
resident under a byte budget (segmented LRU, column-subset-aware
accounting, metadata-driven invalidation).
"""

from .partition_cache import CacheStats, PartitionCache

__all__ = ["CacheStats", "PartitionCache"]
