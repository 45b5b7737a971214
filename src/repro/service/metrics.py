"""Thread-safe counters and histograms for the query service.

The paper's Cloud Services layer is heavily instrumented — the whole
evaluation (§3–§7) is built from fleet telemetry: pruning ratios,
partitions loaded vs. pruned, latency distributions. This module is
the reproduction's telemetry sink: a tiny registry of named counters
and histograms that the :class:`~repro.service.server.QueryService`
feeds from each query's :class:`~repro.engine.context.QueryProfile`.

Everything is safe to update from many threads concurrently.

Well-known maintenance counters (fed by
:class:`~repro.recluster.ReclusterService` when reclustering is
enabled): ``recluster_jobs_started``, ``recluster_jobs_completed``,
``recluster_slices``, ``recluster_partitions_rewritten``,
and ``recluster_bytes_rewritten``.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Iterable

from ..engine.context import QueryProfile

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing, lock-guarded counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value:g})"


class Histogram:
    """Exact-percentile histogram over observed values.

    Keeps a sorted list of observations (fine at simulation scale;
    a production system would use fixed buckets or a sketch) so
    :meth:`percentile` is exact.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            insort(self._values, value)
            self._sum += value

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / len(self._values) if self._values \
                else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 <= p <= 100), 0.0 when empty."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._values:
                return 0.0
            rank = (p / 100) * (len(self._values) - 1)
            low = int(rank)
            high = min(low + 1, len(self._values) - 1)
            fraction = rank - low
            return (self._values[low] * (1 - fraction)
                    + self._values[high] * fraction)

    def __repr__(self) -> str:
        return (f"Histogram({self.name}, n={self.count}, "
                f"p50={self.percentile(50):.3f})")


class MetricsRegistry:
    """Named counters and histograms, created on first use.

    Well-known series fed by :class:`QueryService`:

    - counters ``queries_submitted`` / ``queries_completed`` /
      ``queries_failed`` / ``dml_statements``
    - counters ``result_cache_hits`` / ``result_cache_misses``
    - counters ``plan_cache_hits`` / ``plan_cache_misses``
      (compiled-plan cache, see :mod:`repro.plancache`)
    - counters ``data_cache_hits`` / ``data_cache_misses`` /
      ``data_cache_bytes_saved`` (warehouse-local partition cache)
    - counters ``partitions_total`` / ``partitions_loaded`` /
      ``partitions_pruned`` / ``rows_scanned`` / ``bytes_scanned``
      (from profiles)
    - counters ``partitions_degraded`` / ``queries_degraded``
      (fail-open pruning)
    - counters ``pruning_time_ms`` / ``scans_vectorized`` (vectorized
      pruning)
    - counters ``wal_appends`` / ``wal_bytes`` / ``checkpoints``
      (durability subsystem, see :mod:`repro.durability`)
    - histograms ``queue_wait_ms`` / ``latency_ms`` (wall clock) and
      ``sim_exec_ms`` / ``sim_compile_ms`` (simulated clock)
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    # ------------------------------------------------------------------
    # Service-layer feeds
    # ------------------------------------------------------------------
    def observe_profile(self, profile: QueryProfile) -> None:
        """Fold one query's profile into the fleet-wide series."""
        export = profile.metrics_export()
        self.histogram("sim_exec_ms").observe(export["exec_ms"])
        self.histogram("sim_compile_ms").observe(export["compile_ms"])
        for key in ("partitions_total", "partitions_loaded",
                    "partitions_pruned", "rows_scanned",
                    "bytes_scanned", "filter_bypassed",
                    "partitions_degraded",
                    "pruning_time_ms", "scans_vectorized",
                    "data_cache_hits", "data_cache_misses",
                    "data_cache_bytes_saved",
                    "plan_cache_hits", "plan_cache_misses",
                    "wal_appends", "wal_bytes"):
            self.counter(key).inc(export[key])

    def observe_query(self, latency_ms: float,
                      queue_wait_ms: float) -> None:
        self.histogram("latency_ms").observe(latency_ms)
        self.histogram("queue_wait_ms").observe(queue_wait_ms)

    # ------------------------------------------------------------------
    # Derived ratios
    # ------------------------------------------------------------------
    def cache_hit_ratio(self) -> float:
        """result_cache_hits / (hits + misses); 0.0 before traffic."""
        hits = self.counter("result_cache_hits").value
        misses = self.counter("result_cache_misses").value
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def data_cache_hit_ratio(self) -> float:
        """data_cache_hits / (hits + misses); 0.0 before traffic."""
        hits = self.counter("data_cache_hits").value
        misses = self.counter("data_cache_misses").value
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def plan_cache_hit_ratio(self) -> float:
        """plan_cache_hits / (hits + misses); 0.0 before traffic."""
        hits = self.counter("plan_cache_hits").value
        misses = self.counter("plan_cache_misses").value
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def pruning_ratio(self) -> float:
        """Fraction of candidate partitions pruned across all queries."""
        total = self.counter("partitions_total").value
        pruned = self.counter("partitions_pruned").value
        return pruned / total if total else 0.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat point-in-time view of every series."""
        out: dict[str, float] = {}
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        for counter in counters:
            out[counter.name] = counter.value
        for histogram in histograms:
            out[f"{histogram.name}.count"] = float(histogram.count)
            out[f"{histogram.name}.mean"] = histogram.mean
            out[f"{histogram.name}.p50"] = histogram.percentile(50)
            out[f"{histogram.name}.p95"] = histogram.percentile(95)
            out[f"{histogram.name}.p99"] = histogram.percentile(99)
        out["result_cache.hit_ratio"] = self.cache_hit_ratio()
        out["data_cache.hit_ratio"] = self.data_cache_hit_ratio()
        out["plan_cache.hit_ratio"] = self.plan_cache_hit_ratio()
        out["pruning.ratio"] = self.pruning_ratio()
        return out

    def render(self, names: Iterable[str] | None = None) -> str:
        """Human-readable report (optionally restricted to ``names``)."""
        snap = self.snapshot()
        keys = sorted(snap) if names is None else \
            [n for n in names if n in snap]
        width = max((len(k) for k in keys), default=0)
        return "\n".join(f"{key.ljust(width)}  {snap[key]:.3f}"
                         for key in keys)
