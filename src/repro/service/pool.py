"""Multi-cluster warehouse pool: simulated elastic scale-out/in.

Snowflake multiplexes a tenant's queries over a *multi-cluster
warehouse*: when queries queue up, the service spins up another
cluster of the same size; when clusters sit idle, it retires them
(§2 — compute elasticity is the point of disaggregation). The pool
here reproduces the control loop deterministically:

- new queries are routed to the cluster with the most free slots
  (least-loaded routing, FIFO within a cluster);
- when no slot is free anywhere and the total queue depth reaches
  ``scale_out_queue_depth``, a new cluster is added (up to
  ``max_clusters``);
- when the pool has been observed completely idle
  ``scale_in_idle_checks`` times in a row (observations happen on
  every release and on explicit :meth:`poll` calls), the newest
  surplus cluster is retired (down to ``min_clusters``).

Every scaling decision is recorded in :attr:`events` so tests and
benchmarks can assert on the control loop's behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .admission import AdmissionController, AdmissionRejected, CancelToken

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache.partition_cache import PartitionCache

__all__ = ["ScalingEvent", "WarehouseCluster", "WarehousePool"]


@dataclass(frozen=True)
class ScalingEvent:
    """One scale-out/scale-in decision."""

    action: str        #: "scale_out" | "scale_in"
    n_clusters: int    #: cluster count after the action
    reason: str


class WarehouseCluster:
    """One cluster: a named admission controller plus its local data
    cache (each cluster has its own SSD cache in the paper's
    architecture; a retiring cluster's cache disappears with it)."""

    def __init__(self, name: str, slots: int, max_queue: int,
                 cache: "Optional[PartitionCache]" = None):
        self.name = name
        self.admission = AdmissionController(slots=slots,
                                             max_queue=max_queue)
        self.queries_served = 0
        #: warehouse-local partition cache; None when caching is off.
        self.cache = cache

    @property
    def load(self) -> int:
        return self.admission.running + self.admission.queue_depth

    def __repr__(self) -> str:
        return (f"WarehouseCluster({self.name}, "
                f"running={self.admission.running}, "
                f"queued={self.admission.queue_depth})")


class WarehousePool:
    """An elastic set of identical clusters fronted by one queue
    discipline."""

    def __init__(self, slots_per_cluster: int = 8,
                 max_queue_per_cluster: int = 32,
                 min_clusters: int = 1, max_clusters: int = 4,
                 scale_out_queue_depth: int = 2,
                 scale_in_idle_checks: int = 8,
                 cache_factory:
                 "Optional[Callable[[str], PartitionCache]]" = None,
                 warm_new_caches: bool = True):
        if not 1 <= min_clusters <= max_clusters:
            raise ValueError(
                "need 1 <= min_clusters <= max_clusters")
        self.slots_per_cluster = slots_per_cluster
        self.max_queue_per_cluster = max_queue_per_cluster
        self.min_clusters = min_clusters
        self.max_clusters = max_clusters
        self.scale_out_queue_depth = scale_out_queue_depth
        self.scale_in_idle_checks = scale_in_idle_checks
        #: builds each cluster's local :class:`PartitionCache` from its
        #: name (None = data caching off). The factory is responsible
        #: for attaching the cache to the metadata store.
        self.cache_factory = cache_factory
        #: copy the hottest entries of an existing cluster's cache into
        #: a scaled-out cluster's fresh cache, so a new cluster does
        #: not start fully cold.
        self.warm_new_caches = warm_new_caches
        self._lock = threading.Lock()
        self._counter = 0
        self._clusters: list[WarehouseCluster] = [
            self._new_cluster() for _ in range(min_clusters)]
        self._idle_streak = 0
        self.events: list[ScalingEvent] = []

    def _new_cluster(self) -> WarehouseCluster:
        name = f"cluster-{self._counter}"
        self._counter += 1
        cache = (self.cache_factory(name)
                 if self.cache_factory is not None else None)
        return WarehouseCluster(name, self.slots_per_cluster,
                                self.max_queue_per_cluster, cache=cache)

    # ------------------------------------------------------------------
    @property
    def clusters(self) -> list[WarehouseCluster]:
        return list(self._clusters)

    @property
    def n_clusters(self) -> int:
        return len(self._clusters)

    @property
    def total_running(self) -> int:
        return sum(c.admission.running for c in self._clusters)

    @property
    def total_queued(self) -> int:
        return sum(c.admission.queue_depth for c in self._clusters)

    # ------------------------------------------------------------------
    def acquire(self, timeout: float | None = None,
                token: CancelToken | None = None
                ) -> tuple[WarehouseCluster, float]:
        """Admit one query; returns (cluster, queue-wait seconds).

        Raises the admission layer's typed errors on a full pool
        (after attempting scale-out), timeout, or cancellation.
        """
        with self._lock:
            self._idle_streak = 0
            # Fast path: any cluster with an uncontended free slot.
            best = max(self._clusters,
                       key=lambda c: c.admission.free_slots)
            if best.admission.try_acquire():
                best.queries_served += 1
                return best, 0.0
            # Saturated: consider adding a cluster before queueing.
            if (len(self._clusters) < self.max_clusters
                    and self.total_queued
                    >= self.scale_out_queue_depth):
                cluster = self._new_cluster()
                if (cluster.cache is not None
                        and self.warm_new_caches):
                    # Seed the fresh cluster's cache with the busiest
                    # sibling's hot set so it does not scan fully cold.
                    donor = max(
                        (c for c in self._clusters
                         if c.cache is not None),
                        key=lambda c: c.queries_served, default=None)
                    if donor is not None:
                        cluster.cache.warm_from(donor.cache)
                self._clusters.append(cluster)
                self.events.append(ScalingEvent(
                    "scale_out", len(self._clusters),
                    f"{self.total_queued} queued across "
                    f"{len(self._clusters) - 1} saturated clusters"))
                cluster.admission.try_acquire()
                cluster.queries_served += 1
                return cluster, 0.0
            # Queue on the least-loaded cluster.
            target = min(self._clusters, key=lambda c: c.load)
        wait = target.admission.acquire(timeout=timeout, token=token)
        target.queries_served += 1
        return target, wait

    def release(self, cluster: WarehouseCluster) -> None:
        """Return a slot and run one idle observation."""
        cluster.admission.release()
        self.poll()

    # ------------------------------------------------------------------
    def poll(self) -> None:
        """One observation of the scale-in control loop."""
        with self._lock:
            if self.total_running == 0 and self.total_queued == 0:
                self._idle_streak += 1
            else:
                self._idle_streak = 0
                return
            if (self._idle_streak >= self.scale_in_idle_checks
                    and len(self._clusters) > self.min_clusters):
                retired = self._clusters.pop()
                self._idle_streak = 0
                if retired.cache is not None:
                    # The cluster's local storage goes away with it:
                    # detach from metadata events and drop all entries.
                    retired.cache.close()
                self.events.append(ScalingEvent(
                    "scale_in", len(self._clusters),
                    f"idle for {self.scale_in_idle_checks} "
                    f"consecutive checks; retired {retired.name}"))

    def __repr__(self) -> str:
        return (f"WarehousePool(clusters={len(self._clusters)}, "
                f"running={self.total_running}, "
                f"queued={self.total_queued})")
