"""Deterministic, seedable fault injection for storage and metadata.

The :class:`FaultInjector` sits in front of the two simulated networks
— cloud object storage (:class:`~repro.storage.storage_layer.
StorageLayer`) and the metadata KV service (:class:`~repro.storage.
metadata_store.MetadataStore`) — and decides, per request, whether to
inject a transient failure (timeout, throttling), a latency spike, a
wire-corruption, or a permanent unavailability.

Decisions are a pure function of ``(seed, scope, key, n)`` where ``n``
counts accesses to that key, so a single-threaded run with a fixed
seed replays the exact same fault schedule. Under concurrency the
per-key sequence is still deterministic per key; only the interleaving
varies.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import (
    MetadataThrottled,
    MetadataTimeout,
    MetadataUnavailableError,
    PartitionUnavailableError,
    StorageThrottled,
    StorageTimeout,
)
from .retry import stable_uniform

__all__ = ["FaultSpec", "FaultDecision", "FaultInjector",
           "STORAGE", "METADATA"]

#: Scope names used for per-scope fault specs and counters.
STORAGE = "storage"
METADATA = "metadata"


@dataclass(frozen=True)
class FaultSpec:
    """Per-scope fault probabilities (each in [0, 1]).

    Rates are evaluated against a single uniform draw, in the order
    timeout -> throttle -> corruption -> latency, so their sum must
    not exceed 1. ``corruption_rate`` only applies to storage reads.
    """

    timeout_rate: float = 0.0
    throttle_rate: float = 0.0
    corruption_rate: float = 0.0
    latency_rate: float = 0.0
    latency_ms: float = 50.0

    def __post_init__(self) -> None:
        rates = (self.timeout_rate, self.throttle_rate,
                 self.corruption_rate, self.latency_rate)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("fault rates must be in [0, 1]")
        if sum(rates) > 1.0:
            raise ValueError("fault rates must sum to <= 1")

    @property
    def total_rate(self) -> float:
        return (self.timeout_rate + self.throttle_rate
                + self.corruption_rate + self.latency_rate)


@dataclass(frozen=True)
class FaultDecision:
    """Outcome of one non-raising injector roll.

    ``corrupt`` asks the storage layer to simulate a wire-level bit
    flip (surfaced as a checksum mismatch); ``latency_ms`` adds a
    simulated latency spike. A clean roll is ``FaultDecision()``.
    """

    corrupt: bool = False
    latency_ms: float = 0.0


_CLEAN = FaultDecision()


@dataclass
class _ScopeState:
    spec: FaultSpec = field(default_factory=FaultSpec)
    outage: bool = False
    unavailable: set[Any] = field(default_factory=set)


class FaultInjector:
    """Seeded fault source consulted by storage and metadata reads.

    Usage::

        injector = FaultInjector(
            seed=7,
            storage=FaultSpec(timeout_rate=0.05, corruption_rate=0.02),
            metadata=FaultSpec(timeout_rate=0.05))
        catalog.enable_fault_injection(injector)

    Permanent faults are explicit: :meth:`mark_unavailable` makes one
    partition (or metadata key) permanently fail;
    :meth:`set_outage` downs a whole scope — the metadata outage is
    what the pruning pipeline must absorb by degrading to full scans.
    """

    def __init__(self, seed: int = 0,
                 storage: FaultSpec | None = None,
                 metadata: FaultSpec | None = None,
                 enabled: bool = True):
        self.seed = seed
        self.enabled = enabled
        self._scopes: dict[str, _ScopeState] = {
            STORAGE: _ScopeState(spec=storage or FaultSpec()),
            METADATA: _ScopeState(spec=metadata or FaultSpec()),
        }
        self._counts: dict[tuple[str, Any], int] = {}
        self._injected: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def spec(self, scope: str) -> FaultSpec:
        return self._scope(scope).spec

    def mark_unavailable(self, scope: str, key: Any) -> None:
        """Permanently fail every access to ``key`` (lost blob)."""
        with self._lock:
            self._scope(scope).unavailable.add(key)

    def restore(self, scope: str, key: Any) -> None:
        with self._lock:
            self._scope(scope).unavailable.discard(key)

    def set_outage(self, scope: str, down: bool = True) -> None:
        """Down (or restore) an entire scope, e.g. a metadata outage."""
        self._scope(scope).outage = down

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Temporarily disable injection (e.g. while computing an
        oracle answer on a shared catalog)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def _scope(self, scope: str) -> _ScopeState:
        try:
            return self._scopes[scope]
        except KeyError:
            raise ValueError(f"unknown fault scope {scope!r}") from None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def injected(self) -> dict[str, int]:
        """Counts of injected faults keyed by ``scope.kind``."""
        with self._lock:
            return dict(self._injected)

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def _count(self, scope: str, kind: str) -> None:
        with self._lock:
            key = f"{scope}.{kind}"
            self._injected[key] = self._injected.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Rolls
    # ------------------------------------------------------------------
    def _roll(self, scope: str, key: Any) -> float:
        """Deterministic uniform draw for access #n of (scope, key)."""
        with self._lock:
            count_key = (scope, key)
            n = self._counts.get(count_key, 0) + 1
            self._counts[count_key] = n
        return stable_uniform(f"{self.seed}|{scope}|{key!r}|{n}")

    def storage_check(self, partition_id: int) -> FaultDecision:
        """Consulted by :meth:`StorageLayer.load_many` before each attempt.

        Raises :class:`PartitionUnavailableError` (permanent),
        :class:`StorageTimeout` or :class:`StorageThrottled`
        (transient); returns a :class:`FaultDecision` otherwise.
        """
        state = self._scope(STORAGE)
        if not self.enabled:
            return _CLEAN
        if state.outage or partition_id in state.unavailable:
            self._count(STORAGE, "unavailable")
            raise PartitionUnavailableError(
                f"partition {partition_id} is permanently unavailable "
                f"(injected)", partition_id=partition_id)
        spec = state.spec
        if spec.total_rate == 0.0:
            return _CLEAN
        r = self._roll(STORAGE, partition_id)
        if r < spec.timeout_rate:
            self._count(STORAGE, "timeout")
            raise StorageTimeout(
                f"read of partition {partition_id} timed out (injected)")
        r -= spec.timeout_rate
        if r < spec.throttle_rate:
            self._count(STORAGE, "throttle")
            raise StorageThrottled(
                f"read of partition {partition_id} throttled (injected)")
        r -= spec.throttle_rate
        if r < spec.corruption_rate:
            self._count(STORAGE, "corruption")
            return FaultDecision(corrupt=True)
        r -= spec.corruption_rate
        if r < spec.latency_rate:
            self._count(STORAGE, "latency")
            return FaultDecision(latency_ms=spec.latency_ms)
        return _CLEAN

    def metadata_check(self, key: Any) -> FaultDecision:
        """Consulted by :meth:`MetadataStore` reads before each attempt.

        Raises :class:`MetadataUnavailableError` (outage),
        :class:`MetadataTimeout` or :class:`MetadataThrottled`
        (transient); returns a :class:`FaultDecision` otherwise.
        """
        state = self._scope(METADATA)
        if not self.enabled:
            return _CLEAN
        if state.outage or key in state.unavailable:
            self._count(METADATA, "unavailable")
            raise MetadataUnavailableError(
                f"metadata service unavailable for {key!r} (injected)")
        spec = state.spec
        if spec.total_rate == 0.0:
            return _CLEAN
        r = self._roll(METADATA, key)
        if r < spec.timeout_rate:
            self._count(METADATA, "timeout")
            raise MetadataTimeout(
                f"metadata lookup {key!r} timed out (injected)")
        r -= spec.timeout_rate
        if r < spec.throttle_rate:
            self._count(METADATA, "throttle")
            raise MetadataThrottled(
                f"metadata lookup {key!r} throttled (injected)")
        r -= spec.throttle_rate + spec.corruption_rate
        if r < spec.latency_rate:
            self._count(METADATA, "latency")
            return FaultDecision(latency_ms=spec.latency_ms)
        return _CLEAN
