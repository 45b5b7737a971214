"""Injected storage and metadata faults: a test fixture.

Storage and metadata are in-process memory, so the only read faults
the engine ever sees are the ones a test injects here.
:func:`install_faults` wraps the read methods of one catalog's
``StorageLayer`` and ``MetadataStore`` so that each read first asks a
seeded :class:`FaultInjector` whether it fails, and raises the typed
error from :mod:`repro.errors` when it does::

    injector = install_faults(catalog, FaultInjector(
        seed=7, storage=FaultSpec(timeout_rate=0.05,
                                  corruption_rate=0.02),
        metadata=FaultSpec(timeout_rate=0.05)), attempts=8)
    injector.set_outage(METADATA)      # every metadata read fails

While installed, the metadata store's one-call stats-index read
(``fetch_index``) always fails, so ``Catalog.scan_set`` takes its
fail-open path and reads every partition on its own. A transient
fault is re-drawn up to ``attempts`` times per read; a permanent one
(``mark_unavailable``, ``set_outage``) raises at once.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import (
    CorruptionError,
    MetadataThrottled,
    MetadataTimeout,
    MetadataUnavailableError,
    PartitionUnavailableError,
    StorageError,
    StorageThrottled,
    StorageTimeout,
    TransientError,
)

STORAGE = "storage"
METADATA = "metadata"

#: what a bounded re-read absorbs: a corrupt read may come back clean
TRANSIENT = (TransientError, CorruptionError)

_ERRORS = {
    (STORAGE, "timeout"): StorageTimeout,
    (STORAGE, "throttle"): StorageThrottled,
    (STORAGE, "corruption"): CorruptionError,
    (METADATA, "timeout"): MetadataTimeout,
    (METADATA, "throttle"): MetadataThrottled,
}


@dataclass(frozen=True)
class FaultSpec:
    """Per-scope fault probabilities, read off one uniform draw in the
    order timeout -> throttle -> corruption; corruption applies to
    storage reads only."""

    timeout_rate: float = 0.0
    throttle_rate: float = 0.0
    corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        rates = (self.timeout_rate, self.throttle_rate,
                 self.corruption_rate)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("fault rates must be in [0, 1]")
        if sum(rates) > 1.0:
            raise ValueError("fault rates must sum to <= 1")


class FaultInjector:
    """Seeded source of read faults.

    Access ``n`` of ``(scope, key)`` draws from a generator seeded by
    ``(seed, scope, key, n)``: one thread replaying the same reads
    meets the same faults. Storage keys are partition ids; metadata
    keys are ``(table, partition_id)``, ``("list", table)`` and
    ``("sketches", table)``.
    """

    def __init__(self, seed: int = 0, storage: FaultSpec | None = None,
                 metadata: FaultSpec | None = None):
        self.seed = seed
        self.specs = {STORAGE: storage or FaultSpec(),
                      METADATA: metadata or FaultSpec()}
        self.enabled = True
        self.outages: set[str] = set()
        self.unavailable: dict[str, set[Any]] = {STORAGE: set(),
                                                 METADATA: set()}
        self._accesses: Counter = Counter()
        self._injected: Counter = Counter()
        self._lock = threading.Lock()

    def mark_unavailable(self, scope: str, key: Any) -> None:
        """Fail every access to ``key`` (a lost blob or entry)."""
        self.unavailable[scope].add(key)

    def restore(self, scope: str, key: Any) -> None:
        self.unavailable[scope].discard(key)

    def set_outage(self, scope: str, down: bool = True) -> None:
        """Down (or restore) a whole scope."""
        (self.outages.add if down else self.outages.discard)(scope)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Inject nothing inside the block (e.g. to read an oracle)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def injected(self) -> dict[str, int]:
        """Faults raised so far, keyed by ``scope.kind``."""
        with self._lock:
            return dict(self._injected)

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def check(self, scope: str, key: Any) -> None:
        """Raise the fault this access to ``key`` draws, if any."""
        if not self.enabled:
            return
        if scope in self.outages or key in self.unavailable[scope]:
            self._count(scope, "unavailable")
            if scope == STORAGE:
                raise PartitionUnavailableError(
                    f"partition {key} is unavailable (injected)",
                    partition_id=key)
            raise MetadataUnavailableError(
                f"metadata {key!r} is unavailable (injected)")
        spec = self.specs[scope]
        with self._lock:
            self._accesses[scope, key] += 1
            n = self._accesses[scope, key]
        draw = random.Random(f"{self.seed}|{scope}|{key!r}|{n}").random()
        for kind, rate in (("timeout", spec.timeout_rate),
                           ("throttle", spec.throttle_rate),
                           ("corruption", spec.corruption_rate)):
            if draw < rate and (scope, kind) in _ERRORS:
                self._count(scope, kind)
                raise _ERRORS[scope, kind](
                    f"{scope} read of {key!r}: {kind} (injected)")
            draw -= rate

    def _count(self, scope: str, kind: str) -> None:
        with self._lock:
            self._injected[f"{scope}.{kind}"] += 1


def install_faults(catalog, injector: FaultInjector,
                   attempts: int = 4) -> FaultInjector:
    """Route ``catalog``'s storage and metadata reads through
    ``injector``; returns it. Installing again replaces the previous
    injector."""
    storage, meta = catalog.storage, catalog.metadata

    def check(scope: str, key: Any) -> None:
        for attempt in range(attempts):
            try:
                return injector.check(scope, key)
            except TRANSIENT:
                if attempt == attempts - 1:
                    raise

    def wrap(owner, name: str, wrapper) -> None:
        method = getattr(owner, name)
        wrapper.__wrapped__ = getattr(method, "__wrapped__", method)
        setattr(owner, name, wrapper)

    def load_many(partition_ids, columns=None, loaded=None):
        original = load_many.__wrapped__
        for n, partition_id in enumerate(partition_ids):
            try:
                check(STORAGE, partition_id)
            except StorageError:
                # the reads before the failing id are accounted and
                # handed back, as the store does for a missing id
                original(partition_ids[:n], columns, loaded)
                storage.stats.record_failed_request()
                raise
        return original(partition_ids, columns, loaded)

    def metadata_read(name: str, key_of):
        def read(table: str, *args):
            check(METADATA, key_of(table.lower(), *args))
            return read.__wrapped__(table, *args)
        wrap(meta, name, read)

    def fetch_index(table: str):
        raise MetadataUnavailableError(
            f"bulk metadata read of {table!r} (faults installed)")

    wrap(storage, "load_many", load_many)
    metadata_read("get", lambda table, partition_id: (table, partition_id))
    metadata_read("partitions_of", lambda table: ("list", table))
    metadata_read("sketches_of", lambda table: ("sketches", table))
    wrap(meta, "fetch_index", fetch_index)
    return injector
