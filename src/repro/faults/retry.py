"""Retry policies with capped exponential backoff and deterministic jitter.

Storage and metadata reads are wrapped in a :class:`RetryPolicy`:
transient faults (timeouts, throttling, wire corruption) are retried
with exponentially growing, capped, jittered backoff; permanent faults
propagate immediately. Backoff time is *simulated* — recorded into
:class:`RetryStats` and charged to the query's simulated clock — so
fault-injection test suites stay fast and deterministic.

Determinism: the jitter for attempt ``n`` is a pure function of
``(seed, n)``, so a policy's backoff sequence is reproducible and two
policies with the same seed behave identically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..errors import CorruptionError, TransientError

__all__ = ["RetryPolicy", "RetryStats", "DEFAULT_RETRYABLE"]

T = TypeVar("T")

#: Error classes retried by default: transient network faults plus
#: wire-level corruption (a re-read may return clean bytes).
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TransientError, CorruptionError)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_hash64(text: str) -> int:
    """FNV-1a over UTF-8 bytes, murmur-finalized.

    Python's builtin ``hash`` is salted per process for strings, which
    would make "deterministic" jitter and fault schedules differ run to
    run; this hash is stable everywhere.
    """
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    return h


def stable_uniform(text: str) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``text``."""
    return stable_hash64(text) / 2.0**64


class RetryStats:
    """Thread-safe counters for retries absorbed below a query.

    One instance is attached to each :class:`~repro.engine.context.
    QueryProfile` (per-query attribution) and another lives on the
    storage/metadata layers (service-wide attribution).
    """

    __slots__ = ("_lock", "retries", "backoff_ms",
                 "injected_latency_ms", "by_class", "trace_hook")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.retries = 0
        self.backoff_ms = 0.0
        self.injected_latency_ms = 0.0
        self.by_class: dict[str, int] = {}
        #: optional ``hook(error_class_name, delay_ms)`` observing each
        #: absorbed retry (trace events). Set only on per-query stats
        #: used from the query's own thread.
        self.trace_hook: Callable[[str, float], None] | None = None

    def record_retry(self, exc: BaseException, delay_ms: float) -> None:
        """Account one retried failure and its backoff delay."""
        name = type(exc).__name__
        with self._lock:
            self.retries += 1
            self.backoff_ms += delay_ms
            self.by_class[name] = self.by_class.get(name, 0) + 1
        hook = self.trace_hook
        if hook is not None:
            # Invoked outside the lock: the hook may allocate spans or
            # re-enter profile accounting.
            hook(name, delay_ms)

    def add_latency(self, ms: float) -> None:
        """Account an injected latency spike (no failure)."""
        with self._lock:
            self.injected_latency_ms += ms

    def penalty_ms(self) -> float:
        """Total simulated slowdown: backoff plus latency spikes."""
        with self._lock:
            return self.backoff_ms + self.injected_latency_ms

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            out: dict[str, float] = {
                "retries": float(self.retries),
                "backoff_ms": self.backoff_ms,
                "injected_latency_ms": self.injected_latency_ms,
            }
            for name, count in self.by_class.items():
                out[f"retries.{name}"] = float(count)
            return out

    def __repr__(self) -> str:
        return (f"RetryStats(retries={self.retries}, "
                f"backoff_ms={self.backoff_ms:.2f})")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: total attempts including the first (>= 1).
        base_ms: backoff before the first retry.
        multiplier: exponential growth factor per retry.
        cap_ms: upper bound on a single backoff step.
        jitter: fraction of each step randomly *subtracted*
            (``0 <= jitter < 1``). Subtractive jitter keeps the
            nominal sequence an upper bound and — as long as
            ``multiplier * (1 - jitter) >= 1`` — the jittered
            sequence non-decreasing until the cap.
        budget_ms: total backoff budget per :meth:`run` call; once
            spent, the next failure propagates even if attempts
            remain (None = unlimited).
        seed: jitter seed; same seed, same backoff sequence.
        retryable: exception classes eligible for retry. Everything
            else propagates immediately.
    """

    max_attempts: int = 4
    base_ms: float = 5.0
    multiplier: float = 2.0
    cap_ms: float = 100.0
    jitter: float = 0.25
    budget_ms: float | None = None
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def nominal_ms(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), without jitter."""
        return min(self.base_ms * self.multiplier**attempt, self.cap_ms)

    def backoff_ms(self, attempt: int) -> float:
        """Jittered backoff before retry ``attempt`` (0-based)."""
        nominal = self.nominal_ms(attempt)
        u = stable_uniform(f"backoff|{self.seed}|{attempt}")
        return nominal * (1.0 - self.jitter * u)

    def backoff_sequence(self) -> list[float]:
        """Every backoff step this policy can take, in order."""
        return [self.backoff_ms(i)
                for i in range(self.max_attempts - 1)]

    def run(self, fn: Callable[[], T], *,
            stats: RetryStats | None = None,
            on_retry: Callable[[BaseException, float], None] | None = None,
            sleeper: Callable[[float], None] | None = None) -> T:
        """Call ``fn`` with retries; returns its result.

        Non-retryable errors, exhausted attempts, and exhausted backoff
        budgets all re-raise the *last* error unchanged, so callers
        always see a typed exception. ``stats``/``on_retry`` observe
        each absorbed failure; ``sleeper`` (if given) receives each
        backoff in milliseconds — by default no wall-clock sleeping
        happens, the delay is simulated.
        """
        attempt = 0
        spent = 0.0
        while True:
            try:
                return fn()
            except self.retryable as exc:
                if attempt >= self.max_attempts - 1:
                    raise
                delay = self.backoff_ms(attempt)
                if self.budget_ms is not None \
                        and spent + delay > self.budget_ms:
                    raise
                spent += delay
                attempt += 1
                if stats is not None:
                    stats.record_retry(exc, delay)
                if on_retry is not None:
                    on_retry(exc, delay)
                if sleeper is not None:
                    sleeper(delay)
