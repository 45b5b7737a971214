"""Deterministic crash injection for the durability subsystem.

Where :class:`~repro.faults.injector.FaultInjector` models *transient*
network faults (timeouts, throttling, corruption-on-the-wire), this
module models the one fault retries cannot absorb: the process dying
mid-operation. A :class:`CrashInjector` is armed at one of the
enumerated :data:`CRASH_POINTS` on the commit path and raises
:class:`SimulatedCrash` the moment execution reaches it, leaving
whatever bytes were already written exactly as a real crash would.

Tests then "reboot" by recovering a fresh catalog from the durability
directory and compare it against the pre-/post-commit oracles — the
crash-at-every-point sweep in ``tests/test_durability.py``.

:class:`SimulatedCrash` deliberately derives from ``BaseException``,
not ``Exception``: the engine has several fail-closed ``except
Exception`` fallbacks (plan cache, degradation paths) and none of them
may swallow a crash — a real ``SIGKILL`` cannot be caught either.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["CRASH_POINTS", "CrashInjector", "SimulatedCrash"]

#: the enumerated crash points on the durability commit path, in
#: commit order. ``pre-append`` and ``mid-append`` fire inside
#: :meth:`~repro.durability.wal.WriteAheadLog.append` (nothing /
#: a torn frame on disk); ``post-append-pre-apply`` fires after the
#: record is durable but before the catalog applies it;
#: ``mid-checkpoint`` fires after the snapshot's temp directory is
#: written but before the atomic rename; ``post-rename`` fires after
#: the checkpoint is published but before the WAL is truncated.
CRASH_POINTS: tuple[str, ...] = (
    "pre-append",
    "mid-append",
    "post-append-pre-apply",
    "mid-checkpoint",
    "post-rename",
)


class SimulatedCrash(BaseException):
    """The simulated process death raised at an armed crash point."""

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class CrashInjector:
    """Arms crash points and fires :class:`SimulatedCrash` on arrival.

    Deterministic by construction: :meth:`arm` selects the ``at``-th
    *occurrence* of a named point, so "crash on the 3rd WAL append" is
    reproducible without randomness. Armed points are one-shot — a
    fired point disarms itself, mirroring a process that died once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: point -> occurrence number (1-based) that should crash
        self._armed: dict[str, int] = {}
        #: point -> occurrences observed so far
        self._counts: dict[str, int] = {}
        #: points that actually fired, in order
        self.fired: list[str] = []

    def arm(self, point: str, at: int = 1) -> "CrashInjector":
        """Crash the ``at``-th time ``point`` is reached *from now*
        (1-based) — occurrences before arming don't count, so a test
        can run a clean prefix of the workload and then arm."""
        if point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; expected one of "
                f"{CRASH_POINTS}")
        if at < 1:
            raise ValueError("at must be >= 1")
        with self._lock:
            self._armed[point] = self._counts.get(point, 0) + at
        return self

    def count(self, point: str) -> int:
        """Occurrences of ``point`` observed so far."""
        with self._lock:
            return self._counts.get(point, 0)

    def crashpoint(self, point: str,
                   on_fire: Callable[[], None] | None = None) -> None:
        """Record one occurrence of ``point``; crash if armed for it.

        ``on_fire`` runs just before the crash is raised — the WAL uses
        it to emit the torn half-frame a mid-append crash leaves behind.
        """
        with self._lock:
            count = self._counts.get(point, 0) + 1
            self._counts[point] = count
            fire = self._armed.get(point) == count
            if fire:
                del self._armed[point]
        if fire:
            if on_fire is not None:
                on_fire()
            self.fired.append(point)
            raise SimulatedCrash(point)

    def __repr__(self) -> str:
        with self._lock:
            armed = dict(self._armed)
        return f"CrashInjector(armed={armed}, fired={self.fired})"
