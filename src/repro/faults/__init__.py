"""Crash points for the durability subsystem.

:class:`CrashInjector` simulates process death at named commit-path
points (``pre-append``, ``mid-append`` torn writes, ...) for the
crash-recovery sweep of :mod:`repro.durability`. Network faults on
storage and metadata reads are a test fixture (``tests/faults.py``):
the product's one rule for them is to fail open, see
``Catalog.scan_set``.
"""

from .crash import CRASH_POINTS, CrashInjector, SimulatedCrash

__all__ = ["CRASH_POINTS", "CrashInjector", "SimulatedCrash"]
