"""In-memory spans recorded by the benchmark around calls into each layer.

The program under test has no spans of its own that the benchmark
relies on: during a traced run :func:`instrument` swaps the layers'
public functions for wrappers defined here, every wrapper opens a span
(name, start, end, parent, statement id, optional work count), and the
originals are restored afterwards. The harness opens the root span of
each statement itself, around the entry-point call.

Spans live in parallel lists (one append per field per span) so a span
costs about a microsecond; nothing is written until the run is over.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter


class SpanRecorder:
    """Append-only span store with a parent stack (one client thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stmts: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        self._index: dict[str, list[int]] = {}
        self._indexed = 0
        self.stmt_id = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.stmts.append(self.stmt_id)
        self.counts.append(0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int, count: int = 0) -> None:
        self.ends[index] = perf_counter()
        self.counts[index] = count
        self._stack.pop()

    # -- roll-ups ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        own = [self.duration(i) for i in range(len(self))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(i)
        return own

    def by_name(self, name: str, stmts: set[int] | None = None) -> list[int]:
        """Indices of the spans called ``name`` that belong to a timed
        statement (to one of ``stmts``, when given)."""
        if self._indexed != len(self.names):
            self._index = {}
            for i, n in enumerate(self.names):
                if self.stmts[i] >= 0:
                    self._index.setdefault(n, []).append(i)
            self._indexed = len(self.names)
        found = self._index.get(name, [])
        if stmts is None:
            return found
        return [i for i in found if self.stmts[i] in stmts]

    def per_stmt(self, name: str, stmts: set[int] | None = None,
                 own: list[float] | None = None) -> dict[int, float]:
        """Statement id -> summed (self) seconds of its ``name`` spans."""
        out: dict[int, float] = {}
        for i in self.by_name(name, stmts):
            value = own[i] if own is not None else self.duration(i)
            out[self.stmts[i]] = out.get(self.stmts[i], 0.0) + value
        return out

    def p50_us(self, name: str, stmts: set[int] | None = None,
               own: list[float] | None = None) -> tuple[float, int]:
        """Median per-statement microseconds in ``name``; sample count."""
        values = list(self.per_stmt(name, stmts, own).values())
        if not values:
            return 0.0, 0
        return median(values) * 1e6, len(values)

    def total(self, name: str, stmts: set[int] | None = None) -> float:
        return sum(self.duration(i) for i in self.by_name(name, stmts))

    def total_count(self, name: str, stmts: set[int] | None = None) -> int:
        return sum(self.counts[i] for i in self.by_name(name, stmts))

    def write(self, path) -> None:
        """One JSON object per line: the raw spans, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "stmt": self.stmts[i], "count": self.counts[i]}))
                out.write("\n")


def _wrap(recorder: SpanRecorder, name: str, func, count=None):
    def traced(*args, **kwargs):
        index = recorder.open(name)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            recorder.close(
                index, count(result) if count and result is not None else 0)
    traced.__wrapped__ = func
    return traced


def _layer_targets():
    """(span name, owner, attribute, count-of-result) per layer call.

    ``owner`` is a class for methods, or None for a module-level
    function, which is then replaced wherever a ``repro`` module holds
    a reference to it, so moving an import does not lose the span.
    """
    from repro.catalog import Catalog
    from repro.engine import executor
    from repro.obs.telemetry import TelemetryRecord, TelemetrySink
    from repro.plan.compiler import QueryCompiler
    from repro.pruning.sketches import SketchPruner
    from repro.pruning.stats_index import VectorizedFilterPruner
    from repro.service import QueryService
    from repro.sql import parser, planner

    return [
        ("sql.parse", None, parser.parse_statement, None),
        ("sql.plan", None, planner.plan_select, None),
        ("engine.execute", None, executor.execute, None),
        ("plan.compile", QueryCompiler, "compile", None),
        ("storage.scan_set", Catalog, "scan_set", len),
        ("pruning.filter_prune", VectorizedFilterPruner, "prune",
         lambda result: result.before),
        ("pruning.sketch_prune", SketchPruner, "prune",
         lambda result: result.before),
        ("obs.record", TelemetryRecord, "from_result", None),
        ("obs.record", TelemetrySink, "record", None),
        ("catalog.sql", Catalog, "sql", None),
        ("catalog.insert", Catalog, "insert", None),
        ("catalog.recluster", Catalog, "recluster", None),
        ("catalog.checkpoint", Catalog, "checkpoint", None),
        ("service.sql", QueryService, "sql", None),
        ("service.insert", QueryService, "insert", None),
    ]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every layer's public call in a span for the duration."""
    undo = []
    try:
        for name, owner, target, count in _layer_targets():
            if owner is None:
                wrapper = _wrap(recorder, name, target, count)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, target))
                continue
            raw = owner.__dict__[target]
            if isinstance(raw, classmethod):
                wrapper = classmethod(
                    _wrap(recorder, name, raw.__func__, count))
            else:
                wrapper = _wrap(recorder, name, raw, count)
            setattr(owner, target, wrapper)
            undo.append((owner, target, raw))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
