"""Hierarchical trace spans for one query execution.

The paper's evaluation is built from per-query telemetry; operating
the fleet additionally needs to see *where* a single query spent its
time — parsing, planning, pruning per technique, scanning.
A :class:`Tracer` records that as a tree of :class:`Span` objects,
attached to the query's :class:`~repro.engine.context.QueryProfile`
and rendered by ``EXPLAIN ANALYZE``.

Design constraints:

* **Cheap.** A traced query creates a handful of spans (not one per
  partition); each span is two ``perf_counter`` calls plus a list
  append, so tracing can stay on in production.
* **Generator-safe.** Operators are pull-based generators that can be
  abandoned early (LIMIT). Compile-time spans use a well-nested stack
  (:meth:`Tracer.span`); runtime spans (scans) are parented explicitly
  via :meth:`Tracer.start_span` so an out-of-order end cannot corrupt
  the tree, and :meth:`Tracer.finish` closes anything left open.
* **Single-threaded.** A tracer belongs to one query and is only
  touched from the query's executing thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "render_span_tree"]


class Span:
    """One named, timed segment of a query, with attributes and
    children. ``end_s`` is ``None`` while the span is open; an *event*
    is a span whose start and end coincide."""

    __slots__ = ("name", "attrs", "children", "start_s", "end_s")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.start_s: float = time.perf_counter()
        self.end_s: float | None = None

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_ms(self) -> float:
        """Wall-clock duration; 0.0 while still open."""
        if self.end_s is None:
            return 0.0
        return (self.end_s - self.start_s) * 1e3

    def end(self) -> None:
        """Close the span (idempotent: the first end wins)."""
        if self.end_s is None:
            self.end_s = time.perf_counter()

    def annotate(self, **attrs: Any) -> "Span":
        """Merge attributes into the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First span (depth-first) whose name matches exactly."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly nested representation."""
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
                f"children={len(self.children)})")


class Tracer:
    """Builds one query's span tree.

    Two recording styles coexist:

    * :meth:`span` — a context manager pushing onto a stack; children
      recorded inside nest under it. For compile-time phases, which
      are strictly nested.
    * :meth:`start_span` / ``span.end()`` — explicit parenting without
      touching the stack. For runtime generators (scans) that may be
      suspended or abandoned; a missing ``end()`` is repaired by
      :meth:`finish`.
    """

    def __init__(self, name: str = "query"):
        self.root = Span(name)
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open stack span (events parent here)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, parent: Span | None = None,
             **attrs: Any) -> Iterator[Span]:
        """Record a well-nested span around a ``with`` block."""
        span = Span(name, attrs)
        (parent or self._stack[-1]).children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end()
            # Tolerate a stack disturbed by an abandoned generator:
            # remove this span wherever it sits instead of blindly
            # popping the top.
            if span in self._stack:
                del self._stack[self._stack.index(span):]

    def start_span(self, name: str, parent: Span | None = None,
                   **attrs: Any) -> Span:
        """Open a span under ``parent`` (or the current stack span)
        without pushing it onto the stack. Caller ends it."""
        span = Span(name, attrs)
        (parent or self._stack[-1]).children.append(span)
        return span

    def event(self, name: str, parent: Span | None = None,
              **attrs: Any) -> Span:
        """A zero-duration marker (cache hit, eviction, degradation)."""
        span = Span(name, attrs)
        span.end_s = span.start_s
        (parent or self._stack[-1]).children.append(span)
        return span

    def finish(self) -> Span:
        """Close the root (and any span left open) and return it."""
        self.root.end()
        for span in self.root.iter_spans():
            if span.end_s is None:
                # Abandoned runtime span (early-terminated scan):
                # clamp to the root's end so durations stay sane.
                span.end_s = self.root.end_s
        del self._stack[1:]
        return self.root


def _format_attrs(attrs: dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return f" [{', '.join(parts)}]"


def render_span_tree(root: Span, indent: str = "  ") -> str:
    """Multi-line text rendering of a span tree::

        query                          4.21 ms
          parse                        0.05 ms
          compile                      1.10 ms
            prune:filter               0.80 ms [table=t, before=20, after=3]
          execute                      2.90 ms
            scan:t                     2.80 ms [partitions=3, rows=300]
              cache:hit                  ·    [partition=7]

    Events (zero-duration spans) print ``·`` instead of a duration.
    """
    lines: list[str] = []
    _render(root, lines, depth=0, indent=indent)
    name_width = max((len(line[0]) for line in lines), default=0)
    return "\n".join(
        f"{name.ljust(name_width)}  {timing}{attrs}"
        for name, timing, attrs in lines)


def _render(span: Span, lines: list[tuple[str, str, str]], depth: int,
            indent: str) -> None:
    name = f"{indent * depth}{span.name}"
    is_event = span.end_s is not None and span.end_s == span.start_s
    timing = f"{'·':>7}   " if is_event else \
        f"{span.duration_ms:7.2f} ms"
    lines.append((name, timing, _format_attrs(span.attrs)))
    for child in span.children:
        _render(child, lines, depth + 1, indent)
