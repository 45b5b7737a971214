"""Vectorized pruning: SoA stats index + compiled numpy predicate kernels.

The paper treats pruning itself as a first-class cost: Snowflake
evaluates pruning predicates over metadata for millions of
micro-partitions per query (§3, §7), so the pruning check must be
orders of magnitude cheaper than the scan it saves. Walking the
predicate AST once per partition (:class:`~repro.pruning.FilterPruner`)
pays the interpreter overhead ``O(partitions × AST nodes)``.

This module turns that loop inside out:

* :class:`StatsIndex` packs per-column zone-map metadata
  (min/max/null-count/row-count) for *all* partitions of a table into
  struct-of-arrays numpy vectors, built lazily per referenced column.
* :func:`compile_pruning_kernel` compiles a prunable predicate
  (Compare / InList / IsNull / StartsWith / Like / EndsWith / Contains /
  boolean literals combined with And/Or/Not — BETWEEN arrives as an And
  of Compares) into a tree of numpy kernels that classify every
  partition in one vectorized pass, producing the same
  NEVER/MAYBE/ALWAYS verdicts as
  :func:`repro.expr.pruning.prune_partition`.
* :class:`VectorizedFilterPruner` runs the kernel over the index a
  :class:`~repro.pruning.ScanSet` carries and is **bit-identical** to
  ``FilterPruner``: any entry the index cannot vouch for (degraded /
  stat-less zone maps, stale index rows — the scan set decides, see
  ``ScanSet.trusted_rows``) or predicate shape (arithmetic, CAST,
  functions, mixed-type literals…) the kernels cannot prove they
  handle exactly falls back to the per-partition AST path.

Soundness strategy: rather than re-deriving pruning theory, every
kernel replicates the *exact* case analysis of ``expr/ranges.py`` on
boolean possibility triples ``(can_true, can_false, maybe_null)``, and
anything outside the replicated cases refuses to compile or bind. The
differential test suite (tests/test_vectorized_pruning.py) enforces
equality against the scalar oracle over randomized predicates and
zone maps.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..expr import ast
from ..expr.ranges import _comparison_value
from ..storage.column import object_scalar
from ..storage.zonemap import StatsBlock, ZoneMap, prefix_successor
from ..types import Schema
from .base import (
    ALWAYS_CODE,
    MAYBE_CODE,
    NEVER_CODE,
    PruneCategory,
    PruningResult,
    ScanSet,
    pruning_mode,
)
from .filter_pruning import FilterPruner
from .summaries import RangeSetSummary

__all__ = [
    "StatsIndex",
    "PruningKernel",
    "compile_pruning_kernel",
    "VectorizedFilterPruner",
    "topk_skip_mask",
    "join_may_join_mask",
]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


#: Packing kind per value representation. DATE stats hold epoch days
#: and BOOLEAN stats hold Python bools (a subclass of int with int
#: ordering), so all three share the int64 lane.
_INT_KIND, _FLOAT_KIND, _STR_KIND = "int64", "float64", "str"

_KIND_OF_DTYPE: dict[Any, str] = {}


def _kind_of(dtype: Any) -> str | None:
    if not _KIND_OF_DTYPE:
        from ..types import DataType

        _KIND_OF_DTYPE.update({
            DataType.INTEGER: _INT_KIND,
            DataType.DATE: _INT_KIND,
            DataType.BOOLEAN: _INT_KIND,
            DataType.DOUBLE: _FLOAT_KIND,
            DataType.VARCHAR: _STR_KIND,
        })
    return _KIND_OF_DTYPE.get(dtype)


class _ColumnVectors:
    """SoA metadata for one column across all partitions of a table.

    The derived masks encode the four-way case analysis of
    ``ValueRange.from_stats`` + ``_range_column_ref``:

    * ``unknown``   — stats missing or ``present=False`` (both answer
      "anything possible", including via MetadataError);
    * ``valued``    — row_count > 0 and a real min/max pair;
    * ``novalue_mn``— row_count > 0 but min is None with nulls present
      (the NULL-only range);
    * everything else (empty partitions, min None without nulls) has
      all-False possibility flags.
    """

    __slots__ = (
        "kind", "lo", "hi", "present", "has_min", "unknown", "valued",
        "novalue_mn", "nulls_pos", "isnull_possible", "notnull_possible",
    )

    def __init__(self, kind: str, lo: np.ndarray, hi: np.ndarray,
                 present: np.ndarray, has_min: np.ndarray,
                 rows: np.ndarray, nulls: np.ndarray):
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.present = present
        self.has_min = has_min
        nonempty = rows != 0
        self.unknown = ~present
        self.valued = present & has_min & nonempty
        self.novalue_mn = present & ~has_min & nonempty & (nulls > 0)
        self.nulls_pos = self.valued & (nulls > 0)
        self.isnull_possible = (self.unknown | self.novalue_mn
                                | self.nulls_pos)
        self.notnull_possible = self.unknown | self.valued


def _pack_column(name: str, zone_maps: list[ZoneMap],
                 block_rows: tuple[np.ndarray, np.ndarray, list[StatsBlock]]
                 ) -> _ColumnVectors | None:
    """Pack one column's stats into vectors, or None if not packable.

    A column is packable only when every present min/max value fits its
    numpy lane *exactly* (int64 range for INTEGER/DATE/BOOLEAN, lossless
    float64 for DOUBLE — NaN and 2**53-overflowing ints are rejected —
    str for VARCHAR) and all partitions agree on the lane. Python
    compares mixed numeric types exactly; numpy promotes int64 vs
    float64 lossily, so any value or mix we cannot prove exact routes
    the whole pruner to the scalar path instead.

    Rows viewing a :class:`StatsBlock` with the column are gathered
    from its lanes (``block_rows``: see ``StatsIndex._block_rows``);
    only zone maps that no build made are read one by one.
    """
    codes, at, blocks = block_rows
    n = len(zone_maps)
    lanes = [block.lanes.get(name) for block in blocks]
    viewed = np.array([lane is not None for lane in lanes] + [False])[codes]
    hand = [(i, stats) for i in np.flatnonzero(~viewed).tolist()
            if zone_maps[i].block is None
            and (stats := zone_maps[i].columns.get(name)) is not None
            and stats.present]
    kinds = ({_kind_of(lane[0]) for lane in lanes if lane is not None}
             | {_kind_of(stats.dtype) for _, stats in hand})
    if len(kinds) > 1 or None in kinds:
        return None
    # No partition with stats for this column: every row is "unknown";
    # the lane is arbitrary.
    kind = kinds.pop() if kinds else _INT_KIND
    lo = np.full(n, "" if kind == _STR_KIND else 0, dtype={
        _INT_KIND: np.int64, _FLOAT_KIND: np.float64, _STR_KIND: object}[kind])
    hi = lo.copy()
    present, has_min = viewed.copy(), np.zeros(n, dtype=bool)
    rows, nulls = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    if viewed.any():
        used = [(b, lane) for b, lane in zip(blocks, lanes) if lane]
        sizes = [len(b.row_counts) if lane else 0
                 for b, lane in zip(blocks, lanes)]
        flat = np.cumsum([0] + sizes)[codes[viewed]] + at[viewed]

        def gather(parts: list[np.ndarray]) -> np.ndarray:
            return (parts[0] if len(parts) == 1
                    else np.concatenate(parts))[flat]

        rows[viewed] = gather([b.row_counts for b, _ in used])
        nulls[viewed] = gather([lane[3] for _, lane in used])
        has_min[viewed] = valued = nulls[viewed] < rows[viewed]
        lo[has_min] = gather([lane[1] for _, lane in used])[valued]
        hi[has_min] = gather([lane[2] for _, lane in used])[valued]
    for i, stats in hand:
        present[i] = True
        rows[i], nulls[i] = stats.row_count, stats.null_count
        if stats.min_value is not None:
            low = _pack_value(stats.min_value, kind)
            high = _pack_value(stats.max_value, kind)
            if low is None or high is None:
                return None
            lo[i], hi[i], has_min[i] = low, high, True
    if kind == _FLOAT_KIND and (np.isnan(lo).any() or np.isnan(hi).any()):
        return None
    return _ColumnVectors(kind, lo, hi, present, has_min, rows, nulls)


def _pack_value(value: Any, kind: str) -> Any:
    """Convert one stats value to its lane, or None if not exact."""
    if kind == _STR_KIND:
        return value if isinstance(value, str) else None
    if kind == _INT_KIND:
        if isinstance(value, int) and _INT64_MIN <= value <= _INT64_MAX:
            return int(value)
        return None
    # _FLOAT_KIND
    if isinstance(value, (int, float)):
        as_float = float(value)
        if as_float == value:  # rejects NaN and 2**53-lossy ints
            return as_float
    return None


class StatsIndex:
    """Columnar (SoA) view of a table's zone maps for bulk pruning.

    Rows are partitions in metadata-store registration order. Column
    vectors are packed lazily, only for columns a kernel actually
    references, and cached. The index is immutable; tables evolve by
    building a successor via :meth:`with_changes` (copy-on-write from
    the metadata store's per-table dirty deltas), so concurrent readers
    always see a consistent snapshot.
    """

    def __init__(self, entries: Iterable[tuple[int, ZoneMap]] = ()):
        pairs = list(entries)
        #: int64 partition-id lane, beside ``row_counts``: what a scan
        #: set answers ids and sizes from without touching a zone map.
        self.partition_ids: np.ndarray = np.array(
            [pid for pid, _ in pairs], dtype=np.int64)
        self._zone_maps: list[ZoneMap] = [zm for _, zm in pairs]
        self._rows: dict[int, int] = {
            pid: row for row, (pid, _) in enumerate(pairs)}
        self.row_counts: np.ndarray = np.array(
            [zm.row_count for zm in self._zone_maps], dtype=np.int64)
        self._columns: dict[str, _ColumnVectors | None] = {}
        number: dict[StatsBlock, int] = {}
        #: per row, the number of the stats block its zone map views (-1:
        #: none) and the row there, beside the blocks in order of use
        self._block_rows = (np.fromiter(
            (-1 if zm.block is None else number.setdefault(
                zm.block, len(number)) for zm in self._zone_maps),
            dtype=np.intp, count=len(pairs)), np.fromiter(
            (zm.row for zm in self._zone_maps), dtype=np.intp,
            count=len(pairs)), list(number))
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._zone_maps)

    def entries(self) -> list[tuple[int, ZoneMap]]:
        return list(zip(self.partition_ids.tolist(), self._zone_maps))

    def row_of(self, partition_id: int) -> int | None:
        """Index row for a partition id, or None if not indexed."""
        return self._rows.get(partition_id)

    def zone_map_at(self, row: int) -> ZoneMap:
        """The exact ZoneMap object indexed at ``row``: the one
        accessor through which a scan set materialises an entry (and
        what ``ScanSet.trusted_rows`` compares by identity)."""
        return self._zone_maps[row]

    def column(self, name: str) -> _ColumnVectors | None:
        """Packed vectors for ``name`` (lowercase), or None if the
        column cannot be packed exactly."""
        with self._lock:
            if name not in self._columns:
                self._columns[name] = _pack_column(
                    name, self._zone_maps, self._block_rows)
            return self._columns[name]

    def with_changes(
            self, changes: Mapping[int, ZoneMap | None]) -> "StatsIndex":
        """Successor index with per-partition deltas applied.

        ``None`` drops a partition; a ZoneMap replaces in place (the
        metadata store keeps a re-registered partition's position) or
        appends in delta order. One delta per id cannot say "dropped,
        then registered again, so now last": the store resnapshots
        instead of sending that here.
        """
        replaced = set()
        entries: list[tuple[int, ZoneMap]] = []
        for pid, zone_map in self.entries():
            if pid in changes:
                replaced.add(pid)
                replacement = changes[pid]
                if replacement is None:
                    continue
                entries.append((pid, replacement))
            else:
                entries.append((pid, zone_map))
        for pid, zone_map in changes.items():
            if pid not in replaced and zone_map is not None:
                entries.append((pid, zone_map))
        return StatsIndex(entries)


# ----------------------------------------------------------------------
# Kernel compilation
# ----------------------------------------------------------------------
class _Unbindable(Exception):
    """A compiled node cannot bind to this index (lane mismatch,
    unpackable column, …): classify must answer "fall back"."""


#: A compiled node: index -> (can_true, can_false, maybe_null) masks.
_NodeFn = Callable[[StatsIndex], tuple[np.ndarray, np.ndarray, np.ndarray]]

_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "=": "=", "<>": "<>"}


def _bind_literal(value: Any, kind: str) -> Any:
    """Bind a (DATE-normalized) literal to a column lane.

    Refuses any pairing numpy would compare differently from Python:
    float literals against the int64 lane (int64→float64 promotion is
    lossy), non-exact floats, ints beyond int64, NaN, str/numeric
    mixes (Python raises TypeError there — the scalar fallback
    reproduces the raise).

    A str binds as a 1-element object array: compared with a bare str,
    numpy makes it a fixed-width string and drops trailing NULs.
    """
    if kind == _STR_KIND:
        if isinstance(value, str):
            return object_scalar(value)
        raise _Unbindable(f"non-string literal {value!r} on str lane")
    if kind == _INT_KIND:
        if (isinstance(value, int)
                and _INT64_MIN <= value <= _INT64_MAX):
            return int(value)
        raise _Unbindable(f"literal {value!r} not exact on int64 lane")
    if isinstance(value, (int, float)):
        as_float = float(value)
        if as_float == value:
            return as_float
    raise _Unbindable(f"literal {value!r} not exact on float64 lane")


def _column(index: StatsIndex, name: str) -> _ColumnVectors:
    vectors = index.column(name)
    if vectors is None:
        raise _Unbindable(f"column {name!r} is not packable")
    return vectors


def _as_bool(array: np.ndarray) -> np.ndarray:
    """Comparisons on object (str) lanes yield object arrays."""
    return np.asarray(array, dtype=bool)


def _compare_masks(op: str, lo: np.ndarray, hi: np.ndarray,
                   value: Any) -> tuple[np.ndarray, np.ndarray]:
    """(can_true, can_false) of ``column op value`` for valued rows.

    Vectorized transcription of ``ranges._range_compare`` with the
    right side a point literal (b_lo == b_hi == value).
    """
    if op == "<":
        return _as_bool(lo < value), _as_bool(hi >= value)
    if op == "<=":
        return _as_bool(lo <= value), _as_bool(hi > value)
    if op == ">":
        return _as_bool(hi > value), _as_bool(lo <= value)
    if op == ">=":
        return _as_bool(hi >= value), _as_bool(lo < value)
    point_hit = _as_bool(lo == value) & _as_bool(hi == value)
    overlap = _as_bool(lo <= value) & _as_bool(value <= hi)
    if op == "=":
        return overlap, ~point_hit
    return ~point_hit, overlap  # "<>"


def _leaf(name: str,
          value_masks: Callable[[_ColumnVectors],
                                tuple[np.ndarray, np.ndarray]],
          extra_maybe_null: bool = False) -> _NodeFn:
    """Assemble a leaf node from its valued-case mask builder.

    The unknown / NULL-only / empty cases are identical for Compare,
    InList and the string predicates (see ``_range_compare`` and
    friends): unknown → (T, T, T); min None with nulls → (F, F, T);
    empty → (F, F, F).
    ``extra_maybe_null`` forces NULL possibility even for null-free
    partitions (an IN list containing NULL).
    """

    def node(index: StatsIndex):
        vectors = _column(index, name)
        can_true_v, can_false_v = value_masks(vectors)
        valued = vectors.valued
        can_true = vectors.unknown | (valued & can_true_v)
        can_false = vectors.unknown | (valued & can_false_v)
        if extra_maybe_null:
            # NULL in the IN list: every valued row might produce NULL.
            maybe_null = vectors.unknown | vectors.novalue_mn | valued
        else:
            maybe_null = (vectors.unknown | vectors.novalue_mn
                          | vectors.nulls_pos)
        return can_true, can_false, maybe_null

    return node


def _compile_compare(expr: ast.Compare) -> _NodeFn | None:
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
        left, right = right, left
        op = _FLIP_OP[op]
    if not (isinstance(left, ast.ColumnRef)
            and isinstance(right, ast.Literal)):
        return None
    if right.value is None:
        return None  # NULL literal: null_only semantics, keep scalar
    value = _comparison_value(right.value)
    name = left.name

    def value_masks(vectors: _ColumnVectors):
        bound = _bind_literal(value, vectors.kind)
        return _compare_masks(op, vectors.lo, vectors.hi, bound)

    return _leaf(name, value_masks)


def _compile_in_list(expr: ast.InList) -> _NodeFn | None:
    if not isinstance(expr.child, ast.ColumnRef):
        return None
    values = [_comparison_value(v) for v in expr.values if v is not None]
    list_has_null = len(values) < len(expr.values)
    name = expr.child.name

    def value_masks(vectors: _ColumnVectors):
        bound = [_bind_literal(v, vectors.kind) for v in values]
        lo, hi = vectors.lo, vectors.hi
        n = len(lo)
        can_true = np.zeros(n, dtype=bool)
        hit = np.zeros(n, dtype=bool)
        for v in bound:
            can_true |= _as_bool(lo <= v) & _as_bool(v <= hi)
            hit |= _as_bool(lo == v)
        point = _as_bool(lo == hi)
        can_false = ~(point & hit)
        return can_true, can_false

    return _leaf(name, value_masks, extra_maybe_null=list_has_null)


def _prefix_masks(prefix: str, vectors: _ColumnVectors, name: str
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(can_true, can_false) of "column starts with ``prefix``" for
    valued rows: ``ranges._prefix_flags`` over the lanes."""
    if vectors.kind != _STR_KIND:
        # Scalar path raises TypeError comparing str vs numbers;
        # route there so behavior (the raise) is identical.
        raise _Unbindable(f"prefix test on non-string lane {name!r}")
    lo, hi = vectors.lo, vectors.hi
    n = len(lo)
    if prefix == "":
        return np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    # Strings starting with the prefix form [prefix, succ(prefix));
    # succ is None when every character is maximal (interval is
    # [prefix, +inf)). Mirrors ``ranges._prefix_flags`` exactly — a
    # fixed-length max-codepoint cap would wrongly prune lo values
    # that extend the prefix with more maximal characters.
    succ = prefix_successor(prefix)
    if succ is None:
        below_succ = np.ones(n, dtype=bool)
    else:
        below_succ = _as_bool(lo < object_scalar(succ))
    can_true = below_succ & _as_bool(object_scalar(prefix) <= hi)
    all_match = np.fromiter(
        (a.startswith(prefix) and b.startswith(prefix)
         for a, b in zip(lo, hi)),
        dtype=bool, count=n)
    return can_true, ~all_match


def _compile_startswith(expr: ast.StartsWith) -> _NodeFn | None:
    if not isinstance(expr.child, ast.ColumnRef):
        return None
    needle, name = expr.needle, expr.child.name
    return _leaf(name, lambda vectors: _prefix_masks(needle, vectors, name))


def _compile_like(expr: ast.Like) -> _NodeFn | None:
    """``ranges._range_like``: an exact pattern is ``=``; any other
    tests its literal prefix, and proves ALWAYS only as ``prefix%``."""
    if not isinstance(expr.child, ast.ColumnRef):
        return None
    pattern, prefix, name = expr.pattern, expr.literal_prefix, expr.child.name

    def value_masks(vectors: _ColumnVectors):
        if expr.is_exact:
            return _compare_masks("=", vectors.lo, vectors.hi,
                                  _bind_literal(pattern, vectors.kind))
        can_true, can_false = _prefix_masks(prefix, vectors, name)
        if pattern != prefix + "%":
            can_false = np.ones_like(can_true)
        return can_true, can_false

    return _leaf(name, value_masks)


def _compile_opaque_string(expr: ast.EndsWith | ast.Contains
                           ) -> _NodeFn | None:
    """``ranges._range_opaque_string_pred``: min/max decide nothing."""
    if not isinstance(expr.child, ast.ColumnRef):
        return None
    return _leaf(expr.child.name, lambda vectors: (
        np.ones(len(vectors.lo), dtype=bool),) * 2)


def _compile_is_null(expr: ast.IsNull) -> _NodeFn | None:
    if not isinstance(expr.child, ast.ColumnRef):
        return None
    name = expr.child.name
    negated = expr.negated

    def node(index: StatsIndex):
        vectors = _column(index, name)
        is_null = vectors.isnull_possible
        not_null = vectors.notnull_possible
        can_true, can_false = ((not_null, is_null) if negated
                               else (is_null, not_null))
        maybe_null = np.zeros(len(is_null), dtype=bool)
        return can_true, can_false, maybe_null

    return node


def _compile_literal(expr: ast.Literal) -> _NodeFn | None:
    if expr.value is True or expr.value is False:
        truth = expr.value is True

        def node(index: StatsIndex):
            n = len(index)
            ones = np.ones(n, dtype=bool)
            zeros = np.zeros(n, dtype=bool)
            return ((ones, zeros, zeros) if truth
                    else (zeros, ones, zeros))

        return node
    return None


def _compile_node(expr: ast.Expr) -> _NodeFn | None:
    if isinstance(expr, ast.And):
        children = [_compile_node(c) for c in expr.children()]
        if not children or any(c is None for c in children):
            return None

        def node_and(index: StatsIndex):
            triples = [c(index) for c in children]
            can_true = np.logical_and.reduce([t[0] for t in triples])
            can_false = np.logical_or.reduce([t[1] for t in triples])
            maybe_null = np.logical_or.reduce([t[2] for t in triples])
            return can_true, can_false, maybe_null

        return node_and
    if isinstance(expr, ast.Or):
        children = [_compile_node(c) for c in expr.children()]
        if not children or any(c is None for c in children):
            return None

        def node_or(index: StatsIndex):
            triples = [c(index) for c in children]
            # A child TRUE on every row makes the OR TRUE on every row.
            always = np.logical_or.reduce(
                [t[0] & ~t[1] & ~t[2] for t in triples])
            can_true = np.logical_or.reduce([t[0] for t in triples])
            can_false = (np.logical_and.reduce([t[1] for t in triples])
                         & ~always)
            maybe_null = (~always & np.logical_or.reduce(
                [t[2] for t in triples]))
            return can_true, can_false, maybe_null

        return node_or
    if isinstance(expr, ast.Not):
        child = _compile_node(expr.child)
        if child is None:
            return None

        def node_not(index: StatsIndex):
            can_true, can_false, maybe_null = child(index)
            return can_false, can_true, maybe_null

        return node_not
    if isinstance(expr, ast.Compare):
        return _compile_compare(expr)
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr)
    if isinstance(expr, ast.IsNull):
        return _compile_is_null(expr)
    if isinstance(expr, ast.StartsWith):
        return _compile_startswith(expr)
    if isinstance(expr, ast.Like):
        return _compile_like(expr)
    if isinstance(expr, (ast.EndsWith, ast.Contains)):
        return _compile_opaque_string(expr)
    if isinstance(expr, ast.Literal):
        return _compile_literal(expr)
    return None


class PruningKernel:
    """A predicate compiled to one vectorized classification pass."""

    __slots__ = ("predicate", "_root")

    def __init__(self, predicate: ast.Expr, root: _NodeFn):
        self.predicate = predicate
        self._root = root

    def classify(self, index: StatsIndex) -> np.ndarray | None:
        """int8 verdict codes for every index row, or None when the
        kernel cannot bind to this index (→ caller falls back)."""
        try:
            can_true, can_false, maybe_null = self._root(index)
        except _Unbindable:
            return None
        codes = np.full(len(index), MAYBE_CODE, dtype=np.int8)
        codes[can_true & ~can_false & ~maybe_null] = ALWAYS_CODE
        codes[~can_true] = NEVER_CODE
        codes[index.row_counts == 0] = NEVER_CODE
        return codes


def compile_pruning_kernel(predicate: ast.Expr) -> PruningKernel | None:
    """Compile ``predicate`` to a :class:`PruningKernel`, or None when
    any node falls outside the exactly-replicated subset."""
    root = _compile_node(predicate)
    if root is None:
        return None
    return PruningKernel(predicate, root)


# ----------------------------------------------------------------------
# Runtime kernels: top-k boundaries and join-filter summaries
# ----------------------------------------------------------------------
def topk_skip_mask(index: StatsIndex, column: str, desc: bool,
                   value: Any) -> np.ndarray | None:
    """Boolean skip mask of a top-k boundary over all index rows.

    ``value`` is the unwrapped boundary value (the k-th best ORDER BY
    key). Transcribes ``TopKPruner.best_possible_rank`` + the
    strictly-worse comparison exactly:

    * stats missing / ``present=False`` → best rank ``(2,)`` → keep;
    * present but no min/max (all-NULL, empty) → NULL rank → skip;
    * valued → skip iff max < value (DESC) / min > value (ASC).

    Returns None when the column or the boundary value cannot bind to
    a lane exactly (→ caller falls back to the scalar oracle).
    """
    vectors = index.column(column)
    if vectors is None:
        return None
    try:
        bound = _bind_literal(value, vectors.kind)
    except _Unbindable:
        return None
    worse = (_as_bool(vectors.hi < bound) if desc
             else _as_bool(vectors.lo > bound))
    valued = vectors.present & vectors.has_min
    no_values = vectors.present & ~vectors.has_min
    return no_values | (valued & worse)


def join_may_join_mask(index: StatsIndex, column: str,
                       summary: Any) -> np.ndarray | None:
    """Boolean may-join mask of a build-side summary over index rows.

    Vectorizes ``JoinPruner.partition_may_join`` for a
    :class:`~repro.pruning.summaries.RangeSetSummary` (an OR over its
    bounded interval list). A membership filter answers range probes
    value-by-value and stays scalar — returns None, as it does when a
    bound cannot bind to the column's lane.

    Semantics match the scalar oracle exactly: missing metadata keeps
    the partition (fail open), all-NULL probe keys never join, and
    valued partitions join iff some summary interval overlaps
    ``[min, max]`` (inclusive, as ``might_overlap_range`` answers).
    """
    if not isinstance(summary, RangeSetSummary):
        return None
    vectors = index.column(column)
    if vectors is None:
        return None
    valued = vectors.present & vectors.has_min
    try:
        bounds = _bind_endpoints([x for r in summary.ranges for x in r],
                                 vectors.kind)
    except _Unbindable:
        return None
    los, his = bounds[0::2], bounds[1::2]
    # The ranges are sorted and disjoint: the first reaching a row's
    # min is the only candidate (as ``might_overlap_range`` bisects).
    first = np.searchsorted(his, vectors.lo)
    reached = first < len(his)
    overlap = np.zeros(len(index), dtype=bool)
    overlap[reached] = _as_bool(los[first[reached]] <= vectors.hi[reached])
    return vectors.unknown | (valued & overlap)


def _bind_endpoints(values: list, kind: str) -> np.ndarray:
    """:func:`_bind_literal` over ``values`` at once: one array of the
    lane's dtype, each value of the lane's type and converted exactly."""
    python_type, dtype = {_INT_KIND: (int, np.int64),
                          _FLOAT_KIND: ((int, float), np.float64),
                          _STR_KIND: (str, object)}[kind]
    try:
        if all(issubclass(t, python_type) for t in set(map(type, values))):
            bound = np.array(values, dtype=dtype)
            if bound.tolist() == values:
                return bound
    except OverflowError:
        pass
    raise _Unbindable(f"endpoints {values!r} not exact on the {kind} lane")


# ----------------------------------------------------------------------
# The zone-map filter pruner
# ----------------------------------------------------------------------
class VectorizedFilterPruner(FilterPruner):
    """Filter pruning over a scan set's own stats index.

    Compiles the predicate once; :meth:`prune` classifies the scan
    set's index in one kernel pass and reads the verdicts back through
    :meth:`ScanSet.gather`, so entries the index cannot vouch for —
    and every entry of a predicate the kernels do not cover
    (arithmetic, CAST, functions, mixed-type literals) — are judged by
    the inherited per-partition :meth:`~FilterPruner.classify`.
    Results are **bit-identical** to ``FilterPruner.prune``, check
    counts included: one check per partition on either path.

    ``checks`` counts the scalar checks, ``vector_checks`` the ones a
    kernel served; ``mode`` after :meth:`prune`: see
    :func:`~.base.pruning_mode`.
    """

    def __init__(self, predicate: ast.Expr, schema: Schema,
                 detect_fully_matching: bool = True):
        super().__init__(predicate, schema, detect_fully_matching)
        self.kernel = compile_pruning_kernel(predicate)
        self.vector_checks = 0
        self.mode = "fallback"

    @property
    def fallback_checks(self) -> int:
        return self.checks

    def prune(self, scan_set: ScanSet) -> PruningResult:
        per_row = None
        if self.kernel is not None and len(scan_set):
            per_row = self.kernel.classify(scan_set.stats_index)
            if per_row is not None and not self.detect_fully_matching:
                per_row = np.minimum(per_row, MAYBE_CODE)  # ALWAYS -> MAYBE
        codes, from_kernel = scan_set.gather(per_row, self.classify_code)
        self.vector_checks += from_kernel
        self.mode = pruning_mode(self.vector_checks, self.checks)
        return PruningResult.from_codes(
            PruneCategory.FILTER, scan_set, codes,
            self.vector_checks + self.checks)
