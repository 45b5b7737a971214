"""Property-based tests of the central safety invariants.

The pruning contract (§2.1): *no false negatives*. For any predicate,
data, and partitioning:

* a partition classified ``NEVER`` contains no matching row;
* a partition classified ``ALWAYS`` contains only matching rows (and
  none where the predicate is NULL);
* the derived value range of any expression contains the value the
  expression evaluates to on every row.

These are checked against brute-force row evaluation over randomly
generated expressions and data.
"""

from __future__ import annotations

import datetime

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.expr import ast
from repro.expr.eval import evaluate
from repro.expr.pruning import TriState, prune_partition
from repro.expr.ranges import derive_range
from repro.expr.rewrite import not_true, widen_for_pruning
from repro.storage.micropartition import MicroPartition
from repro.types import DataType, Schema

SCHEMA = Schema.of(a=DataType.INTEGER, b=DataType.INTEGER,
                   s=DataType.VARCHAR)

# ----------------------------------------------------------------------
# Data strategies
# ----------------------------------------------------------------------
int_values = st.one_of(st.none(), st.integers(-50, 50))
str_values = st.one_of(
    st.none(), st.sampled_from(["alpha", "beta", "gamma", "alp", "z",
                                "", "alphabet"]))
rows_strategy = st.lists(
    st.tuples(int_values, int_values, str_values), min_size=0,
    max_size=30)


# ----------------------------------------------------------------------
# Expression strategies
# ----------------------------------------------------------------------
def numeric_expr(depth: int = 2):
    leaf = st.one_of(
        st.sampled_from([ast.col("a"), ast.col("b")]),
        st.integers(-60, 60).map(ast.lit),
    )
    if depth == 0:
        return leaf
    sub = numeric_expr(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: ast.Arith(t[0], t[1], t[2])),
        sub.map(ast.Neg),
        st.tuples(sub, sub).map(
            lambda t: ast.FunctionCall("least", [t[0], t[1]])),
        sub.map(lambda e: ast.FunctionCall("abs", [e])),
    )


def predicate_expr(depth: int = 2):
    comparison = st.tuples(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        numeric_expr(1), numeric_expr(1)
    ).map(lambda t: ast.Compare(t[0], t[1], t[2]))
    string_pred = st.one_of(
        st.sampled_from(["alp", "bet", "z", ""]).map(
            lambda p: ast.StartsWith(ast.col("s"), p)),
        st.sampled_from(["alp%", "%a", "alpha", "a%t"]).map(
            lambda p: ast.Like(ast.col("s"), p)),
        st.sampled_from(["a", "b", "s"]).map(
            lambda c: ast.IsNull(ast.col(c))),
        st.lists(st.integers(-50, 50), min_size=1, max_size=4).map(
            lambda vs: ast.InList(ast.col("a"), vs)),
    )
    leaf = st.one_of(comparison, string_pred)
    if depth == 0:
        return leaf
    sub = predicate_expr(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: ast.And(t[0], t[1])),
        st.tuples(sub, sub).map(lambda t: ast.Or(t[0], t[1])),
        sub.map(ast.Not),
    )


def brute_force(expr, partition):
    """Row-by-row truth values of a predicate (True/False/None)."""
    return evaluate(expr, partition.columns(), SCHEMA).to_pylist()


@settings(max_examples=300, deadline=None)
@given(predicate=predicate_expr(), rows=rows_strategy)
def test_no_false_negatives(predicate, rows):
    """NEVER partitions contain no matching row; ALWAYS only matches."""
    partition = MicroPartition.from_rows(SCHEMA, rows)
    verdict = prune_partition(predicate, partition.zone_map, SCHEMA)
    truths = brute_force(predicate, partition)
    if verdict == TriState.NEVER:
        assert not any(t is True for t in truths)
    elif verdict == TriState.ALWAYS:
        assert all(t is True for t in truths)
        assert len(truths) > 0


@settings(max_examples=300, deadline=None)
@given(predicate=predicate_expr(), rows=rows_strategy)
def test_widened_predicate_still_sound(predicate, rows):
    """Pruning with the widened predicate never loses matching rows."""
    partition = MicroPartition.from_rows(SCHEMA, rows)
    widened = widen_for_pruning(predicate)
    verdict = prune_partition(widened, partition.zone_map, SCHEMA)
    if verdict == TriState.NEVER:
        truths = brute_force(predicate, partition)
        assert not any(t is True for t in truths)


@settings(max_examples=300, deadline=None)
@given(expr=numeric_expr(), rows=rows_strategy)
def test_derived_range_contains_all_values(expr, rows):
    """Every evaluated value lies inside the derived range."""
    partition = MicroPartition.from_rows(SCHEMA, rows)
    value_range = derive_range(expr, partition.zone_map, SCHEMA)
    values = evaluate(expr, partition.columns(), SCHEMA).to_pylist()
    for value in values:
        if value is None:
            assert value_range.maybe_null or not value_range.known
        elif value_range.known:
            assert value_range.lo is not None, \
                f"{expr}: produced {value} but range claims null-only"
            assert value_range.lo <= value <= value_range.hi, \
                f"{expr}: {value} outside [{value_range.lo}, " \
                f"{value_range.hi}]"


@settings(max_examples=300, deadline=None)
@given(predicate=predicate_expr(), rows=rows_strategy)
def test_not_true_is_exact_complement(predicate, rows):
    """not_true(p) is TRUE for a row iff p is not TRUE there."""
    partition = MicroPartition.from_rows(SCHEMA, rows)
    inverted = not_true(predicate)
    original = brute_force(predicate, partition)
    complement = brute_force(inverted, partition)
    for o, c in zip(original, complement):
        if o is not True:
            # Soundness: every not-TRUE row must satisfy the inversion
            # (completeness of the other direction may be lost by the
            # trivially-true fallback, which is fine).
            assert c is True


@settings(max_examples=300, deadline=None)
@given(predicate=predicate_expr(), rows=rows_strategy)
def test_inverted_pass_agrees_with_tristate(predicate, rows):
    """Both fully-matching detectors are sound vs brute force."""
    partition = MicroPartition.from_rows(SCHEMA, rows)
    if partition.row_count == 0:
        return
    truths = brute_force(predicate, partition)
    # Tri-state ALWAYS.
    if prune_partition(predicate, partition.zone_map,
                       SCHEMA) == TriState.ALWAYS:
        assert all(t is True for t in truths)
    # Two-pass inverted NEVER == fully matching.
    inverted = not_true(predicate)
    if prune_partition(inverted, partition.zone_map,
                       SCHEMA) == TriState.NEVER:
        assert all(t is True for t in truths)


# ----------------------------------------------------------------------
# Widening is implicit in range derivation
# ----------------------------------------------------------------------
FULL_SCHEMA = Schema.of(a=DataType.INTEGER, v=DataType.DOUBLE,
                        s=DataType.VARCHAR, d=DataType.DATE)
_TOP = "\U0010ffff"
_TEXTS = ["alpha", "alp", "alphabet", "beta", "", "a\x00", _TOP + "a"]
_PATTERNS = st.one_of(
    st.sampled_from(["", "%", "_", "alp%", "alp_%", "a%t", "%a", "alpha",
                     "a\x00%", _TOP + "%", "b_t%", "alp%%"]),
    st.lists(st.sampled_from(["%", "_", "a", "l", "\x00", _TOP]),
             max_size=4).map("".join),
    # a literal prefix and a wildcard: what widening rewrites
    st.tuples(st.sampled_from(["a", "al", "alp", "b", "a\x00", _TOP]),
              st.sampled_from(["%", "_", "%a", "_%", "%%"])).map("".join))
full_rows_strategy = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-20, 20)),
    st.one_of(st.none(), st.floats(-20, 20, allow_nan=False)),
    st.one_of(st.none(), st.sampled_from(_TEXTS)),
    st.one_of(st.none(), st.dates(datetime.date(1999, 12, 1),
                                  datetime.date(2001, 2, 1)))),
    min_size=1, max_size=12)


def full_numeric(depth: int = 2):
    """INTEGER / DOUBLE expressions over every numeric node."""
    leaf = st.one_of(
        st.sampled_from([ast.col("a"), ast.col("v"),
                         ast.lit(None, DataType.INTEGER)]),
        st.integers(-25, 25).map(ast.lit),
        st.floats(-25, 25, allow_nan=False).map(ast.lit),
        st.sampled_from(["year", "month", "day"]).map(
            lambda f: ast.FunctionCall(f, [ast.col("d")])),
        full_string(0).map(lambda e: ast.FunctionCall("length", [e])))
    if depth == 0:
        return leaf
    sub = full_numeric(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(ast.ARITH_OPS), sub, sub).map(
            lambda t: ast.Arith(*t)),
        sub.map(ast.Neg),
        st.tuples(st.sampled_from(["abs", "ceil", "floor", "round"]),
                  sub).map(lambda t: ast.FunctionCall(t[0], [t[1]])),
        st.tuples(st.sampled_from(["least", "greatest", "coalesce"]),
                  sub, sub).map(
            lambda t: ast.FunctionCall(t[0], [t[1], t[2]])),
        st.tuples(sub, st.sampled_from([DataType.INTEGER,
                                        DataType.DOUBLE])).map(
            lambda t: ast.Cast(*t)),
        st.tuples(st.one_of(
            _PATTERNS.map(lambda p: ast.Like(ast.col("s"), p)),
            st.sampled_from(["a", "s"]).map(
                lambda c: ast.IsNull(ast.col(c)))), sub, sub).map(
            lambda t: ast.If(*t)))


def full_string(depth: int = 1):
    leaf = st.one_of(st.just(ast.col("s")),
                     st.sampled_from(_TEXTS).map(ast.lit))
    if depth == 0:
        return leaf
    sub = full_string(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["upper", "lower"]), sub).map(
            lambda t: ast.FunctionCall(t[0], [t[1]])),
        st.tuples(sub, sub).map(
            lambda t: ast.FunctionCall("coalesce", [t[0], t[1]])))


def full_predicate(depth: int = 2):
    """Boolean expressions over the whole ``expr/ast.py`` grammar."""
    string = full_string()
    leaf = st.one_of(
        st.tuples(st.sampled_from(ast.COMPARE_OPS), full_numeric(1),
                  full_numeric(1)).map(lambda t: ast.Compare(*t)),
        st.tuples(st.sampled_from(ast.COMPARE_OPS), string, string).map(
            lambda t: ast.Compare(*t)),
        st.tuples(st.sampled_from(ast.COMPARE_OPS),
                  st.dates(datetime.date(2000, 1, 1),
                           datetime.date(2000, 12, 31))).map(
            lambda t: ast.Compare(t[0], ast.col("d"), ast.lit(t[1]))),
        st.tuples(string, _PATTERNS).map(lambda t: ast.Like(*t)),
        _PATTERNS.map(lambda p: ast.Like(ast.col("s"), p)),
        _PATTERNS.map(lambda p: ast.Like(ast.col("s"), p)),
        st.tuples(st.sampled_from([ast.StartsWith, ast.EndsWith,
                                   ast.Contains]), string,
                  st.sampled_from(_TEXTS)).map(lambda t: t[0](t[1], t[2])),
        st.tuples(full_numeric(0), st.lists(
            st.one_of(st.none(), st.integers(-20, 20)), min_size=1,
            max_size=3)).map(lambda t: ast.InList(*t)),
        st.tuples(string, st.lists(st.sampled_from(_TEXTS), min_size=1,
                                   max_size=3)).map(
            lambda t: ast.InList(*t)),
        st.tuples(st.sampled_from(["a", "v", "s", "d"]),
                  st.booleans()).map(
            lambda t: ast.IsNull(ast.col(t[0]), negated=t[1])),
        st.sampled_from([True, False, None]).map(
            lambda b: ast.lit(b, DataType.BOOLEAN)))
    if depth == 0:
        return leaf
    sub = full_predicate(depth - 1)
    return st.one_of(
        leaf,
        st.lists(sub, min_size=2, max_size=3).map(lambda cs: ast.And(*cs)),
        st.lists(sub, min_size=2, max_size=3).map(lambda cs: ast.Or(*cs)),
        sub.map(ast.Not),
        st.tuples(sub, sub, sub).map(lambda t: ast.If(*t)))


def _verdict(predicate, zone_map):
    try:
        return prune_partition(predicate, zone_map, FULL_SCHEMA)
    except Exception as error:  # noqa: BLE001 - both sides must agree
        return type(error)


@settings(max_examples=500, deadline=None)
@given(predicate=full_predicate(), rows=full_rows_strategy,
       degraded=st.booleans())
def test_widening_never_changes_a_never_verdict(predicate, rows,
                                                degraded):
    """``prune_partition(p)`` is NEVER iff it is NEVER for
    ``widen_for_pruning(p)``: range derivation applies the §3.1 LIKE
    rewrite itself, so ``FilterPruner`` needs no second pass."""
    zone_map = MicroPartition.from_rows(FULL_SCHEMA, rows).zone_map
    if degraded:
        zone_map = zone_map.without_stats()
    original = _verdict(predicate, zone_map)
    widened = _verdict(widen_for_pruning(predicate), zone_map)
    assert (original is TriState.NEVER) == (widened is TriState.NEVER)
    if not isinstance(original, TriState):
        assert widened is original
