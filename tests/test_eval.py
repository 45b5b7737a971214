"""Tests for vectorized evaluation with three-valued logic."""

import datetime

import numpy as np
import pytest

from repro import Catalog
from repro.errors import ExecutionError
from repro.expr.ast import (
    And,
    Arith,
    Cast,
    ColumnRef,
    Compare,
    Contains,
    EndsWith,
    FunctionCall,
    If,
    InList,
    IsNull,
    Like,
    Literal,
    Neg,
    Not,
    Or,
    StartsWith,
    col,
    lit,
)
from repro.expr.eval import evaluate, evaluate_predicate
from repro.storage.column import Column
from repro.types import DataType, Schema

SCHEMA = Schema.of(x=DataType.INTEGER, y=DataType.DOUBLE,
                   s=DataType.VARCHAR, b=DataType.BOOLEAN,
                   d=DataType.DATE)


def make_chunk(**data):
    columns = {}
    for name, values in data.items():
        dtype = SCHEMA.dtype_of(name)
        columns[name] = Column.from_pylist(dtype, values)
    return columns


def run(expr, **data):
    return evaluate(expr, make_chunk(**data), SCHEMA).to_pylist()


class TestLeaves:
    def test_column(self):
        assert run(col("x"), x=[1, None, 3]) == [1, None, 3]

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError):
            evaluate(col("x"), {}, SCHEMA)

    def test_literal_broadcast(self):
        assert run(lit(7), x=[1, 2]) == [7, 7]

    def test_null_literal(self):
        assert run(Literal(None, DataType.INTEGER), x=[1, 2]) == \
            [None, None]


class TestArithmetic:
    def test_basic_ops(self):
        assert run(Arith("+", col("x"), lit(1)), x=[1, 2]) == [2, 3]
        assert run(Arith("-", col("x"), lit(1)), x=[1, 2]) == [0, 1]
        assert run(Arith("*", col("x"), lit(3)), x=[2]) == [6]

    def test_null_propagation(self):
        assert run(Arith("+", col("x"), lit(1)), x=[None, 2]) == \
            [None, 3]

    def test_division_returns_double(self):
        assert run(Arith("/", col("x"), lit(2)), x=[5]) == [2.5]

    def test_division_by_zero_is_null(self):
        assert run(Arith("/", col("x"), lit(0)), x=[5]) == [None]

    def test_modulo(self):
        assert run(Arith("%", col("x"), lit(3)), x=[7, 9]) == [1, 0]

    def test_modulo_takes_the_sign_of_the_dividend(self):
        """SQL's ``%`` truncates (C ``fmod``); Python's floors."""
        assert run(Arith("%", col("x"), lit(2)),
                   x=[-3, 3, -4]) == [-1, 1, 0]
        assert run(Arith("%", col("x"), lit(-2)), x=[-3, 3]) == [-1, 1]
        assert run(Arith("%", col("y"), lit(2.0)),
                   y=[-3.5, 3.5]) == [-1.5, 1.5]
        catalog = Catalog(rows_per_partition=4)
        catalog.create_table_from_rows(
            "t", Schema.of(v=DataType.INTEGER, d=DataType.DOUBLE),
            [(i, i + 0.5) for i in range(-5, 6)])
        assert catalog.sql("SELECT v % 2 FROM t WHERE v = -3").rows \
            == [(-1,)]
        assert catalog.sql(
            "SELECT v FROM t WHERE v % 2 = -1").rows \
            == [(-5,), (-3,), (-1,)]
        assert catalog.sql("SELECT v FROM t WHERE v % 2 = 1").rows \
            == [(1,), (3,), (5,)]
        assert catalog.sql(
            "SELECT v FROM t WHERE d % 2.0 = -1.5").rows \
            == [(-4,), (-2,)]

    def test_modulo_by_zero_is_null(self):
        assert run(Arith("%", col("x"), lit(0)), x=[7]) == [None]

    def test_negation(self):
        assert run(Neg(col("x")), x=[5, None]) == [-5, None]


class TestComparisons:
    def test_all_operators(self):
        data = dict(x=[1, 2, 3])
        assert run(Compare("=", col("x"), lit(2)), **data) == \
            [False, True, False]
        assert run(Compare("<>", col("x"), lit(2)), **data) == \
            [True, False, True]
        assert run(Compare("<", col("x"), lit(2)), **data) == \
            [True, False, False]
        assert run(Compare("<=", col("x"), lit(2)), **data) == \
            [True, True, False]
        assert run(Compare(">", col("x"), lit(2)), **data) == \
            [False, False, True]
        assert run(Compare(">=", col("x"), lit(2)), **data) == \
            [False, True, True]

    def test_null_comparison_is_null(self):
        assert run(Compare("=", col("x"), lit(1)), x=[None]) == [None]

    def test_string_comparison(self):
        assert run(Compare("<", col("s"), lit("m")),
                   s=["apple", "pear"]) == [True, False]

    def test_date_comparison(self):
        d1 = datetime.date(2024, 1, 1)
        d2 = datetime.date(2024, 6, 1)
        assert run(Compare("<", col("d"), lit(d2)), d=[d1, d2]) == \
            [True, False]

    def test_column_to_column(self):
        assert run(Compare("<", col("x"), col("y")),
                   x=[1, 5], y=[2.0, 2.0]) == [True, False]


class TestKleeneLogic:
    TRUE, FALSE, NULL = True, False, None

    def test_and_truth_table(self):
        b1 = [True, True, True, False, False, False, None, None, None]
        b2 = [True, False, None, True, False, None, True, False, None]
        expected = [True, False, None, False, False, False, None,
                    False, None]
        assert run(And(col("b"), Compare("=", col("x"), lit(1))),
                   b=b1, x=[1 if v is True else (0 if v is False
                            else None) for v in b2]) == expected

    def test_or_truth_table(self):
        b1 = [True, True, True, False, False, False, None, None, None]
        b2 = [True, False, None, True, False, None, True, False, None]
        expected = [True, True, True, True, False, None, True, None,
                    None]
        assert run(Or(col("b"), Compare("=", col("x"), lit(1))),
                   b=b1, x=[1 if v is True else (0 if v is False
                            else None) for v in b2]) == expected

    def test_not(self):
        assert run(Not(col("b")), b=[True, False, None]) == \
            [False, True, None]

    def test_predicate_mask_excludes_null(self):
        mask = evaluate_predicate(col("b"),
                                  make_chunk(b=[True, False, None]),
                                  SCHEMA)
        assert list(mask) == [True, False, False]

    def test_predicate_requires_boolean(self):
        with pytest.raises(ExecutionError):
            evaluate_predicate(col("x"), make_chunk(x=[1]), SCHEMA)


class TestIf:
    def test_branch_selection(self):
        expr = If(Compare(">", col("x"), lit(0)), lit(1), lit(-1))
        assert run(expr, x=[5, -5]) == [1, -1]

    def test_null_condition_takes_else(self):
        expr = If(col("b"), lit(1), lit(-1))
        assert run(expr, b=[None]) == [-1]

    def test_null_branches(self):
        expr = If(col("b"), Literal(None, DataType.INTEGER), col("x"))
        assert run(expr, b=[True, False], x=[9, 9]) == [None, 9]

    def test_paper_example_unit_conversion(self):
        # IF(unit='feet', altit * 0.3048, altit) from §3
        schema = Schema.of(unit=DataType.VARCHAR, altit=DataType.INTEGER)
        expr = If(Compare("=", col("unit"), lit("feet")),
                  Arith("*", col("altit"), lit(0.3048)), col("altit"))
        chunk = {
            "unit": Column.from_pylist(DataType.VARCHAR,
                                       ["feet", "meters"]),
            "altit": Column.from_pylist(DataType.INTEGER, [1000, 1000]),
        }
        result = evaluate(expr, chunk, schema).to_pylist()
        assert result == [pytest.approx(304.8), 1000.0]


class TestStrings:
    def test_like(self):
        expr = Like(col("s"), "Marked-%-Ridge")
        assert run(expr, s=["Marked-North-Ridge", "Marked-South",
                            None]) == [True, False, None]

    def test_like_underscore(self):
        assert run(Like(col("s"), "a_c"), s=["abc", "ac"]) == \
            [True, False]

    def test_like_special_chars_escaped(self):
        assert run(Like(col("s"), "a.c"), s=["a.c", "abc"]) == \
            [True, False]

    def test_startswith_endswith_contains(self):
        data = dict(s=["alpine ibex", "ibex", None])
        assert run(StartsWith(col("s"), "alp"), **data) == \
            [True, False, None]
        assert run(EndsWith(col("s"), "ibex"), **data) == \
            [True, True, None]
        assert run(Contains(col("s"), "ne i"), **data) == \
            [True, False, None]

    def test_upper_lower_length(self):
        assert run(FunctionCall("upper", [col("s")]), s=["aB", None]) \
            == ["AB", None]
        assert run(FunctionCall("lower", [col("s")]), s=["aB"]) == \
            ["ab"]
        assert run(FunctionCall("length", [col("s")]),
                   s=["abc", None]) == [3, None]


class TestInListAndNulls:
    def test_in_list(self):
        assert run(InList(col("x"), [1, 3]), x=[1, 2, None]) == \
            [True, False, None]

    def test_in_list_with_null_member(self):
        # x IN (1, NULL): TRUE if x=1, else NULL.
        assert run(InList(col("x"), [1, None]), x=[1, 2]) == \
            [True, None]

    def test_is_null(self):
        assert run(IsNull(col("x")), x=[1, None]) == [False, True]
        assert run(IsNull(col("x"), negated=True), x=[1, None]) == \
            [True, False]


class TestFunctionsAndCast:
    def test_abs_ceil_floor_round(self):
        assert run(FunctionCall("abs", [col("x")]), x=[-5, 5]) == [5, 5]
        assert run(FunctionCall("ceil", [col("y")]), y=[1.2]) == [2]
        assert run(FunctionCall("floor", [col("y")]), y=[1.8]) == [1]
        assert run(FunctionCall("round", [col("y")]), y=[1.6]) == [2]

    def test_coalesce(self):
        expr = FunctionCall("coalesce", [col("x"), lit(0)])
        assert run(expr, x=[None, 7]) == [0, 7]

    def test_least_greatest(self):
        assert run(FunctionCall("least", [col("x"), lit(5)]),
                   x=[3, 9]) == [3, 5]
        assert run(FunctionCall("greatest", [col("x"), lit(5)]),
                   x=[3, 9]) == [5, 9]

    def test_least_null_propagates(self):
        assert run(FunctionCall("least", [col("x"), lit(5)]),
                   x=[None]) == [None]

    def test_date_extraction(self):
        d = datetime.date(2024, 11, 5)
        assert run(FunctionCall("year", [col("d")]), d=[d]) == [2024]
        assert run(FunctionCall("month", [col("d")]), d=[d]) == [11]
        assert run(FunctionCall("day", [col("d")]), d=[d]) == [5]

    def test_cast_truncates(self):
        assert run(Cast(col("y"), DataType.INTEGER), y=[1.9, -1.9]) == \
            [1, -1]

    def test_cast_int_to_double(self):
        assert run(Cast(col("x"), DataType.DOUBLE), x=[3]) == [3.0]


class TestSegmentedRegexCache:
    """The shared LIKE-pattern cache must be bounded and scan-resistant."""

    def _fresh(self, maxsize=32):
        from repro.expr.eval import _SegmentedRegexCache

        return _SegmentedRegexCache(maxsize=maxsize)

    def test_compiles_and_hits(self):
        cache = self._fresh()
        first = cache("a%b_c")
        again = cache("a%b_c")
        assert first is again
        assert cache.misses == 1 and cache.hits == 1
        assert first.fullmatch("aXXbYc")
        assert not first.fullmatch("nope")

    def test_adversarial_scan_cannot_evict_hot_patterns(self):
        cache = self._fresh(maxsize=32)
        hot = [f"hot-{i}%" for i in range(8)]
        for pattern in hot:
            cache(pattern)
            cache(pattern)  # second touch promotes to protected
        # An adversarial stream of high-cardinality one-shot patterns,
        # far larger than the cache, churns through probation.
        for i in range(10 * 32):
            cache(f"adversarial-{i}%")
        for pattern in hot:
            assert pattern in cache
        hits_before = cache.hits
        for pattern in hot:
            assert cache(pattern) is not None
        assert cache.hits == hits_before + len(hot)

    def test_stays_bounded_under_churn(self):
        cache = self._fresh(maxsize=16)
        for i in range(1000):
            cache(f"p{i}%")
            if i % 3 == 0:
                cache(f"p{i}%")  # promote a third of them
        assert len(cache._protected) <= cache._protected_cap
        assert len(cache._probation) <= cache._probation_cap

    def test_module_cache_used_by_like(self):
        from repro.expr.eval import _like_regex

        run(Like(col("s"), "uniq_module_probe%"), s=["uniq_module_probeX"])
        assert "uniq_module_probe%" in _like_regex

    def test_concurrent_mixed_workload_is_safe(self):
        import threading

        cache = self._fresh(maxsize=64)
        errors = []

        def worker(seed):
            try:
                for i in range(200):
                    cache(f"shared-{i % 10}%")
                    cache(f"private-{seed}-{i}%")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(10):
            assert f"shared-{i}%" in cache


class TestNulSuffixedStrings:
    """Object lanes meet str scalars only as 1-element object arrays:
    numpy makes a bare str fixed-width and drops its trailing NULs, so
    ``'a\\x00'`` once compared as ``'a'``."""

    @pytest.fixture(scope="class")
    def catalog(self):
        catalog = Catalog(rows_per_partition=2)
        catalog.create_table_from_rows(
            "t", Schema.of(k=DataType.INTEGER, s=DataType.VARCHAR),
            [(1, "a"), (5, "a\x00"), (9, ""), (None, "\x00")])
        return catalog

    @pytest.mark.parametrize("where, want", [
        ("s = 'a\x00'", [5]),
        ("s = '\x00'", [None]),
        ("s < 'a\x00'", [1, 9, None]),
        ("s IN ('a\x00')", [5]),
        ("s IN ('\x00', 'a')", [1, None]),
        ("s <> 'a\x00'", [1, 9, None]),
    ])
    def test_row_filter(self, catalog, where, want):
        rows = catalog.sql(f"SELECT k FROM t WHERE {where}").rows
        assert sorted(rows, key=repr) == sorted(((k,) for k in want),
                                                key=repr)

    def test_constant_column_keeps_nuls(self):
        column = Column.constant(DataType.VARCHAR, "a\x00", 3)
        assert column.values.tolist() == ["a\x00"] * 3

    def test_no_bare_comparison_of_a_lane_with_a_scalar(self):
        """A guard, not a proof: in ``expr/eval.py`` a ``.values`` lane
        is compared only with another lane, a number, or a name bound
        from ``object_scalar(...)``."""
        import ast as pyast
        from pathlib import Path

        from repro.expr import eval as eval_module

        tree = pyast.parse(Path(eval_module.__file__).read_text())
        wrapped = {target.id for node in pyast.walk(tree)
                   if isinstance(node, pyast.Assign)
                   and "object_scalar(" in pyast.unparse(node.value)
                   for target in node.targets
                   if isinstance(target, pyast.Name)}

        def lane(node):
            return isinstance(node, pyast.Attribute) and node.attr == "values"

        def allowed(node):
            return (lane(node) or (isinstance(node, pyast.Name)
                                   and node.id in wrapped)
                    or (isinstance(node, pyast.Constant)
                        and isinstance(node.value, (int, float))))

        checked = 0
        for node in pyast.walk(tree):
            if isinstance(node, pyast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(lane, operands)):
                    checked += 1
                    assert all(map(allowed, operands)), pyast.unparse(node)
        assert checked  # the IN list's probe
