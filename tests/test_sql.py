"""Tests for the SQL lexer, parser, and planner."""

import datetime

import pytest

from repro.errors import ParseError, PlanError
from repro.expr.ast import (
    And,
    Arith,
    Cast,
    Compare,
    If,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    StartsWith,
    col,
    lit,
)
from repro.plan import logical as L
from repro.sql import parse_select, tokenize
from repro.sql.planner import plan_select
from repro.types import DataType, Schema

TABLES = {
    "t": Schema.of(x=DataType.INTEGER, y=DataType.DOUBLE,
                   s=DataType.VARCHAR, d=DataType.DATE),
    "u": Schema.of(k=DataType.INTEGER, label=DataType.VARCHAR),
}


def resolver(name: str) -> Schema:
    return TABLES[name.lower()]


def plan(sql: str) -> L.LogicalNode:
    return plan_select(parse_select(sql), resolver)


class TestLexer:
    def test_tokens(self):
        tokens = tokenize("SELECT x, 1.5 FROM t WHERE s = 'a''b'")
        kinds = [t.kind for t in tokens]
        assert kinds[-1] == "EOF"
        strings = [t.value for t in tokens if t.kind == "STRING"]
        assert strings == ["a'b"]

    def test_line_comment(self):
        tokens = tokenize("SELECT x -- comment\nFROM t")
        values = [t.value for t in tokens if t.kind == "IDENT"]
        assert values == ["SELECT", "x", "FROM", "t"]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("SELECT 'oops")

    def test_unexpected_char(self):
        with pytest.raises(ParseError):
            tokenize("SELECT #")

    def test_scientific_notation(self):
        tokens = tokenize("SELECT 1.5e3")
        assert any(t.value == "1.5e3" for t in tokens)

    def test_string_token_records_its_start(self):
        tokens = tokenize("SELECT 'ab' FROM t")
        assert [(t.kind, t.pos) for t in tokens[1:3]] == \
            [("STRING", 7), ("IDENT", 12)]

    def test_trailing_string_error_points_at_its_quote(self):
        sql = "SELECT * FROM t WHERE k = 1 'oops'"
        with pytest.raises(ParseError) as raised:
            parse_select(sql)
        assert raised.value.position == sql.index("'") == 28


class TestParser:
    def test_star_and_table(self):
        stmt = parse_select("SELECT * FROM t")
        assert stmt.star
        assert stmt.table.name == "t"

    def test_where_precedence(self):
        stmt = parse_select(
            "SELECT * FROM t WHERE x > 1 AND x < 5 OR s = 'a'")
        assert isinstance(stmt.where, Or)
        assert isinstance(stmt.where.children()[0], And)

    def test_not_like_in_between(self):
        stmt = parse_select(
            "SELECT * FROM t WHERE s NOT LIKE 'a%' AND x IN (1, 2) "
            "AND y BETWEEN 1 AND 2 AND d IS NOT NULL")
        conjuncts = stmt.where.children()
        assert isinstance(conjuncts[0], Not)
        assert isinstance(conjuncts[1], InList)

    def test_arithmetic_precedence(self):
        stmt = parse_select("SELECT * FROM t WHERE x + 2 * 3 = 7")
        comparison = stmt.where
        assert isinstance(comparison.left, Arith)
        assert comparison.left.op == "+"
        assert comparison.left.right.op == "*"

    def test_if_cast_date_functions(self):
        stmt = parse_select(
            "SELECT * FROM t WHERE IF(s = 'feet', x * 2, x) > "
            "CAST(1.0 AS INTEGER) AND d >= DATE '2024-01-01' "
            "AND STARTSWITH(s, 'ab')")
        conjuncts = stmt.where.children()
        assert isinstance(conjuncts[0].left, If)
        assert isinstance(conjuncts[0].right, Cast)
        assert conjuncts[1].right == lit(datetime.date(2024, 1, 1))
        assert isinstance(conjuncts[2], StartsWith)

    def test_joins(self):
        stmt = parse_select(
            "SELECT * FROM t JOIN u ON t.x = u.k "
            "LEFT JOIN u AS v ON t.x = v.k")
        assert len(stmt.joins) == 2
        assert stmt.joins[0].join_type == "inner"
        assert stmt.joins[1].join_type == "left_outer"
        assert stmt.joins[1].table.alias == "v"

    def test_group_order_limit(self):
        stmt = parse_select(
            "SELECT s, count(*) AS c FROM t GROUP BY s "
            "ORDER BY c DESC LIMIT 10 OFFSET 5")
        assert stmt.group_by == ["s"]
        assert stmt.order_by[0].desc
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_aggregates_in_select(self):
        stmt = parse_select("SELECT count(*), sum(x) AS total FROM t")
        assert stmt.items[0].agg_func == "count_star"
        assert stmt.items[1].agg_func == "sum"
        assert stmt.items[1].alias == "total"

    def test_order_by_aggregate(self):
        stmt = parse_select(
            "SELECT s FROM t GROUP BY s ORDER BY max(x) DESC LIMIT 3")
        assert stmt.order_by[0].agg_func == "max"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM t extra stuff ,")

    def test_limit_must_be_integer(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM t LIMIT 1.5")

    def test_semicolon_allowed(self):
        parse_select("SELECT * FROM t;")

    def test_in_requires_literals(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM t WHERE x IN (y)")

    def test_not_between_desugars_to_not_of_between(self):
        for sql in ("SELECT * FROM t WHERE x NOT BETWEEN 2 AND 6",
                    "SELECT * FROM t WHERE NOT (x BETWEEN 2 AND 6)"):
            assert parse_select(sql).where == Not(
                And([Compare(">=", col("x"), lit(2)),
                     Compare("<=", col("x"), lit(6))]))


class TestNotBetween:
    """``k NOT BETWEEN a AND b`` once raised ``unexpected trailing
    input 'NOT'``; it is ``NOT (k BETWEEN a AND b)``: NULL stays out,
    and reversed bounds make BETWEEN empty, so NOT BETWEEN keeps every
    non-NULL row."""

    KS = [1, 2, 3, None, 5, 6, 7, 8, None, 10]

    @pytest.fixture(scope="class")
    def catalog(self):
        from repro import Catalog

        catalog = Catalog(rows_per_partition=2)
        catalog.create_table_from_rows(
            "t", Schema.of(k=DataType.INTEGER), [(k,) for k in self.KS])
        return catalog

    @pytest.mark.parametrize("lo, hi, want", [
        (2, 6, [1, 7, 8, 10]),
        (6, 2, [1, 2, 3, 5, 6, 7, 8, 10]),
        (1, 10, []),
    ])
    def test_both_spellings_same_rows_and_pruning(self, catalog, lo, hi,
                                                  want):
        results = [catalog.sql(f"SELECT k FROM t WHERE {where}")
                   for where in (f"k NOT BETWEEN {lo} AND {hi}",
                                 f"NOT (k BETWEEN {lo} AND {hi})")]
        for result in results:
            assert sorted(k for (k,) in result.rows) == want
        kept = [r.profile.scans[0].filter_result.kept.partition_ids
                for r in results]
        assert kept[0] == kept[1]
        if lo == 1:
            assert kept[0] == []  # every partition pruned


class TestPlanner:
    def test_simple_scan(self):
        node = plan("SELECT * FROM t")
        assert isinstance(node, L.LogicalScan)

    def test_where_becomes_filter(self):
        node = plan("SELECT * FROM t WHERE x > 1")
        assert isinstance(node, L.LogicalFilter)

    def test_projection(self):
        node = plan("SELECT x, y * 2 AS y2 FROM t")
        assert isinstance(node, L.LogicalProject)
        assert node.names == ["x", "y2"]

    def test_qualified_refs_resolved(self):
        node = plan("SELECT * FROM t JOIN u ON t.x = u.k "
                    "WHERE u.label = 'a'")
        assert isinstance(node, L.LogicalFilter)
        assert node.predicate == Compare("=", col("label"), lit("a"))

    def test_join_key_sides_normalized(self):
        # Condition written backwards still resolves.
        node = plan("SELECT * FROM t JOIN u ON u.k = t.x")
        assert isinstance(node, L.LogicalJoin)
        assert node.left_key == "x"
        assert node.right_key == "k"

    def test_unknown_column_rejected(self):
        with pytest.raises(PlanError):
            plan("SELECT * FROM t WHERE nope > 1")

    def test_ambiguous_column_rejected(self):
        tables = {
            "a": Schema.of(x=DataType.INTEGER),
            "b": Schema.of(x=DataType.INTEGER),
        }
        with pytest.raises(PlanError):
            plan_select(
                parse_select("SELECT * FROM a JOIN b ON a.x = b.x "
                             "WHERE x > 1"),
                lambda n: tables[n])

    def test_order_limit_becomes_sort_limit(self):
        node = plan("SELECT * FROM t ORDER BY x DESC LIMIT 5")
        assert isinstance(node, L.LogicalLimit)
        assert isinstance(node.child, L.LogicalSort)
        assert node.child.keys[0] == L.SortItem("x", True)

    def test_order_by_expression_gets_hidden_column(self):
        node = plan("SELECT x FROM t ORDER BY abs(y) LIMIT 3")
        # strip projection on top
        assert isinstance(node, L.LogicalProject)
        assert node.names == ["x"]
        assert isinstance(node.child, L.LogicalLimit)

    def test_group_by_aggregate_plan(self):
        node = plan("SELECT s, count(*) AS c FROM t GROUP BY s")
        assert isinstance(node, L.LogicalProject)
        assert isinstance(node.child, L.LogicalAggregate)
        agg = node.child
        assert agg.group_keys == ["s"]
        assert agg.aggs[0].func == "count_star"

    def test_order_by_hidden_aggregate(self):
        node = plan("SELECT s FROM t GROUP BY s "
                    "ORDER BY sum(x) DESC LIMIT 2")
        # strip project above limit above sort
        assert isinstance(node, L.LogicalProject)
        assert node.names == ["s"]

    def test_non_group_key_select_rejected(self):
        with pytest.raises(PlanError):
            plan("SELECT x, count(*) FROM t GROUP BY s")

    def test_star_with_group_by_rejected(self):
        with pytest.raises(PlanError):
            plan("SELECT * FROM t GROUP BY s")

    def test_aggregate_argument_must_be_column(self):
        with pytest.raises(PlanError):
            plan("SELECT sum(x + 1) FROM t")

    def test_shape_excludes_literals(self):
        a = plan("SELECT * FROM t WHERE x > 5 LIMIT 3").shape()
        b = plan("SELECT * FROM t WHERE x > 99 LIMIT 7").shape()
        assert a == b

    def test_shape_distinguishes_structure(self):
        a = plan("SELECT * FROM t WHERE x > 5").shape()
        b = plan("SELECT * FROM t WHERE x > 5 AND s = 'a'").shape()
        assert a != b
