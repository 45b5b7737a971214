"""Adaptive pruning trees: filter reordering and cutoff (§3.2, Fig. 3).

Compile-time pruning evaluates a tree of filter predicates against each
partition's metadata. Two adaptations keep that affordable on huge
tables:

* **Reordering** — children of AND/OR nodes are freely reorderable.
  Under AND, fast and highly pruning filters go first (they shrink work
  via short-circuit); under OR, fast filters *unlikely* to prune go
  first (any not-pruned child short-circuits the OR).
* **Cutoff** — a filter that is slow or ineffective is dropped from
  pruning (it is still applied during execution). Only nodes directly
  below an AND may be cut: cutting an OR child would make the whole OR
  unable to prune, so the OR itself is what gets cut, recursively.

Both adaptations rely on monitored per-node statistics: evaluation
count, decisive-prune count, and simulated evaluation cost (we charge
cost units proportional to expression size, converted to milliseconds
by the cost model, so experiments are deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..expr import ast
from ..expr.pruning import TriState, prune_partition
from ..expr.rewrite import widen_for_pruning
from ..storage.zonemap import ZoneMap
from ..types import Schema
from .base import VERDICT_CODE, PruneCategory, PruningResult, ScanSet


@dataclass
class TreeConfig:
    """Tuning knobs for the adaptive behaviour."""

    enable_reorder: bool = True
    enable_cutoff: bool = True
    #: re-sort a node's children every this many evaluations
    reorder_interval: int = 32
    #: minimum evaluations before a node may be cut off
    cutoff_min_samples: int = 64
    #: simulated cost (ms) of one pruning check per expression node
    check_ms_per_unit: float = 0.002
    #: estimated cost (ms) of scanning one partition if not pruned;
    #: the continue-vs-stop model compares pruning cost against this
    partition_scan_ms: float = 5.0


@dataclass
class NodeStats:
    """Monitoring data for one tree node."""

    label: str
    evaluations: int = 0
    decisive_prunes: int = 0
    cost_units_spent: int = 0
    cut: bool = False

    @property
    def prune_rate(self) -> float:
        if self.evaluations == 0:
            return 0.0
        return self.decisive_prunes / self.evaluations

    @property
    def avg_cost_units(self) -> float:
        if self.evaluations == 0:
            return 0.0
        return self.cost_units_spent / self.evaluations


class _Node:
    """Base tree node; subclasses return (verdict, cost_units)."""

    def __init__(self, label: str):
        self.stats = NodeStats(label)
        #: the (sub)predicate this node evaluates, for deferral
        self.expr: ast.Expr | None = None

    def verdict(self, zone_map: ZoneMap) -> tuple[TriState, int]:
        raise NotImplementedError

    def iter_nodes(self):
        yield self


class _Leaf(_Node):
    """A single prunable predicate."""

    def __init__(self, expr: ast.Expr, schema: Schema):
        super().__init__(expr.to_sql())
        self.expr = expr
        self.widened = widen_for_pruning(expr)
        self.schema = schema
        self.cost_units = sum(1 for _ in expr.walk())

    def verdict(self, zone_map: ZoneMap) -> tuple[TriState, int]:
        if self.stats.cut:
            return TriState.MAYBE, 0
        self.stats.evaluations += 1
        self.stats.cost_units_spent += self.cost_units
        result = prune_partition(self.widened, zone_map, self.schema)
        if result == TriState.NEVER:
            self.stats.decisive_prunes += 1
            return TriState.NEVER, self.cost_units
        return TriState.MAYBE, self.cost_units


class _Branch(_Node):
    """Shared AND/OR behaviour: ordered children plus reordering."""

    def __init__(self, label: str, children: Sequence[_Node],
                 config: TreeConfig):
        super().__init__(label)
        self.children = list(children)
        self.config = config

    def iter_nodes(self):
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def _maybe_reorder(self) -> None:
        if not self.config.enable_reorder:
            return
        if self.stats.evaluations % self.config.reorder_interval != 0:
            return
        self.children.sort(key=self._priority, reverse=True)

    def _priority(self, child: _Node) -> float:
        raise NotImplementedError


class _And(_Branch):
    def __init__(self, children: Sequence[_Node], config: TreeConfig):
        super().__init__("AND", children, config)

    def _priority(self, child: _Node) -> float:
        # Effective-and-cheap first: prune probability per cost unit.
        cost = max(child.stats.avg_cost_units, 1e-9)
        return child.stats.prune_rate / cost

    def verdict(self, zone_map: ZoneMap) -> tuple[TriState, int]:
        if self.stats.cut:
            return TriState.MAYBE, 0
        self.stats.evaluations += 1
        self._maybe_reorder()
        spent = 0
        for child in self.children:
            result, cost = child.verdict(zone_map)
            spent += cost
            if result == TriState.NEVER:
                # Short-circuit: one pruning child decides the AND.
                self.stats.decisive_prunes += 1
                self.stats.cost_units_spent += spent
                return TriState.NEVER, spent
        self.stats.cost_units_spent += spent
        return TriState.MAYBE, spent


class _Or(_Branch):
    def __init__(self, children: Sequence[_Node], config: TreeConfig):
        super().__init__("OR", children, config)

    def _priority(self, child: _Node) -> float:
        # Cheap filters unlikely to prune first: any non-pruning child
        # short-circuits the OR to MAYBE.
        cost = max(child.stats.avg_cost_units, 1e-9)
        return (1.0 - child.stats.prune_rate) / cost

    def verdict(self, zone_map: ZoneMap) -> tuple[TriState, int]:
        self.stats.evaluations += 1
        self._maybe_reorder()
        spent = 0
        for child in self.children:
            result, cost = child.verdict(zone_map)
            spent += cost
            if result != TriState.NEVER:
                self.stats.cost_units_spent += spent
                return TriState.MAYBE, spent
        self.stats.decisive_prunes += 1
        self.stats.cost_units_spent += spent
        return TriState.NEVER, spent


class PruningTree:
    """Adaptive pruning over a predicate's boolean structure."""

    def __init__(self, predicate: ast.Expr, schema: Schema,
                 config: TreeConfig | None = None):
        self.schema = schema
        self.config = config or TreeConfig()
        self.root = self._build(predicate)
        self.partitions_seen = 0
        self.simulated_ms = 0.0

    def _build(self, expr: ast.Expr) -> _Node:
        if isinstance(expr, ast.And):
            node: _Node = _And(
                [self._build(c) for c in expr.children()], self.config)
        elif isinstance(expr, ast.Or):
            node = _Or([self._build(c) for c in expr.children()],
                       self.config)
        else:
            node = _Leaf(expr, self.schema)
        node.expr = expr
        return node

    def classify(self, zone_map: ZoneMap) -> TriState:
        """NEVER/MAYBE verdict for one partition, updating statistics."""
        self.partitions_seen += 1
        verdict, cost = self.root.verdict(zone_map)
        self.simulated_ms += cost * self.config.check_ms_per_unit
        if self.config.enable_cutoff:
            self._apply_cutoffs()
        return verdict

    def _apply_cutoffs(self) -> None:
        """Cut slow/ineffective nodes sitting directly below an AND.

        Continue-vs-stop model (§3.2): keeping a pruner is worth it when
        its expected saving per partition — prune_rate x scan cost —
        exceeds its expected checking cost. Nodes failing that test are
        cut; their filters still run at execution time.
        """
        config = self.config
        for node in self.root.iter_nodes():
            if not isinstance(node, _And):
                continue
            for child in node.children:
                stats = child.stats
                if stats.cut:
                    continue
                if stats.evaluations < config.cutoff_min_samples:
                    continue
                expected_saving = (stats.prune_rate
                                   * config.partition_scan_ms)
                expected_cost = (stats.avg_cost_units
                                 * config.check_ms_per_unit)
                if expected_saving < expected_cost:
                    stats.cut = True

    def prune(self, scan_set: ScanSet) -> PruningResult:
        codes, _ = scan_set.gather(
            None, lambda zone_map: VERDICT_CODE[self.classify(zone_map)])
        return PruningResult.from_codes(
            PruneCategory.FILTER, scan_set, codes, self.partitions_seen)

    def node_stats(self) -> list[NodeStats]:
        """Flat monitoring snapshot of every node (root first)."""
        return [node.stats for node in self.root.iter_nodes()]

    def cut_predicates(self) -> list[ast.Expr]:
        """Predicates of topmost cut-off nodes.

        These are the filters whose compile-time pruning was halted;
        §3.2 notes their pruning "might still be deferred to the highly
        parallel query execution stage".
        """
        cut: list[ast.Expr] = []
        self._collect_cut(self.root, cut)
        return cut

    def _collect_cut(self, node: _Node, out: list[ast.Expr]) -> None:
        if node.stats.cut:
            if node.expr is not None:
                out.append(node.expr)
            return  # children of a cut node are subsumed
        if isinstance(node, _Branch):
            for child in node.children:
                self._collect_cut(child, out)
