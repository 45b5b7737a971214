"""Filter pruning: min/max pruning for query predicates (§3).

"Using the query's predicates, the query engine attempts to deduce
whether a micro-partition might contain relevant data based on the
partition's metadata." Partitions proven empty of matches are removed
from the scan set; as a byproduct, partitions proven *fully-matching*
(every row qualifies, §4.1) are recorded for LIMIT and top-k pruning.
"""

from __future__ import annotations

from ..expr import ast
from ..expr.pruning import TriState, prune_partition
from ..storage.zonemap import ZoneMap
from ..types import Schema
from .base import VERDICT_CODE, PruneCategory, PruningResult, ScanSet

#: Leaf node types that can in principle interact with min/max metadata.
_PRUNABLE_LEAVES = (ast.Compare, ast.Like, ast.StartsWith, ast.InList,
                    ast.IsNull)


def is_prunable(predicate: ast.Expr) -> bool:
    """Whether a predicate has any chance of pruning with min/max stats.

    Used by workload analyses to separate "no pruning possible" from
    "pruning possible but ineffective" (Figure 4 discussion).
    """
    for node in predicate.walk():
        if isinstance(node, _PRUNABLE_LEAVES) and node.column_refs():
            return True
    return False


class FilterPruner:
    """Prunes a scan set against one predicate.

    One pass over the *original* predicate decides both tests: the
    imprecise LIKE rewrite of §3.1 (``widen_for_pruning``) is applied
    inside range derivation, which tests a LIKE's literal prefix and
    certifies ALWAYS only for a ``prefix%`` pattern, so a partition is
    NEVER under the predicate exactly when it is NEVER under its
    widened form.
    """

    def __init__(self, predicate: ast.Expr, schema: Schema,
                 detect_fully_matching: bool = True):
        self.predicate = predicate
        self.schema = schema
        self.detect_fully_matching = detect_fully_matching
        self.checks = 0

    def classify(self, zone_map: ZoneMap) -> TriState:
        """Classify one partition: NEVER / MAYBE / ALWAYS."""
        self.checks += 1
        verdict = prune_partition(self.predicate, zone_map, self.schema)
        if verdict == TriState.ALWAYS and not self.detect_fully_matching:
            return TriState.MAYBE
        return verdict

    def classify_code(self, zone_map: ZoneMap) -> int:
        """:meth:`classify` as an int8 verdict code."""
        return VERDICT_CODE[self.classify(zone_map)]

    def prune(self, scan_set: ScanSet) -> PruningResult:
        """Apply filter pruning to a whole scan set."""
        codes, _ = scan_set.gather(None, self.classify_code)
        return PruningResult.from_codes(
            PruneCategory.FILTER, scan_set, codes, self.checks)
