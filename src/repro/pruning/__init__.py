"""Partition pruning techniques (the paper's core contribution).

* :mod:`.base` — scan sets, pruning results, and shared statistics;
* :mod:`.filter_pruning` — min/max filter pruning (§3);
* :mod:`.pruning_tree` — adaptive filter reordering and cutoff (§3.2);
* :mod:`.fully_matching` — fully-matching partition detection (§4.2);
* :mod:`.limit_pruning` — scan-set minimization for LIMIT queries (§4);
* :mod:`.topk_pruning` — boundary-based runtime pruning for top-k (§5);
* :mod:`.summaries` — the build-side value summary (§6.1);
* :mod:`.join_pruning` — probe-side partition pruning for joins (§6);
* :mod:`.flow` — the combined pruning pipeline and per-query records (§7);
* :mod:`.predicate_cache` — query-driven partition caching (§8.2);
* :mod:`.stats_index` — vectorized zone-map index and pruning kernels;
* :mod:`.sketches` — secondary per-partition sketches (n-gram filters,
  dictionaries, histograms).
"""

from .base import PruneCategory, PruningResult, ScanSet
from .filter_pruning import FilterPruner
from .stats_index import (
    PruningKernel,
    StatsIndex,
    VectorizedFilterPruner,
    compile_pruning_kernel,
)
from .fully_matching import find_fully_matching_inverted
from .limit_pruning import LimitPruneOutcome, LimitPruner
from .topk_pruning import (
    Boundary,
    OrderStrategy,
    TopKPruner,
    initialize_boundary,
)
from .join_pruning import JoinPruner
from .summaries import RangeSetSummary
from .predicate_cache import PredicateCache
from .flow import FlowRecord, PruningFlow
from .sketches import (
    PartitionSketches,
    SketchConfig,
    SketchIndex,
    SketchPruner,
    build_sketches,
    compile_sketch_probes,
    is_sketch_prunable,
)

__all__ = [
    "PruneCategory",
    "PruningResult",
    "ScanSet",
    "FilterPruner",
    "find_fully_matching_inverted",
    "LimitPruneOutcome",
    "LimitPruner",
    "Boundary",
    "OrderStrategy",
    "TopKPruner",
    "initialize_boundary",
    "JoinPruner",
    "RangeSetSummary",
    "PredicateCache",
    "FlowRecord",
    "PruningFlow",
    "PruningKernel",
    "StatsIndex",
    "VectorizedFilterPruner",
    "compile_pruning_kernel",
    "PartitionSketches",
    "SketchConfig",
    "SketchIndex",
    "SketchPruner",
    "build_sketches",
    "compile_sketch_probes",
    "is_sketch_prunable",
]
