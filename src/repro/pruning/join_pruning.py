"""JOIN pruning: probe-side partition skipping from build-side values (§6).

Four steps (§6.1): (1) summarize the build side's join-key values
during the hash join's build phase, (2) ship the summary to the probe
side, (3) match it against probe partitions' min/max metadata, and
(4) prune partitions whose ranges cannot overlap the summary.

The technique is probabilistic in the safe direction (§6.2): it may
keep a partition that has no join partners, but never prunes one that
has. It applies to the probe side of hash joins where probe rows are
not preserved (i.e. inner joins, or the non-preserved side of outer
joins).
"""

from __future__ import annotations

from ..storage.zonemap import ZoneMap
from .base import PruneCategory, PruningResult, ScanSet, pruning_mode
from .stats_index import join_may_join_mask


class JoinPruner:
    """Prunes a probe-side scan set against a build-side summary.

    A :class:`~repro.pruning.summaries.RangeSetSummary` classifies
    the scan set's stats index in one numpy pass
    (:func:`~repro.pruning.stats_index.join_may_join_mask`); entries
    the scan set does not trust the index for, and any other summary
    answering ``might_overlap_range`` (an ``XorFilter``), take
    :meth:`partition_may_join`, the per-partition path that remains
    the differential oracle.
    ``mode`` after :meth:`prune`: see :func:`~.base.pruning_mode`.
    """

    def __init__(self, probe_column: str, summary):
        self.probe_column = probe_column
        self.summary = summary
        self.checks = 0
        self.vector_checks = 0
        self.mode = "fallback"

    @property
    def fallback_checks(self) -> int:
        return self.checks

    def partition_may_join(self, zone_map: ZoneMap) -> bool:
        """Could any row of this partition find a build-side partner?"""
        self.checks += 1
        try:
            stats = zone_map.stats(self.probe_column)
        except Exception:
            return True
        if not stats.present:
            return True  # missing metadata: cannot prune
        if not stats.has_values:
            # All probe keys NULL: NULL never equals anything, so no
            # row of this partition can join.
            return False
        return self.summary.might_overlap_range(stats.min_value,
                                                stats.max_value)

    def prune(self, scan_set: ScanSet) -> PruningResult:
        mask = None
        if len(scan_set):
            mask = join_may_join_mask(scan_set.stats_index,
                                      self.probe_column, self.summary)
        # A may-join answer is a verdict code: False NEVER, True MAYBE.
        codes, from_mask = scan_set.gather(mask, self.partition_may_join)
        self.vector_checks += from_mask
        self.mode = pruning_mode(self.vector_checks, self.checks)
        return PruningResult.from_codes(
            PruneCategory.JOIN, scan_set, codes,
            self.vector_checks + self.checks)
