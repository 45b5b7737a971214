"""Incremental, budgeted recluster engine.

``Catalog.recluster`` rewrites a whole table in one exclusive-lock
critical section — fine for experiments, hostile to a live service.
This engine instead improves layout *one bounded slice at a time*,
following the incremental scheme of "Workload-Aware Incremental
Reclustering in Cloud Data Warehouses" (PAPERS.md): each slice picks
the worst-overlapping partition neighbourhood (zone-map overlap depth
on the leading clustering key), rewrites only that subset sorted by
the keys, and commits through the catalog's existing
``_commit_rewrite``/WAL ``recluster`` path — so durability, predicate
-cache eviction, and result-cache invalidation behave exactly like
any other rewrite.

Budget semantics: a slice never selects more input partitions than fit
in ``budget_bytes`` (measured as the partitions' uncompressed size).
The budget bounds the exclusive-lock hold time and the WAL record
size; convergence comes from repetition, not from big slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import SchemaError
from ..storage.builder import build_table_from_columns
from ..storage.clustering import Layout, clustering_information
from ..storage.micropartition import concat_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..catalog import Catalog
    from ..storage.micropartition import MicroPartition

__all__ = ["ReclusterJob", "SliceReport", "IncrementalReclusterer"]

#: a slice that improves average depth by less than this counts as a
#: stall; two consecutive stalls end the job (guards against budgets
#: too small to merge a neighbourhood that no longer shrinks).
_MIN_IMPROVEMENT = 1e-9
_MAX_STALLS = 2


@dataclass
class ReclusterJob:
    """Mutable state of one table's incremental recluster."""

    table: str
    keys: tuple[str, ...]
    #: max summed input-partition bytes one slice may rewrite
    budget_bytes: int
    #: stop once average overlap depth on the leading key reaches this
    target_depth: float = 1.05
    #: hard slice-count ceiling (safety valve, not the usual exit)
    max_slices: int = 256
    slices: int = 0
    partitions_rewritten: int = 0
    bytes_rewritten: int = 0
    done: bool = False
    reason: str = ""
    _stalls: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self.keys:
            raise SchemaError("recluster job requires at least one key")
        if self.budget_bytes <= 0:
            raise SchemaError("budget_bytes must be positive")
        self.keys = tuple(k.lower() for k in self.keys)


@dataclass(frozen=True)
class SliceReport:
    """What one ``run_slice`` call did (one exclusive-lock hold)."""

    table: str
    keys: tuple[str, ...]
    #: input partitions selected and rewritten this slice
    partitions_selected: int
    #: partitions the rewrite produced
    partitions_written: int
    #: summed input bytes this slice rewrote (<= budget_bytes)
    bytes_rewritten: int
    depth_before: float
    depth_after: float
    done: bool
    reason: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "keys": list(self.keys),
            "partitions_selected": self.partitions_selected,
            "partitions_written": self.partitions_written,
            "bytes_rewritten": self.bytes_rewritten,
            "depth_before": round(self.depth_before, 4),
            "depth_after": round(self.depth_after, 4),
            "done": self.done,
            "reason": self.reason,
        }


class IncrementalReclusterer:
    """Runs budgeted recluster slices against one catalog.

    The caller owns concurrency control: ``run_slice`` mutates the
    table through ``Catalog._commit_rewrite`` and must run under
    whatever exclusive lock protects DML (the service holds its
    writer-preference lock around each slice).
    """

    def __init__(self, catalog: "Catalog"):
        self.catalog = catalog

    # -- slice selection ------------------------------------------------
    @staticmethod
    def _key_ranges(partitions: Sequence["MicroPartition"],
                    key: str) -> list[tuple[int, Any, Any]]:
        """(index, lo, hi) zone-map ranges on ``key``; partitions with
        no usable stats (all-NULL) are skipped — reordering cannot
        tighten a range that does not exist."""
        ranges = []
        for i, partition in enumerate(partitions):
            stats = partition.zone_map.stats(key)
            if stats.min_value is not None:
                ranges.append((i, stats.min_value, stats.max_value))
        return ranges

    @staticmethod
    def _depths(ranges: Sequence[tuple[int, Any, Any]]) -> list[int]:
        """Overlap depth (self included) per entry of ``ranges``."""
        return [
            1 + sum(1 for j, (_, lo_j, hi_j) in enumerate(ranges)
                    if i != j and lo_i <= hi_j and lo_j <= hi_i)
            for i, (_, lo_i, hi_i) in enumerate(ranges)
        ]

    def _select_slice(self, partitions: Sequence["MicroPartition"],
                      key: str, budget_bytes: int
                      ) -> list["MicroPartition"]:
        """The worst-overlapping neighbourhood that fits the budget.

        Seeds on the deepest partition, gathers every partition whose
        range intersects the seed's, and greedily admits them —
        deepest first, smaller first among equals — while the summed
        input bytes stay within budget. Fewer than two admitted
        partitions means no merge is possible under this budget.
        """
        ranges = self._key_ranges(partitions, key)
        if len(ranges) < 2:
            return []
        depths = self._depths(ranges)
        deepest = max(range(len(ranges)), key=depths.__getitem__)
        if depths[deepest] <= 1:
            return []
        _, seed_lo, seed_hi = ranges[deepest]
        neighbourhood = [
            (pos, ranges[pos][0]) for pos in range(len(ranges))
            if ranges[pos][1] <= seed_hi and seed_lo <= ranges[pos][2]
        ]
        neighbourhood.sort(
            key=lambda e: (-depths[e[0]],
                           partitions[e[1]].nbytes(),
                           e[1]))
        selected: list["MicroPartition"] = []
        spent = 0
        for _, index in neighbourhood:
            nbytes = partitions[index].nbytes()
            if spent + nbytes > budget_bytes:
                continue
            selected.append(partitions[index])
            spent += nbytes
        return selected if len(selected) >= 2 else []

    # -- slice execution ------------------------------------------------
    def run_slice(self, job: ReclusterJob) -> SliceReport:
        """Select, rewrite, and commit one budgeted slice.

        Returns a report; sets ``job.done`` when the table converged,
        the budget cannot make further progress, or the slice ceiling
        was hit. A done job performs no rewrite on subsequent calls.
        """
        catalog = self.catalog
        table = catalog._table(job.table)
        key = job.keys[0]
        if key not in table.schema.names():
            raise SchemaError(
                f"unknown clustering key {key!r} for table "
                f"{job.table!r}")

        def depth() -> float:
            return clustering_information(table.partitions,
                                          key).average_depth

        depth_before = depth()
        if job.done:
            return self._report(job, 0, 0, 0, depth_before,
                                depth_before)
        if depth_before <= job.target_depth:
            return self._finish(job, "converged", depth_before)
        if job.slices >= job.max_slices:
            return self._finish(job, "slice limit reached",
                                depth_before)
        selected = self._select_slice(table.partitions, key,
                                      job.budget_bytes)
        if not selected:
            return self._finish(job, "budget too small to merge "
                                "overlapping partitions", depth_before)
        slice_bytes = sum(p.nbytes() for p in selected)
        rebuilt = build_table_from_columns(
            table.name, table.schema,
            concat_columns(table.schema, selected),
            rows_per_partition=catalog.rows_per_partition,
            layout=Layout.sorted_by(*job.keys))
        catalog._commit_rewrite(table, selected, rebuilt.partitions,
                                kind="recluster")
        job.slices += 1
        job.partitions_rewritten += len(selected)
        job.bytes_rewritten += slice_bytes
        depth_after = depth()
        if depth_after <= job.target_depth:
            return self._finish(job, "converged", depth_before,
                                depth_after, selected, rebuilt,
                                slice_bytes)
        if depth_before - depth_after < _MIN_IMPROVEMENT:
            job._stalls += 1
            if job._stalls >= _MAX_STALLS:
                return self._finish(job, "stalled (budget cannot "
                                    "improve depth further)",
                                    depth_before, depth_after,
                                    selected, rebuilt, slice_bytes)
        else:
            job._stalls = 0
        if job.slices >= job.max_slices:
            return self._finish(job, "slice limit reached",
                                depth_before, depth_after, selected,
                                rebuilt, slice_bytes)
        return self._report(job, len(selected),
                            len(rebuilt.partitions), slice_bytes,
                            depth_before, depth_after)

    def _finish(self, job: ReclusterJob, reason: str,
                depth_before: float, depth_after: float | None = None,
                selected: Sequence | None = None, rebuilt=None,
                slice_bytes: int = 0) -> SliceReport:
        job.done = True
        job.reason = reason
        return self._report(
            job,
            len(selected) if selected is not None else 0,
            len(rebuilt.partitions) if rebuilt is not None else 0,
            slice_bytes, depth_before,
            depth_after if depth_after is not None else depth_before)

    def _report(self, job: ReclusterJob, selected: int, written: int,
                slice_bytes: int, depth_before: float,
                depth_after: float) -> SliceReport:
        return SliceReport(
            table=job.table, keys=job.keys,
            partitions_selected=selected, partitions_written=written,
            bytes_rewritten=slice_bytes, depth_before=depth_before,
            depth_after=depth_after, done=job.done, reason=job.reason)
