"""Physical layout strategies for partition construction.

How data is distributed among micro-partitions determines how much
pruning is possible (§1, §5.3): fully sorted tables give tight,
non-overlapping zone maps; random layouts give wide, overlapping ones.
The paper treats layout as a given; this module lets experiments vary
it explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from ..types import Schema
from .column import Column, columns_from_rows


@dataclass(frozen=True)
class Layout:
    """A declarative description of a table's physical row order.

    Kinds:
      * ``sorted``    — total order on ``keys``; zone maps barely overlap.
      * ``clustered`` — sorted on ``keys`` then locally shuffled within a
        window of ``jitter`` rows; models imperfect natural clustering
        (e.g. event time with late arrivals).
      * ``random``    — uniform shuffle; worst case for pruning.
    """

    kind: str
    keys: tuple[str, ...] = ()
    jitter: int = 0
    seed: int = 0

    @classmethod
    def sorted_by(cls, *keys: str) -> "Layout":
        return cls(kind="sorted", keys=tuple(k.lower() for k in keys))

    @classmethod
    def clustered_by(cls, *keys: str, jitter: int = 1000,
                     seed: int = 0) -> "Layout":
        return cls(kind="clustered", keys=tuple(k.lower() for k in keys),
                   jitter=jitter, seed=seed)

    @classmethod
    def random(cls, seed: int = 0) -> "Layout":
        return cls(kind="random", seed=seed)

    @classmethod
    def natural(cls) -> "Layout":
        """Keep insertion order (no reordering)."""
        return cls(kind="natural")

    def permutation(self, schema: Schema, columns: Mapping[str, Column],
                    n: int) -> np.ndarray:
        """Row indices of ``n`` rows in this layout's order; ``columns``
        holds at least the keys, NULL slots at their dummy values. Sorts
        are stable, NULL first and NaN after every value, like ORDER BY.
        """
        if self.kind == "natural":
            return np.arange(n)
        if self.kind == "random":
            order = list(range(n))
            random.Random(self.seed).shuffle(order)
            return np.array(order, dtype=np.intp)
        if self.kind not in ("sorted", "clustered"):
            raise SchemaError(f"unknown layout kind {self.kind!r}")
        if not self.keys:
            raise SchemaError(f"layout {self.kind!r} requires keys")
        sort_keys = []
        for key in reversed(self.keys):  # np.lexsort: last key is primary
            column = columns[schema.field(key).name]
            sort_keys += [column.values, ~column.nulls]
        order = np.lexsort(tuple(sort_keys))
        if self.kind == "clustered" and self.jitter > 0:
            rng = random.Random(self.seed)
            order = order.tolist()
            # Local shuffles: each row may swap with a neighbour within
            # the jitter window, preserving coarse order.
            for i in range(n):
                j = min(n - 1, max(0, i + rng.randint(
                    -self.jitter, self.jitter)))
                order[i], order[j] = order[j], order[i]
            order = np.array(order, dtype=np.intp)
        return order


def apply_layout(schema: Schema, rows: Sequence[Sequence[Any]],
                 layout: Layout) -> list[Any]:
    """Return rows reordered according to ``layout``."""
    rows = list(rows)
    order = layout.permutation(schema, columns_from_rows(schema, rows),
                               len(rows))
    return [rows[i] for i in order.tolist()]


@dataclass
class OverlapReport:
    """Measures how much partition zone maps overlap on one column.

    ``mean_overlap`` is the average, over partitions, of the number of
    *other* partitions whose [min, max] range intersects it. 0 means a
    perfectly sorted layout.
    """

    column: str
    mean_overlap: float
    max_overlap: int
    ranges: list[tuple[Any, Any]] = field(repr=False, default_factory=list)


@dataclass
class ClusteringInfo:
    """Clustering health of one column, à la Snowflake's
    SYSTEM$CLUSTERING_INFORMATION.

    ``average_overlaps`` counts, per partition, how many *other*
    partitions its [min, max] range intersects; ``average_depth`` is
    that count plus one (the partition itself); ``depth_histogram``
    buckets partitions by their depth. 1.0 average depth means a
    perfectly clustered (constant-free, non-overlapping) layout.
    """

    column: str
    partition_count: int
    average_overlaps: float
    average_depth: float
    max_depth: int
    depth_histogram: dict[int, int]

    def __str__(self) -> str:
        buckets = ", ".join(f"depth {d}: {c}"
                            for d, c in sorted(
                                self.depth_histogram.items()))
        return (f"clustering({self.column}): partitions="
                f"{self.partition_count}, avg depth="
                f"{self.average_depth:.2f}, max depth="
                f"{self.max_depth} [{buckets}]")


def clustering_information(partitions: Sequence,
                           column: str) -> ClusteringInfo:
    """Compute overlap-depth statistics for one column's zone maps.

    Degenerate layouts score as *already clustered* rather than as
    candidates for a rewrite: a table whose key column is entirely NULL
    (no usable zone-map ranges) or that has a single partition cannot be
    improved by reordering rows, so both report an average depth of 1.
    An empty table (no partitions at all) reports depth 0.
    """
    report = measure_overlap(partitions, column)
    if not report.ranges and len(partitions) > 0:
        # All-NULL key column: every range was skipped. There is nothing
        # a recluster could tighten, so this is depth 1 by definition.
        return ClusteringInfo(
            column=column,
            partition_count=len(partitions),
            average_overlaps=0.0,
            average_depth=1.0,
            max_depth=1,
            depth_histogram={1: len(partitions)},
        )
    depths = []
    ranges = report.ranges
    for i, (lo_i, hi_i) in enumerate(ranges):
        depth = 1 + sum(
            1 for j, (lo_j, hi_j) in enumerate(ranges)
            if i != j and lo_i <= hi_j and lo_j <= hi_i)
        depths.append(depth)
    histogram: dict[int, int] = {}
    for depth in depths:
        # power-of-two depth buckets, like Snowflake's output
        bucket = 1
        while bucket < depth:
            bucket *= 2
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return ClusteringInfo(
        column=column,
        partition_count=len(ranges),
        average_overlaps=report.mean_overlap,
        average_depth=(sum(depths) / len(depths)) if depths else 0.0,
        max_depth=max(depths) if depths else 0,
        depth_histogram=histogram,
    )


def measure_overlap(partitions: Sequence, column: str) -> OverlapReport:
    """Quantify zone-map overlap on ``column`` across partitions."""
    ranges = []
    for partition in partitions:
        stats = partition.zone_map.stats(column)
        if stats.min_value is not None:
            ranges.append((stats.min_value, stats.max_value))
    if not ranges:
        return OverlapReport(column, 0.0, 0, [])
    overlaps = []
    for i, (lo_i, hi_i) in enumerate(ranges):
        count = sum(
            1 for j, (lo_j, hi_j) in enumerate(ranges)
            if i != j and lo_i <= hi_j and lo_j <= hi_i
        )
        overlaps.append(count)
    return OverlapReport(
        column=column,
        mean_overlap=sum(overlaps) / len(overlaps),
        max_overlap=max(overlaps),
        ranges=ranges,
    )
