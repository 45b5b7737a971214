"""Parquet-like files: row groups, pages, and page indexes (§8.1).

Apache Parquet follows a PAX layout with columnar metadata at row-group
level and optional page-level indexes. Both are optional in the wild —
"if a Parquet file contains metadata, Snowflake can immediately use it
for pruning. However, if there is no metadata, Snowflake can
reconstruct it by performing a full table scan" — which this module
models with ``write_statistics=False`` and :meth:`ParquetFile.backfill`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import MetadataError
from ..expr import ast
from ..expr.pruning import TriState, prune_partition
from ..storage.column import Column, columns_from_rows
from ..storage.zonemap import ZoneMap
from ..types import Schema

_FILE_IDS = itertools.count(1)

DEFAULT_PAGE_ROWS = 100
DEFAULT_ROW_GROUP_ROWS = 1000


@dataclass
class ParquetPage:
    """A page of one row group: a row range plus optional index stats."""

    row_offset: int
    row_count: int
    #: page-level column index (min/max per column), or None when the
    #: writer omitted the page index
    stats: ZoneMap | None


class ParquetRowGroup:
    """A row group: columnar data plus optional row-group statistics."""

    def __init__(self, schema: Schema, columns: dict[str, Column],
                 page_rows: int = DEFAULT_PAGE_ROWS,
                 write_statistics: bool = True,
                 write_page_index: bool = True):
        self.schema = schema
        self.columns = {name.lower(): col
                        for name, col in columns.items()}
        self.row_count = (len(next(iter(self.columns.values())))
                          if self.columns else 0)
        self.stats: ZoneMap | None = None
        self.pages: list[ParquetPage] = []
        if write_statistics:
            self.stats = ZoneMap.from_columns(self.columns)
        for offset in range(0, self.row_count, page_rows):
            end = min(offset + page_rows, self.row_count)
            page_stats = None
            if write_page_index:
                page_stats = ZoneMap.from_columns({
                    name: col.slice(offset, end)
                    for name, col in self.columns.items()})
            self.pages.append(ParquetPage(offset, end - offset,
                                          page_stats))

    def compute_statistics(self) -> ZoneMap:
        """Full-data statistics (used by backfill)."""
        return ZoneMap.from_columns(self.columns)

    def rows(self) -> list[tuple[Any, ...]]:
        cols = [self.columns[f.name].to_pylist() for f in self.schema]
        return list(zip(*cols)) if cols else []


class ParquetFile:
    """A file of row groups with optional footer statistics."""

    def __init__(self, schema: Schema,
                 row_groups: Sequence[ParquetRowGroup],
                 file_id: int | None = None):
        self.file_id = file_id if file_id is not None else next(_FILE_IDS)
        self.schema = schema
        self.row_groups = list(row_groups)

    @classmethod
    def write(cls, schema: Schema, rows: Sequence[Sequence[Any]],
              row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
              page_rows: int = DEFAULT_PAGE_ROWS,
              write_statistics: bool = True,
              write_page_index: bool = True) -> "ParquetFile":
        """Chunk rows into row groups and pages, like a Parquet writer."""
        groups = []
        for offset in range(0, len(rows), row_group_rows):
            chunk = rows[offset:offset + row_group_rows]
            groups.append(ParquetRowGroup(
                schema, columns_from_rows(schema, chunk),
                page_rows=page_rows,
                write_statistics=write_statistics,
                write_page_index=write_page_index))
        return cls(schema, groups)

    @property
    def row_count(self) -> int:
        return sum(g.row_count for g in self.row_groups)

    @property
    def has_statistics(self) -> bool:
        return all(g.stats is not None for g in self.row_groups)

    def file_stats(self) -> ZoneMap:
        """Footer-level metadata: the merge of all row-group stats.

        Raises:
            MetadataError: if any row group lacks statistics.
        """
        merged: ZoneMap | None = None
        for group in self.row_groups:
            if group.stats is None:
                raise MetadataError(
                    f"file {self.file_id} has row groups without "
                    "statistics; backfill first")
            merged = group.stats if merged is None \
                else merged.merge(group.stats)
        if merged is None:
            return ZoneMap(0, {})
        return merged

    def backfill(self) -> int:
        """Reconstruct missing row-group and page statistics (§8.1).

        Performs the equivalent of a full scan over groups lacking
        metadata. Returns the number of row groups backfilled.
        """
        backfilled = 0
        for group in self.row_groups:
            if group.stats is None:
                group.stats = group.compute_statistics()
                backfilled += 1
            for page in group.pages:
                if page.stats is None:
                    page.stats = ZoneMap.from_columns({
                        name: col.slice(page.row_offset,
                                        page.row_offset + page.row_count)
                        for name, col in group.columns.items()})
        return backfilled

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def prune_row_groups(self, predicate: ast.Expr
                         ) -> list[ParquetRowGroup]:
        """Row groups that might contain matches (missing stats keep)."""
        kept = []
        for group in self.row_groups:
            if group.stats is None:
                kept.append(group)
                continue
            if prune_partition(predicate, group.stats,
                               self.schema) != TriState.NEVER:
                kept.append(group)
        return kept

    def prune_pages(self, group: ParquetRowGroup,
                    predicate: ast.Expr) -> list[ParquetPage]:
        """Pages of one row group that might contain matches."""
        kept = []
        for page in group.pages:
            if page.stats is None:
                kept.append(page)
                continue
            if prune_partition(predicate, page.stats,
                               self.schema) != TriState.NEVER:
                kept.append(page)
        return kept
