"""repro — a reproduction of "Pruning in Snowflake: Working Smarter, Not Harder".

A from-scratch, laptop-scale implementation of the SIGMOD 2025 paper's
pruning stack: a micro-partitioned columnar storage engine with
zone-map metadata, a vectorized query engine, and four partition
pruning techniques — filter pruning (§3), LIMIT pruning (§4), top-k
pruning (§5), and JOIN pruning (§6) — plus Iceberg/Parquet-style
metadata handling (§8.1) and predicate caching (§8.2).

Quickstart::

    from repro import Catalog, Layout

    catalog = Catalog()
    catalog.create_table_from_rows(
        "events", schema, rows, layout=Layout.sorted_by("ts"))
    result = catalog.sql("SELECT * FROM events WHERE ts >= 1000 LIMIT 5")
    print(result.rows)
    print(result.profile.pruning_summary())
"""

from .types import DataType, Field, Schema
from .errors import (
    ReproError,
    SchemaError,
    TypeMismatchError,
    ParseError,
    PlanError,
    ExecutionError,
    StorageError,
    MetadataError,
    TransientError,
    StorageTimeout,
    StorageThrottled,
    CorruptionError,
    PartitionUnavailableError,
    MetadataTimeout,
    MetadataThrottled,
    MetadataUnavailableError,
    QueryTimeout,
    DurabilityError,
    WalCorruptionError,
)
from .faults import CrashInjector, SimulatedCrash
from .durability import (
    CheckpointManager,
    DurabilityManager,
    WriteAheadLog,
)
from .storage import (
    Column,
    ColumnStats,
    ZoneMap,
    MicroPartition,
    Table,
    TableBuilder,
    Layout,
    MetadataStore,
    StorageLayer,
)
from .storage.builder import build_table
from .cache import CacheStats, PartitionCache
from .plancache import (
    ParameterizedQuery,
    PlanCache,
    PlanCacheStats,
    parameterize_text,
)
from .catalog import Catalog, QueryResult
from .plan.compiler import CompilerOptions
from .expr.ast import col, lit
from .obs import (
    Span,
    TelemetryRecord,
    TelemetrySink,
    Tracer,
    render_fleet_report,
    render_span_tree,
)
from .pruning.sketches import (
    PartitionSketches,
    SketchConfig,
    SketchIndex,
    SketchPruner,
    build_sketches,
)
from .recluster import (
    ClusteringAdvice,
    IncrementalReclusterer,
    ReclusterJob,
    ReclusterService,
    SliceReport,
    WorkloadAdvisor,
)
from .service import QueryService

__version__ = "1.10.0"

__all__ = [
    "DataType",
    "Field",
    "Schema",
    "ReproError",
    "SchemaError",
    "TypeMismatchError",
    "ParseError",
    "PlanError",
    "ExecutionError",
    "StorageError",
    "MetadataError",
    "TransientError",
    "StorageTimeout",
    "StorageThrottled",
    "CorruptionError",
    "PartitionUnavailableError",
    "MetadataTimeout",
    "MetadataThrottled",
    "MetadataUnavailableError",
    "QueryTimeout",
    "DurabilityError",
    "WalCorruptionError",
    "CrashInjector",
    "SimulatedCrash",
    "CheckpointManager",
    "DurabilityManager",
    "WriteAheadLog",
    "Column",
    "ColumnStats",
    "ZoneMap",
    "MicroPartition",
    "Table",
    "TableBuilder",
    "Layout",
    "MetadataStore",
    "StorageLayer",
    "build_table",
    "CacheStats",
    "PartitionCache",
    "ParameterizedQuery",
    "PlanCache",
    "PlanCacheStats",
    "parameterize_text",
    "Catalog",
    "QueryResult",
    "QueryService",
    "CompilerOptions",
    "col",
    "lit",
    "Span",
    "Tracer",
    "render_span_tree",
    "TelemetryRecord",
    "TelemetrySink",
    "render_fleet_report",
    "PartitionSketches",
    "SketchConfig",
    "SketchIndex",
    "SketchPruner",
    "build_sketches",
    "ClusteringAdvice",
    "IncrementalReclusterer",
    "ReclusterJob",
    "ReclusterService",
    "SliceReport",
    "WorkloadAdvisor",
    "__version__",
]
