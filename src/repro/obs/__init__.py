"""Observability: query tracing + fleet telemetry (§7).

Three layers:

* :mod:`repro.obs.trace` — hierarchical spans per query (parse → plan
  → prune-per-technique → scan), rendered by
  ``EXPLAIN ANALYZE``;
* :mod:`repro.obs.telemetry` — one :class:`TelemetryRecord` per query,
  collected in a bounded thread-safe :class:`TelemetrySink`;
* :mod:`repro.obs.fleet` — aggregation of a record window into the
  paper's fleet figures (per-technique pruning-ratio CDFs, latency
  percentiles, slow-query log).
"""

from .fleet import (
    fleet_json,
    fleet_summary,
    latency_percentiles,
    render_fleet_report,
    technique_ratio_cdfs,
)
from .telemetry import TelemetryRecord, TelemetrySink
from .trace import Span, Tracer, render_span_tree

__all__ = [
    "Span",
    "Tracer",
    "render_span_tree",
    "TelemetryRecord",
    "TelemetrySink",
    "fleet_json",
    "fleet_summary",
    "latency_percentiles",
    "render_fleet_report",
    "technique_ratio_cdfs",
]
