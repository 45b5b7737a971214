"""Reclustering for :class:`QueryService`.

Closes the telemetry loop end to end: the advisor mines the service's
own :class:`TelemetrySink` for hot, poorly-pruning filter columns, the
engine fixes the layout one budgeted slice at a time, and every slice
runs under the service's lock, between statements: SELECT/DML traffic
continues between slices and sees only fully-committed layouts.

Observability mirrors the rest of the service layer: each slice
increments ``recluster_*`` metrics counters, appends one
``kind="recluster"`` telemetry record (so the fleet report can account
maintenance work separately from queries), optionally records a
``recluster:slice`` trace span, and ``describe()["reclustering"]``
exposes job progress.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from ..obs.telemetry import TelemetryRecord
from .advisor import WorkloadAdvisor
from .engine import IncrementalReclusterer, ReclusterJob, SliceReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.trace import Tracer
    from ..service.server import QueryService

__all__ = ["ReclusterService"]

#: default max input bytes one slice may rewrite (bounds how long a
#: slice holds the service lock; at laptop scale partitions are a few
#: KB each).
DEFAULT_BUDGET_BYTES = 256 * 1024

_SLICE_COUNTER = itertools.count(1)


class ReclusterService:
    """Advisor + engine + pause/resume over one QueryService.

    Drive it by calling :meth:`step` between statements until it
    returns ``None`` with no active job.
    """

    def __init__(self, service: "QueryService", *,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 target_depth: float = 1.05,
                 max_slices_per_job: int = 256,
                 advisor: WorkloadAdvisor | None = None,
                 tracer: "Tracer | None" = None):
        self.service = service
        self.advisor = advisor or WorkloadAdvisor()
        self.engine = IncrementalReclusterer(service.catalog)
        self.budget_bytes = budget_bytes
        self.target_depth = target_depth
        self.max_slices_per_job = max_slices_per_job
        self.tracer = tracer
        self._job: ReclusterJob | None = None
        self._paused = False
        self._last_report: SliceReport | None = None
        self._completed: list[dict[str, Any]] = []

    # -- control --------------------------------------------------------
    def pause(self) -> None:
        """Operator pause: no new slices until :meth:`resume`."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    @property
    def paused(self) -> bool:
        return self._paused

    # -- the state machine ----------------------------------------------
    def step(self) -> SliceReport | None:
        """Run at most one recluster slice; None when nothing ran.

        The slice, and the advice that picks its job, run under the
        service's lock, so a statement waiting for it resumes the
        moment the slice commits.
        """
        if self._paused:
            return None
        with self.service._lock:
            job = self._job
            if job is None:
                job = self._next_job()
                if job is None:
                    return None
                self._job = job
            report = self._run_slice(job)
            self._account(job, report)
        return report

    def _next_job(self) -> ReclusterJob | None:
        """Ask the advisor for the most urgent table/key, if any."""
        ranked = self.advisor.advise(self.service.telemetry.records(),
                                     self.service.catalog)
        if not ranked:
            return None
        advice = ranked[0]
        self.service.metrics.counter("recluster_jobs_started").inc()
        return ReclusterJob(
            table=advice.table, keys=(advice.column,),
            budget_bytes=self.budget_bytes,
            target_depth=self.target_depth,
            max_slices=self.max_slices_per_job)

    def _run_slice(self, job: ReclusterJob) -> SliceReport:
        if self.tracer is None:
            return self.engine.run_slice(job)
        with self.tracer.span("recluster:slice", table=job.table,
                              keys=",".join(job.keys)) as span:
            report = self.engine.run_slice(job)
            span.annotate(
                partitions=report.partitions_selected,
                bytes=report.bytes_rewritten,
                depth_before=round(report.depth_before, 4),
                depth_after=round(report.depth_after, 4),
                done=report.done)
        return report

    def _account(self, job: ReclusterJob,
                 report: SliceReport) -> None:
        """Metrics + telemetry for one slice, and job completion."""
        self._last_report = report
        metrics = self.service.metrics
        if report.partitions_selected:
            metrics.counter("recluster_slices").inc()
            metrics.counter("recluster_partitions_rewritten").inc(
                report.partitions_selected)
            metrics.counter("recluster_bytes_rewritten").inc(
                report.bytes_rewritten)
            self.service.telemetry.record(TelemetryRecord(
                query_id=f"recluster-{next(_SLICE_COUNTER)}",
                sql=(f"RECLUSTER {job.table} BY "
                     f"{', '.join(job.keys)}"),
                kind="recluster", tables=(job.table,), status="ok",
                partitions_rewritten=report.partitions_selected,
                bytes_rewritten=report.bytes_rewritten))
        if report.done:
            metrics.counter("recluster_jobs_completed").inc()
            self._completed.append({
                "table": job.table,
                "keys": list(job.keys),
                "slices": job.slices,
                "partitions_rewritten": job.partitions_rewritten,
                "bytes_rewritten": job.bytes_rewritten,
                "reason": job.reason,
            })
            self._job = None

    # -- introspection --------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Snapshot for ``QueryService.describe()``."""
        job = self._job
        status: dict[str, Any] = {
            "paused": self._paused,
            "budget_bytes": self.budget_bytes,
            "active_job": None,
            "completed_jobs": list(self._completed),
        }
        if job is not None:
            status["active_job"] = {
                "table": job.table,
                "keys": list(job.keys),
                "slices": job.slices,
                "partitions_rewritten": job.partitions_rewritten,
                "bytes_rewritten": job.bytes_rewritten,
            }
        if self._last_report is not None:
            status["last_slice"] = self._last_report.to_dict()
        return status
