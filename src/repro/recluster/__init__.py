"""Telemetry-driven reclustering (the layout loop).

The paper measures pruning; this package *improves* it. Three layers:

* :mod:`~repro.recluster.advisor` — mines fleet telemetry for hot
  filter columns with poor eligibility-conditioned pruning ratios and
  scores candidate clustering keys;
* :mod:`~repro.recluster.engine` — rewrites the worst-overlapping
  partition neighbourhood one byte-budgeted slice at a time through
  the catalog's WAL-backed rewrite path;
* :mod:`~repro.recluster.service` — the loop that runs slices between
  statements under the service's lock.

See ``docs/reclustering.md`` for heuristics and budget semantics.
"""

from .advisor import (ClusteringAdvice, ColumnHeat, WorkloadAdvisor,
                      best_advice)
from .engine import IncrementalReclusterer, ReclusterJob, SliceReport
from .service import ReclusterService

__all__ = [
    "ClusteringAdvice",
    "ColumnHeat",
    "WorkloadAdvisor",
    "best_advice",
    "IncrementalReclusterer",
    "ReclusterJob",
    "SliceReport",
    "ReclusterService",
]
