"""Virtual warehouse simulation: parallel scan-set execution (§2, §4.4).

A virtual warehouse is a fleet of shared-nothing workers; the scan set
is striped across them and the query's simulated runtime is the slowest
worker's time. This module reproduces the paper's §4.4 observation:
without LIMIT pruning, a LIMIT-k query on an n-worker warehouse reads
at least n partitions — each worker starts one — "even though 1 might
have been enough".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..expr import ast
from ..expr.eval import bind_predicate
from ..pruning.base import ScanSet
from ..storage.storage_layer import StorageLayer
from ..types import Schema


@dataclass
class WorkerReport:
    """Outcome of one simulated parallel scan."""

    workers: int
    partitions_loaded: int
    rows_produced: int
    runtime_ms: float
    rounds: int = 0
    per_worker_loads: list[int] = field(default_factory=list)


class Warehouse:
    """A pool of ``n_workers`` simulated compute nodes."""

    def __init__(self, storage: StorageLayer, n_workers: int = 8):
        if n_workers < 1:
            raise ValueError("a warehouse needs at least one worker")
        self.storage = storage
        self.n_workers = n_workers

    def stripe(self, scan_set: ScanSet) -> list[ScanSet]:
        """Round-robin assignment of partitions to workers."""
        return [scan_set.take(range(worker, len(scan_set),
                                    self.n_workers))
                for worker in range(self.n_workers)]

    def scan_runtime_ms(self, scan_set: ScanSet,
                        columns: Sequence[str] | None = None) -> float:
        """Simulated runtime of scanning a scan set in parallel.

        Each worker's time is the sum of its partitions' load + CPU
        costs; the query takes as long as the slowest worker.
        """
        cost_model = self.storage.cost_model
        worker_times = []
        for stripe in self.stripe(scan_set):
            total = 0.0
            for partition_id, zone_map in stripe:
                total += self.storage.load_cost_ms(partition_id, columns)
                total += cost_model.scan_cost(zone_map.row_count)
            worker_times.append(total)
        return max(worker_times) if worker_times else 0.0

    def run_limit_scan(self, scan_set: ScanSet, schema: Schema, k: int,
                       predicate: ast.Expr | None = None) -> WorkerReport:
        """Simulate LIMIT-k execution without LIMIT pruning.

        Workers proceed in lockstep rounds; in each round every worker
        with partitions left loads its next one and counts qualifying
        rows. Execution halts at the end of the first round in which
        the global row count reaches ``k``. This models the paper's
        ⌈k/n⌉ observation: even tiny LIMITs read ≥ n partitions on an
        n-worker warehouse.
        """
        stripes = [s.entries for s in self.stripe(scan_set)]
        cost_model = self.storage.cost_model
        matches = (bind_predicate(predicate, schema)
                   if predicate is not None else None)
        worker_times = [0.0] * self.n_workers
        per_worker_loads = [0] * self.n_workers
        rows_found = 0
        partitions_loaded = 0
        rounds = 0
        depth = max((len(s) for s in stripes), default=0)
        for round_index in range(depth):
            if rows_found >= k:
                break
            rounds += 1
            for worker, stripe in enumerate(stripes):
                if round_index >= len(stripe):
                    continue
                partition_id, zone_map = stripe[round_index]
                (partition,), nbytes = self.storage.load_many(
                    [partition_id])
                worker_times[worker] += cost_model.load_cost(nbytes)
                worker_times[worker] += cost_model.scan_cost(
                    partition.row_count)
                per_worker_loads[worker] += 1
                partitions_loaded += 1
                if predicate is None:
                    rows_found += partition.row_count
                else:
                    mask = matches(partition.columns(),
                                   partition.row_count)
                    rows_found += int(mask.sum())
        return WorkerReport(
            workers=self.n_workers,
            partitions_loaded=partitions_loaded,
            rows_produced=min(rows_found, k),
            runtime_ms=max(worker_times) if worker_times else 0.0,
            rounds=rounds,
            per_worker_loads=per_worker_loads,
        )
