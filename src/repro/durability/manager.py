"""DurabilityManager: the WAL + checkpoint pair behind one catalog.

Commit protocol (log-before-apply):

1. the catalog builds the logical redo record for a mutation that
   definitely changes state;
2. :meth:`DurabilityManager.log` appends it to the WAL behind the
   flush barrier (crash points ``pre-append`` / ``mid-append`` /
   ``post-append-pre-apply`` live here);
3. only then does the catalog apply the mutation in memory.

Recovery therefore has exactly two legal outcomes per mutation: the
record is absent (crash before the barrier — pre-commit state) or
intact (crash after — replay reproduces the post-commit state). There
is no third state, which is precisely what the crash sweep asserts.

Checkpoints bound replay time: :meth:`checkpoint` snapshots the
catalog atomically at the current WAL high-water mark, then truncates
the log behind it. Recovery loads the newest checkpoint and replays
only the tail.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from ..errors import WalCorruptionError
from ..faults.crash import CrashInjector
from .checkpoint import CheckpointInfo, CheckpointManager
from .wal import WriteAheadLog

__all__ = ["DurabilityManager"]

WAL_NAME = "wal.log"
CHECKPOINT_DIR = "checkpoints"
DEFAULT_CHECKPOINT_BYTES = 4 * 2**20


class DurabilityManager:
    """One durability directory: ``wal.log`` + ``checkpoints/``."""

    def __init__(self, path: str | Path, *,
                 checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
                 keep_checkpoints: int = 1,
                 crash_injector: CrashInjector | None = None,
                 sync: bool = False):
        self.root = Path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        #: WAL size that arms the service's background checkpoint
        self.checkpoint_bytes = checkpoint_bytes
        self.keep_checkpoints = max(1, keep_checkpoints)
        self.crash_injector = crash_injector
        self.checkpoints = CheckpointManager(
            self.root / CHECKPOINT_DIR, crash_injector=crash_injector)
        self.wal = WriteAheadLog(self.root / WAL_NAME,
                                 crash_injector=crash_injector,
                                 sync=sync)
        newest = self.checkpoints.newest()
        if newest is not None:
            # A fully truncated WAL must continue the global sequence.
            self.wal.ensure_seq_floor(newest.seqno)
        self._lock = threading.Lock()
        self.last_checkpoint_seqno = (
            newest.seqno if newest is not None else 0)
        #: populated by :meth:`recover_into`
        self.recovered: dict[str, int] | None = None

    # ------------------------------------------------------------------
    def has_state(self) -> bool:
        """True when the directory holds any durable state to recover."""
        return (self.checkpoints.newest() is not None
                or self.wal.last_seqno > 0)

    def log(self, record: dict[str, Any]) -> tuple[int, int]:
        """Durably append one mutation record; ``(seqno, bytes)``.

        Fires the ``post-append-pre-apply`` crash point after the
        record is on disk but before the caller applies the mutation.
        """
        seqno, nbytes = self.wal.append(record)
        if self.crash_injector is not None:
            self.crash_injector.crashpoint("post-append-pre-apply")
        return seqno, nbytes

    # ------------------------------------------------------------------
    def should_checkpoint(self) -> bool:
        """True when the WAL has outgrown ``checkpoint_bytes``."""
        return self.wal.size() >= self.checkpoint_bytes

    def checkpoint(self, catalog) -> CheckpointInfo:
        """Snapshot ``catalog`` and truncate the WAL behind it.

        The caller must guarantee no mutation is in flight (the service
        layer holds its exclusive table lock).
        """
        with self._lock:
            seqno = self.wal.last_seqno
            info = self.checkpoints.write(catalog, seqno)
            self.wal.truncate_through(seqno)
            self.checkpoints.prune(keep=self.keep_checkpoints)
            self.last_checkpoint_seqno = seqno
            return info

    # ------------------------------------------------------------------
    def recover_into(self, catalog) -> dict[str, int]:
        """Load the newest checkpoint and replay the WAL tail.

        ``catalog`` must be empty and must have its replay guard set
        (``Catalog.enable_durability`` arranges both). Tolerates a
        torn final WAL record; raises
        :class:`~repro.errors.WalCorruptionError` for interior damage
        or a sequence gap between checkpoint and tail.
        """
        from ..persistence import load_manifest, load_tables
        from ..storage.micropartition import partition_id_generator

        checkpoint_seq = 0
        max_partition_id = 0
        newest = self.checkpoints.newest()
        if newest is not None:
            manifest = load_manifest(newest.path)
            checkpoint_seq = int(manifest.get("wal_seqno",
                                              newest.seqno))
            catalog.rows_per_partition = manifest.get(
                "rows_per_partition", catalog.rows_per_partition)
            sketch_manifest = manifest.get("sketches")
            if sketch_manifest:
                # Re-enable before loading tables / replaying the WAL
                # tail so both paths rebuild sketches as partitions
                # register; malformed config fails open.
                try:
                    from ..pruning.sketches import SketchConfig

                    catalog.enable_sketches(
                        SketchConfig.from_manifest(sketch_manifest))
                except Exception:  # noqa: BLE001 - best-effort
                    pass
            for table in load_tables(newest.path, manifest):
                catalog.create_table(table)
                if table.partition_ids:
                    max_partition_id = max(max_partition_id,
                                           *table.partition_ids)
        replayed = 0
        last_seq = checkpoint_seq
        for seqno, record in self.wal.records():
            if seqno <= checkpoint_seq:
                continue  # already captured by the checkpoint
            if seqno != last_seq + 1:
                raise WalCorruptionError(
                    f"WAL tail starts at seqno {seqno} but the "
                    f"checkpoint covers through {last_seq}: "
                    f"committed records are missing")
            catalog.apply_wal_record(record)
            replayed += 1
            last_seq = seqno
        for table in catalog.tables.values():
            if table.partition_ids:
                max_partition_id = max(max_partition_id,
                                       *table.partition_ids)
        partition_id_generator.ensure_floor(max_partition_id)
        self.wal.ensure_seq_floor(last_seq)
        self.recovered = {"checkpoint_seqno": checkpoint_seq,
                          "replayed": replayed}
        return self.recovered

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Operational snapshot for ``describe()`` and reports."""
        out: dict[str, Any] = {
            "path": str(self.root),
            "wal_appends": self.wal.appends,
            "wal_bytes": self.wal.appended_bytes,
            "wal_size_bytes": self.wal.size(),
            "last_seqno": self.wal.last_seqno,
            "checkpoints_written": self.checkpoints.written,
            "last_checkpoint_seqno": self.last_checkpoint_seqno,
            "checkpoint_bytes": self.checkpoint_bytes,
        }
        if self.recovered is not None:
            out["recovered"] = dict(self.recovered)
        return out

    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:
        return (f"DurabilityManager({self.root}, "
                f"last_seqno={self.wal.last_seqno}, "
                f"last_checkpoint={self.last_checkpoint_seqno})")
