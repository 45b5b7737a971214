"""Exception hierarchy for the repro engine.

All engine-raised errors derive from :class:`ReproError` so callers can
catch engine failures without masking programming errors (``TypeError``
raised by misuse of the Python API is intentionally *not* wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or an operation references an unknown column."""


class TypeMismatchError(ReproError):
    """An expression or operator combined incompatible SQL types."""


class ParseError(ReproError):
    """The SQL text could not be parsed.

    Attributes:
        position: character offset into the SQL text where parsing failed,
            or ``None`` when the failure has no single location.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class PlanError(ReproError):
    """A logical plan could not be built or compiled."""


class ExecutionError(ReproError):
    """A physical operator failed during query execution."""


class StorageError(ReproError):
    """The storage layer rejected an operation (missing partition, etc.)."""


class MetadataError(ReproError):
    """Partition metadata is missing or inconsistent."""


class DurabilityError(StorageError):
    """The durability subsystem (WAL / checkpoint / recovery) rejected
    an operation — e.g. recovering into a non-empty catalog."""


class WalCorruptionError(DurabilityError):
    """A write-ahead-log record in the *interior* of the log failed its
    CRC or sequence check.

    Interior corruption means committed history is damaged, so recovery
    fails closed instead of silently replaying a prefix. A torn or
    truncated *final* record is the expected signature of a crash
    mid-append and is tolerated (the mutation never committed).
    """


# ----------------------------------------------------------------------
# Storage and metadata faults
#
# Cloud object storage and the metadata KV service are separate
# networks that throttle, time out, and corrupt bytes. Transient
# classes derive from :class:`TransientError`; permanent classes do
# not. ``Catalog.scan_set`` fails open on the metadata ones.
# ----------------------------------------------------------------------
class TransientError(ReproError):
    """A failure that may succeed on retry (timeout, throttling)."""


class StorageTimeout(TransientError, StorageError):
    """An object-storage request timed out."""


class StorageThrottled(TransientError, StorageError):
    """Object storage rejected a request with a slow-down signal."""


class CorruptionError(StorageError):
    """A loaded partition failed checksum verification.

    Corruption is modelled as a wire-level fault, so a re-read may
    succeed.

    Attributes:
        partition_id: the partition whose bytes failed verification,
            or ``None`` when unknown.
    """

    def __init__(self, message: str, partition_id: int | None = None):
        super().__init__(message)
        self.partition_id = partition_id


class PartitionUnavailableError(StorageError):
    """A partition is permanently unreachable (deleted blob, lost
    replica). Not retryable: the query must fail with a typed error.

    Attributes:
        partition_id: the unreachable partition, or ``None``.
    """

    def __init__(self, message: str, partition_id: int | None = None):
        super().__init__(message)
        self.partition_id = partition_id


class MetadataTimeout(TransientError, MetadataError):
    """A metadata KV lookup timed out."""


class MetadataThrottled(TransientError, MetadataError):
    """The metadata KV service rejected a lookup under load."""


class MetadataUnavailableError(MetadataError):
    """The metadata service is down (outage). Pruning layers fail
    open: the scan proceeds without metadata instead of failing."""
