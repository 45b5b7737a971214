"""Secondary per-partition sketches beyond zone maps.

Min/max zone maps cannot prune "hostile" predicates: substring
``LIKE '%needle%'`` / ``CONTAINS`` / ``ENDSWITH`` see every partition
as MAYBE, and a low-cardinality ``=`` / ``IN`` literal that happens to
fall inside a wide [min, max] range is equally invisible (§3.1's
imprecise-rewrite gap). This module adds three pluggable secondary
sketches, built per micro-partition at build/recluster time and
registered in the metadata store alongside the zone maps:

* :class:`NGramSketch` — an n-gram (default 3-gram) membership filter
  over a VARCHAR column, backed by the from-scratch
  :class:`~repro.pruning.filters.XorFilter`. A row matching
  ``CONTAINS(s, needle)`` must contain *every* n-gram of the needle,
  so a single provably-absent gram prunes the partition.
* :class:`DictionarySketch` — the exact distinct-value set of a
  low-cardinality column, stored as sorted 64-bit hashes. Tightens
  ``=`` / ``IN`` verdicts beyond min/max (a hash collision merely
  yields a sound false positive).
* :class:`HistogramSketch` — equi-width bucket occupancy over a
  numeric column; an equality literal landing in an empty bucket
  prunes even when the dictionary could not be built.

:class:`SketchPruner` consults the sketches at compile time as an extra
pruning pass after filter pruning; :class:`SketchIndex` packs them as
SoA lanes (mirroring :class:`~repro.pruning.stats_index.StatsIndex`)
so a whole table classifies in vectorized numpy passes that are
bit-identical to the scalar sketch probes. What no sketch can prove —
a recurring shape whose partitions a complete execution saw empty — is
the predicate cache's job (:mod:`.predicate_cache`), which
``Catalog.enable_sketches()`` turns on as well.

Everything here *fails open*: a missing, degraded, or unbuildable
sketch simply answers "maybe" and the partition is scanned. Sketch
pruning can remove partitions but never proves one fully-matching.
"""

from __future__ import annotations

import datetime
import re
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from ..expr import ast
from ..types import DataType, Schema
from .base import PruneCategory, PruningResult, ScanSet
from .filters import (
    XorFilter,
    _hash64,
    _FP_SEED,
    _hash64_batch,
    _xor_hashes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.micropartition import MicroPartition

#: seed for dictionary-sketch value hashes (shared by the scalar
#: probes and the vectorized lanes, which must agree exactly)
_DICT_SEED = 0x53_4B_45_54  # "SKET"

#: sentinel for a literal that provably cannot equal any column value
#: (e.g. a non-integral float against an INTEGER column)
_IMPOSSIBLE = object()


@dataclass(frozen=True)
class SketchConfig:
    """What to build per partition, and how big it may get."""

    #: n-gram length for string membership filters
    ngram_size: int = 3
    #: skip the n-gram sketch when a partition's column exceeds this
    #: many distinct grams (fail open instead of building a huge filter)
    max_ngrams: int = 8192
    #: build the exact dictionary only when a column has at most this
    #: many distinct non-null values
    dictionary_max_entries: int = 64
    #: equi-width bucket count for numeric histograms
    histogram_buckets: int = 32
    #: restrict sketch building to these columns (None = all eligible)
    columns: tuple[str, ...] | None = None

    def to_manifest(self) -> dict:
        """JSON-friendly form for catalog manifests / checkpoints."""
        return {
            "ngram_size": self.ngram_size,
            "max_ngrams": self.max_ngrams,
            "dictionary_max_entries": self.dictionary_max_entries,
            "histogram_buckets": self.histogram_buckets,
            "columns": list(self.columns) if self.columns else None,
        }

    @classmethod
    def from_manifest(cls, data: Mapping[str, Any]) -> "SketchConfig":
        """Read a manifest / checkpoint dict. Keys this version does
        not know (written by an earlier one) are ignored: sketches
        are derived data and are rebuilt on load."""
        columns = data.get("columns")
        return cls(
            ngram_size=int(data.get("ngram_size", 3)),
            max_ngrams=int(data.get("max_ngrams", 8192)),
            dictionary_max_entries=int(
                data.get("dictionary_max_entries", 64)),
            histogram_buckets=int(data.get("histogram_buckets", 32)),
            columns=tuple(columns) if columns else None,
        )


# ---------------------------------------------------------------------------
# The sketches
# ---------------------------------------------------------------------------
def ngrams_of(text: str, n: int) -> set[str]:
    """All length-``n`` substrings of ``text`` (empty if too short)."""
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def _unique_ngrams_packed(blob: str, n: int) -> Iterable[str]:
    """Distinct n-grams of ``blob`` that contain no NUL character.

    Every code point fits in 21 bits, so an n-gram with ``n <= 3``
    packs into one uint64; windows collapse to unique grams via
    ``np.unique`` in C instead of a Python slice-per-window set
    comprehension. NUL-containing windows (the bulk-path separators)
    are masked out before uniquing, which is exactly the separator
    filter of the scalar path.
    """
    codes = np.frombuffer(
        blob.encode("utf-32-le", "surrogatepass"),
        dtype=np.uint32).astype(np.uint64)
    count = len(codes) - n + 1
    packed = codes[:count].copy()
    ok = codes[:count] != 0
    for j in range(1, n):
        window = codes[j:count + j]
        packed |= window << np.uint64(21 * j)
        ok &= window != 0
    unique = np.unique(packed[ok])
    matrix = np.empty((len(unique), n), dtype=np.uint32)
    for j in range(n):
        matrix[:, j] = ((unique >> np.uint64(21 * j))
                        & np.uint64(0x1FFFFF)).astype(np.uint32)
    decoded = matrix.tobytes().decode("utf-32-le", "surrogatepass")
    return (decoded[i:i + n] for i in range(0, n * len(unique), n))


class SketchBuildCache:
    """Cross-partition memo of seed-0 gram hashes for one build batch.

    A table's partitions share most of their n-grams, so when many
    partitions are sketched together (table creation, recluster,
    ``enable_sketches``) only the first occurrence of a gram pays the
    hash cost. Seed 0 is the only seed worth caching: xor-filter
    peeling at seed 0 almost never fails, and retries re-hash anyway.
    """

    __slots__ = ("h", "fp", "dh", "grams")

    def __init__(self):
        self.h: dict[str, int] = {}
        self.fp: dict[str, int] = {}
        self.dh: dict[Any, int] = {}
        #: (partition_id, column) -> that partition's distinct gram
        #: list, produced by :meth:`prewarm_ngrams`.
        self.grams: dict[tuple[int, str], list[str]] = {}

    def ensure(self, grams: list) -> None:
        missing = [g for g in grams if g not in self.h]
        if not missing:
            return
        hash_arr, print_arr = _xor_hashes(missing, 0)
        for gram, hv, fpv in zip(missing, hash_arr.tolist(),
                                 print_arr.tolist()):
            self.h[gram] = hv
            self.fp[gram] = fpv

    def xor_hashes(self, keys: list) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.pruning.filters._xor_hashes` at seed 0,
        served from the memo."""
        self.ensure(keys)
        n = len(keys)
        return (np.fromiter((self.h[k] for k in keys),
                            dtype=np.uint64, count=n),
                np.fromiter((self.fp[k] for k in keys),
                            dtype=np.uint8, count=n))

    def prewarm_ngrams(self, partitions, schema,
                       config: SketchConfig) -> None:
        """Extract and hash every VARCHAR column's n-grams for a whole
        batch of partitions in one vectorized sweep.

        One encode + window-pack per column (all partitions
        concatenated), per-partition ``np.unique`` over packed-int
        slices, one batched hash over the union of grams. Results land
        in :attr:`grams` / :attr:`h` / :attr:`fp`;
        :func:`build_partition_sketches` consumes them and any
        partition not prewarmed (NUL-bearing values, ``n`` too large
        for packing) falls back to the per-partition path unchanged.
        """
        n = config.ngram_size
        if not 1 <= n * 21 <= 64:
            return
        from ..types import DataType

        wanted = set(config.columns) if config.columns else None
        sep = "\x00" * (n - 1)
        zero = np.uint64(0)
        all_packed: list[np.ndarray] = []
        per_key: list[tuple[tuple[int, str], np.ndarray]] = []
        for field in schema.fields:
            if field.dtype != DataType.VARCHAR:
                continue
            if wanted is not None and field.name not in wanted:
                continue
            blobs: list[str] = []
            keys: list[tuple[int, str]] = []
            for part in partitions:
                values = part.column(field.name).to_pylist()
                pending = [v for v in values if v is not None]
                if any("\x00" in v for v in pending):
                    continue  # legitimate NUL grams: per-value path
                blobs.append(sep.join(pending))
                keys.append((part.partition_id, field.name))
            if not blobs:
                continue
            mega = sep.join(blobs)
            codes = np.frombuffer(
                mega.encode("utf-32-le", "surrogatepass"),
                dtype=np.uint32).astype(np.uint64)
            count = max(0, len(codes) - n + 1)
            packed = codes[:count].copy()
            ok = codes[:count] != zero
            for j in range(1, n):
                window = codes[j:count + j]
                packed |= window << np.uint64(21 * j)
                ok &= window != zero
            offset = 0
            for blob, key in zip(blobs, keys):
                # Windows starting past len(blob)-n span into the
                # next partition's blob; they all contain a separator
                # and the ok-mask drops them, but slicing them out
                # keeps each partition's windows exact.
                span = len(blob) - n + 1
                if span <= 0:
                    per_key.append((key, packed[:0]))
                else:
                    lo = offset
                    window_slice = packed[lo:lo + span]
                    unique = np.unique(
                        window_slice[ok[lo:lo + span]])
                    per_key.append((key, unique))
                    all_packed.append(unique)
                offset += len(blob) + n - 1
        if not per_key:
            return
        # Decode + hash the union of grams once for the whole batch.
        union = np.unique(np.concatenate(all_packed)) \
            if all_packed else np.zeros(0, dtype=np.uint64)
        matrix = np.empty((len(union), n), dtype=np.uint32)
        for j in range(n):
            matrix[:, j] = ((union >> np.uint64(21 * j))
                            & np.uint64(0x1FFFFF)).astype(np.uint32)
        decoded = matrix.tobytes().decode("utf-32-le", "surrogatepass")
        gram_strs = [decoded[i:i + n]
                     for i in range(0, n * len(union), n)]
        self.ensure(gram_strs)
        for key, unique in per_key:
            indexes = np.searchsorted(union, unique)
            self.grams[key] = [gram_strs[i] for i in indexes]

    def dict_hashes(self, members: list) -> np.ndarray:
        """Seed-``_DICT_SEED`` hashes of normalized dictionary
        members, memoized across a table's partitions (low-cardinality
        columns repeat the same members everywhere).

        Keys carry the member's class: ``True == 1 == 1.0`` would
        otherwise share one dict slot despite hashing to different
        canonical byte strings.
        """
        keyed = [(m.__class__, m) for m in members]
        missing = [k for k in keyed if k not in self.dh]
        if missing:
            for key, hv in zip(
                    missing,
                    _hash64_batch([k[1] for k in missing],
                                  _DICT_SEED).tolist()):
                self.dh[key] = hv
        return np.fromiter((self.dh[k] for k in keyed),
                           dtype=np.uint64, count=len(keyed))


class NGramSketch:
    """Membership filter over a column's n-grams.

    A row matching ``CONTAINS(s, needle)``, ``ENDSWITH(s, needle)``,
    or a substring-``LIKE`` contains every n-gram of the needle's
    literal runs, so any run gram that is provably absent from the
    partition proves the predicate can never be TRUE there (NULL rows
    evaluate to NULL, which WHERE also excludes).
    """

    __slots__ = ("n", "filter")

    def __init__(self, n: int, membership_filter: XorFilter):
        self.n = n
        self.filter = membership_filter

    @classmethod
    def build(cls, values: Iterable[str | None], config: SketchConfig,
              cache: SketchBuildCache | None = None,
              precomputed: list[str] | None = None
              ) -> "NGramSketch | None":
        n = config.ngram_size
        limit = config.max_ngrams
        if precomputed is not None:
            # Gram list produced by SketchBuildCache.prewarm_ngrams
            # over this exact partition's values.
            if len(precomputed) > limit:
                return None  # too distinct to bound; fail open
            return cls(n, XorFilter(sorted(precomputed), cache))
        grams: set[str] = set()
        # Bulk path: join the values with an n-1 NUL separator and
        # slice once — a length-n window can never span two values
        # without containing a separator char. Values that themselves
        # contain NUL take the per-value path so their legitimate
        # NUL-bearing grams are not filtered out.
        pending: list[str] = []
        for value in values:
            if value is None:
                continue
            if "\x00" in value:
                grams |= ngrams_of(value, n)
            else:
                pending.append(value)
        if pending:
            blob = ("\x00" * (n - 1)).join(pending)
            if len(blob) >= n:
                if 1 <= n * 21 <= 64:
                    grams.update(_unique_ngrams_packed(blob, n))
                else:
                    raw = {blob[i:i + n]
                           for i in range(len(blob) - n + 1)}
                    grams.update(g for g in raw if "\x00" not in g)
        if len(grams) > limit:
            return None  # too distinct to bound; fail open
        return cls(n, XorFilter(sorted(grams), cache))

    def might_match_runs(self, runs: Iterable[str]) -> bool:
        """Could a value containing every literal run exist here?"""
        for run in runs:
            for gram in ngrams_of(run, self.n):
                if not self.filter.might_contain(gram):
                    return False
        return True

    def nbytes(self) -> int:
        return self.filter.nbytes()


class DictionarySketch:
    """Sorted 64-bit value hashes of a low-cardinality column.

    Membership is decided purely in hash space — the vectorized lane
    probes the same hashes — so a collision is a sound false positive
    and the scalar/vectorized verdicts are identical by construction.
    """

    __slots__ = ("hashes",)

    def __init__(self, hashes: np.ndarray):
        self.hashes = hashes  # sorted uint64

    @classmethod
    def build(cls, values: Iterable[Any], dtype: DataType,
              config: SketchConfig,
              cache: SketchBuildCache | None = None
              ) -> "DictionarySketch | None":
        raw = set(values)  # dedup at C speed before normalizing
        raw.discard(None)
        limit = config.dictionary_max_entries
        if dtype == DataType.VARCHAR and len(raw) > limit:
            # Normalization is the identity on str, so it can never
            # merge VARCHAR values under the limit — bail before
            # normalizing thousands of distinct strings.
            return None
        if (dtype == DataType.DOUBLE and len(raw) > limit + 1
                and all(type(v) is float for v in raw)):
            # Distinct floats only ever merge -0.0 into 0.0, so the
            # normalized count is at least len(raw) - 1.
            return None
        distinct: set[Any] = set()
        for value in raw:
            normalized = normalize_member(value, dtype)
            if normalized is None or normalized is _IMPOSSIBLE:
                return None  # un-normalizable stored value; fail open
            distinct.add(normalized)
            if len(distinct) > limit:
                return None
        members = list(distinct)
        if cache is not None:
            hashes = np.sort(cache.dict_hashes(members))
        else:
            hashes = np.sort(_hash64_batch(members, _DICT_SEED))
        return cls(hashes)

    def might_contain(self, normalized: Any) -> bool:
        target = np.uint64(_hash64(normalized, _DICT_SEED))
        i = int(np.searchsorted(self.hashes, target))
        return i < len(self.hashes) and self.hashes[i] == target

    def nbytes(self) -> int:
        return int(self.hashes.nbytes)


class HistogramSketch:
    """Equi-width bucket occupancy over a numeric column.

    ``lo``/``width`` and the bucket formula are float64 end to end;
    the vectorized lane repeats the identical IEEE operations, so a
    value present at build time always probes back into its bucket.
    """

    __slots__ = ("lo", "hi", "width", "counts")

    def __init__(self, lo: float, hi: float, width: float,
                 counts: np.ndarray):
        self.lo = lo
        self.hi = hi
        self.width = width
        self.counts = counts  # int64 occupancy per bucket

    @classmethod
    def build(cls, values: Iterable[Any],
              config: SketchConfig) -> "HistogramSketch | None":
        present = [float(v) for v in values if v is not None]
        if not present:
            return cls(0.0, 0.0, 0.0, np.zeros(1, dtype=np.int64))
        arr = np.asarray(present, dtype=np.float64)
        if not np.isfinite(arr).all():
            return None  # NaN/inf break bucket math; fail open
        lo = float(arr.min())
        hi = float(arr.max())
        buckets = max(1, config.histogram_buckets)
        width = (hi - lo) / buckets
        counts = np.zeros(buckets, dtype=np.int64)
        if width > 0.0:
            idx = ((arr - lo) / width).astype(np.int64)
            np.clip(idx, 0, buckets - 1, out=idx)
        else:
            idx = np.zeros(len(arr), dtype=np.int64)
        np.add.at(counts, idx, 1)
        return cls(lo, hi, width, counts)

    def might_contain(self, value: float) -> bool:
        if not self.counts.any():
            return False  # all-NULL column: equality is never TRUE
        if value < self.lo or value > self.hi:
            return False
        if self.width > 0.0:
            index = int((value - self.lo) / self.width)
            index = min(max(index, 0), len(self.counts) - 1)
        else:
            index = 0
        return bool(self.counts[index])

    def nbytes(self) -> int:
        return 24 + int(self.counts.nbytes)


@dataclass
class PartitionSketches:
    """All secondary sketches of one micro-partition."""

    ngram: dict[str, NGramSketch] = field(default_factory=dict)
    dictionary: dict[str, DictionarySketch] = field(default_factory=dict)
    histogram: dict[str, HistogramSketch] = field(default_factory=dict)
    #: wall-clock milliseconds spent building (overhead accounting)
    build_ms: float = 0.0

    def is_empty(self) -> bool:
        return not (self.ngram or self.dictionary or self.histogram)

    def nbytes(self) -> int:
        return (sum(s.nbytes() for s in self.ngram.values())
                + sum(s.nbytes() for s in self.dictionary.values())
                + sum(s.nbytes() for s in self.histogram.values()))

    def might_match(self, probe: "SketchProbe") -> bool:
        """Scalar verdict for one compiled probe (the oracle the
        vectorized lanes must agree with)."""
        if probe.kind == "ngram":
            sketch = self.ngram.get(probe.column)
            if sketch is None:
                return True
            return sketch.might_match_runs(probe.runs)
        dictionary = self.dictionary.get(probe.column)
        histogram = self.histogram.get(probe.column)
        if dictionary is None and histogram is None:
            return True
        for member in probe.members:
            possible = True
            if dictionary is not None:
                possible = dictionary.might_contain(member)
            if possible and histogram is not None \
                    and isinstance(member, (int, float)) \
                    and not isinstance(member, bool):
                possible = histogram.might_contain(float(member))
            if possible:
                return True
        return False


def normalize_member(value: Any, dtype: DataType) -> Any:
    """Canonical equality-probe representation of ``value`` for a
    column of ``dtype``.

    Both the dictionary build side and the probe side run through
    this, so representation quirks (``3`` vs ``3.0``, ``-0.0`` vs
    ``0.0``) can never produce an unsound hash mismatch. Returns
    ``None`` when no sound canonical form exists (the probe must
    answer "maybe") and :data:`_IMPOSSIBLE` when the literal provably
    equals no column value (e.g. ``x = 2.5`` on an INTEGER column).
    """
    if dtype == DataType.VARCHAR:
        return value if isinstance(value, str) else None
    if dtype == DataType.BOOLEAN:
        return value if isinstance(value, bool) else None
    if isinstance(value, bool):
        return None  # True == 1 comparisons stay out of hash space
    if dtype == DataType.INTEGER:
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return int(value) if float(value).is_integer() \
                else _IMPOSSIBLE
        return None
    if dtype == DataType.DOUBLE:
        if isinstance(value, (int, float, np.integer, np.floating)):
            normalized = float(value)
            return 0.0 if normalized == 0 else normalized
        return None
    if dtype == DataType.DATE:
        if isinstance(value, datetime.date) \
                and not isinstance(value, datetime.datetime):
            return value
        return None
    return None


def build_partition_sketches(partition: "MicroPartition",
                             config: SketchConfig,
                             cache: SketchBuildCache | None = None
                             ) -> PartitionSketches:
    """Build every configured sketch for one micro-partition.

    Pass one :class:`SketchBuildCache` across a batch of partitions
    (table creation, recluster, ``enable_sketches``) to hash each
    distinct n-gram only once for the whole batch.
    """
    started = time.perf_counter()
    sketches = PartitionSketches()
    wanted = (None if config.columns is None
              else {c.lower() for c in config.columns})
    for column_field in partition.schema:
        name = column_field.name
        if wanted is not None and name not in wanted:
            continue
        values = partition.column(name).to_pylist()
        if column_field.dtype == DataType.VARCHAR:
            precomputed = None if cache is None else cache.grams.pop(
                (partition.partition_id, name), None)
            ngram = NGramSketch.build(values, config, cache,
                                      precomputed)
            if ngram is not None:
                sketches.ngram[name] = ngram
        dictionary = DictionarySketch.build(values, column_field.dtype,
                                            config, cache)
        if dictionary is not None:
            sketches.dictionary[name] = dictionary
        if column_field.dtype.is_numeric:
            histogram = HistogramSketch.build(values, config)
            if histogram is not None:
                sketches.histogram[name] = histogram
    sketches.build_ms = (time.perf_counter() - started) * 1000.0
    return sketches


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SketchProbe:
    """One sketch question compiled from a top-level conjunct.

    ``ngram`` probes require every gram of every literal run to be
    possibly present; ``member`` probes require at least one candidate
    literal to be possibly present. A failing probe proves the
    conjunct can never be TRUE in the partition, and WHERE discards
    FALSE and NULL rows alike, so the partition prunes.
    """

    kind: str                   #: "ngram" or "member"
    column: str
    runs: tuple[str, ...] = ()
    members: tuple = ()


def _conjuncts(predicate: ast.Expr) -> list[ast.Expr]:
    """Flatten top-level AND nesting into a conjunct list."""
    if isinstance(predicate, ast.And):
        out: list[ast.Expr] = []
        for child in predicate.children():
            out.extend(_conjuncts(child))
        return out
    return [predicate]


def _like_runs(pattern: str) -> tuple[str, ...]:
    """Maximal literal runs of a LIKE pattern (wildcards split runs).

    Any string matching the pattern contains each run as a substring,
    so the runs are sound n-gram requirements. Mirrors
    ``repro.expr.eval``'s LIKE semantics, which treat every ``%`` and
    ``_`` as a wildcard (no escape syntax).
    """
    return tuple(run for run in re.split(r"[%_]", pattern) if run)


def _equality_parts(conjunct: ast.Expr
                    ) -> tuple[ast.ColumnRef, tuple] | None:
    """``(column, literal values)`` for ``col = lit`` / ``col IN``."""
    if isinstance(conjunct, ast.Compare) and conjunct.op in ("=", "=="):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.Literal):
            left, right = right, left
        if isinstance(left, ast.ColumnRef) \
                and isinstance(right, ast.Literal):
            return left, (right.value,)
        return None
    if isinstance(conjunct, ast.InList) \
            and isinstance(conjunct.child, ast.ColumnRef):
        return conjunct.child, tuple(conjunct.values)
    return None


def compile_sketch_probes(predicate: ast.Expr, schema: Schema,
                          ngram_size: int = 3) -> list[SketchProbe]:
    """Compile a predicate's top-level conjuncts into sketch probes.

    Only bare-column conjuncts are probed; anything inside OR / NOT
    or over computed expressions is left to the other techniques.
    """
    probes: list[SketchProbe] = []
    for conjunct in _conjuncts(predicate):
        runs: tuple[str, ...] = ()
        if isinstance(conjunct, (ast.Contains, ast.EndsWith,
                                 ast.StartsWith)) \
                and isinstance(conjunct.child, ast.ColumnRef):
            runs = (conjunct.needle,)
            column = conjunct.child.name
        elif isinstance(conjunct, ast.Like) \
                and isinstance(conjunct.child, ast.ColumnRef):
            runs = _like_runs(conjunct.pattern)
            column = conjunct.child.name
            if conjunct.is_exact:
                member = _normalized_members(
                    (conjunct.pattern,), column, schema)
                if member:
                    probes.append(SketchProbe("member", column,
                                              members=member))
        else:
            equality = _equality_parts(conjunct)
            if equality is not None:
                column_ref, values = equality
                members = _normalized_members(values, column_ref.name,
                                              schema)
                if members:
                    probes.append(SketchProbe(
                        "member", column_ref.name, members=members))
            continue
        if any(len(run) >= ngram_size for run in runs):
            probes.append(SketchProbe(
                "ngram", column,
                runs=tuple(run for run in runs
                           if len(run) >= ngram_size)))
    return probes


def _normalized_members(values: Iterable[Any], column: str,
                        schema: Schema) -> tuple:
    """Normalize equality candidates; () when the probe is unusable."""
    try:
        dtype = schema.dtype_of(column)
    except Exception:  # noqa: BLE001 - unknown column: no probe
        return ()
    members = []
    for value in values:
        if value is None:
            continue  # col = NULL is never TRUE
        normalized = normalize_member(value, dtype)
        if normalized is None:
            return ()  # one un-normalizable candidate poisons the probe
        if normalized is _IMPOSSIBLE:
            continue  # provably equal to nothing; drop the candidate
        members.append(normalized)
    return tuple(members)


def is_sketch_prunable(predicate: ast.Expr, schema: Schema,
                       ngram_size: int = 3) -> bool:
    """Whether secondary sketches could in principle prune this
    predicate (the eligibility flag, independent of sketch presence)."""
    return bool(compile_sketch_probes(predicate, schema, ngram_size))


# ---------------------------------------------------------------------------
# Vectorized lanes (SoA mirror of the scalar sketches)
# ---------------------------------------------------------------------------
class _NGramLane:
    """Per-column SoA packing of xor-filter n-gram sketches.

    Each partition's filter table is concatenated into one uint8 array
    with per-partition seed/segment/offset lanes; a probe computes the
    scalar hash once per (gram, seed) and gathers all three xor
    positions across partitions in numpy. Sketches of another n-gram
    size are left uncovered — the pruner falls back to the scalar
    probe for those rows, so verdicts never differ.
    """

    def __init__(self, items: list[tuple[int, PartitionSketches]],
                 column: str, ngram_size: int):
        n = len(items)
        self.ngram_size = ngram_size
        self.has = np.zeros(n, dtype=bool)
        self.covered = np.ones(n, dtype=bool)
        self.seeds = np.zeros(n, dtype=np.uint64)
        self.segments = np.ones(n, dtype=np.uint64)
        self.offsets = np.zeros(n, dtype=np.uint64)
        tables: list[np.ndarray] = []
        offset = 0
        for i, (_, sketches) in enumerate(items):
            sketch = sketches.ngram.get(column)
            if sketch is None:
                continue
            if sketch.n != ngram_size:
                self.covered[i] = False
                continue
            self.has[i] = True
            self.seeds[i] = sketch.filter.seed
            self.segments[i] = sketch.filter.segment
            self.offsets[i] = offset
            tables.append(sketch.filter.table)
            offset += sketch.filter.size
        self.tables = (np.concatenate(tables) if tables
                       else np.zeros(0, dtype=np.uint8))

    def probe(self, runs: Iterable[str]) -> np.ndarray:
        """Per-partition "could match": sketchless rows stay True."""
        ok = np.ones(len(self.has), dtype=bool)
        grams: set[str] = set()
        for run in runs:
            grams |= ngrams_of(run, self.ngram_size)
        if not grams or not self.has.any():
            return ok
        no_sketch = ~self.has
        for gram in sorted(grams):
            present = np.zeros(len(self.has), dtype=bool)
            for seed in np.unique(self.seeds[self.has]):
                mask = self.has & (self.seeds == seed)
                seed_int = int(seed)
                h = _hash64(gram, seed_int)
                fingerprint = (_hash64(gram, seed_int ^ _FP_SEED)
                               & 0xFF) or 1
                segment = self.segments[mask]
                base = self.offsets[mask]
                p0 = base + np.uint64(h) % segment
                p1 = base + segment + np.uint64(h >> 21) % segment
                p2 = (base + np.uint64(2) * segment
                      + np.uint64(h >> 42) % segment)
                combined = (self.tables[p0] ^ self.tables[p1]
                            ^ self.tables[p2])
                present[mask] = combined == fingerprint
            ok &= present | no_sketch
            if not (ok | no_sketch).any():
                break
        return ok


class _MemberLane:
    """Per-column SoA packing of dictionary + histogram sketches."""

    def __init__(self, items: list[tuple[int, PartitionSketches]],
                 column: str):
        n = len(items)
        self.covered = np.ones(n, dtype=bool)
        self.has_dict = np.zeros(n, dtype=bool)
        self.has_hist = np.zeros(n, dtype=bool)
        sizes = np.zeros(n, dtype=np.int64)
        dictionaries: list[np.ndarray | None] = [None] * n
        self.lo = np.zeros(n, dtype=np.float64)
        self.hi = np.zeros(n, dtype=np.float64)
        self.width = np.zeros(n, dtype=np.float64)
        self.nbuckets = np.ones(n, dtype=np.int64)
        histograms: list[np.ndarray | None] = [None] * n
        for i, (_, sketches) in enumerate(items):
            dictionary = sketches.dictionary.get(column)
            if dictionary is not None:
                self.has_dict[i] = True
                sizes[i] = len(dictionary.hashes)
                dictionaries[i] = dictionary.hashes
            histogram = sketches.histogram.get(column)
            if histogram is not None:
                self.has_hist[i] = True
                self.lo[i] = histogram.lo
                self.hi[i] = histogram.hi
                self.width[i] = histogram.width
                self.nbuckets[i] = len(histogram.counts)
                histograms[i] = histogram.counts
        self.sizes = sizes
        width_k = max(1, int(sizes.max()) if n else 1)
        self.hashes = np.zeros((n, width_k), dtype=np.uint64)
        for i, hashes in enumerate(dictionaries):
            if hashes is not None and len(hashes):
                self.hashes[i, :len(hashes)] = hashes
        self.valid = (np.arange(width_k)[None, :]
                      < sizes[:, None])
        buckets_k = max(1, int(self.nbuckets.max()) if n else 1)
        self.counts = np.zeros((n, buckets_k), dtype=np.int64)
        for i, counts in enumerate(histograms):
            if counts is not None:
                self.counts[i, :len(counts)] = counts
        self.hist_empty = ~self.counts.any(axis=1)
        self._width_safe = np.where(self.width > 0.0, self.width, 1.0)

    def probe(self, members: Iterable[Any]) -> np.ndarray:
        """Per-partition "some candidate possibly present"."""
        n = len(self.covered)
        any_ok = np.zeros(n, dtype=bool)
        for member in members:
            possible = np.ones(n, dtype=bool)
            if self.has_dict.any():
                target = np.uint64(_hash64(member, _DICT_SEED))
                in_dict = ((self.hashes == target)
                           & self.valid).any(axis=1)
                possible &= in_dict | ~self.has_dict
            if self.has_hist.any() \
                    and isinstance(member, (int, float)) \
                    and not isinstance(member, bool):
                value = float(member)
                in_range = ((value >= self.lo) & (value <= self.hi)
                            & ~self.hist_empty)
                with np.errstate(invalid="ignore"):
                    offset = (value - self.lo) / self._width_safe
                # NaN members and no-histogram rows produce non-finite
                # or absurdly large offsets; they are masked out by
                # in_range/has_hist below, so clamp in float space
                # first to keep the int64 cast warning-free.
                offset = np.nan_to_num(offset, nan=0.0, posinf=0.0,
                                       neginf=0.0)
                index = np.clip(
                    offset, 0.0,
                    self.nbuckets.astype(np.float64)).astype(np.int64)
                index = np.where(self.width > 0.0, index, 0)
                np.clip(index, 0, self.nbuckets - 1, out=index)
                occupied = self.counts[np.arange(n), index] > 0
                possible &= (in_range & occupied) | ~self.has_hist
            any_ok |= possible
            if any_ok.all():
                break
        return any_ok


class SketchIndex:
    """SoA sketch lanes for one table's partitions.

    The vectorized counterpart of a ``{partition_id:
    PartitionSketches}`` mapping, built the same way
    :class:`~repro.pruning.stats_index.StatsIndex` mirrors zone maps.
    Rows a lane cannot cover (a sketch of another n-gram size) keep
    ``covered=False`` so the pruner routes them to the scalar probe —
    vectorized and scalar verdicts are identical by construction.
    """

    def __init__(self, entries: Iterable[tuple[int, PartitionSketches]],
                 ngram_size: int = 3):
        self._items = [(pid, sketches) for pid, sketches in entries
                       if sketches is not None]
        #: int64 partition-id lane, in row order
        self.partition_ids = np.array([pid for pid, _ in self._items],
                                      dtype=np.int64)
        self._by_id = np.argsort(self.partition_ids, kind="stable")
        self._sorted_ids = self.partition_ids[self._by_id]
        self.ngram_size = ngram_size
        self._ngram_lanes: dict[str, _NGramLane] = {}
        self._member_lanes: dict[str, _MemberLane] = {}

    def __len__(self) -> int:
        return len(self._items)

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Per partition id, its row in this index, or -1."""
        if not len(self._items):
            return np.full(len(ids), -1, dtype=np.intp)
        at = np.searchsorted(self._sorted_ids, ids).clip(
            max=len(self._items) - 1)
        return np.where(self._sorted_ids[at] == ids, self._by_id[at], -1)

    def _ngram_lane(self, column: str) -> _NGramLane | None:
        lane = self._ngram_lanes.get(column)
        if lane is None:
            if not any(column in sketches.ngram
                       for _, sketches in self._items):
                return None
            lane = _NGramLane(self._items, column, self.ngram_size)
            self._ngram_lanes[column] = lane
        return lane

    def _member_lane(self, column: str) -> _MemberLane | None:
        lane = self._member_lanes.get(column)
        if lane is None:
            if not any(column in sketches.dictionary
                       or column in sketches.histogram
                       for _, sketches in self._items):
                return None
            lane = _MemberLane(self._items, column)
            self._member_lanes[column] = lane
        return lane

    def evaluate(self, probe: SketchProbe
                 ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(verdicts, covered)`` over this index's rows, or None
        when no partition has a sketch for the probe's column."""
        if not self._items:
            return None
        if probe.kind == "ngram":
            lane = self._ngram_lane(probe.column)
            if lane is None:
                return None
            return lane.probe(probe.runs), lane.covered
        lane = self._member_lane(probe.column)
        if lane is None:
            return None
        return lane.probe(probe.members), lane.covered


# ---------------------------------------------------------------------------
# The pruner
# ---------------------------------------------------------------------------
class SketchPruner:
    """Prunes a scan set with secondary sketches (never ALWAYS).

    Missing sketches, degraded partitions, and uncompilable conjuncts
    all answer "maybe" — the partition is scanned. When a
    :class:`SketchIndex` is supplied, covered rows classify through
    the vectorized lanes and the rest through the scalar probes; the
    two paths share every hash and bucket formula, so the verdicts are
    bit-identical.
    """

    def __init__(self, predicate: ast.Expr, schema: Schema,
                 sketches: Mapping[int, PartitionSketches],
                 index: SketchIndex | None = None,
                 ngram_size: int = 3):
        self.probes = compile_sketch_probes(predicate, schema,
                                            ngram_size)
        self.sketches = sketches
        self.index = index
        self.checks = 0
        #: pruned-partition attribution by probe kind
        self.pruned_by_kind: dict[str, int] = {}
        self._vector: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if index is not None and sketches:
            for position, probe in enumerate(self.probes):
                result = index.evaluate(probe)
                if result is not None:
                    self._vector[position] = result

    @property
    def eligible(self) -> bool:
        return bool(self.probes)

    def prune(self, scan_set: ScanSet) -> PruningResult:
        """Probe by probe over the rows no earlier probe pruned: lane
        verdicts where a lane covers the row, the scalar probe
        elsewhere. The first failing probe prunes and is credited."""
        ids = scan_set.ids
        pending = np.zeros(len(ids), dtype=bool)
        if self.probes and self.sketches:
            # degraded metadata: always fail open
            pending = ~np.isin(ids, list(scan_set.degraded_ids))
        rows = self.index.rows_of(ids) if self._vector else None
        pruned = np.zeros(len(ids), dtype=bool)
        for position, probe in enumerate(self.probes):
            at = np.flatnonzero(pending)
            self.checks += len(at)
            ok = np.ones(len(at), dtype=bool)
            covered = np.zeros(len(at), dtype=bool)
            vector = self._vector.get(position)
            if vector is not None:
                row = rows[at]
                covered[row >= 0] = vector[1][row[row >= 0]]
                ok[covered] = vector[0][row[covered]]
            scalar = ~covered
            ok[scalar] = [
                sketches is None or sketches.might_match(probe)
                for sketches in map(self.sketches.get,
                                    ids[at[scalar]].tolist())]
            failed = at[~ok]
            if len(failed):
                pending[failed], pruned[failed] = False, True
                self.pruned_by_kind[probe.kind] = (
                    self.pruned_by_kind.get(probe.kind, 0) + len(failed))
        return PruningResult(
            technique=PruneCategory.SKETCH,
            before=len(scan_set),
            kept=scan_set.take(np.flatnonzero(~pruned)),
            pruned_ids=ids[pruned],
            checks=self.checks,
        )
