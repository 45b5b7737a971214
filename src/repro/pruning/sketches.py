"""Secondary per-partition sketches beyond zone maps.

Min/max zone maps cannot prune "hostile" predicates: substring
``LIKE '%needle%'`` / ``CONTAINS`` / ``ENDSWITH`` see every partition
as MAYBE, and a low-cardinality ``=`` / ``IN`` literal that happens to
fall inside a wide [min, max] range is equally invisible (§3.1's
imprecise-rewrite gap). This module adds three pluggable secondary
sketches, built per micro-partition at build/recluster time (a batch
of partitions at a time, :func:`build_sketches`) and registered in the
metadata store alongside the zone maps:

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from ..expr import ast
from ..types import DataType, Schema, days_to_date
from .base import PruneCategory, PruningResult, ScanSet
from .filters import (
    XorFilter,
    _hash64,
    _FP_SEED,
    _hash64_batch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.micropartition import MicroPartition

#: seed for dictionary-sketch value hashes (shared by the scalar
#: probes and the vectorized lanes, which must agree exactly)
_DICT_SEED = 0x53_4B_45_54  # "SKET"

#: the largest product of digits a gram sort key word holds (int64)
_WORD = 2**62

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


# ---------------------------------------------------------------------------
# Building: one pass per column over a whole batch of partitions
# ---------------------------------------------------------------------------
def build_sketches(partitions: Sequence["MicroPartition"], schema: Schema,
                   config: SketchConfig) -> dict[int, PartitionSketches]:
    """Every configured sketch of a batch of micro-partitions, by
    partition id.

    Each column is one pass over the batch: its n-grams are cut,
    deduped per partition and hashed once for the batch, and all of its
    xor filters peel together (:meth:`XorFilter.batch`); dictionary
    members are normalised and hashed once per distinct value; the
    histograms bucket every row at once.
    """
    built = {p.partition_id: PartitionSketches() for p in partitions}
    if not partitions:
        return built
    wanted = (None if config.columns is None
              else {c.lower() for c in config.columns})
    for column_field in schema:
        name, dtype = column_field.name, column_field.dtype
        if wanted is not None and name not in wanted:
            continue
        columns = [p.column(name) for p in partitions]
        present = ~np.concatenate([c.nulls for c in columns])
        values = np.concatenate([c.values for c in columns])[present]
        owner = np.repeat(np.arange(len(columns)),
                          [len(c) for c in columns])[present]
        if dtype == DataType.VARCHAR:
            for sketches, sketch in zip(built.values(), _ngram_sketches(
                    values.tolist(), owner, len(columns), config)):
                if sketch is not None:
                    sketches.ngram[name] = sketch
        for sketches, sketch in zip(built.values(), _dictionary_sketches(
                values, owner, len(columns), dtype,
                config.dictionary_max_entries)):
            if sketch is not None:
                sketches.dictionary[name] = sketch
        if dtype.is_numeric:
            for sketches, sketch in zip(built.values(), _histogram_sketches(
                    values.astype(np.float64), owner, len(columns),
                    max(1, config.histogram_buckets))):
                if sketch is not None:
                    sketches.histogram[name] = sketch
    return built


def _changed(column: np.ndarray) -> np.ndarray:
    """True where a sorted column differs from the entry before it."""
    out = np.ones(len(column), dtype=bool)
    np.not_equal(column[1:], column[:-1], out=out[1:])
    return out


def _windows(texts: list[str], owner: np.ndarray, n: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Which length-``n`` windows of ``texts`` joined are grams, and
    each gram's partition (``owner[i]`` is that of ``texts[i]``).

    A window is a gram when it lies inside one value: its first and
    last characters have the same value id.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64,
                          count=len(texts))
    value_of = np.repeat(np.arange(len(texts), dtype=np.int32), lengths)
    count = max(0, len(value_of) - n + 1)
    valid = value_of[:count] == value_of[n - 1:]
    return valid, owner.astype(np.int32)[value_of[:count][valid]]


def _char_ranks(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted code points of ``texts`` joined, and each
    character's rank among them."""
    # One code point per character, lone surrogates included.
    codes = np.frombuffer("".join(texts).encode("utf-32-le",
                                                "surrogatepass"),
                          dtype=np.uint32)
    # Ranks are counted only over the 1024-code blocks that occur, so
    # the work follows the input, not the largest code point.
    block = codes >> 10
    used = np.zeros(0x110000 >> 10, dtype=bool)
    used[block] = True
    shift = (np.arange(len(used)) - np.cumsum(used) + 1) << 10
    slot = codes - shift[block]
    seen = np.zeros(int(used.sum()) << 10, dtype=bool)
    seen[slot] = True
    at = np.flatnonzero(seen)
    return ((at + shift[np.flatnonzero(used)][at >> 10]).astype(np.uint32),
            (np.cumsum(seen, dtype=np.int32) - 1)[slot])


def _gram_keys(texts: list[str], owner: np.ndarray, n: int, parts: int
               ) -> tuple[np.ndarray, list[range], list[np.ndarray]] | None:
    """Sort keys of every gram of ``texts``: its characters' ranks as
    base-``radix`` digits, packed into as few int64 words as hold them
    (``groups`` says which characters each word holds), the partition
    last. Most columns need one word, so one sort dedupes the pairs.
    Returns the alphabet, the groups and the words; None when no value
    is ``n`` characters long."""
    valid, part = _windows(texts, owner, n)
    if not len(part):
        return None
    alphabet, rank = _char_ranks(texts)
    radix, held = len(alphabet), 1
    while held < n and radix ** (held + 1) <= _WORD:
        held += 1
    groups = [range(lo, min(lo + held, n)) for lo in range(0, n, held)]
    words = []
    for group in groups:
        word = rank[group[0]:len(valid) + group[0]][valid].astype(np.int64)
        for j in group[1:]:
            word *= radix
            word += rank[j:len(valid) + j][valid]
        words.append(word)
    if radix ** len(groups[-1]) > _WORD // parts:
        groups.append(range(0))
        words.append(np.zeros(len(part), dtype=np.int64))
    words[-1] *= parts
    words[-1] += part
    return alphabet, groups, words


def _gram_pairs(texts: list[str], owner: np.ndarray, n: int, parts: int
                ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct (partition, n-gram) pairs of a column's values.

    ``owner[i]`` is the partition of ``texts[i]``. Returns the distinct
    grams of the batch and, per pair, its gram index and partition.
    """
    keys = _gram_keys(texts, owner, n, parts)
    if keys is None:
        return [], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    alphabet, groups, words = keys
    if len(words) == 1:
        words[0].sort()
    else:
        order = np.lexsort(words[::-1])
        words = [word[order] for word in words]
    digits = words[:-1] + [words[-1] // parts]
    new_gram = _changed(digits[0])
    for word in digits[1:]:
        new_gram |= _changed(word)
    pairs = np.flatnonzero(new_gram | _changed(words[-1]))
    # Decode each distinct gram from its digits, once for the batch.
    matrix = np.empty((int(new_gram.sum()), n), dtype=np.int64)
    for group, word in zip(groups, digits):
        value = word[new_gram]
        for j in reversed(group):
            value, matrix[:, j] = np.divmod(value, len(alphabet))
    decoded = alphabet[matrix].tobytes().decode("utf-32-le",
                                                "surrogatepass")
    return ([decoded[i:i + n] for i in range(0, len(decoded), n)],
            np.cumsum(new_gram[pairs]) - 1, words[-1][pairs] % parts)


def _ngram_sketches(texts: list[str], owner: np.ndarray, parts: int,
                    config: SketchConfig) -> list[NGramSketch | None]:
    """Per partition, its n-gram filter; None past ``max_ngrams`` (too
    distinct to bound: fail open)."""
    n, limit = config.ngram_size, config.max_ngrams
    grams, gram_of, part_of = _gram_pairs(texts, owner, n, parts)
    sizes = np.bincount(part_of, minlength=parts)
    keep = sizes[part_of] <= limit
    filters = XorFilter.batch(grams, gram_of[keep], part_of[keep], parts)
    return [NGramSketch(n, xor) if size <= limit else None
            for xor, size in zip(filters, sizes.tolist())]


def _factorize(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values (Python scalars) of ``values`` and each
    row's index among them, under Python's equality: ``-0.0`` is
    ``0.0`` and each NaN row is a value of its own (NaN equals
    nothing)."""
    if values.dtype == object:
        items = values.tolist()
        distinct = list(dict.fromkeys(items))
        return distinct, np.fromiter(
            map(dict(zip(distinct, range(len(distinct)))).__getitem__,
                items), dtype=np.int64, count=len(items))
    unique, value_id = np.unique(values, return_inverse=True)
    distinct = unique.tolist()
    nan = np.flatnonzero(values != values)
    value_id[nan] = len(distinct) + np.arange(len(nan))
    return distinct + values[nan].tolist(), value_id


def _dictionary_sketches(values: np.ndarray, owner: np.ndarray,
                         parts: int, dtype: DataType,
                         limit: int) -> list[DictionarySketch | None]:
    """Per partition, its dictionary; None past ``limit`` distinct
    members or with a value :func:`normalize_member` cannot place.

    Distinct values are Python's: ``-0.0`` is ``0.0``, and each NaN
    row is a member of its own (NaN equals nothing).
    """
    distinct, value_id = _factorize(values)
    width = max(1, len(distinct))
    pairs = np.sort(owner * width + value_id)
    part_of, value_of = np.divmod(pairs[_changed(pairs)], width)
    eligible = np.bincount(part_of, minlength=parts) <= limit
    kept = eligible[part_of]
    part_of, value_of = part_of[kept], value_of[kept]
    # Normalise and hash each member some dictionary needs, once.
    needed = np.zeros(len(distinct), dtype=bool)
    needed[value_of] = True
    ids = np.flatnonzero(needed)
    members = [normalize_member(
        days_to_date(distinct[i]) if dtype == DataType.DATE
        else distinct[i], dtype) for i in ids.tolist()]
    placed = np.zeros(len(distinct), dtype=bool)
    placed[ids] = [member is not None and member is not _IMPOSSIBLE
                   for member in members]
    hashes = np.zeros(len(distinct), dtype=np.uint64)
    hashes[placed] = _hash64_batch(
        [member for member, ok in zip(members, placed[ids]) if ok],
        _DICT_SEED)
    eligible &= np.bincount(part_of[~placed[value_of]],
                            minlength=parts) == 0
    member_hashes = hashes[value_of]
    order = np.lexsort((member_hashes, part_of))
    per_part = np.split(member_hashes[order], np.cumsum(
        np.bincount(part_of, minlength=parts))[:-1])
    return [DictionarySketch(h) if ok else None
            for h, ok in zip(per_part, eligible.tolist())]


def _histogram_sketches(values: np.ndarray, owner: np.ndarray, parts: int,
                        buckets: int) -> list[HistogramSketch | None]:
    """Per partition, its equi-width histogram; None when a value is
    NaN or infinite (bucket math breaks: fail open)."""
    rows = np.bincount(owner, minlength=parts)
    usable = np.bincount(owner[~np.isfinite(values)], minlength=parts) == 0
    filled = np.flatnonzero(rows)
    lo, hi = np.zeros(parts), np.zeros(parts)
    if len(filled):
        starts = (np.cumsum(rows) - rows)[filled]
        lo[filled] = np.minimum.reduceat(values, starts)
        hi[filled] = np.maximum.reduceat(values, starts)
    with np.errstate(invalid="ignore", over="ignore"):
        width = (hi - lo) / buckets
        spread = width[owner] > 0.0
        index = ((values - lo[owner])
                 / np.where(spread, width[owner], 1.0)).astype(np.int64)
    index[~spread] = 0
    np.clip(index, 0, buckets - 1, out=index)
    counts = np.bincount(owner * buckets + index,
                         minlength=parts * buckets).reshape(parts, buckets)
    return [
        None if not ok
        else HistogramSketch(low, high, step, row) if size
        else HistogramSketch(0.0, 0.0, 0.0, np.zeros(1, dtype=np.int64))
        for ok, size, low, high, step, row in zip(
            usable.tolist(), rows.tolist(), lo.tolist(), hi.tolist(),
            width.tolist(), counts)]


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
