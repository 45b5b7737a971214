"""The per-partition sketch builder, kept as a test reference.

``repro.pruning.sketches.build_sketches`` builds a whole batch of
partitions at once: one gram pass, one hash of the union of grams and
one xor peel per column. This module is the builder it replaced: each
partition alone, each column alone, each xor filter hashed and peeled
on its own by the stack peel. (Up to that builder, filters of more than
512 keys peeled in numpy rounds instead, which gives the same seed and
another valid table.) The differential tests in ``tests/test_sketches.py`` and
``tests/test_property_structures.py`` require the two to agree.
"""

from __future__ import annotations

import numpy as np

from repro.pruning.filters import XorFilter, _hash64_batch, _xor_hashes
from repro.pruning.sketches import (
    _DICT_SEED,
    _IMPOSSIBLE,
    DictionarySketch,
    HistogramSketch,
    NGramSketch,
    PartitionSketches,
    SketchConfig,
    ngrams_of,
    normalize_member,
)
from repro.types import DataType


def peel_small(h: np.ndarray, fp: np.ndarray,
               segment: int) -> np.ndarray | None:
    """Stack-based peel of one filter over plain Python ints; None if
    it fails. Same position and fingerprint math as the batch peel."""
    fp, seg = fp.tolist(), segment
    key_pos = [(hv % seg, seg + ((hv >> 21) % seg),
                2 * seg + ((hv >> 42) % seg)) for hv in h.tolist()]
    cnt = [0] * (3 * seg)
    acc = [0] * (3 * seg)
    for ki, (a, b, c) in enumerate(key_pos):
        for p in (a, b, c):
            cnt[p] += 1
            acc[p] += ki
    stack = [i for i, count in enumerate(cnt) if count == 1]
    order: list[tuple[int, int]] = []
    while stack:
        position = stack.pop()
        if cnt[position] != 1:
            continue
        ki = acc[position]
        order.append((ki, position))
        for p in key_pos[ki]:
            cnt[p] -= 1
            acc[p] -= ki
            if cnt[p] == 1:
                stack.append(p)
    if len(order) != len(key_pos):
        return None
    table = [0] * (3 * seg)
    for ki, position in reversed(order):
        a, b, c = key_pos[ki]
        table[position] = (fp[ki] ^ table[a] ^ table[b]
                           ^ table[c] ^ table[position]) & 0xFF
    return np.asarray(table, dtype=np.uint8)


def reference_xor(values) -> XorFilter:
    """One xor filter, peeled on its own, seed after seed."""
    keys = list(dict.fromkeys(v for v in values if v is not None))
    xor = XorFilter.__new__(XorFilter)
    xor.count, xor.seed = len(keys), 0
    xor.segment = max(32, int(1.23 * len(keys)) + 32) // 3
    xor.size = 3 * xor.segment
    xor.table = np.zeros(xor.size, dtype=np.uint8)
    if not keys:
        return xor
    for seed in range(64):
        table = peel_small(*_xor_hashes(keys, seed), xor.segment)
        if table is not None:
            xor.seed, xor.table = seed, table
            return xor
    raise RuntimeError("xor filter construction failed")


def ngram_sketch(values, config: SketchConfig) -> NGramSketch | None:
    grams: set[str] = set()
    for value in values:
        if value is not None:
            grams |= ngrams_of(value, config.ngram_size)
    if len(grams) > config.max_ngrams:
        return None
    return NGramSketch(config.ngram_size, reference_xor(sorted(grams)))


def dictionary_sketch(values, dtype: DataType,
                      config: SketchConfig) -> DictionarySketch | None:
    raw = set(values)
    raw.discard(None)
    distinct: set = set()
    for value in raw:
        normalized = normalize_member(value, dtype)
        if normalized is None or normalized is _IMPOSSIBLE:
            return None
        distinct.add(normalized)
        if len(distinct) > config.dictionary_max_entries:
            return None
    return DictionarySketch(np.sort(_hash64_batch(list(distinct),
                                                  _DICT_SEED)))


def histogram_sketch(values, config: SketchConfig
                     ) -> HistogramSketch | None:
    present = [float(v) for v in values if v is not None]
    if not present:
        return HistogramSketch(0.0, 0.0, 0.0, np.zeros(1, dtype=np.int64))
    arr = np.asarray(present, dtype=np.float64)
    if not np.isfinite(arr).all():
        return None
    lo, hi = float(arr.min()), float(arr.max())
    buckets = max(1, config.histogram_buckets)
    width = (hi - lo) / buckets
    counts = np.zeros(buckets, dtype=np.int64)
    if width > 0.0:
        with np.errstate(invalid="ignore", over="ignore"):
            idx = ((arr - lo) / width).astype(np.int64)
        np.clip(idx, 0, buckets - 1, out=idx)
    else:
        idx = np.zeros(len(arr), dtype=np.int64)
    np.add.at(counts, idx, 1)
    return HistogramSketch(lo, hi, width, counts)


def build_partition_sketches(partition,
                             config: SketchConfig) -> PartitionSketches:
    """Every configured sketch of one micro-partition."""
    sketches = PartitionSketches()
    wanted = (None if config.columns is None
              else {c.lower() for c in config.columns})
    for column_field in partition.schema:
        name = column_field.name
        if wanted is not None and name not in wanted:
            continue
        values = partition.column(name).to_pylist()
        if column_field.dtype == DataType.VARCHAR:
            ngram = ngram_sketch(values, config)
            if ngram is not None:
                sketches.ngram[name] = ngram
        dictionary = dictionary_sketch(values, column_field.dtype, config)
        if dictionary is not None:
            sketches.dictionary[name] = dictionary
        if column_field.dtype.is_numeric:
            histogram = histogram_sketch(values, config)
            if histogram is not None:
                sketches.histogram[name] = histogram
    return sketches
