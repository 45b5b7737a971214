"""The approximate set-membership filter (§1's citations).

Of the filters the paper's introduction lists, the one kept here is
:class:`XorFilter` [Graf & Lemire, JEA'20]: a static 3-wise XOR
structure built by hypergraph peeling, smaller than Bloom / Cuckoo
filters at the same false-positive rate and immutable once built —
which fits per-partition sketches, whose key sets never change. It
shares the conservative contract of every summary in this package: no
false negatives, bounded false positives.

The seeded hash (:func:`_hash64` and its batch forms) is the one hash
family of the sketches: n-gram filters, dictionary sketches and the
vectorized lanes all probe with it.
"""

from __future__ import annotations

import datetime
from typing import Any, Iterable

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_MIX = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: seed offset of the fingerprint hash (position hash: the seed itself)
_FP_SEED = 0x5BF0
#: key sets up to this size peel over plain Python ints: such filters
#: are dominated by fixed numpy call overhead (~2x slower there)
_SMALL_KEYS = 512


def _canonical_bytes(value: Any) -> bytes:
    """A type-tagged byte encoding with no accidental collisions."""
    if isinstance(value, (bool, np.bool_)):
        return b"b1" if value else b"b0"
    if isinstance(value, (int, np.integer)):
        return b"i" + str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return b"f" + repr(float(value)).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, datetime.date):
        return b"d" + value.isoformat().encode()
    return b"o" + repr(value).encode()


def _hash64(value: Any, seed: int) -> int:
    """Seeded FNV-1a over a canonical encoding, murmur-finalized.

    Python's builtin ``hash`` has *permanent* collisions — hash(0) ==
    hash('') and hash(-1) == hash(-2) — that no seeding scheme layered
    on top can separate, which breaks xor-filter peeling. Hashing the
    canonical bytes sidesteps ``hash`` entirely.
    """
    h = (_FNV_OFFSET ^ (seed * _SEED_MIX)) & _MASK64
    for byte in _canonical_bytes(value):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    return h


def _hash64_batch(values: list, seed: int) -> np.ndarray:
    """Vectorized :func:`_hash64` over many values — bit-identical to
    the scalar hash, which the dictionary probes and the vectorized
    lanes both depend on.

    FNV-1a is sequential per byte but independent across keys, so the
    byte loop runs over the (short) padded width while every key
    advances in one numpy pass.
    """
    return _hash64_batch_multi(values, (seed,))[0]


def _hash64_batch_multi(values: list,
                        seeds: tuple[int, ...]) -> list[np.ndarray]:
    """One hash array per seed, sharing a single byte-matrix setup.

    Encoding and scattering the canonical bytes dominates small
    batches, so hashing the same values under several seeds (value
    hash + fingerprint) costs only one extra FNV accumulation each.
    """
    count = len(values)
    if count == 0:
        return [np.zeros(0, dtype=np.uint64) for _ in seeds]
    encoded = [_canonical_bytes(v) for v in values]
    lengths = np.fromiter((len(b) for b in encoded),
                          dtype=np.int64, count=count)
    width = int(lengths.max())
    # Scatter the concatenated bytes into a padded (count, width)
    # matrix in one pass — no per-key fill loop.
    flat_bytes = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    rows = np.repeat(np.arange(count, dtype=np.int64), lengths)
    cols = np.arange(len(flat_bytes), dtype=np.int64) \
        - np.repeat(starts, lengths)
    matrix = np.zeros((count, width), dtype=np.uint64)
    matrix[rows, cols] = flat_bytes
    prime = np.uint64(_FNV_PRIME)
    out = []
    for seed in seeds:
        h = np.full(count,
                    (_FNV_OFFSET ^ (seed * _SEED_MIX)) & _MASK64,
                    dtype=np.uint64)
        for j in range(width):
            active = lengths > j
            h[active] = (h[active] ^ matrix[active, j]) * prime
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        out.append(h)
    return out


def _xor_hashes(keys: list, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Every key's position hash and non-zero 8-bit fingerprint under
    ``seed`` — what a build and the seed-0 build cache both store."""
    h, fp = _hash64_batch_multi(keys, (seed, seed ^ _FP_SEED))
    fp = (fp & np.uint64(0xFF)).astype(np.uint8)
    fp[fp == 0] = 1
    return h, fp


class XorFilter:
    """A static 8-bit xor filter over a fixed key set.

    Construction peels the 3-uniform hypergraph induced by the keys'
    three hash positions; a different seed is retried on (rare) peel
    failures. Every key ends up satisfying ``table[p0] ^ table[p1] ^
    table[p2] == fingerprint``, which is all :meth:`might_contain` and
    the vectorized n-gram lanes test; *which* of the valid tables a
    build picks depends on peel order and carries no meaning.

    ``cache`` (a :class:`~repro.pruning.sketches.SketchBuildCache`)
    memoizes the seed-0 hashes across the filters of one build batch,
    whose key sets largely repeat.
    """

    def __init__(self, values: Iterable[Any], cache=None):
        self.keys = list(dict.fromkeys(
            v for v in values if v is not None))
        self.segment = max(32, int(1.23 * len(self.keys)) + 32) // 3
        self.size = self.segment * 3
        self.seed = 0
        self.table = np.zeros(self.size, dtype=np.uint8)
        if not self.keys:
            return
        peel = (_peel_small if len(self.keys) <= _SMALL_KEYS
                else _peel_rounds)
        for seed in range(64):
            if seed == 0 and cache is not None:
                h, fp = cache.xor_hashes(self.keys)
            else:
                h, fp = _xor_hashes(self.keys, seed)
            table = peel(h, fp, self.segment)
            if table is not None:
                self.seed, self.table = seed, table
                return
        raise RuntimeError(
            "xor filter construction failed")  # pragma: no cover

    def _positions(self, value: Any, seed: int) -> tuple[int, int, int]:
        h = _hash64(value, seed)
        segment = self.segment
        return (h % segment,
                segment + (h >> 21) % segment,
                2 * segment + (h >> 42) % segment)

    def _fingerprint(self, value: Any, seed: int) -> int:
        return (_hash64(value, seed ^ _FP_SEED) & 0xFF) or 1

    def might_contain(self, value: Any) -> bool:
        if value is None:
            return False
        p0, p1, p2 = self._positions(value, self.seed)
        combined = (int(self.table[p0]) ^ int(self.table[p1])
                    ^ int(self.table[p2]))
        return combined == self._fingerprint(value, self.seed)

    def might_overlap_range(self, lo: Any, hi: Any,
                            enumeration_limit: int = 1024) -> bool:
        """Range probe by enumerating small integer ranges; for
        non-integer or wide ranges a membership filter cannot answer
        and must say "maybe"."""
        if not self.keys:
            return False
        if (isinstance(lo, (int, np.integer))
                and isinstance(hi, (int, np.integer))
                and hi - lo + 1 <= enumeration_limit):
            return any(self.might_contain(int(v))
                       for v in range(int(lo), int(hi) + 1))
        return True

    @property
    def count(self) -> int:
        return len(self.keys)

    def nbytes(self) -> int:
        return self.size


def _peel_small(h: np.ndarray, fp: np.ndarray,
                segment: int) -> np.ndarray | None:
    """Stack-based peel over plain Python ints; None if it fails.

    Identical position/fingerprint math to :func:`_peel_rounds`.
    """
    fp, seg = fp.tolist(), segment
    key_pos = [(hv % seg, seg + ((hv >> 21) % seg),
                2 * seg + ((hv >> 42) % seg)) for hv in h.tolist()]
    cnt = [0] * (3 * seg)
    acc = [0] * (3 * seg)
    for ki, (a, b, c) in enumerate(key_pos):
        cnt[a] += 1
        cnt[b] += 1
        cnt[c] += 1
        acc[a] += ki
        acc[b] += ki
        acc[c] += ki
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
        return None  # rare peel failure; retry with the next seed
    table = [0] * (3 * seg)
    for ki, position in reversed(order):
        a, b, c = key_pos[ki]
        table[position] = (fp[ki] ^ table[a] ^ table[b]
                           ^ table[c] ^ table[position]) & 0xFF
    return np.asarray(table, dtype=np.uint8)


def _peel_rounds(h: np.ndarray, fp: np.ndarray,
                 segment: int) -> np.ndarray | None:
    """Linear count/sum hypergraph peel in numpy rounds; None if it
    fails."""
    n, size, seg = len(h), 3 * segment, np.uint64(segment)
    pos = np.empty((n, 3), dtype=np.int64)
    pos[:, 0] = (h % seg).astype(np.int64)
    pos[:, 1] = segment + ((h >> np.uint64(21)) % seg).astype(np.int64)
    pos[:, 2] = 2 * segment \
        + ((h >> np.uint64(42)) % seg).astype(np.int64)
    flat = pos.ravel()
    # Sum of key indices per position: once a position's count
    # drops to 1, the sum IS the remaining key's index.
    cnt = np.bincount(flat, minlength=size)
    # bincount-with-weights is a much faster scatter-add than
    # np.add.at; key indices stay exact in float64 (n << 2**53).
    acc = np.bincount(
        flat, weights=np.repeat(np.arange(n, dtype=np.float64), 3),
        minlength=size).astype(np.int64)
    # Round-based peeling: resolve every singleton position of a
    # round at once. Two same-round keys can never occupy each
    # other's singleton position (its count is exactly 1), so the
    # per-round resolution order is irrelevant and both the peel
    # and the later assignment stay fully vectorized.
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    peeled = 0
    while peeled < n:
        singles = np.flatnonzero(cnt == 1)
        if len(singles) == 0:
            return None  # rare peel failure; retry with the next seed
        # One assignment slot per key, deduped by scatter (a key
        # with two singleton positions may take either one; the
        # loser's count drops to 0 with the subtraction below).
        slot = np.full(n, -1, dtype=np.int64)
        slot[acc[singles]] = singles
        keys_u = np.flatnonzero(slot != -1)
        pos_u = slot[keys_u]
        rounds.append((keys_u, pos_u))
        peeled += len(keys_u)
        gone = pos[keys_u].ravel()
        cnt -= np.bincount(gone, minlength=size)
        acc -= np.bincount(
            gone,
            weights=np.repeat(keys_u.astype(np.float64), 3),
            minlength=size).astype(np.int64)
    table = np.zeros(size, dtype=np.uint8)
    for keys_u, pos_u in reversed(rounds):
        kp = pos[keys_u]
        table[pos_u] = (fp[keys_u] ^ table[kp[:, 0]]
                        ^ table[kp[:, 1]] ^ table[kp[:, 2]]
                        ^ table[pos_u])
    return table
