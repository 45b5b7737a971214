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
#: seeds tried before a key set is declared unpeelable
_MAX_SEEDS = 64


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
    ``seed``."""
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
    the vectorized n-gram lanes test.

    ``XorFilter(values)`` is a batch of one: :meth:`batch` builds many
    filters in one hashing pass and one peel.
    """

    def __init__(self, values: Iterable[Any]):
        keys = list(dict.fromkeys(v for v in values if v is not None))
        [built] = XorFilter.batch(keys, np.arange(len(keys)),
                                  np.zeros(len(keys), dtype=np.int64), 1)
        vars(self).update(vars(built))

    @classmethod
    def batch(cls, keys: list, key_of: np.ndarray, filter_of: np.ndarray,
              count: int) -> list["XorFilter"]:
        """``count`` filters; entry ``i`` puts ``keys[key_of[i]]`` into
        filter ``filter_of[i]`` (no key twice in one filter).

        All filters peel in one pass (:func:`_peel_stack`), their
        tables side by side, and each gets the table a build of its own
        gives it. Filters that fail retry together at the next seed.
        """
        sizes = np.bincount(filter_of, minlength=count)
        segments = ((1.23 * sizes).astype(np.int64) + 32) // 3
        offsets = np.concatenate(([0], np.cumsum(3 * segments)))
        table = np.zeros(int(offsets[-1]), dtype=np.uint8)
        seeds = np.zeros(count, dtype=np.int64)
        pending = sizes > 0
        for seed in range(_MAX_SEEDS):
            entries = np.flatnonzero(pending[filter_of])
            if not len(entries):
                break
            # Hash each key the pending filters hold once, then gather.
            used = np.zeros(len(keys), dtype=bool)
            used[key_of[entries]] = True
            h, fp = _xor_hashes(
                [keys[k] for k in np.flatnonzero(used).tolist()], seed)
            at = (np.cumsum(used) - 1)[key_of[entries]]
            owner = filter_of[entries]
            h, fp, segment = h[at], fp[at], segments[owner]
            pos = np.empty((len(entries), 3), dtype=np.int64)
            for j, shift in enumerate((0, 21, 42)):
                pos[:, j] = offsets[owner] + j * segment + (
                    (h >> np.uint64(shift)) % segment.astype(np.uint64)
                ).astype(np.int64)
            attempt = np.zeros(len(table), dtype=np.uint8)
            peeled = _peel_stack(pos, fp, owner, count, attempt)
            failed = np.bincount(owner[~peeled], minlength=count) > 0
            done = pending & ~failed
            keep = np.repeat(done, 3 * segments)
            table[keep] = attempt[keep]
            seeds[done] = seed
            pending &= failed
        if pending.any():
            raise RuntimeError(
                "xor filter construction failed")  # pragma: no cover
        filters = []
        for size, seed, segment, part in zip(
                sizes.tolist(), seeds.tolist(), segments.tolist(),
                np.split(table, offsets[1:-1])):
            built = cls.__new__(cls)
            built.count, built.seed, built.segment = size, seed, segment
            built.size, built.table = 3 * segment, part
            filters.append(built)
        return filters

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
        if not self.count:
            return False
        if (isinstance(lo, (int, np.integer))
                and isinstance(hi, (int, np.integer))
                and hi - lo + 1 <= enumeration_limit):
            return any(self.might_contain(int(v))
                       for v in range(int(lo), int(hi) + 1))
        return True

    def nbytes(self) -> int:
        return self.size


def _counts(pos: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per table slot, how many keys hash there and the sum of their
    indices: once a slot's count drops to 1, the sum IS the remaining
    key's index. (bincount with weights scatters every key at once;
    indices stay exact in float64, as n << 2**53.)"""
    flat = pos.ravel()
    return (np.bincount(flat, minlength=size),
            np.bincount(flat, weights=np.repeat(
                np.arange(len(pos), dtype=np.float64), 3),
                minlength=size).astype(np.int64))


def _peel_stack(pos: np.ndarray, fp: np.ndarray, owner: np.ndarray,
                filters: int, table: np.ndarray) -> np.ndarray:
    """Depth-first peel of many filters; fills their slices of
    ``table`` and returns which keys peeled.

    Key ``i`` of filter ``owner[i]`` (of ``filters``) hashes to slots
    ``pos[i]``. Each filter runs the classic stack peel: its single-key
    slots pushed in ascending order, the top popped, a slot a peel
    leaves with one key pushed. The filters advance side by side, each
    numpy step popping one slot of every filter whose stack is not
    empty, so each filter peels exactly as it would alone.
    """
    cnt, acc = _counts(pos, len(table))
    # A slot is pushed at most once (its count reaches 1 once), so a
    # filter's stack fits in the span of its slots: stack and table
    # share one layout.
    base = np.full(filters, len(table))
    np.minimum.at(base, owner, pos[:, 0])
    owner_of = np.empty(len(table), dtype=np.int64)
    owner_of[pos.ravel()] = np.repeat(owner, 3)
    stack = np.empty(len(table), dtype=np.int64)
    singles = np.flatnonzero(cnt == 1)
    first = owner_of[singles]
    depth = np.bincount(first, minlength=filters)
    stack[base[first] + np.arange(len(singles))
          - (np.cumsum(depth) - depth)[first]] = singles
    # The stacks still holding slots: where each starts, one past its top.
    low = base[depth > 0]
    top = low + depth[depth > 0]
    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while len(top):
        top -= 1
        slot = stack[top]
        single = cnt[slot] == 1
        slot = slot[single]
        keys = acc[slot]
        hit = pos[keys]
        steps.append((keys, slot, hit))
        left = cnt[hit] - 1
        cnt[hit] = left
        acc[hit] -= keys[:, None]
        fresh = left == 1
        pushed = fresh.cumsum(axis=1)
        at = top[single]
        stack[(at[:, None] + pushed - 1)[fresh]] = hit[fresh]
        top[single] = at + pushed[:, 2]
        alive = top > low
        if not alive.all():
            low, top = low[alive], top[alive]
    # Assign in reverse pop order: each key popped later has set its
    # slot by then, and this key's own slot still holds 0.
    peeled = np.zeros(len(pos), dtype=bool)
    for keys, slot, hit in reversed(steps):
        table[slot] = fp[keys] ^ np.bitwise_xor.reduce(table[hit], axis=1)
        peeled[keys] = True
    return peeled
