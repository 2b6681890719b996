"""Kademlia XOR metric and k-bucket routing table.

The I2P netDb is *"implemented as a distributed hash table using a
variation of the Kademlia algorithm"* (Section 2.1.2).  Floodfill routers
store RouterInfos/LeaseSets whose routing keys are close to their own under
the XOR metric, and flood fresh entries to their three closest floodfill
neighbours.

This module provides the XOR metric, bucket-based routing tables, and the
iterative closest-node selection used by the store/lookup logic in
:mod:`repro.netdb.floodfill`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KEY_BITS",
    "xor_distance",
    "bucket_index",
    "KBucket",
    "RoutingTable",
    "closest_nodes",
    "pack_keys",
    "select_closest_shared",
    "select_closest_row",
    "select_closest_segmented",
]

#: Width of netDb keys in bits (SHA-256).
KEY_BITS = 256


def xor_distance(key_a: bytes, key_b: bytes) -> int:
    """XOR distance between two equal-length keys, as an integer."""
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    return int.from_bytes(key_a, "big") ^ int.from_bytes(key_b, "big")


def bucket_index(local_key: bytes, remote_key: bytes) -> int:
    """Index of the k-bucket a remote key falls into, relative to a local key.

    Bucket ``i`` holds keys whose XOR distance has its highest set bit at
    position ``i`` (0-based from the least-significant bit).  Identical keys
    raise :class:`ValueError` because a node never stores itself.
    """
    distance = xor_distance(local_key, remote_key)
    if distance == 0:
        raise ValueError("a node does not bucket its own key")
    return distance.bit_length() - 1


def closest_nodes(
    target: bytes, candidates: Iterable[bytes], count: int
) -> List[bytes]:
    """Return up to ``count`` candidate keys closest to ``target`` (XOR)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    ranked = sorted(candidates, key=lambda key: (xor_distance(target, key), key))
    return ranked[:count]


# --------------------------------------------------------------------- #
# Vectorised batch selection
#
# The message-plane engine ranks thousands of (target, candidate-set)
# pairs per convergence round.  Keys are packed as rows of four
# big-endian uint64 words; the top word of the XOR distance orders
# almost every comparison (two random SHA-256 keys collide in the top
# 64 bits with probability 2^-64), so selection argpartitions on word 0
# alone and falls back to an exact 256-bit ranking only for rows where
# word 0 leaves the outcome ambiguous.
# --------------------------------------------------------------------- #


def pack_keys(keys: Sequence[bytes]) -> np.ndarray:
    """Pack 32-byte keys into an ``(n, 4)`` matrix of big-endian uint64 words.

    Row ``i`` holds key ``i`` split into four words, most-significant
    first, so lexicographic comparison of rows matches integer
    comparison of the keys.
    """
    if not keys:
        return np.empty((0, 4), dtype=np.uint64)
    joined = b"".join(keys)
    if len(joined) != 32 * len(keys):
        raise ValueError("all keys must be 32 bytes")
    return np.frombuffer(joined, dtype=">u8").astype(np.uint64).reshape(-1, 4)


def _rank_exact(
    target_words: np.ndarray,
    pool_words: np.ndarray,
    pool_ids: Sequence[bytes],
    cand_idx: Iterable[int],
    count: int,
) -> List[int]:
    """Exact 256-bit ranking of ``cand_idx`` (pool indices) for one target.

    Matches :func:`repro.netdb.routing_key.select_closest`: candidates
    are ordered by full XOR distance, ties broken by the raw candidate
    id bytes.
    """
    t0, t1, t2, t3 = (int(w) for w in target_words)

    def sort_key(i: int) -> Tuple[int, bytes]:
        w = pool_words[i]
        distance = (
            ((t0 ^ int(w[0])) << 192)
            | ((t1 ^ int(w[1])) << 128)
            | ((t2 ^ int(w[2])) << 64)
            | (t3 ^ int(w[3]))
        )
        return (distance, pool_ids[i])

    ranked = sorted((int(i) for i in cand_idx), key=sort_key)
    return ranked[:count]


def _fill_row(out_row: np.ndarray, selected: Sequence[int]) -> None:
    for j, idx in enumerate(selected):
        out_row[j] = idx


def _unambiguous_rows(svals: np.ndarray, count: int) -> np.ndarray:
    """Rows whose word-0 ordering provably equals the full-key ordering.

    ``svals`` holds each row's ``count + 1`` smallest word-0 distances in
    ascending order.  The top-k set and its internal order are decided by
    word 0 alone iff those ``count + 1`` values are pairwise distinct.
    """
    good = svals[:, count] > svals[:, count - 1]
    if count > 1:
        good &= np.all(svals[:, 1:count] > svals[:, : count - 1], axis=1)
    return good


def select_closest_shared(
    target_words: np.ndarray,
    pool_words: np.ndarray,
    pool_ids: Sequence[bytes],
    cols: np.ndarray,
    count: int,
    chunk_rows: int = 1024,
) -> np.ndarray:
    """Rank-ordered closest pool indices for targets sharing one candidate set.

    ``target_words`` is ``(r, 4)``; every row selects from the same
    candidate columns ``cols`` (indices into ``pool_words`` /
    ``pool_ids``).  Returns an ``(r, count)`` int64 matrix of pool
    indices, ``-1``-padded when fewer than ``count`` candidates exist.
    Results match per-row :func:`closest_nodes` over the pool keys with
    raw-id tie-breaking, bit for bit.
    """
    n_rows = len(target_words)
    out = np.full((n_rows, count), -1, dtype=np.int64)
    if n_rows == 0 or count <= 0 or len(cols) == 0:
        return out
    n_cols = len(cols)
    if n_cols <= count + 1:
        for i in range(n_rows):
            _fill_row(out[i], _rank_exact(target_words[i], pool_words, pool_ids, cols, count))
        return out

    col_w0 = pool_words[cols, 0]
    target_w0 = target_words[:, 0]
    for start in range(0, n_rows, chunk_rows):
        stop = min(start + chunk_rows, n_rows)
        d0 = target_w0[start:stop, None] ^ col_w0[None, :]
        part = np.argpartition(d0, count, axis=1)[:, : count + 1]
        vals = np.take_along_axis(d0, part, axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        svals = np.take_along_axis(vals, order, axis=1)
        sel_pos = np.take_along_axis(part, order[:, :count], axis=1)
        out[start:stop] = cols[sel_pos]
        good = _unambiguous_rows(svals, count)
        for local_i in np.flatnonzero(~good):
            row = start + int(local_i)
            _fill_row(
                out[row],
                _rank_exact(target_words[row], pool_words, pool_ids, cols, count),
            )
    return out


def select_closest_row(
    target_words: np.ndarray,
    pool_words: np.ndarray,
    pool_ids: Sequence[bytes],
    cols: np.ndarray,
    count: int,
) -> List[int]:
    """:func:`select_closest_shared` for one ``(4,)`` target row.

    For callers that rank once per step of a walk.  Returns a list of at
    most ``count`` pool indices that matches
    :func:`repro.netdb.routing_key.select_closest` bit for bit.
    """
    n_cols = len(cols)
    if count <= 0 or n_cols == 0:
        return []
    if n_cols <= count + 1:
        return _rank_exact(target_words, pool_words, pool_ids, cols, count)
    d0 = pool_words[cols, 0] ^ target_words[0]
    part = np.argpartition(d0, count)[: count + 1]
    vals = d0[part]
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    if not _unambiguous_rows(svals[None], count)[0]:
        return _rank_exact(target_words, pool_words, pool_ids, cols, count)
    return cols[part[order[:count]]].tolist()


def select_closest_segmented(
    target_words: np.ndarray,
    pool_words: np.ndarray,
    pool_ids: Sequence[bytes],
    cand_concat: np.ndarray,
    row_splits: np.ndarray,
    count: int,
) -> np.ndarray:
    """Per-row closest selection when every target has its own candidate set.

    Candidates for row ``i`` are
    ``cand_concat[row_splits[i]:row_splits[i + 1]]`` (pool indices).
    Semantics and return shape match :func:`select_closest_shared`.
    Designed for sparse rows (bootstrap-era views of a handful of
    floodfills); cost is ``O(total candidates log total candidates)``.
    """
    n_rows = len(row_splits) - 1
    out = np.full((n_rows, count), -1, dtype=np.int64)
    if n_rows == 0 or count <= 0 or cand_concat.size == 0:
        return out
    lens = np.diff(row_splits)
    pool_w0 = pool_words[:, 0]
    target_w0 = target_words[:, 0]
    umax = np.uint64(0xFFFFFFFFFFFFFFFF)
    # Chunk rows by ascending candidate count so each padded chunk wastes
    # little space, then argpartition the padded (rows, max_len) distance
    # matrix; padding slots carry UMAX, which sorts last.  Any row where a
    # selected/boundary value collides (including with padding) drops to
    # the exact 256-bit ranking.
    by_len = np.argsort(lens, kind="stable")
    by_len = by_len[lens[by_len] > 0]
    chunk_rows = 1024
    for start in range(0, len(by_len), chunk_rows):
        rows = by_len[start : start + chunk_rows]
        max_len = int(lens[rows].max())
        if max_len <= count + 1:
            for row in rows:
                row = int(row)
                cands = cand_concat[row_splits[row] : row_splits[row + 1]]
                _fill_row(
                    out[row],
                    _rank_exact(target_words[row], pool_words, pool_ids, cands, count),
                )
            continue
        cmat = np.full((len(rows), max_len), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            lo, hi = row_splits[row], row_splits[row + 1]
            cmat[i, : hi - lo] = cand_concat[lo:hi]
        valid = cmat >= 0
        d0 = np.where(
            valid,
            pool_w0[np.maximum(cmat, 0)] ^ target_w0[rows][:, None],
            umax,
        )
        part = np.argpartition(d0, count, axis=1)[:, : count + 1]
        vals = np.take_along_axis(d0, part, axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        svals = np.take_along_axis(vals, order, axis=1)
        sel_pos = np.take_along_axis(part, order[:, :count], axis=1)
        out[rows] = np.take_along_axis(cmat, sel_pos, axis=1)
        good = _unambiguous_rows(svals, count)
        for local_i in np.flatnonzero(~good):
            row = int(rows[local_i])
            cands = cand_concat[row_splits[row] : row_splits[row + 1]]
            _fill_row(
                out[row],
                _rank_exact(target_words[row], pool_words, pool_ids, cands, count),
            )
    return out


@dataclass
class KBucket:
    """A single k-bucket holding up to ``capacity`` node keys (LRU order).

    The freshest node is at the end of the list.  When the bucket is full,
    new entries displace the least-recently-seen entry only if
    ``evict_stale`` is set; otherwise insertion is refused, matching
    Kademlia's preference for long-lived nodes.
    """

    capacity: int = 20
    evict_stale: bool = True
    _entries: List[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("bucket capacity must be positive")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._entries)

    @property
    def entries(self) -> Tuple[bytes, ...]:
        return tuple(self._entries)

    def touch(self, key: bytes) -> bool:
        """Insert ``key`` or refresh its recency.

        Returns ``True`` if the key is present in the bucket afterwards.
        """
        if key in self._entries:
            self._entries.remove(key)
            self._entries.append(key)
            return True
        if len(self._entries) < self.capacity:
            self._entries.append(key)
            return True
        if self.evict_stale:
            self._entries.pop(0)
            self._entries.append(key)
            return True
        return False

    def remove(self, key: bytes) -> bool:
        """Remove ``key`` if present; return whether it was removed."""
        if key in self._entries:
            self._entries.remove(key)
            return True
        return False

    def oldest(self) -> Optional[bytes]:
        return self._entries[0] if self._entries else None


class RoutingTable:
    """A Kademlia routing table keyed on a local node's routing key.

    The table maintains :data:`KEY_BITS` buckets.  It deliberately stores
    only the 32-byte keys (not full RouterInfos): callers keep their own
    key → record mapping, which mirrors how the Java router separates the
    peer-selection data structures from the netDb store.
    """

    def __init__(
        self, local_key: bytes, bucket_capacity: int = 20, evict_stale: bool = True
    ) -> None:
        if len(local_key) != KEY_BITS // 8:
            raise ValueError("local key must be 32 bytes")
        self._local_key = local_key
        self._buckets: Dict[int, KBucket] = {}
        self._bucket_capacity = bucket_capacity
        self._evict_stale = evict_stale

    @property
    def local_key(self) -> bytes:
        return self._local_key

    def _bucket_for(self, key: bytes) -> KBucket:
        index = bucket_index(self._local_key, key)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = KBucket(
                capacity=self._bucket_capacity, evict_stale=self._evict_stale
            )
            self._buckets[index] = bucket
        return bucket

    def add(self, key: bytes) -> bool:
        """Add or refresh a remote key.  The local key is never stored."""
        if key == self._local_key:
            return False
        return self._bucket_for(key).touch(key)

    def remove(self, key: bytes) -> bool:
        if key == self._local_key:
            return False
        try:
            index = bucket_index(self._local_key, key)
        except ValueError:
            return False
        bucket = self._buckets.get(index)
        if bucket is None:
            return False
        return bucket.remove(key)

    def __contains__(self, key: bytes) -> bool:
        if key == self._local_key:
            return False
        index = bucket_index(self._local_key, key)
        bucket = self._buckets.get(index)
        return bucket is not None and key in bucket

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def all_keys(self) -> List[bytes]:
        keys: List[bytes] = []
        for index in sorted(self._buckets):
            keys.extend(self._buckets[index].entries)
        return keys

    def closest(self, target: bytes, count: int) -> List[bytes]:
        """The ``count`` known keys closest to ``target`` under XOR."""
        return closest_nodes(target, self.all_keys(), count)

    def bucket_sizes(self) -> Dict[int, int]:
        """Mapping of bucket index → number of entries (for diagnostics)."""
        return {index: len(bucket) for index, bucket in self._buckets.items()}
