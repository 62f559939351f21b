"""Bulk numeric kernels over bit-packed boolean matrices, in numpy.

Packing convention: a column over rows ``{0, .., t-1}`` is an array of
``ceil(t/64)`` uint64 words, row ``i`` stored at bit ``i & 63`` of word
``i >> 6``.  Bits at positions >= t are always zero.  The kernels take
packed ``(n, W)`` arrays and handle any word count W.

One memory cap, ``_CELLS``, bounds every intermediate the kernels build in
blocks: the all-pairs intersection table of :func:`intersection_blocks`,
which :func:`min_cover_sizes` and the pair analysis each read in their
own pass, and the unpacked bits of :func:`row_degrees`.
"""

from __future__ import annotations

import numpy as np

# cells held at once by any blocked intermediate: 256 KB as uint64,
# whatever the number of rows and columns
_CELLS = 1 << 15


def column_weights(words: np.ndarray) -> np.ndarray:
    """Per-column popcount of a packed (n, W) matrix."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def subset_columns(words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean vector: which packed columns are subsets of ``mask``."""
    return ((words & ~mask) == 0).all(axis=1)


def intersection_counts(words: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Popcount of the intersection of every packed column with ``col``."""
    return np.bitwise_count(words & col).sum(axis=1, dtype=np.int64)


def intersection_blocks(words: np.ndarray):
    """The all-pairs intersection table |c_i & c_k| of a packed (n, W)
    matrix, one block of rows at a time, 0 on the diagonal.

    Yields ``(lo, counts)`` with ``counts[i - lo, k] = |c_i & c_k|`` for
    i != k, a fresh array of at most ``_CELLS`` cells (one row at least)
    that the caller may change, in the narrowest unsigned type that holds
    a count.
    """
    n, num_words = words.shape
    rows = np.ascontiguousarray(words.T)  # (W, n): word a of every column
    count_type = np.min_scalar_type(64 * num_words)
    block = max(1, _CELLS // max(1, n))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        counts = np.zeros((hi - lo, n), dtype=count_type)
        for a in range(num_words):
            counts += np.bitwise_count(rows[a, lo:hi, None] & rows[a, None, :])
        counts[np.arange(hi - lo), np.arange(lo, hi)] = 0
        yield lo, counts


def min_cover_sizes(words: np.ndarray, limit: int) -> np.ndarray:
    """Lower bound on the number of other columns needed to cover each column.

    For column j: the fewest k such that the k largest intersections
    |c_j & c_i| (i != j) add up to at least |c_j|, or ``limit + 1`` when
    no k <= ``limit`` does; 0 for an empty column.  k columns whose union
    holds c_j meet it in at least |c_j| rows between them, so no cover of
    c_j has fewer columns than this.

    Only the ``top = min(limit, n - 1)`` largest intersections of a column
    can matter, so each row ranks just those: a partition at n - top, then
    a sort of the tail.  A block where top times each row's largest count
    stays below the row's weight reaches no weight, so it is cleared
    without ranking.
    """
    n, num_words = words.shape
    weights = column_weights(words)
    top = min(limit, n - 1)
    # the narrowest type that holds the sum of top counts
    reach_type = np.min_scalar_type(64 * num_words * top)
    out = np.full(n, top + 1, dtype=np.int64)
    # at top 0 nothing is left to rank, so no block is built
    for lo, counts in intersection_blocks(words) if top > 0 else ():
        hi = lo + len(counts)
        # in int64: top times a uint8 count may pass 255
        largest = counts.max(axis=1).astype(np.int64)
        if (top * largest < weights[lo:hi]).all():
            continue
        counts.partition(n - top, axis=1)
        tail = counts[:, n - top :]
        tail.sort(axis=1)
        # reach[:, k-1] is the sum of the k largest intersections
        reach = tail[:, ::-1].cumsum(axis=1, dtype=reach_type)
        out[lo:hi] = np.count_nonzero(reach < weights[lo:hi, None], axis=1) + 1
    # a column that its top largest intersections cannot reach reads top + 1
    out[out > top] = limit + 1
    out[weights == 0] = 0
    return out


def row_degrees(words: np.ndarray, t: int) -> np.ndarray:
    """Number of columns containing each row, from packed columns."""
    degrees = np.zeros(t, dtype=np.int64)
    n = words.shape[0]
    # unpack in column blocks, a byte per bit, within the bytes of _CELLS
    # words: W words of a column unpack to 8W of them
    block = max(1, _CELLS // max(1, words.shape[1] * 8))
    for lo in range(0, n, block):
        chunk = words[lo : lo + block]
        bits = np.unpackbits(
            chunk.view(np.uint8), axis=1, bitorder="little", count=t
        )
        degrees += bits.sum(axis=0, dtype=np.int64)
    return degrees


def matching_numbers_table(
    num_edges: int, match_masks: np.ndarray, match_sizes: np.ndarray
) -> np.ndarray:
    """Matching number of every graph on a fixed edge universe.

    ``match_masks[i]`` is the edge bitmask of the i-th matching of the
    complete graph over the universe and ``match_sizes[i]`` its size.
    Returns a uint8 array indexed by graph edge bitmask.
    """
    if num_edges > 28:
        raise ValueError("edge universe too large to tabulate")
    graphs = np.arange(1 << num_edges, dtype=np.uint32)
    out = np.zeros(graphs.size, dtype=np.uint8)
    for idx in np.argsort(match_sizes, kind="stable"):
        mask = match_masks[idx]
        size = match_sizes[idx]
        if size == 0:
            continue
        out[(graphs & mask) == mask] = size
    return out
