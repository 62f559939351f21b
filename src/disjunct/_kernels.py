"""Bulk numeric kernels over bit-packed boolean matrices, in numpy.

Packing convention: a column over rows ``{0, .., t-1}`` is an array of
``ceil(t/64)`` uint64 words, row ``i`` stored at bit ``i & 63`` of word
``i >> 6``.  Bits at positions >= t are always zero.  The column kernels
take packed ``(n, W)`` arrays and handle any word count W; the
identification scan reads :func:`row_tables`, a row view of them.

One memory cap, ``_CELLS``, bounds every intermediate the kernels build in
blocks: the intersection table of :func:`min_cover_sizes`, the unpacked
bits of :func:`row_degrees`, the row tables and their transposed tiles,
the lookups of :func:`identification_scan` and the blocks of positive sets
that ``group_testing`` hands it.
"""

from __future__ import annotations

import numpy as np

# cells held at once by any blocked intermediate: 256 KB as uint64,
# whatever the number of rows, columns and sets; only tables of row pairs,
# about twice the packed matrix, may exceed it
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


def min_cover_sizes(words: np.ndarray, limit: int) -> np.ndarray:
    """Lower bound on the number of other columns needed to cover each column.

    For column j: the fewest k such that the k largest intersections
    |c_j & c_i| (i != j) add up to at least |c_j|, or ``limit + 1`` when
    no k <= ``limit`` does; 0 for an empty column.  k columns whose union
    holds c_j meet it in at least |c_j| rows between them, so no cover of
    c_j has fewer columns than this.
    """
    n, num_words = words.shape
    weights = column_weights(words)
    rows = np.ascontiguousarray(words.T)  # (W, n): word a of every column
    # the narrowest types that hold one count, and the sum of n of them
    count_type = np.min_scalar_type(64 * num_words)
    reach_type = np.min_scalar_type(64 * num_words * n)
    out = np.empty(n, dtype=np.int64)
    block = max(1, _CELLS // n)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        counts = np.zeros((hi - lo, n), dtype=count_type)
        for a in range(num_words):
            counts += np.bitwise_count(rows[a, lo:hi, None] & rows[a, None, :])
        counts[np.arange(hi - lo), np.arange(lo, hi)] = 0
        counts.sort(axis=1)
        # reach[:, k-1] is the sum of the k largest intersections
        reach = counts[:, ::-1].cumsum(axis=1, dtype=reach_type)
        out[lo:hi] = np.count_nonzero(reach < weights[lo:hi, None], axis=1) + 1
    # a column that all n - 1 others together cannot reach reads n + 1
    out[out > min(limit, n - 1)] = limit + 1
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


def row_tables(cols: np.ndarray, t: int) -> np.ndarray:
    """Column sets of groups of rows, for :func:`identification_scan`.

    Splits the t rows of the packed ``(n, W)`` columns into groups of g
    consecutive rows, g 8 or 4 if its tables hold at most ``_CELLS`` words,
    or else 2: tables of row pairs, about twice the matrix's packed size,
    are as small as single rows' and need half the lookups.  ``out[i, v]``
    packs, column j at bit ``j & 63`` of word ``j >> 6``, the columns that
    contain a row ``i*g + b`` for some bit b of v.
    """
    n, col_words = cols.shape
    num_words = -(-n // 64)
    g = next((g for g in (8, 4) if (-(-t // g) << g) * num_words <= _CELLS), 2)
    groups = -(-t // g)
    tables = np.zeros((groups, 1 << g, num_words), dtype=np.uint64)
    table_bytes, col_bytes = tables.view(np.uint8), cols.view(np.uint8)
    # row i*g + b is entry 1 << b of group i; the rows are transposed in
    # tiles of whole bytes of columns and of rows, unpacked to at most
    # _CELLS bits (64 at the least)
    singles = 1 << np.arange(g)
    span = max(8, min(n, _CELLS // 8) // 8 * 8)
    byte_span = max(1, _CELLS // (8 * span))
    for lo in range(0, n, span):
        for a in range(0, -(-t // 8), byte_span):
            tile = col_bytes[lo : lo + span, a : a + byte_span]
            bits = np.unpackbits(tile, axis=1, bitorder="little").T
            # packbits is many times faster along a contiguous axis
            bits = np.ascontiguousarray(bits)
            packed = np.packbits(bits, axis=1, bitorder="little")
            # rows 8a on, past the last group's dropped, in groups of g
            packed = packed[: groups * g - 8 * a].reshape(-1, g, packed.shape[1])
            i, j = 8 * a // g, lo // 8
            table_bytes[i : i + len(packed), singles, j : j + packed.shape[2]] = packed
    for b in range(1, g):
        # entry (1 << b) + v is entry v and the single row b
        out = tables[:, (1 << b) + 1 : 2 << b]
        np.bitwise_or(tables[:, 1 : 1 << b], tables[:, 1 << b, None], out=out)
    return tables


def identification_scan(tables: np.ndarray, unions: np.ndarray, n: int, k: int) -> int:
    """Check the naive decoder over many positive sets at once.

    ``tables`` are the :func:`row_tables` of n columns and each row of
    ``unions`` is the packed union of a positive set of k distinct
    columns.  Returns the index of the first positive set the decoder
    fails to recover exactly, or -1.  Its lookups hold at most ``_CELLS``
    words at a time, or one group's for every set if that is more.

    A column is decoded iff it meets no negative row, and every positive
    column is, so a set is recovered exactly iff its negative rows, one
    table entry per row group, meet exactly n - k columns.
    """
    groups, entries, num_words = tables.shape
    g = entries.bit_length() - 1
    # byte a of a union holds the bits of rows 8a .. 8a + 7
    union_bytes = np.ascontiguousarray(unions).view(np.uint8)
    missed = np.zeros((unions.shape[0], num_words), dtype=np.uint64)
    # look up a span of groups at once, as many as fit in _CELLS, so that
    # a tall matrix's many groups do not cost a numpy call each
    span = max(1, _CELLS // max(1, missed.size))
    for lo in range(0, groups, span):
        at = np.arange(lo, min(groups, lo + span))
        # row i: the negative rows of group at[i] in every set
        values = ~union_bytes[:, at * g >> 3].T
        if g < 8:
            shifts = (at * g & 7).astype(np.uint8)
            values = (values >> shifts[:, None]) & (entries - 1)
        flat = tables[lo : lo + span].reshape(-1, num_words)
        picked = np.take(flat, values + (at - lo)[:, None] * entries, axis=0)
        missed |= np.bitwise_or.reduce(picked, axis=0)
    bad = np.bitwise_count(missed).sum(axis=1) != n - k
    return int(np.argmax(bad)) if bad.any() else -1
