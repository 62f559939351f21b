"""Pooling semantics: test outcomes for a positive set and the naive decoder.

A test is positive iff it contains a positive item, so the outcome vector
is the boolean sum of the positive columns.  The naive decoder returns
every item appearing in no negative test; on a d-disjunct matrix it
recovers any positive set of size at most d exactly.

:func:`verify_identification` checks that guarantee exhaustively.  It
decodes from a row view of the matrix: tables that give, for a group of
rows, the columns meeting any selected row (``_kernels.row_tables``),
so a positive set's decoded count is one table lookup per row group.
One enumeration covers every size from the empty set up: the sets of
each size are built in numpy blocks, within ``_kernels._CELLS``, from
the blocks of sets one smaller, and a failing set is read back from its
rank in its size's lex order.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .matrix import BinaryMatrix, _iter_bits, _mask_to_words


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its case budget."""


class _OutcomeVector(NamedTuple):
    t: int
    mask: int = 0


class OutcomeVector(_OutcomeVector):
    """Length-t outcome bit vector, packed; bit i is the result of test i."""

    __slots__ = ()

    def __new__(cls, t, mask=0):
        if t < 0:
            raise ValueError("t must be >= 0")
        if mask < 0 or mask >> t:
            raise ValueError("outcome bits beyond t")
        return super().__new__(cls, t, mask)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @classmethod
    def from_bitstring(cls, text: str) -> "OutcomeVector":
        if any(ch not in "01" for ch in text):
            raise ValueError("outcome bitstring must contain only 0 and 1")
        mask = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
        return cls(len(text), mask)

    def to_bitstring(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.t))

    @property
    def positives(self) -> frozenset[int]:
        return frozenset(_iter_bits(self.mask))


def outcomes(matrix: BinaryMatrix, positives: Iterable[int]) -> OutcomeVector:
    """Outcome vector when exactly ``positives`` are the positive items."""
    mask = 0
    for j in positives:
        if not 0 <= j < matrix.n:
            raise ValueError(f"item index {j} out of range")
        mask |= matrix.masks[j]
    return OutcomeVector(matrix.t, mask)


def naive_decode(matrix: BinaryMatrix, outcome: OutcomeVector) -> frozenset[int]:
    """Items appearing in no negative test: {j : support(c_j) within positives}.

    Returns the full candidate set even when it has more than d members;
    callers compare its size against d when checking guarantees.
    """
    if outcome.t != matrix.t:
        raise ValueError(
            f"outcome length {outcome.t} does not match t={matrix.t}"
        )
    hits = _kernels.subset_columns(
        matrix.words, _mask_to_words(outcome.mask, matrix.words.shape[1])
    )
    return frozenset(np.nonzero(hits)[0].tolist())


class IdentificationReport(NamedTuple):
    ok: bool
    cases: int
    failure: tuple[int, ...] | None = None


def verify_identification(
    matrix: BinaryMatrix, d: int, max_cases: int = 2_000_000
) -> IdentificationReport:
    """Exhaustively check exact decoding of every positive set of size <= d.

    Enumerates positive sets by size then lexicographically (the empty set
    included) and reports the first failure in that order.  Raises
    :class:`BudgetExceededError` up front when the enumeration would
    exceed ``max_cases``; it never silently truncates.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if max_cases < 0:
        raise ValueError("max_cases must be >= 0")
    n = matrix.n
    total = sum(comb(n, k) for k in range(0, min(d, n) + 1))
    if total > max_cases:
        raise BudgetExceededError(
            f"{total} positive sets exceed the budget of {max_cases}"
        )
    tables = _kernels.row_tables(matrix.words, matrix.t)
    # a set's cells in its block: its parent and last element, and the
    # words of its union and of the columns it misses, each with one copy
    words = matrix.words.shape[1] + tables.shape[2]
    size = max(1, _kernels._CELLS // (2 + 2 * words))
    checked = 0
    for k in range(min(d, n) + 1):
        rank = 0  # of the block's first set among the k-sets
        for _, unions in _lex_blocks(matrix.words, k, size):
            bad = _kernels.identification_scan(tables, unions, n, k)
            if bad != -1:
                return IdentificationReport(
                    ok=False,
                    cases=checked + rank + bad + 1,
                    failure=_lex_set(n, k, rank + bad),
                )
            rank += len(unions)
        checked += rank
    return IdentificationReport(ok=True, cases=checked)


def _lex_blocks(cols: np.ndarray, k: int, size: int):
    """Every k-subset of the packed columns in lex order, with the union
    of its columns, in blocks of at most ``size`` sets.

    Yields ``(last, unions)``: each set's last element and its union.  The
    one block of k = 0 is the empty set, last element -1 and union 0.  A
    k-set is a (k-1)-set, its prefix, and a last element past the
    prefix's last; a block of prefixes expands to the runs of last
    elements that follow each prefix, split across as many blocks as they
    fill.
    """
    n, num_words = cols.shape
    if k == 0:
        yield np.array([-1]), np.zeros((1, num_words), dtype=np.uint64)
        return
    for prefix_last, prefix_unions in _lex_blocks(cols, k - 1, size):
        # prefix p's run fills positions ends[p] - runs[p] .. ends[p] - 1
        runs = n - 1 - prefix_last
        ends = np.cumsum(runs)
        total = int(ends[-1])
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            first = np.searchsorted(ends, lo, side="right")
            stop = np.searchsorted(ends, hi - 1, side="right") + 1
            ends_here = ends[first:stop]
            starts_here = ends_here - runs[first:stop]
            taken = np.minimum(ends_here, hi) - np.maximum(starts_here, lo)
            parent = np.repeat(np.arange(first, stop), taken)
            # the run of prefix p ends with column n - 1 at position ends[p] - 1
            last = np.repeat(n - ends_here, taken)
            last += np.arange(lo, hi)
            unions = prefix_unions[parent]
            unions |= cols[last]
            yield last, unions


def _lex_set(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The k-subset of range(n) at position ``rank`` of the lex order."""
    out = []
    j = 0
    for size in range(k, 0, -1):
        # the sets whose next element is j come first: comb(n - j - 1, size - 1)
        while rank >= (before := comb(n - j - 1, size - 1)):
            rank -= before
            j += 1
        out.append(j)
        j += 1
    return tuple(out)
