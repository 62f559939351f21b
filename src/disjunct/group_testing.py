"""Pooling semantics: test outcomes for a positive set and the naive decoder.

A test is positive iff it contains a positive item, so the outcome vector
is the boolean sum of the positive columns.  The naive decoder returns
every item appearing in no negative test; on a d-disjunct matrix it
recovers any positive set of size at most d exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable

import numpy as np

from . import _kernels
from .matrix import BinaryMatrix, _iter_bits, _mask_to_words


# Positive sets per identification_scan call, fewer on wide matrices so
# that its (sets, n) temporary arrays hold at most _SCAN_CELLS cells each
# (8 MB as uint64), whatever the number of sets and columns.
_SCAN_BLOCK = 1 << 10
_SCAN_CELLS = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its case budget."""


@dataclass(frozen=True)
class OutcomeVector:
    """Length-t outcome bit vector, packed; bit i is the result of test i."""

    t: int
    mask: int = 0

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.mask < 0 or self.mask >> self.t:
            raise ValueError("outcome bits beyond t")

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
        mask |= matrix.column_mask(j)
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


@dataclass(frozen=True)
class IdentificationReport:
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
    block = min(_SCAN_BLOCK, max(1, _SCAN_CELLS // n))
    checked = 0
    for k in range(0, min(d, n) + 1):
        sets = combinations(range(n), k)
        num_sets = comb(n, k)
        for start in range(0, num_sets, block):
            size = min(block, num_sets - start)
            combos = np.fromiter(
                chain.from_iterable(islice(sets, size)),
                dtype=np.int64,
                count=size * k,
            ).reshape(size, k)
            bad = _kernels.identification_scan(matrix.words, combos)
            if bad != -1:
                return IdentificationReport(
                    ok=False,
                    cases=checked + bad + 1,
                    failure=tuple(combos[bad].tolist()),
                )
            checked += size
    return IdentificationReport(ok=True, cases=checked)
