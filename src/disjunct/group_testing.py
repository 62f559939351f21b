"""Pooling semantics: test outcomes for a positive set and the naive decoder.

A test is positive iff it contains a positive item, so the outcome vector
is the boolean sum of the positive columns.  The naive decoder returns
every item appearing in no negative test; on a d-disjunct matrix it
recovers any positive set of size at most d exactly.

The guarantee fails exactly when the union of at most d columns holds a
column outside them, so :func:`verify_identification` asks
``disjunctness`` one question instead of decoding every positive set:
the lex-first failing set of the least size, if one has at most d
columns.  Binomials, summed one running term at a time, count the sets
before it.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .disjunctness import _least_failing_set
from .matrix import BinaryMatrix, _iter_bits, _mask_to_words


class BudgetExceededError(RuntimeError):
    """Raised when a check would cover more cases than its budget allows."""


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
        if not set(text) <= {"0", "1"}:
            raise ValueError("outcome bitstring must contain only 0 and 1")
        # character i is bit i, so the string is the mask's binary digits
        # reversed; int and format run in linear time, a bit loop does not
        return cls(len(text), int(text[::-1] or "0", 2))

    def to_bitstring(self) -> str:
        return format(self.mask, f"0{self.t}b")[::-1] if self.t else ""

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
    """Check exact decoding of every positive set of size <= d.

    Positive sets are taken by size then lexicographically, the empty set
    first, and the first failure in that order is reported.  The positives
    are always decoded, so a set fails iff its union holds a column outside
    it, the empty set iff some column is empty.  So the first failure, if
    any, is ``disjunctness._least_failing_set`` at min(d, n-1).

    ``cases`` counts the sets in that order up to and including the first
    failure, or all sum_{k <= min(d, n)} C(n, k) of them on success; it is
    computed from binomials, not by enumeration.  Raises
    :class:`BudgetExceededError` up front when that sum exceeds
    ``max_cases``, however many digits it has.  That refusal is the
    budget's only effect: the failing-set search looks only at sets of at
    most d columns, and counts nothing against it.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if max_cases < 0:
        raise ValueError("max_cases must be >= 0")
    n = matrix.n
    total = _binomial_sum(n, d + 1)
    if total > max_cases:
        raise BudgetExceededError(
            f"{_decimal(total)} positive sets exceed the budget of {_decimal(max_cases)}"
        )
    failure = _least_failing_set(matrix, min(d, n - 1))
    if failure is None:
        return IdentificationReport(ok=True, cases=total)
    return IdentificationReport(
        ok=False,
        cases=_binomial_sum(n, len(failure)) + _lex_rank(n, failure) + 1,
        failure=failure,
    )


def _binomial_sum(n: int, k: int) -> int:
    """sum(comb(n, i) for i in range(k)), one step C(n, i+1) = C(n, i) *
    (n-i) / (i+1) per term; 2**n once k passes n.  Past the middle it
    walks the shorter tail: C(n, i) = C(n, n-i), so the terms from k on
    add up to the first n-k+1."""
    if k > n:
        return 1 << n
    if 2 * k > n + 1:
        return (1 << n) - _binomial_sum(n, n - k + 1)
    total, term = 0, 1
    for i in range(k):
        total += term
        term = term * (n - i) // (i + 1)
    return total


def _decimal(count: int) -> str:
    """``count`` in decimal, or in scientific notation past Python's
    int-to-str digit limit."""
    try:
        return str(count)
    except ValueError:
        from decimal import Decimal  # here, not per command: its import takes about 1 ms
        return f"{Decimal(count):.3e}"


def _lex_rank(n: int, subset: tuple[int, ...]) -> int:
    """Position of the ascending ``subset`` of range(n) in the lex order of
    the subsets of its size."""
    rank, lo, k = 0, 0, len(subset)
    for i, x in enumerate(subset):
        # the sets that agree before i and hold some y in lo .. x-1 there:
        # sum_y C(n - y - 1, k - i - 1) = C(n - lo, k - i) - C(n - x, k - i)
        rank += comb(n - lo, k - i) - comb(n - x, k - i)
        lo = x + 1
    return rank
