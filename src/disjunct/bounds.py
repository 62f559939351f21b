"""Row lower bounds for better-than-individual-testing disjunct matrices.

T(d) is the least t admitting a t x n d-disjunct matrix with n > t.  Three
lower bounds are evaluated side by side:

* the Bassalygo bound T(d) >= C(d+2, 2),
* the general bound T(d) >= kappa * d^2 with kappa = (15 + sqrt(33)) / 24,
  obtained by counting private 2-subsets against the C(t, 2) budget,
* the conjectured optimum (d+1)^2, met with equality by affine planes.

The module also replays the two counting arguments as certificates on
concrete matrices, so the inequalities can be audited rather than trusted.
The audit of the general bound is a reading of one ``analyze_pairs`` pass:
its per-column pair bound is Lemma 3's ``bound_ok``, and its kappa tests
go through ``floor_kappa_times`` and ``ceil_kappa_times``.  Those two are
the only place kappa is compared exactly: 24 * kappa = 15 + sqrt(33), so
rounding kappa * x reduces to an integer square root (``math.isqrt``).
"""

from __future__ import annotations

import math
from itertools import combinations
from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from . import _kernels
from .disjunctness import find_isolated_columns
from .matrix import BinaryMatrix
from .pairs import PairAnalysis, analyze_pairs

KAPPA = (15 + math.sqrt(33)) / 24
"""Root of 12*x^2 - 15*x + 4 in (1/2, 1), i.e. where (3k-1)(2-2k) = k/2.

This equates the private-pair guarantees of the two column-weight regimes
of the general bound, and lies in [6/7, 7/8].
"""


def floor_kappa_times(x: int) -> int:
    """floor(kappa * x) for integer x >= 0, exactly.

    kappa * x = (15x + sqrt(33 x^2)) / 24, and flooring the root first does
    not change the floor of an integer plus that root, divided by 24.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    return (15 * x + isqrt(33 * x * x)) // 24


def ceil_kappa_times(x: int) -> int:
    """ceil(kappa * x) for integer x >= 0, safe against float rounding."""
    if x == 0:
        return 0
    # kappa is irrational, so kappa*x is never an integer for x > 0
    return floor_kappa_times(x) + 1


class BoundReport(NamedTuple):
    """Evaluated lower bounds on T(d) for one d."""

    d: int
    bassalygo: int
    theorem2_real: float
    theorem2: int
    conjecture_strong: int
    combined: int


def lower_bounds(d: int) -> BoundReport:
    """All known lower bounds on T(d), plus the conjectured value."""
    if d < 1:
        raise ValueError("d must be >= 1")
    try:
        theorem2_real = KAPPA * d * d
    except OverflowError:  # d itself is past the float range
        theorem2_real = math.inf
    if theorem2_real == math.inf:
        raise ValueError("d too large: kappa * d^2 is not a finite float")
    bassalygo = comb(d + 2, 2)
    theorem2 = ceil_kappa_times(d * d)
    return BoundReport(
        d=d,
        bassalygo=bassalygo,
        theorem2_real=theorem2_real,
        theorem2=theorem2,
        conjecture_strong=(d + 1) ** 2,
        combined=max(bassalygo, theorem2),
    )


class TDNBound(NamedTuple):
    """Lower bound on t(d, n), the minimal rows for n columns."""

    d: int
    n: int
    value: int
    dominant: str  # "bassalygo", "theorem2" or "n"


def t_dn_lower_bound(d: int, n: int) -> TDNBound:
    """max over {min(C(d+2,2), n), min(ceil(kappa d^2), n)} with provenance."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    report = lower_bounds(d)
    if n < report.combined:
        dominant = "n"
    elif report.bassalygo >= report.theorem2:
        dominant = "bassalygo"
    else:
        dominant = "theorem2"
    return TDNBound(d=d, n=n, value=min(report.combined, n), dominant=dominant)


class Theorem1Certificate(NamedTuple):
    """Replay of the constant-weight counting argument on a concrete matrix.

    Some row lies in at least d+2 columns; those columns pairwise meet in
    exactly that row, so their union has 1 + |C(i0)| * d rows, forcing
    t >= (d+1)^2.
    """

    row: int
    row_degree: int
    union_weight: int
    t: int
    ok: bool
    failure: str | None = None


def theorem1_certificate(matrix: BinaryMatrix, d: int) -> Theorem1Certificate:
    """Verify the constant-column-weight bound t >= (d+1)^2 on ``matrix``.

    Preconditions (parameter errors): constant column weight d+1, no
    isolated columns, n > t.  Disjunctness is not assumed; if the matrix
    is not d-disjunct the pairwise-intersection step fails and the
    certificate reports ok=False instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if find_isolated_columns(matrix):
        raise ValueError("matrix has isolated columns")
    weights = set(int(w) for w in matrix.weights())
    if weights != {d + 1}:
        raise ValueError(
            f"constant column weight {d + 1} required, found weights {sorted(weights)}"
        )
    if matrix.n <= matrix.t:
        raise ValueError(f"n > t required, got n={matrix.n}, t={matrix.t}")

    degrees = _kernels.row_degrees(matrix.words, matrix.t)
    # counting the 1s guarantees such a row exists when n > t
    row = int(np.flatnonzero(degrees >= d + 2)[0])
    point = 1 << row
    masks = matrix.masks
    cols = [j for j, mask in enumerate(masks) if mask & point]
    union = 0
    for c in cols:
        union |= masks[c]
    union_weight = union.bit_count()
    # every column is ``row`` and d more rows: the union reaches 1 + |cols| d
    # rows exactly when no two of them share another row
    ok = union_weight == 1 + len(cols) * d
    failure = None
    if not ok:
        pairs = combinations(cols, 2)
        a, b = next((a, b) for a, b in pairs if masks[a] & masks[b] != point)
        failure = f"columns {a} and {b} share more than row {row}"
    return Theorem1Certificate(
        row=row,
        row_degree=len(cols),
        union_weight=union_weight,
        t=matrix.t,
        ok=ok,
        failure=failure,
    )


class Theorem2Audit(NamedTuple):
    """The private-pair counting argument read off one ``analyze_pairs`` pass."""

    analysis: PairAnalysis
    kappa_ok: tuple[bool | None, ...]  # 2|P(c)| >= kappa d^2; None above the cap
    weight_cap: int  # floor(2 kappa d): the case split on the max weight
    t_bound: int  # ceil(kappa d^2)
    ok: bool


def theorem2_audit(matrix: BinaryMatrix, d: int) -> Theorem2Audit:
    """Replay the private-2-subset counting argument on a concrete matrix.

    Requires a d-disjunct matrix with no isolated columns and n > t.  For
    every column of weight at most floor(2 kappa d) the argument promises
    2|P(c)| >= kappa d^2, through Lemma 3's pair bound (``bound_ok``);
    heavier columns belong to the inductive case and are reported without
    assertion.  Both promises are asserted only where s = weight - d lies
    in the lemma's range 1 <= s <= d-1, and ``ok`` also asks t >= kappa d^2.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    # the cheap preconditions first: the pair pass runs the exact check
    if find_isolated_columns(matrix):
        raise ValueError("matrix has isolated columns")
    if matrix.n <= matrix.t:
        raise ValueError(f"n > t required, got n={matrix.n}, t={matrix.t}")
    analysis = analyze_pairs(matrix, d)
    if not analysis.disjunct:
        raise ValueError(f"matrix is not {d}-disjunct")

    weight_cap = floor_kappa_times(2 * d)
    t_bound = ceil_kappa_times(d * d)
    # 2|P| is an integer, so 2|P| >= kappa d^2 iff 2|P| >= ceil(kappa d^2)
    kappa_ok = tuple(
        None if c.weight > weight_cap else 2 * c.private >= t_bound
        for c in analysis.columns
    )
    # a vacuous matrix (d >= n > t) has no column in range, and no Lemma 3 fields
    ok = matrix.t >= t_bound and all(
        column_ok and c.bound_ok
        for c, column_ok in zip(analysis.columns, kappa_ok)
        if column_ok is not None and 1 <= c.weight - d <= d - 1
    )
    return Theorem2Audit(analysis, kappa_ok, weight_cap, t_bound, ok)
