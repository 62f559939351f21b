import random
from math import comb

import numpy as np
import pytest

from disjunct import (
    KAPPA,
    BinaryMatrix,
    affine_plane_matrix,
    ceil_kappa_times,
    find_isolated_columns,
    floor_kappa_times,
    identity_matrix,
    lower_bounds,
    t_dn_lower_bound,
    theorem1_certificate,
    theorem2_audit,
)
from oracles import dense_of


def kappa_ceil_oracle(x):
    """Integer-only ceil(kappa x) for x >= 0: the least v with
    24v - 15x >= x*sqrt(33), found by bisection over 0 <= v <= x.

    Squaring removes the irrationality, so each comparison is exact.
    """

    def at_least(v):
        gap = 24 * v - 15 * x
        return gap >= 0 and gap * gap >= 33 * x * x

    lo, hi = 0, x  # kappa < 1, so ceil(kappa x) <= x
    while lo < hi:
        mid = (lo + hi) // 2
        if at_least(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- kappa -------------------------------------------------------------


def test_kappa_value_and_interval():
    assert abs(KAPPA - 0.8643567769390845) < 1e-12
    assert 6 / 7 <= KAPPA <= 7 / 8
    # exactly, with 24 kappa = 15 + sqrt(33): kappa > 6/7 iff sqrt(33) > 39/7
    # and kappa < 7/8 iff sqrt(33) < 6
    assert 39**2 < 33 * 7**2
    assert 33 < 6**2


def test_kappa_balances_the_two_regimes():
    assert abs((3 * KAPPA - 1) * (2 - 2 * KAPPA) - KAPPA / 2) < 1e-12


@pytest.mark.parametrize("x", [1, 2, 4, 9, 16, 25, 100, 169, 10_000, 123_456])
def test_kappa_rounding_matches_integer_oracle(x):
    expected = kappa_ceil_oracle(x)
    assert ceil_kappa_times(x) == expected
    assert floor_kappa_times(x) == expected - 1


def test_kappa_rounding_zero():
    assert ceil_kappa_times(0) == 0
    assert floor_kappa_times(0) == 0


def test_kappa_rounding_matches_oracle_everywhere():
    for x in [*range(3000), *(10**k for k in range(61))]:
        expected = kappa_ceil_oracle(x)
        assert ceil_kappa_times(x) == expected
        # kappa x is irrational for x > 0, so floor and ceil differ by one
        assert floor_kappa_times(x) == expected - (x > 0)


def test_kappa_rounding_rejects_negative():
    with pytest.raises(ValueError):
        floor_kappa_times(-1)
    with pytest.raises(ValueError):
        ceil_kappa_times(-1)


# -- lower bounds ------------------------------------------------------


def test_lower_bounds_d4():
    report = lower_bounds(4)
    assert report.bassalygo == 15
    assert report.conjecture_strong == 25
    assert abs(report.theorem2_real - KAPPA * 16) < 1e-12
    assert report.theorem2 == 14
    assert report.combined == 15


def test_lower_bounds_d1():
    report = lower_bounds(1)
    assert report.bassalygo == 3
    assert report.conjecture_strong == 4
    assert report.theorem2 == 1


def test_lower_bounds_validation():
    with pytest.raises(ValueError):
        lower_bounds(0)


def test_lower_bounds_need_a_finite_kappa_d_squared():
    report = lower_bounds(10**154)
    assert report.theorem2_real == 8.643567769390847e307
    assert report.theorem2 == kappa_ceil_oracle(10**308)
    # kappa d^2 overflows to inf; d itself overflows a float
    for d in (2 * 10**154, 10**400):
        with pytest.raises(ValueError, match="not a finite float"):
            lower_bounds(d)
        with pytest.raises(ValueError, match="not a finite float"):
            t_dn_lower_bound(d, 5)


def test_bound_crossover():
    # the quadratic bound overtakes the binomial one; certainly from d=14 on
    for d in range(14, 200):
        report = lower_bounds(d)
        assert report.bassalygo <= report.theorem2
    for d in range(1, 5):
        report = lower_bounds(d)
        assert report.bassalygo > report.theorem2_real


def test_theorem2_below_conjecture():
    for d in range(1, 500):
        report = lower_bounds(d)
        assert report.theorem2 < report.conjecture_strong


def test_t_dn_examples():
    assert t_dn_lower_bound(10, 5).value == 5
    assert t_dn_lower_bound(10, 5).dominant == "n"
    big = t_dn_lower_bound(10, 10**6)
    assert big.value == 87 and big.dominant == "theorem2"
    small = t_dn_lower_bound(3, 10**6)
    assert small.value == 10 and small.dominant == "bassalygo"
    with pytest.raises(ValueError):
        t_dn_lower_bound(1, 0)


# -- theorem 1 certificate ---------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_theorem1_certificate_on_planes(q):
    m = affine_plane_matrix(q)
    d = q - 1
    cert = theorem1_certificate(m, d)
    assert cert.ok
    assert cert.row_degree == q + 1 == d + 2
    assert cert.union_weight == 1 + (d + 2) * d == (d + 1) ** 2 == m.t
    assert cert.failure is None


def _uneven_constant_weight(rng):
    """A random isolated-free matrix of constant column weight d + 1 and
    n > t; row 0 is left out of every column about half the time."""
    while True:
        d = rng.randint(1, 6)
        t = rng.choice([rng.randint(d + 2, 20), rng.randint(65, 140)])
        rows = range(rng.randint(0, 1), t)
        n = t + rng.randint(1, 12)
        masks = [sum(1 << r for r in rng.sample(rows, d + 1)) for _ in range(n)]
        m = BinaryMatrix.from_masks(t, masks)
        if not find_isolated_columns(m):
            return m, d


def test_theorem1_picks_the_first_heavy_row():
    # every row of an affine plane has degree d + 2, so only uneven row
    # degrees show which row the certificate takes
    rng = random.Random(21)
    wide = light_first = 0
    for _ in range(60):
        m, d = _uneven_constant_weight(rng)
        degrees = dense_of(m).sum(axis=1)
        row = int(np.flatnonzero(degrees >= d + 2)[0])
        cert = theorem1_certificate(m, d)
        assert (cert.row, cert.row_degree) == (row, degrees[row])
        wide += m.t > 64
        light_first += row > 0
    assert wide >= 10 and light_first >= 10, (wide, light_first)


def test_theorem1_preconditions():
    with pytest.raises(ValueError, match="isolated"):
        theorem1_certificate(identity_matrix(4), 1)
    m = affine_plane_matrix(3)
    with pytest.raises(ValueError, match="constant column weight"):
        theorem1_certificate(m, 3)


def test_theorem1_needs_more_columns_than_rows():
    from disjunct import BinaryMatrix

    # 4 columns of weight 2 on 4 rows, isolated-free, but n = t
    m = BinaryMatrix.from_masks(4, [0b0011, 0b0110, 0b1100, 0b1001])
    with pytest.raises(ValueError, match="n > t"):
        theorem1_certificate(m, 1)


def test_theorem1_reports_failure_on_non_disjunct_input():
    from disjunct import BinaryMatrix

    # constant weight 2, no isolated columns, n > t, but two columns
    # intersect twice, so the pairwise step must fail
    m = BinaryMatrix.from_masks(3, [0b011, 0b011, 0b110, 0b101])
    cert = theorem1_certificate(m, 1)
    assert not cert.ok
    assert cert.failure is not None


# -- theorem 2 audit ---------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_theorem2_audit_on_planes(q):
    m = affine_plane_matrix(q)
    d = q - 1
    audit = theorem2_audit(m, d)
    assert audit.ok
    assert audit.budget_ok and audit.t_ok
    # every line is below both weight thresholds and meets both pair bounds
    for col in audit.columns:
        assert col.case == "moderate"
        assert col.in_lemma3_range == (1 <= col.s <= d - 1)
        assert col.kappa_ok and col.moderate_ok
        assert col.num_private == comb(q, 2)
    assert audit.sum_private == m.n * comb(q, 2)


def test_theorem2_audit_budget_tight_on_ag3():
    audit = theorem2_audit(affine_plane_matrix(3), 2)
    assert audit.sum_private == audit.budget == 36


@pytest.mark.parametrize("q", [3, 5, 7])
def test_capped_weights_force_larger_t(q):
    # when every column weight is at most floor(5d/3), the per-column
    # guarantee |P(c)| >= C(d+1,2) pushes t beyond d^2+d+1
    m = affine_plane_matrix(q)
    d = q - 1
    assert int(m.weights().max()) <= (5 * d) // 3
    audit = theorem2_audit(m, d)
    assert all(col.moderate_ok for col in audit.columns)
    assert audit.sum_private >= m.n * comb(d + 1, 2)
    assert m.t > d * d + d + 1


def test_theorem2_audit_preconditions():
    from disjunct import BinaryMatrix

    with pytest.raises(ValueError, match="isolated"):
        theorem2_audit(identity_matrix(3), 1)
    # n > t failure needs an isolated-free matrix with n <= t
    m = BinaryMatrix.from_masks(4, [0b0011, 0b0110, 0b1100, 0b1001])
    with pytest.raises(ValueError, match="n > t"):
        theorem2_audit(m, 1)
    # and a non-disjunct one with n > t
    bad = BinaryMatrix.from_masks(3, [0b011, 0b011, 0b110, 0b101])
    with pytest.raises(ValueError, match="not 1-disjunct"):
        theorem2_audit(bad, 1)


def test_theorem2_audit_refuses_before_the_pair_pass(monkeypatch):
    from disjunct import BinaryMatrix, bounds

    passes = []
    monkeypatch.setattr(bounds, "analyze_pairs", lambda *args: passes.append(args))
    # isolated columns and n <= t: the isolation error comes first
    with pytest.raises(ValueError, match="isolated"):
        theorem2_audit(identity_matrix(3), 1)
    m = BinaryMatrix.from_masks(4, [0b0011, 0b0110, 0b1100, 0b1001])
    with pytest.raises(ValueError, match="n > t"):
        theorem2_audit(m, 1)
    assert passes == []
