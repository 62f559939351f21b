import random
from math import comb

import numpy as np
import pytest

from disjunct import (
    KAPPA,
    BinaryMatrix,
    TDNBound,
    analyze_pairs,
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
from oracles import brute_private_pairs, dense_of


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
    # n caps the bound only below the combined bound C(6, 2) = 15
    assert t_dn_lower_bound(4, 15) == TDNBound(4, 15, 15, "bassalygo")
    assert t_dn_lower_bound(4, 14) == TDNBound(4, 14, 14, "n")
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
    with pytest.raises(ValueError, match="^d must be >= 1$"):
        theorem1_certificate(m, 0)


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
    analysis = audit.analysis
    assert audit.ok
    assert analysis.private_total <= analysis.pair_budget and m.t >= audit.t_bound
    # every line is below both weight thresholds and meets both pair bounds
    assert len(audit.kappa_ok) == len(analysis.columns) == m.n
    for col, kappa_ok in zip(analysis.columns, audit.kappa_ok):
        assert col.weight <= audit.weight_cap and 3 * col.weight <= 5 * d + 2
        assert col.in_range == (1 <= col.weight - d <= d - 1)
        assert kappa_ok and col.bound_ok and col.private >= comb(d + 1, 2)
        assert col.private == comb(q, 2)
    assert analysis.private_total == m.n * comb(q, 2)


def test_theorem2_audit_budget_tight_on_ag3():
    analysis = theorem2_audit(affine_plane_matrix(3), 2).analysis
    assert analysis.private_total == analysis.pair_budget == 36


@pytest.mark.parametrize("q, d, cap", [(5, 2, 3), (7, 3, 5)])
def test_theorem2_audit_leaves_heavy_columns_unasserted(q, d, cap):
    # lines of q points are heavier than floor(2 kappa d), and at
    # s = q - d >= d they are also outside Lemma 3's range
    m = affine_plane_matrix(q)
    audit = theorem2_audit(m, d)
    assert audit.weight_cap == kappa_ceil_oracle(2 * d) - 1 == cap < q
    assert audit.kappa_ok == (None,) * m.n
    assert audit.ok
    assert not any(col.in_range for col in audit.analysis.columns)


def test_theorem2_audit_of_a_vacuous_matrix():
    # isolated-free with n > t, so the audit runs, but d >= n: no column is
    # in Lemma 3's range and t < ceil(kappa d^2) fails the audit
    m = BinaryMatrix.from_masks(3, [0b011, 0b011, 0b110, 0b101])
    audit = theorem2_audit(m, 4)
    assert audit.analysis.vacuous
    assert all(col.bound_ok is None for col in audit.analysis.columns)
    assert audit.kappa_ok == (False,) * 4
    assert audit.t_bound == 14 and not audit.ok


@pytest.mark.parametrize("shared, kappa_ok", [(17, True), (18, False)])
def test_theorem2_audit_kappa_ok_at_equality(shared, kappa_ok):
    # a full column on t = 29 rows, `shared` of its pairs repeated in
    # weight-2 columns and every other row in a singleton; at d = n = 30,
    # ceil(kappa d^2) = 778 and 17 shared pairs leave 2|P| = 2 * 389 = 778
    t = 29
    masks = [(1 << t) - 1] + [1 | 1 << r for r in range(1, shared + 1)]
    masks += [1 << r for r in range(shared + 1, t)]
    masks += [1 << (t - 1)] * (t + 1 - len(masks))
    m = BinaryMatrix.from_masks(t, masks)
    audit = theorem2_audit(m, m.n)
    assert m.n == 30 and audit.t_bound == kappa_ceil_oracle(900) == 778
    assert audit.analysis.columns[0].private == comb(t, 2) - shared
    assert audit.kappa_ok[0] is kappa_ok and not audit.ok


def test_theorem2_audit_reads_the_pair_bound(monkeypatch):
    # Lemma 3 makes bound_ok hold on every valid input, so a pass that
    # reports one in-range column out of bound stands in for a refutation
    from disjunct import bounds

    m, d = affine_plane_matrix(5), 4
    analysis = analyze_pairs(m, d)
    assert theorem2_audit(m, d).ok and analysis.columns[3].in_range
    columns = list(analysis.columns)
    columns[3] = columns[3]._replace(bound_ok=False)
    broken = analysis._replace(columns=tuple(columns))
    monkeypatch.setattr(bounds, "analyze_pairs", lambda *args: broken)
    audit = theorem2_audit(m, d)
    assert audit.kappa_ok[3] and not audit.ok


def _random_wide_matrix(rng):
    """A random matrix with n > t: uniform, or AG(2,3) or AG(2,5) with a
    few lines dropped and maybe a random column added."""
    if rng.random() < 0.75:
        t = rng.randint(2, 8)
        n = t + rng.randint(1, 6)
        return BinaryMatrix.from_masks(t, [rng.randrange(1, 1 << t) for _ in range(n)])
    q = rng.choice([3, 5])
    t, masks = q * q, list(affine_plane_matrix(q).masks)
    masks = rng.sample(masks, rng.randint(t + 1, len(masks)))
    if rng.random() < 0.5:
        masks.append(rng.randrange(1, 1 << t))
    return BinaryMatrix.from_masks(t, masks)


def test_theorem2_audit_kappa_ok_matches_oracles():
    # the audits that run must agree with brute-force private pairs and
    # the integer kappa oracle, and a vacuous one passes iff t >= kappa d^2
    rng = random.Random(16)
    audits = {False: 0, True: 0}
    for _ in range(300):
        m = _random_wide_matrix(rng)
        t, n = m.t, m.n
        dense = dense_of(m)
        for d in (1, 2, 3, n, n + 1):
            try:
                audit = theorem2_audit(m, d)
            except ValueError:
                continue
            audits[d >= n] += 1
            cap = kappa_ceil_oracle(2 * d) - 1
            for j, kappa_ok in enumerate(audit.kappa_ok):
                private, _ = brute_private_pairs(dense, j)
                if dense[:, j].sum() > cap:
                    assert kappa_ok is None
                else:
                    assert kappa_ok == (2 * len(private) >= kappa_ceil_oracle(d * d))
            if d >= n:
                assert audit.ok == (t >= kappa_ceil_oracle(d * d))
    assert audits[False] >= 20 and audits[True] >= 100, audits


@pytest.mark.parametrize("q", [3, 5, 7])
def test_capped_weights_force_larger_t(q):
    # when every column weight is at most floor(5d/3), the per-column
    # guarantee |P(c)| >= C(d+1,2) pushes t beyond d^2+d+1
    m = affine_plane_matrix(q)
    d = q - 1
    assert int(m.weights().max()) <= (5 * d) // 3
    analysis = theorem2_audit(m, d).analysis
    assert all(col.private >= comb(d + 1, 2) for col in analysis.columns)
    assert analysis.private_total >= m.n * comb(d + 1, 2)
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
    with pytest.raises(ValueError, match="^d must be >= 1$"):
        theorem2_audit(affine_plane_matrix(3), 0)


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
