import random

import pytest

from disjunct import exhaustive_T, is_d_disjunct, search
from oracles import antichain_exists, brute_is_d_disjunct, passes_incremental

# (t, found, exhausted, nodes, column masks) per certificate, recorded from
# the search that re-ran a cover search on every chosen column at every node
GOLDEN = {
    (1, 7, 2_000_000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 4, None),
        (4, True, False, 0, [5, 10, 9, 6, 3]),
        (5, True, False, 8, [3, 5, 6, 9, 10, 12]),
        (6, True, False, 12, [3, 5, 6, 9, 10, 12, 17]),
        (7, True, False, 13, [3, 5, 6, 9, 10, 12, 17, 18]),
    ],
    (2, 6, 2_000_000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 3, None),
        (5, False, True, 349, None),
        (6, False, True, 18842, None),
    ],
    (3, 7, 2_000_000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 0, None),
        (5, False, True, 3, None),
        (6, False, True, 951, None),
        (7, False, True, 87140, None),
    ],
    (2, 8, 150_000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 3, None),
        (5, False, True, 349, None),
        (6, False, True, 18842, None),
        (7, False, False, 130806, None),
        (8, False, False, 0, None),
    ],
    (4, 8, 1000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 0, None),
        (5, False, True, 0, None),
        (6, False, True, 3, None),
        (7, False, False, 997, None),
        (8, False, False, 0, None),
    ],
}

AFFINE_3 = [73, 146, 292, 273, 98, 140, 161, 266, 84, 7]  # t = 9, seeded


def _summary(certs):
    return [
        (c.t, c.found, c.exhausted, c.nodes, list(c.matrix.masks) if c.found else None)
        for c in certs
    ]


def test_t1_certificates_match_antichain_oracle():
    certs = exhaustive_T(1, 5)
    assert [c.t for c in certs] == [1, 2, 3, 4, 5]
    for cert in certs:
        exists = antichain_exists(cert.t, cert.t + 1)
        if cert.found:
            assert exists
        else:
            assert cert.exhausted and not exists


def test_t1_threshold_is_four():
    certs = exhaustive_T(1, 4)
    assert [c.found for c in certs] == [False, False, False, True]
    assert all(c.exhausted for c in certs[:3])
    found = certs[3]
    assert found.matrix.t == 4 and found.matrix.n == 5
    assert is_d_disjunct(found.matrix, 1).is_disjunct


def test_found_matrices_always_verify():
    for cert in exhaustive_T(1, 6):
        if cert.found:
            assert cert.matrix.n == cert.t + 1
            assert is_d_disjunct(cert.matrix, cert.d).is_disjunct


def test_budget_exhaustion_is_reported():
    certs = exhaustive_T(1, 3, budget=2)
    # tiny budget: the t=3 search cannot finish and must say so
    assert not certs[2].found
    assert not certs[2].exhausted


def test_affine_seed_for_d2():
    certs = exhaustive_T(2, 9, budget=50_000)
    at9 = certs[-1]
    assert at9.found
    assert at9.matrix.t == 9 and at9.matrix.n == 10
    assert is_d_disjunct(at9.matrix, 2).is_disjunct


def test_large_t_is_declined_honestly():
    certs = exhaustive_T(3, 25, budget=100)
    for cert in certs:
        if cert.t > 20 and not cert.found:
            assert not cert.exhausted


def test_parameter_validation():
    with pytest.raises(ValueError):
        exhaustive_T(0, 3)
    with pytest.raises(ValueError):
        exhaustive_T(1, 0)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_T(1, 3, budget=-1)
    with pytest.raises(ValueError, match="t_max must be <= 1024"):
        exhaustive_T(1, search.T_MAX_LIMIT + 1, budget=0)
    assert len(exhaustive_T(2, search.T_MAX_LIMIT, budget=0)) == 1024
    assert _summary(exhaustive_T(1, 2, budget=0)) == [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
    ]


@pytest.mark.parametrize("d, t_max, budget", sorted(GOLDEN))
def test_golden_certificates(d, t_max, budget):
    assert _summary(exhaustive_T(d, t_max, budget=budget)) == GOLDEN[(d, t_max, budget)]


def _column_sequence(rng, t, length):
    """Non-zero columns over t rows: fresh sparse ones, repeats, and ones
    nested inside or around an earlier column."""
    full = (1 << t) - 1
    seq: list[int] = []
    while len(seq) < length:
        kind = rng.randrange(6) if seq else 0
        if kind <= 2:
            rows = rng.sample(range(t), rng.randint(1, t // 2 + 1))
            c = sum(1 << r for r in rows)
        elif kind == 3:
            c = rng.choice(seq)
        elif kind == 4:
            c = rng.choice(seq) & rng.randint(0, full)
        else:
            c = rng.choice(seq) | rng.randint(0, full)
        if c:
            seq.append(c)
    return seq


def test_path_unions_admit_exactly_the_old_predicate():
    rng = random.Random(20261018)
    admitted = rejected = deep = 0
    for _ in range(400):
        d = rng.randint(1, 5)
        t = rng.randint(d + 1, 10)
        path = search._PathUnions(d)
        for c in _column_sequence(rng, t, rng.randint(2, 24)):
            expected = passes_incremental(list(path.chosen) + [c], d)
            assert path.admits(c) == expected, (d, t, path.chosen, c)
            if expected:
                path = path.push(c)
                admitted += 1
            else:
                rejected += 1
        assert brute_is_d_disjunct(list(path.chosen), d)
        deep += len(path.chosen) > d + 1  # unions of d columns, not of all of P
    assert admitted > 1000 and rejected > 3000 and deep > 50


def test_no_pool_once_the_budget_is_spent(monkeypatch):
    real_pool = search._candidate_pool
    built = []

    def pool(t, d):
        built.append(t)
        return real_pool(t, d)

    monkeypatch.setattr(search, "_candidate_pool", pool)
    assert _summary(exhaustive_T(2, 12, budget=1000)) == [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 3, None),
        (5, False, True, 349, None),
        (6, False, False, 648, None),
        (7, False, False, 0, None),
        (8, False, False, 0, None),
        (9, True, False, 0, AFFINE_3),
        (10, False, False, 0, None),
        (11, False, False, 0, None),
        (12, False, False, 0, None),
    ]
    assert built == [4, 5, 6]  # t <= 3 has fewer than t+1 candidates

    built.clear()
    assert _summary(exhaustive_T(2, 20, budget=0)) == [
        (t, t == 9, t < 4, 0, AFFINE_3 if t == 9 else None) for t in range(1, 21)
    ]
    assert built == []
