import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disjunct import BinaryMatrix, exhaustive_T, is_d_disjunct, search
from oracles import (
    antichain_exists,
    brute_is_d_disjunct,
    passes_incremental,
    reference_search_one,
)

# (t, found, exhausted, nodes, column masks) per certificate, recorded from
# the double-lex DFS; the d=1 certificates match the former DFS exactly
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
        (5, False, True, 63, None),
        (6, False, True, 670, None),
    ],
    (3, 7, 2_000_000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 0, None),
        (5, False, True, 3, None),
        (6, False, True, 98, None),
        (7, False, True, 1138, None),
    ],
    (2, 8, 150_000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 3, None),
        (5, False, True, 63, None),
        (6, False, True, 670, None),
        (7, False, True, 9340, None),
        (8, False, False, 139924, None),
    ],
    (4, 8, 1000): [
        (1, False, True, 0, None),
        (2, False, True, 0, None),
        (3, False, True, 0, None),
        (4, False, True, 0, None),
        (5, False, True, 0, None),
        (6, False, True, 3, None),
        (7, False, True, 142, None),
        (8, False, False, 855, None),
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


def test_budget_boundary_is_exact():
    # t=4 and t=5 spend 3 + 63 nodes: a budget of exactly 66 exhausts t=5
    # and leaves nothing for t=6, one node less stops t=5 short
    assert _summary(exhaustive_T(2, 6, budget=66))[3:] == [
        (4, False, True, 3, None),
        (5, False, True, 63, None),
        (6, False, False, 0, None),
    ]
    assert _summary(exhaustive_T(2, 6, budget=65))[3:] == [
        (4, False, True, 3, None),
        (5, False, False, 62, None),
        (6, False, False, 0, None),
    ]


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
        (5, False, True, 63, None),
        (6, False, True, 670, None),
        (7, False, False, 264, None),
        (8, False, False, 0, None),
        (9, True, False, 0, AFFINE_3),
        (10, False, False, 0, None),
        (11, False, False, 0, None),
        (12, False, False, 0, None),
    ]
    assert built == [4, 5, 6, 7]  # t <= 3 has fewer than t+1 candidates

    built.clear()
    assert _summary(exhaustive_T(2, 20, budget=0)) == [
        (t, t == 9, t < 4, 0, AFFINE_3 if t == 9 else None) for t in range(1, 21)
    ]
    assert built == []


# (d, t_max): found versus exhausted per t must match the former DFS,
# which visits every row permutation of every candidate matrix
DIFFERENTIAL = [(1, 7), (2, 6), (3, 7), (4, 7)]


@pytest.mark.parametrize("d, t_max", DIFFERENTIAL)
def test_double_lex_search_agrees_with_reference(d, t_max):
    for t in range(1, t_max + 1):
        matrix, exhausted, nodes = search._search_one(d, t, 10**7)
        ref_matrix, ref_exhausted, ref_nodes = reference_search_one(d, t, 10**7)
        assert exhausted and ref_exhausted
        assert (matrix is None) == (ref_matrix is None), (d, t)
        assert nodes <= ref_nodes
        for found in (matrix, ref_matrix):
            if found is not None:
                assert found.n == t + 1
                assert is_d_disjunct(found, d).is_disjunct
                assert brute_is_d_disjunct(list(found.masks), d)


def _double_lex(t, columns):
    """Sort columns ascending and rows with row 0 lex-largest until stable.

    A row is read across the columns in order, the first column most
    significant; a column is read as an integer, row t-1 most significant.
    """
    cols = sorted(columns)
    while True:
        rows = sorted(
            range(t), key=lambda r: [c >> r & 1 for c in cols], reverse=True
        )
        permuted = sorted(
            sum((c >> r & 1) << i for i, r in enumerate(rows)) for c in cols
        )
        if permuted == cols:
            return cols
        cols = permuted


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.sets(st.integers(1, (1 << t) - 1), min_size=1, max_size=12),
        )
    )
)
def test_every_column_set_has_an_ordering_the_search_accepts(case):
    t, columns = case
    _assert_search_accepts(t, columns)


def _assert_search_accepts(t, columns):
    """The double-lex form of ``columns`` keeps the search's row order, and
    for d = 1, 2, when the columns are d-disjunct with weight >= d+1, the
    admission check takes each of its columns in turn, so the DFS can
    reach it."""
    cols = _double_lex(t, columns)
    assert sorted(c.bit_count() for c in cols) == sorted(
        c.bit_count() for c in columns
    )
    tied = (1 << (t - 1)) - 1
    for c in cols:
        tied = search._lex_child(tied, c)
        assert tied >= 0, (t, sorted(columns), cols)
    for d in (1, 2):
        light = min(c.bit_count() for c in cols) < d + 1
        if light or not brute_is_d_disjunct(list(columns), d):
            continue
        path = search._PathUnions(d)
        for c in cols:
            assert path.admits(c), (d, t, cols)
            path = path.push(c)


def test_row_permuted_found_matrices_are_accepted():
    rng = random.Random(6)
    found = [cert.matrix for cert in exhaustive_T(1, 6) if cert.found]
    assert [m.t for m in found] == [4, 5, 6]
    for m in found:
        for _ in range(20):
            rows = rng.sample(range(m.t), m.t)
            masks = [
                sum(1 << rows[r] for r in range(m.t) if mask >> r & 1)
                for mask in m.masks
            ]
            assert is_d_disjunct(BinaryMatrix.from_masks(m.t, masks), 1).is_disjunct
            _assert_search_accepts(m.t, set(masks))


def test_t2_is_settled_at_nine():
    certs = exhaustive_T(2, 9)
    assert [(c.t, c.found, c.exhausted) for c in certs] == [
        (t, t == 9, t < 9) for t in range(1, 10)
    ]
    assert certs[7].nodes == 269_433
    assert list(certs[8].matrix.masks) == AFFINE_3
    # without the seed the search meets t=9 as well
    matrix, _, nodes = search._search_one(2, 9, 2_000_000)
    assert (list(matrix.masks), nodes) == (
        [7, 25, 42, 52, 76, 146, 193, 289, 322, 388],
        332_856,
    )
    assert brute_is_d_disjunct(list(matrix.masks), 2)


def test_d3_is_exhausted_through_nine():
    certs = exhaustive_T(3, 9)
    assert [(c.t, c.found, c.exhausted) for c in certs] == [
        (t, False, True) for t in range(1, 10)
    ]
