"""The exact checker and verify-id against a set-cover ILP, on sizes brute force cannot reach.

Column j of a matrix is covered by the other columns whose union holds it;
the fewest such columns is a set-cover problem over the rows of column j,
solved here exactly by ``scipy.optimize.milp``.  A matrix is d-disjunct iff
every column's minimum cover has more than d columns.  When the least of
those minima is at most d, verify-id's failing set at d covers a column
outside it with that many columns.
"""

import random

import numpy as np
import pytest

from disjunct import (
    BinaryMatrix,
    affine_plane_matrix,
    is_d_disjunct,
    max_disjunct_order,
    verify_identification,
)
from oracles import column_rows, dense_of, kautz_singleton

optimize = pytest.importorskip("scipy.optimize")


def ilp_min_cover(dense, j):
    """Fewest other columns whose union holds column j; None if none do."""
    rows = np.flatnonzero(dense[:, j])
    if rows.size == 0:
        return 0
    others = [k for k in range(dense.shape[1]) if k != j]
    a = dense[np.ix_(rows, others)].astype(float)
    if not a.any(axis=1).all():
        return None  # a row of column j lies in no other column
    result = optimize.milp(
        np.ones(len(others)),
        constraints=optimize.LinearConstraint(a, lb=1),
        integrality=np.ones(len(others)),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.status == 0, result.message
    return round(result.fun)


def random_matrix(seed):
    """t = 25..50 rows, fewer columns than rows, constant weight 3..7."""
    rng = random.Random(seed)
    t = rng.randint(25, 50)
    n = rng.randint(t // 2, t - 1)
    w = rng.randint(3, 7)
    return BinaryMatrix.from_masks(
        t, [sum(1 << r for r in rng.sample(range(t), w)) for _ in range(n)]
    )


def plane_mutants(q, seed):
    """AG(2, q) with one bit flipped: a point deleted from a line, a point
    added to another, then a point deleted from a third."""
    rng = random.Random(seed)
    plane = affine_plane_matrix(q)
    for flip_in in (True, False, True):
        j = rng.randrange(plane.n)
        rows = column_rows(plane, j)
        if flip_in:
            row = rng.choice(sorted(rows))
        else:
            row = rng.choice(sorted(set(range(plane.t)) - rows))
        masks = list(plane.masks)
        masks[j] ^= 1 << row
        yield BinaryMatrix.from_masks(plane.t, masks)


CASES = [pytest.param(random_matrix(seed), id=f"random{seed}") for seed in range(12)]
CASES += [
    pytest.param(m, id=f"ag{q}-mutant{i}")
    for q in (5, 7)
    for i, m in enumerate(plane_mutants(q, seed=q))
]
CASES.append(pytest.param(kautz_singleton(5, 3), id="ks5-3"))  # n > t


@pytest.mark.parametrize("matrix", CASES)
def test_checker_matches_set_cover_ilp(matrix):
    dense = dense_of(matrix)
    covers = [ilp_min_cover(dense, j) for j in range(matrix.n)]
    smallest = min((c for c in covers if c is not None), default=matrix.n)
    assert max_disjunct_order(matrix) == min(smallest - 1, matrix.n - 1)
    for d in range(1, min(smallest + 2, matrix.n)):
        verdict = is_d_disjunct(matrix, d)
        assert verdict.is_disjunct == (smallest > d)
        if verdict.witness is not None:
            j, covering = verdict.witness.column, verdict.witness.covering
            assert j not in covering and len(covering) <= d
            assert covers[j] is not None and covers[j] <= len(covering)
            union = frozenset().union(*(column_rows(matrix, k) for k in covering))
            assert column_rows(matrix, j) <= union
    if smallest < matrix.n:
        # verify-id's failing set is a least cover of a column outside it
        failure = verify_identification(matrix, smallest, max_cases=10**30).failure
        assert failure is not None and len(failure) == smallest
        union = frozenset().union(*(column_rows(matrix, k) for k in failure))
        assert any(column_rows(matrix, j) <= union for j in range(matrix.n) if j not in failure)
