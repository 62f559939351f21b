"""Exact d-disjunctness verification, isolated-column peeling and deletion.

A matrix is d-disjunct when no column is contained in the union of d other
columns.  The checker decides this exactly per column.  A counting bound
comes first (Kautz and Singleton, 1964): k columns whose union holds
column j meet it in at least |c_j| rows between them, so when the k
largest intersections |c_j & c_i| add up to less than |c_j| for every
k <= d, no cover of at most d columns exists and the column is cleared
without a search.  The bound only clears columns that have no such
cover, so it never changes a verdict or a witness.  For every other
column, the other columns are restricted to their traces on it,
dominated traces are dropped, and the remaining cover problem is solved
by depth-bounded branch and bound.  Greedy covering would give false
positives, so no column is refuted without a concrete cover.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .matrix import BinaryMatrix, _iter_bits, _maximal, _private_rows


class Witness(NamedTuple):
    """A concrete violation: ``column`` lies in the union of ``covering``."""

    column: int
    covering: tuple[int, ...]


class DisjunctVerdict(NamedTuple):
    """Result of a disjunctness check.

    ``vacuous`` flags the d >= n regime, where the property holds because
    there are not even d other columns to form a union.
    """

    is_disjunct: bool
    witness: Witness | None = None
    vacuous: bool = False


class PeelResult(NamedTuple):
    reduced: BinaryMatrix
    removed_column: int
    removed_rows: frozenset[int]


def _cover_search(
    masks: Sequence[int], j: int, depths: Iterable[int]
) -> list[int] | None:
    """Find columns (other than j) whose union contains column j.

    Tries each bound in ``depths`` in order and returns the first cover of
    at most that many columns, or None when no bound admits one.  The
    trace table is built once and one ``dead`` set of refuted
    (uncovered rows, depth left) states is shared by every bound: such a
    state does not depend on the bound it was reached from, so passing
    increasing bounds deepens iteratively at the cost of one table.
    Deterministic: branches on the uncovered row with the fewest covering
    traces (lowest row index on ties), candidate traces ordered by their
    representative column id.
    """
    cj = masks[j]
    if cj == 0:
        return []  # the empty column is covered by the empty union

    # traces of the other columns on the support of column j, one
    # representative column id (the lowest) per distinct trace
    rep: dict[int, int] = {}
    for k, mk in enumerate(masks):
        if k == j:
            continue
        trace = mk & cj
        if trace and trace not in rep:
            rep[trace] = k

    # dominance pruning: a trace contained in another trace never helps
    traces = sorted(((m, rep[m]) for m in _maximal(rep)), key=lambda mc: mc[1])

    rows = list(_iter_bits(cj))
    covering: dict[int, list[int]] = {r: [] for r in rows}
    for ti, (m, _) in enumerate(traces):
        for r in _iter_bits(m):
            covering[r].append(ti)
    if any(not lst for lst in covering.values()):
        return None  # some row of j is private against all other columns

    max_trace = max(m.bit_count() for m, _ in traces)
    dead: set[tuple[int, int]] = set()

    def dfs(depth: int) -> list[int] | None:
        """Depth-first over an explicit stack, so a cover may run to any
        number of columns: one (uncovered rows, depth left, untried
        traces) frame per open node, and ``chosen`` holds the column each
        open node is trying."""
        uncovered, depth_left = cj, depth
        stack: list[tuple[int, int, Iterator[int]]] = []
        chosen: list[int] = []
        while True:
            if uncovered == 0:
                return chosen
            if (
                depth_left
                and uncovered.bit_count() <= depth_left * max_trace
                and (uncovered, depth_left) not in dead
            ):
                # fail-first: branch on the uncovered row with the fewest traces
                branch_row = -1
                branch_count = -1
                rest = uncovered
                while rest:
                    low = rest & -rest
                    r = low.bit_length() - 1
                    rest ^= low
                    c = len(covering[r])
                    if branch_count < 0 or c < branch_count:
                        branch_row, branch_count = r, c
                stack.append((uncovered, depth_left, iter(covering[branch_row])))
                chosen.append(-1)
            # back up to the deepest open node with a trace left to try
            while stack:
                uncovered, depth_left, untried = stack[-1]
                ti = next(untried, None)
                if ti is not None:
                    break
                dead.add((uncovered, depth_left))
                stack.pop()
                chosen.pop()
            else:
                return None
            m, chosen[-1] = traces[ti]
            uncovered, depth_left = uncovered & ~m, depth_left - 1

    for depth in depths:
        cover = dfs(depth)
        if cover is not None:
            return cover
    return None


def is_d_disjunct(matrix: BinaryMatrix, d: int) -> DisjunctVerdict:
    """Exactly decide whether ``matrix`` is d-disjunct.

    On failure the verdict carries a witness: the lowest-index covered
    column together with <= d columns whose union contains it.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d >= matrix.n:
        return DisjunctVerdict(True, vacuous=True)
    return _first_covered(matrix, d, _kernels.min_cover_sizes(matrix.words, d))


def _first_covered(matrix: BinaryMatrix, d: int, bounds: np.ndarray) -> DisjunctVerdict:
    """The verdict of :func:`is_d_disjunct` at 1 <= d < n, given the
    counting bounds ``_kernels.min_cover_sizes(matrix.words, d)``."""
    # a column whose counting bound exceeds d has no cover to search for
    for j in np.flatnonzero(bounds <= d).tolist():
        cover = _cover_search(matrix.masks, j, (d,))
        if cover is not None:
            return DisjunctVerdict(False, Witness(j, tuple(cover)))
    return DisjunctVerdict(True)


def max_disjunct_order(matrix: BinaryMatrix) -> int:
    """Largest d >= 0 for which the matrix is d-disjunct, capped at n-1.

    0 means some column is contained in another.  Equivalent to running
    the checker for increasing d, but each column's minimum cover size is
    found by one iteratively deepened search over its trace table, up to
    the best order found so far (larger covers cannot lower it).  A column
    whose counting bound exceeds that order is skipped unsearched.
    """
    best = matrix.n - 1
    bounds = _kernels.min_cover_sizes(matrix.words, best).tolist()
    for j, bound in enumerate(bounds):
        if best == 0:
            break
        if bound > best:
            continue  # no cover of at most best columns
        cover = _cover_search(matrix.masks, j, range(1, best + 1))
        if cover is not None:
            best = min(best, max(1, len(cover)) - 1)
    return best


def _drop(t: int, masks: Sequence[int], j: int, rows: list[int]) -> tuple[int, list[int]]:
    """(t, masks) of a matrix without column j and the ascending ``rows``,
    survivors in order: each run of kept rows moves down past the rows
    dropped below it."""
    runs = []  # (first row, mask of its length, rows dropped below) per run
    start = 0
    for dropped, r in enumerate(rows + [t]):
        if r > start:
            runs.append((start, (1 << (r - start)) - 1, dropped))
        start = r + 1
    return t - len(rows), [
        sum((mask >> lo & run) << (lo - dropped) for lo, run, dropped in runs)
        for k, mask in enumerate(masks)
        if k != j
    ]


def find_isolated_columns(matrix: BinaryMatrix) -> frozenset[int]:
    """Columns owning a private row (a row contained in no other column)."""
    private = _private_rows(matrix.masks)
    if not private:
        return frozenset()
    return frozenset(j for j, mask in enumerate(matrix.masks) if mask & private)


def peel_isolated(matrix: BinaryMatrix, j: int) -> PeelResult:
    """Remove isolated column j and all rows private to it.

    Preserves d-disjunctness: the removed rows belong to no other column,
    so no remaining column's support or potential covers change.
    """
    if not 0 <= j < matrix.n:
        raise ValueError(f"column index {j} out of range")
    if matrix.n < 2:
        raise ValueError("cannot peel the last column")
    private = list(_iter_bits(matrix.masks[j] & _private_rows(matrix.masks)))
    if not private:
        raise ValueError(f"column {j} is not isolated")
    return PeelResult(
        reduced=BinaryMatrix.from_masks(*_drop(matrix.t, matrix.masks, j, private)),
        removed_column=j,
        removed_rows=frozenset(private),
    )


def peel_to_core(matrix: BinaryMatrix) -> tuple[BinaryMatrix, int]:
    """Peel isolated columns until none remain (or one column is left).

    Returns the reduced matrix and the number of peeled columns.  Always
    peels the lowest-index isolated column first, so the result is
    deterministic.  Peels the column masks and builds one matrix at the end.
    """
    t, masks = matrix.t, matrix.masks
    peeled = 0
    while len(masks) >= 2:
        private = _private_rows(masks)
        j = next((k for k, mask in enumerate(masks) if mask & private), None)
        if j is None:
            break
        t, masks = _drop(t, masks, j, list(_iter_bits(masks[j] & private)))
        peeled += 1
    return (BinaryMatrix.from_masks(t, masks) if peeled else matrix), peeled


def delete_column_and_rows(matrix: BinaryMatrix, j: int) -> BinaryMatrix:
    """Remove column j and every row it contains.

    The result has (t - weight(j)) rows and n - 1 columns, surviving rows
    in their original order.  Applied to a d-disjunct matrix this yields a
    (d-1)-disjunct matrix.
    """
    if matrix.n < 2:
        raise ValueError("matrix must have at least 2 columns")
    if not 0 <= j < matrix.n:
        raise ValueError(f"column index {j} out of range")
    rows = list(_iter_bits(matrix.masks[j]))
    return BinaryMatrix.from_masks(*_drop(matrix.t, matrix.masks, j, rows))
