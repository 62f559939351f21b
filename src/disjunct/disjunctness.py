"""Exact d-disjunctness verification, isolated-column peeling and deletion.

A matrix is d-disjunct when no column is contained in the union of d other
columns.  The checker decides this exactly per column.  A counting bound
comes first (Kautz and Singleton, 1964): k columns whose union holds
column j meet it in at least |c_j| rows between them, so when the k
largest intersections |c_j & c_i| add up to less than |c_j| for every
k <= d, no cover of at most d columns exists and the column is cleared
without a search, and so is a column with a private row.  One scan,
:func:`_first_covered`, searches the other columns in index order and
stops at the first that k others cover: the checker runs it at d, the
least cover search of ``check --max`` and ``verify-id`` at each k.  It
searches on the one cover-search engine, :func:`_cover_search`:
depth-bounded branch and bound over the other columns' undominated
traces on a column, which also serves ``verify-id``'s lex-first
failing-set search.  The trace tables of one matrix share its rows'
holding columns, each row transposed once by ``matrix._fill_holders``.
Greedy covering would give false positives, so no column is refuted
without a cover.  No other module names the counting bounds, the
engine, the tables or the scan: each question enters once, by
:func:`is_d_disjunct`, :func:`max_disjunct_order` or
:func:`_least_failing_set`, and finds the private rows once.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .matrix import BinaryMatrix, _fill_holders, _iter_bits, _private_rows


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


class _TraceTable:
    """Column j's cover problem, shared by every search on it.  The
    candidates are the lowest column of each distinct trace on column j
    that no other trace contains, found when a search first branches.
    ``holders`` maps a row, by index, to the columns holding it, as bits
    (``matrix._fill_holders``): the tables of one matrix share it, and
    each fills in its column's rows when a search first needs them.
    ``dead`` holds every search's refuted (uncovered rows, depth left)
    states."""

    __slots__ = ("masks", "column", "holders", "dead", "_candidates")

    def __init__(self, masks: Sequence[int], column: int, holders: dict[int, int]):
        self.masks, self.column, self.holders = masks, column, holders
        self.dead: set[tuple[int, int]] = set()
        self._candidates: tuple[int, int] | None = None

    def candidates(self) -> tuple[int, int]:
        """The candidates, as bits, and the most rows of column j one of
        them holds."""
        if self._candidates is None:
            masks, j = self.masks, self.column
            _fill_holders(masks, masks[j], self.holders)
            top = dict(self._undominated(chain(range(j), range(j + 1, len(masks)))))
            widest = max(map(int.bit_count, top), default=0)
            self._candidates = sum(1 << k for k in top.values()), widest
        return self._candidates

    def lowest_holder(self, rows: int) -> int | None:
        """The lowest candidate that holds ``rows``, a nonempty subset of
        column j, or None when no column does."""
        known = self._candidates is not None
        if not known:
            _fill_holders(self.masks, self.masks[self.column], self.holders)
        hold = self._candidates[0] if known else ~(1 << self.column)
        while rows and hold:
            low = rows & -rows
            hold &= self.holders[low.bit_length() - 1]
            rows ^= low
        if known or not hold:
            return (hold & -hold).bit_length() - 1 if hold else None
        # a trace that contains a held trace is held, and so is every column
        # with it: the lowest candidate is the first held undominated trace's
        return next(self._undominated(_iter_bits(hold)))[1]

    def _undominated(self, columns: Iterable[int]) -> Iterator[tuple[int, int]]:
        """(trace, its lowest column) for each nonempty trace on column j of
        the ascending ``columns``, which hold every column but j with each
        of their traces, that no other trace contains, by lowest column:
        one count per column, then one :meth:`_top` per distinct trace."""
        masks, count = self.masks, {}
        cj = masks[self.column]
        for k in columns:
            if trace := masks[k] & cj:
                count[trace] = count.get(trace, 0) + 1
        return ((trace, k) for trace, c in count.items() if (k := self._top(trace, c)) is not None)

    def _top(self, trace: int, count: int) -> int | None:
        """The lowest column with ``trace``, a trace on column j that
        ``count`` columns have, when no trace strictly contains it: that
        is, when those are all the columns but j holding its rows.  None
        otherwise."""
        holders = self.holders
        low = trace & -trace
        held, rows = holders[low.bit_length() - 1] & ~(1 << self.column), trace ^ low
        while rows and held & (held - 1):  # one column left must be the trace's
            low = rows & -rows
            held &= holders[low.bit_length() - 1]
            rows ^= low
        return (held & -held).bit_length() - 1 if held.bit_count() == count else None


def _trace_tables(masks: Sequence[int]) -> Callable[[int], _TraceTable]:
    """Column j -> column j's trace table over ``masks``, made once; the
    tables share one ``holders`` map, so each row is transposed once."""
    holders, made = {}, {}
    return lambda j: made.get(j) or made.setdefault(j, _TraceTable(masks, j, holders))


def _cover_search(table: _TraceTable, target: int, depth: int) -> list[int] | None:
    """At most ``depth`` columns (other than j) whose union holds
    ``target``, a subset of column j, found over column j's trace table,
    or None when no such cover exists.

    A refuted (uncovered rows, depth left) state depends on neither depth
    nor target, so the table's ``dead`` set serves every search on it.
    Deterministic: branches on the uncovered row with the fewest
    candidates (lowest row on ties), trying them in column order; with
    one column left it takes the lowest candidate holding every uncovered
    row, the one that order would reach first.
    """
    masks, holders, dead = table.masks, table.holders, table.dead
    # depth-first over an explicit stack, so a cover may run to any number
    # of columns: one (uncovered rows, depth left, untried candidates)
    # frame per open node; chosen[i] is frame i's column
    uncovered, depth_left = target, depth
    stack, chosen = [], []
    while True:
        if uncovered == 0:
            return chosen
        if depth_left == 1:
            column = table.lowest_holder(uncovered)
            if column is not None:
                return chosen + [column]
        elif depth_left:
            allowed, widest = table.candidates()
            state = uncovered, depth_left
            if uncovered.bit_count() <= depth_left * widest and state not in dead:
                # fail-first: the uncovered row with the fewest candidates.
                # A row with one ends the scan: only a row with none has
                # fewer, and then no branch has a cover
                branch_row, fewest = 0, len(masks)
                for row in _iter_bits(uncovered):
                    c = (holders[row] & allowed).bit_count()
                    if c < fewest:
                        branch_row, fewest = row, c
                        if c <= 1:
                            break
                untried = _iter_bits(holders[branch_row] & allowed)
                stack.append((uncovered, depth_left, untried))
                chosen.append(-1)
        # back up to the deepest open node with a candidate left to try
        while stack:
            uncovered, depth_left, untried = stack[-1]
            column = next(untried, None)
            if column is not None:
                break
            dead.add((uncovered, depth_left))
            stack.pop()
            chosen.pop()
        else:
            return None
        chosen[-1] = column
        uncovered, depth_left = uncovered & ~masks[column], depth_left - 1


def is_d_disjunct(matrix: BinaryMatrix, d: int) -> DisjunctVerdict:
    """Exactly decide whether ``matrix`` is d-disjunct.

    On failure the verdict carries a witness: the lowest-index covered
    column together with <= d columns whose union contains it.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d >= matrix.n:
        return DisjunctVerdict(True, vacuous=True)
    bounds = _kernels.min_cover_sizes(matrix.words, d)
    columns = _open_columns(matrix, d, bounds, _private_rows(matrix.masks))
    return _first_covered(matrix, d, columns, _trace_tables(matrix.masks))


def _open_columns(matrix: BinaryMatrix, k: int, bounds: np.ndarray, private: int) -> list[int]:
    """The columns, in index order, that k other columns may cover: those
    whose counting bound in ``bounds`` is at most k and that hold no
    ``private`` row, since a row no other column holds has no cover."""
    masks = matrix.masks
    return [j for j in np.flatnonzero(bounds <= k).tolist() if not masks[j] & private]


def _first_covered(
    matrix: BinaryMatrix, k: int, columns: list[int], tables: Callable[[int], _TraceTable]
) -> DisjunctVerdict:
    """The verdict of :func:`is_d_disjunct` at ``k``, given ``columns``,
    the :func:`_open_columns` at k: the one scan of whole columns, over
    them in index order on the caller's trace ``tables``, to the first
    covered column.
    """
    for j in columns:
        cover = _cover_search(tables(j), matrix.masks[j], k)
        if cover is not None:
            return DisjunctVerdict(False, Witness(j, tuple(cover)))
    return DisjunctVerdict(True)


def max_disjunct_order(matrix: BinaryMatrix) -> int:
    """Largest d >= 0 for which the matrix is d-disjunct, capped at n-1.

    0 means some column is contained in another.  Equivalent to running
    the checker for increasing d: the order is one less than the fewest
    columns whose union holds another column, found by
    :func:`_least_cover` up to a cap the weights give.  A column of weight
    w with no private row is covered by one other column per row, so the
    matrix is not w-disjunct, and the cap is w - 1, as the order needs no
    w-cover.  On an affine plane that cap is the order and every counting
    bound exceeds it, so no column is searched (at w, every line would be).
    """
    masks, private = matrix.masks, _private_rows(matrix.masks)
    cap = min([matrix.n - 1] + [max(0, m.bit_count() - 1) for m in masks if not m & private])
    k, _, _ = _least_cover(matrix, cap, private, _trace_tables(masks))
    return max(0, k - 1)


def _least_cover(
    matrix: BinaryMatrix, cap: int, private: int, tables: Callable[[int], _TraceTable]
) -> tuple[int, list[int], tuple[int, ...] | None]:
    """(k, columns, cover): the fewest k <= ``cap`` columns whose union
    holds another column, or cap + 1; the :func:`_open_columns` at k, past
    the ``private`` rows, from the first one they cover on, or none; and
    the sorted cover the scan found for that first one, or None.
    :func:`_first_covered` scans at each k from the least bound of an
    open column, on ``tables``, so refuted states carry over from one k
    to the next.
    """
    bounds = _kernels.min_cover_sizes(matrix.words, cap)
    least = bounds[_open_columns(matrix, cap, bounds, private)].min(initial=cap + 1)
    for k in range(int(least), cap + 1):
        columns = _open_columns(matrix, k, bounds, private)
        verdict = _first_covered(matrix, k, columns, tables)
        if not verdict.is_disjunct:
            column, cover = verdict.witness
            return k, columns[columns.index(column) :], tuple(sorted(cover))
    return cap + 1, [], None


def _least_failing_set(matrix: BinaryMatrix, cap: int) -> tuple[int, ...] | None:
    """The lex-first of the least sets of at most ``cap`` columns whose
    union holds a column outside them, or None: the least lex-first cover
    among the columns :func:`_least_cover` gives, from its scan's cover on
    its tables.  One other column per row covers a column with no private
    row, so no search passes the lightest such column's weight."""
    masks, private, tables = matrix.masks, _private_rows(matrix.masks), _trace_tables(matrix.masks)
    cap = min([cap] + [m.bit_count() for m in masks if not m & private])
    k, columns, best = _least_cover(matrix, cap, private, tables)

    def lex_first(table: _TraceTable, bound: tuple[int, ...]) -> tuple[int, ...]:
        """The lesser of ``bound``, the least k-cover known, and column j's
        lex-first k-cover; no column has a cover of fewer.  Each level picks the
        least column past the last that leaves the rest of j coverable, as a
        probe over all columns but j finds, and none past the bound's column at
        that level, so every cover that precedes the bound starts with the
        picks.  With C picked, a probe at i that finds a cover R of the rest
        gives a k-cover C + [i] + R, which would precede the lex-first cover
        were i below its next column or a column of R below i, and precedes the
        bound, as i lies below the bound's column.  So the first success lies on
        the lex-first cover's path, R lies past i, and the bound becomes
        C + [i] + sorted(R).  When every probe below the bound's column fails,
        that column is the one pick left, taken without a probe: if a cover of
        j (R, or the scan's) set the bound, its columns past the picks cover
        the rest.  If the column is j, or holds no uncovered row (a cover
        holding it would not need it), no cover precedes the bound, nor does
        one when the walk follows it to its end."""
        j = table.column
        chosen, uncovered, start = [], masks[j], 0
        for level in range(k):
            for i in range(start, bound[level]):
                if i != j and masks[i] & uncovered:
                    found = _cover_search(table, uncovered & ~masks[i], k - 1 - level)
                    if found is not None:
                        bound = (*chosen, i, *sorted(found))
                        break
            else:
                i = bound[level]
                if i == j or not masks[i] & uncovered:
                    return bound
            chosen.append(i)
            uncovered &= ~masks[i]
            start = i + 1
        return bound

    for j in columns:
        best = lex_first(tables(j), best)
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
    return frozenset(j for j, mask in enumerate(matrix.masks) if mask & private)


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
