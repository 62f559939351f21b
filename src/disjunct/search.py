"""Exhaustive search for t x (t+1) d-disjunct matrices.

Determines, per row count t, whether a d-disjunct matrix with one more
column than rows exists.  The search space is normalized to matrices with
no isolated columns (every column weight >= d+1): an instance with an
isolated column peels down to a strictly smaller instance, so "no
normalized instance at any t' <= t" is equivalent to "no instance at all
at any t' <= t".  Nonexistence below a given t therefore requires
exhausted certificates at every smaller t as well; the CLI and tests read
the certificate list cumulatively.

Row and column symmetry is broken by double-lex ordering.  Columns are
chosen in strictly increasing order as integers (row t-1 the most
significant bit), and rows are kept lexicographically non-increasing,
row t-1 <= ... <= row 0, read with the first chosen column as the most
significant.  Reversing the row order makes both orders non-decreasing
in the same reading direction, and every 0/1 matrix has a row and
column permutation that is doubly lexical in that sense (Lubiw,
"Doubly lexical orderings of matrices", SIAM J. Comput. 16, 1987).
Permutations keep column weights and d-disjunctness, so the search
still meets some ordering of every normalized instance and its
"exhausted" verdicts stay exact.

A node is one pool index examined under a chosen prefix: it costs one
unit of the budget whether the index is then skipped by the row order,
refused by the admission check, or descended into.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import Iterable, NamedTuple

from .constructions import _is_prime, affine_plane_matrix
from .disjunctness import is_d_disjunct
from .matrix import BinaryMatrix

# every t up to t_max gets a certificate, and t = (d+1)^2 builds an affine
# plane with t rows; 1024 keeps both at desk scale (AG(2, 31) at t = 961)
T_MAX_LIMIT = 1024


class SearchCertificate(NamedTuple):
    """Outcome of the search at one (d, t).

    ``exhausted`` is meaningful when nothing was found: True means the
    normalized space was fully enumerated, False means the node budget
    ran out first.  A found certificate always carries a matrix verified
    by the exact checker.
    """

    d: int
    t: int
    found: bool
    matrix: BinaryMatrix | None
    exhausted: bool
    nodes: int


def _candidate_pool(t: int, d: int) -> list[int]:
    """All column masks of weight >= d+1 over t rows, ascending as ints."""
    return [m for m in range(1, 1 << t) if m.bit_count() >= d + 1]


def _maximal(sets: Iterable[int]) -> tuple[int, ...]:
    """The antichain of maximal sets among ``sets``, largest first: a set
    is dropped when a kept one, never smaller, contains it."""
    kept: list[int] = []
    for u in sorted(set(sets), key=int.bit_count, reverse=True):
        for k in kept:
            if u | k == k:
                break
        else:
            kept.append(u)
    return tuple(kept)


def _grow(family: tuple[tuple[int, ...], ...], c: int) -> tuple[tuple[int, ...], ...]:
    """``family[k]`` (maximal unions of <= k columns) after adding column c."""
    return (family[0],) + tuple(
        _maximal(family[k] + tuple(u | c for u in family[k - 1]))
        for k in range(1, len(family))
    )


class _PathUnions:
    """The unions of a d-disjunct prefix P, enough to admit its next column.

    ``levels[k]`` (k = 0..d) is the antichain of maximal unions of at most
    k columns of P; ``others[i]`` is the same for k < d over P without
    ``chosen[i]``.  d-disjunctness is hereditary, so P + [c] is d-disjunct
    iff no cover uses c: c lies under no union in ``levels[d]``, and no
    ``j = chosen[i]`` has ``j & ~c`` under a union in ``others[i][d - 1]``.
    Columns are non-zero, as in the candidate pool.
    """

    __slots__ = ("d", "chosen", "levels", "others")

    def __init__(self, d: int, chosen=(), levels=None, others=()):
        self.d = d
        self.chosen: tuple[int, ...] = chosen
        self.levels = levels if levels is not None else ((0,),) * (d + 1)
        self.others = others

    def admits(self, c: int) -> bool:
        """Is P + [c] d-disjunct?"""
        for u in self.levels[-1]:
            if c | u == u:
                return False
        below = self.d - 1
        for j, unions in zip(self.chosen, self.others):
            rest = j & ~c
            for u in unions[below]:
                if rest | u == u:
                    return False
        return True

    def push(self, c: int) -> _PathUnions:
        """The state of P + [c]; P itself is left unchanged."""
        others = tuple(_grow(unions, c) for unions in self.others)
        return _PathUnions(
            self.d,
            self.chosen + (c,),
            _grow(self.levels, c),
            others + (self.levels[: self.d],),
        )


def _lex_child(tied: int, c: int) -> int:
    """``tied`` after appending column c, or -1 if c breaks the row order.

    Bit r of ``tied`` is set while rows r+1 and r agree on every chosen
    column; c breaks the order when it puts a 1 in row r+1 and a 0 in a
    row r tied to it, which would make row r+1 the larger.
    """
    if (c >> 1) & ~c & tied:
        return -1
    return tied & ~((c >> 1) ^ c)


def _seeded_certificate(d: int, t: int) -> BinaryMatrix | None:
    """Constructive shortcut: a truncated affine plane when t = (d+1)^2."""
    q = isqrt(t)
    if q * q != t or q != d + 1 or not _is_prime(q):
        return None
    plane = affine_plane_matrix(q)
    candidate = BinaryMatrix.from_masks(t, list(plane.masks[: t + 1]))
    if is_d_disjunct(candidate, d).is_disjunct:
        return candidate
    return None  # pragma: no cover - column subsets stay disjunct


def _search_one(d: int, t: int, budget: int) -> tuple[BinaryMatrix | None, bool, int]:
    """DFS over doubly lex-ordered matrices with columns of weight >= d+1.

    Returns the matrix found (or None), whether the search ended without
    running out of its ``budget`` nodes, and the nodes it spent.
    """
    n = t + 1
    if sum(comb(t, w) for w in range(d + 1, t + 1)) < n:
        return None, True, 0  # fewer candidate masks than columns
    if budget <= 0:
        return None, False, 0  # no node to spend: leave the pool unbuilt
    pool = _candidate_pool(t, d)

    found: BinaryMatrix | None = None
    nodes = 0

    def dfs(start: int, path: _PathUnions, tied: int) -> bool:
        """Extend ``path``; True once a matrix is found or the budget runs out."""
        nonlocal found, nodes
        chosen = path.chosen
        if len(chosen) == n:
            matrix = BinaryMatrix.from_masks(t, list(chosen))
            verdict = is_d_disjunct(matrix, d)
            if verdict.is_disjunct:
                found = matrix
                return True
            return False  # pragma: no cover - the admission check is exact
        # stop where fewer masks are left than columns still to choose
        for idx in range(start, len(pool) - n + len(chosen) + 1):
            if nodes == budget:
                return True
            nodes += 1
            c = pool[idx]
            child = _lex_child(tied, c)
            if child >= 0 and path.admits(c) and dfs(idx + 1, path.push(c), child):
                return True
        return False

    ran_out = dfs(0, _PathUnions(d), (1 << (t - 1)) - 1) and found is None
    return found, not ran_out, nodes


def exhaustive_T(d: int, t_max: int, budget: int = 2_000_000) -> list[SearchCertificate]:
    """Search for a t x (t+1) d-disjunct matrix for every t up to t_max.

    ``budget`` caps the total DFS nodes across all t, and ``t_max`` may
    not exceed ``T_MAX_LIMIT``.  d = 1 is fully decidable at desk scale;
    for larger d the search is best effort and nonexistence may only be
    claimed from certificates with ``exhausted=True``.  Known attainable
    configurations (truncated affine planes at t = (d+1)^2 for prime d+1)
    are emitted constructively without searching.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if t_max > T_MAX_LIMIT:
        raise ValueError(f"t_max must be <= {T_MAX_LIMIT}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    certificates = []
    for t in range(1, t_max + 1):
        # a seeded plane is found unsearched; past t = 20 a 2^t candidate
        # pool is out of reach, so nothing is searched and nothing claimed
        matrix, exhausted, nodes = _seeded_certificate(d, t), False, 0
        if matrix is None and t <= 20:
            matrix, exhausted, nodes = _search_one(d, t, budget)
            budget -= nodes
        certificates.append(
            SearchCertificate(
                d=d,
                t=t,
                found=matrix is not None,
                matrix=matrix,
                exhausted=exhausted and matrix is None,
                nodes=nodes,
            )
        )
    return certificates
