"""Exhaustive search for t x (t+1) d-disjunct matrices.

Determines, per row count t, whether a d-disjunct matrix with one more
column than rows exists.  The search space is normalized to matrices with
no isolated columns (every column weight >= d+1): an instance with an
isolated column peels down to a strictly smaller instance, so "no
normalized instance at any t' <= t" is equivalent to "no instance at all
at any t' <= t".  Nonexistence below a given t therefore requires
exhausted certificates at every smaller t as well; the CLI and tests read
the certificate list cumulatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .constructions import _is_prime, affine_plane_matrix
from .disjunctness import _cover_search, is_d_disjunct
from .matrix import BinaryMatrix


@dataclass(frozen=True)
class SearchCertificate:
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


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, nodes: int):
        self.remaining = nodes

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def _candidate_pool(t: int, d: int) -> list[int]:
    """All column masks of weight >= d+1 over t rows, ascending as ints."""
    return [m for m in range(1, 1 << t) if m.bit_count() >= d + 1]


def _passes_incremental(masks: list[int], d: int) -> bool:
    """Is the partial column set still d-disjunct-compatible?

    d-disjunctness is hereditary under column removal, so checking the
    full partial set at every extension keeps the search exact.
    """
    depth = min(d, len(masks) - 1)
    if depth < 1:
        return True
    for j in range(len(masks)):
        if _cover_search(masks, j, (depth,)) is not None:
            return False
    return True


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


def _search_one(d: int, t: int, budget: _Budget) -> tuple[BinaryMatrix | None, bool, int]:
    """DFS over strictly increasing column masks of weight >= d+1."""
    n = t + 1
    pool = _candidate_pool(t, d)
    start_nodes = budget.remaining
    if len(pool) < n:
        return None, True, 0

    found: BinaryMatrix | None = None
    ran_out = False

    def dfs(start: int, chosen: list[int]) -> bool:
        nonlocal found, ran_out
        if len(chosen) == n:
            matrix = BinaryMatrix.from_masks(t, chosen)
            verdict = is_d_disjunct(matrix, d)
            if verdict.is_disjunct:
                found = matrix
                return True
            return False  # pragma: no cover - incremental check is complete
        for idx in range(start, len(pool)):
            if len(pool) - idx < n - len(chosen):
                break  # not enough masks left
            if not budget.spend():
                ran_out = True
                return True
            chosen.append(pool[idx])
            if _passes_incremental(chosen, d) and dfs(idx + 1, chosen):
                chosen.pop()
                return True
            chosen.pop()
        return False

    dfs(0, [])
    nodes = start_nodes - budget.remaining
    return found, not ran_out, nodes


def exhaustive_T(d: int, t_max: int, budget: int = 2_000_000) -> list[SearchCertificate]:
    """Search for a t x (t+1) d-disjunct matrix for every t up to t_max.

    ``budget`` caps the total DFS nodes across all t.  d = 1 is fully
    decidable at desk scale; for larger d the search is best effort and
    nonexistence may only be claimed from certificates with
    ``exhausted=True``.  Known attainable configurations (truncated affine
    planes at t = (d+1)^2 for prime d+1) are emitted constructively
    without searching.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    shared = _Budget(budget)
    certificates = []
    for t in range(1, t_max + 1):
        seeded = _seeded_certificate(d, t)
        if seeded is not None:
            certificates.append(
                SearchCertificate(
                    d=d, t=t, found=True, matrix=seeded, exhausted=False, nodes=0
                )
            )
            continue
        if t > 20:
            # a 2^t candidate pool is out of reach; report honestly
            certificates.append(
                SearchCertificate(
                    d=d, t=t, found=False, matrix=None, exhausted=False, nodes=0
                )
            )
            continue
        matrix, exhausted, nodes = _search_one(d, t, shared)
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
