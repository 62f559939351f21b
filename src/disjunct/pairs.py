"""Private 2-subsets and the matching-number machinery.

A 2-subset of rows inside a column is private when no other column
contains both rows, non-private otherwise.  The non-private pairs of a
column form a graph on its support whose matching number is the lever of
the general row lower bound: a d-disjunct matrix with no isolated columns
cannot afford s pairwise disjoint non-private pairs inside a column of
weight d+s.  Matching numbers come from Edmonds' blossom algorithm, in
O(V^3) for a graph on V vertices.

Column j shares a pair with another column k, its partner, exactly when
the two meet in at least two rows, and then every pair of the trace
``c_k & c_j`` is non-private.  So rows r and s of column j form a
non-private pair exactly when some partner holds both: when their
partner sets, the partners holding each row, meet.  The graph is kept as
row-neighbourhood masks, and |E| is half the sum of the neighbourhood
sizes.  The two classes partition a column's 2-subsets, so a column's
private pairs are the other ones, C(w, 2) - |E| of them for weight w.

``analyze_pairs`` is the one pass over a whole matrix: it finds every
column's partners in one blocked pass over the all-pairs intersection
table (``_kernels.intersection_blocks``), and only for a column that has
partners reads its rows' partner sets from the matrix's transposed rows
(``matrix._fill_holders``) and builds the masks.  It then takes the
matrix-wide preconditions of that bound (Lemma 3 of the paper) from
``is_d_disjunct`` and ``find_isolated_columns``, checks every column,
and totals the private pairs against the C(t, 2) budget they share.  The masks take V^2 bits
per column on the V rows that lie in a non-private pair, refused past
``matrix.DENSE_LIMIT``; the blossom's O(V^3) time is the one step of
that pass with no bound.

``complete_graph_matchings`` and ``matching_numbers_all_graphs`` tabulate
the matching number of every graph on up to seven vertices, the table
against which ``formula_one`` is checked.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from . import _kernels
from .disjunctness import find_isolated_columns, is_d_disjunct
from .matrix import DENSE_LIMIT, BinaryMatrix, _fill_holders, _iter_bits


def _pair_graph(j: int, sets: list[int]) -> list[int]:
    """Column j's non-private pair graph as row-neighbourhood masks, from
    the partner set of each of its rows in ascending order.

    The vertices are the rows with a nonempty set, numbered in ascending
    order.  Rows with equal sets form a clique, and vertex i's mask holds
    the cliques whose sets meet its own, minus itself.
    """
    sets = [s for s in sets if s]
    if (size := len(sets)) ** 2 > DENSE_LIMIT:
        raise ValueError(f"column {j}'s pair graph is too large: {size}^2 > {DENSE_LIMIT} bits")
    cliques: dict[int, int] = {}
    for i, s in enumerate(sets):
        cliques[s] = cliques.get(s, 0) | 1 << i
    near = {s: sum(c for other, c in cliques.items() if s & other) for s in cliques}
    return [near[s] ^ 1 << i for i, s in enumerate(sets)]


def _matching(around: list[int]) -> int:
    """Maximum matching size of the graph on range(len(around)) in which
    vertex v is adjacent to the set bits of ``around[v]``.

    Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965) in
    O(V^3): a greedy matching, then one search for an augmenting path from
    each exposed vertex but the last.  An exposed vertex from which no
    augmenting path starts never gains one later, so one search per vertex
    suffices, and a path from the last could only end at a vertex whose
    own search failed.
    """
    mate = [-1] * len(around)
    free = (1 << len(around)) - 1
    matched = 0
    for v, near in enumerate(around):
        if mate[v] < 0 and (pick := near & free):
            u = (pick & -pick).bit_length() - 1
            mate[u], mate[v] = v, u
            free &= ~(1 << u | 1 << v)
            matched += 1
    exposed = [v for v, near in enumerate(around) if mate[v] < 0 and near]
    for root in exposed[:-1]:
        if mate[root] < 0:
            matched += _augment(root, around, mate)
    return matched


def _augment(root: int, around: list[int], mate: list[int]) -> bool:
    """Grow an alternating tree from the exposed ``root`` breadth first and
    flip the first augmenting path found in ``mate``; False if there is none.

    An edge between two even (outer) vertices closes an odd cycle, which
    is contracted into its base: every vertex of the cycle becomes even
    and the tree edges around it are redirected so that a path through
    the blossom can later be read back through ``parent``.
    """
    size = len(around)
    base = list(range(size))  # base of the blossom holding each vertex
    parent = [-1] * size  # tree edge into each odd vertex (and blossom vertex)
    even = [False] * size
    even[root] = True
    queue = [root]

    def common_base(a: int, b: int) -> int:
        """The base of the blossom an edge between even a and b closes."""
        on_path = [False] * size
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] < 0:  # reached the root's blossom
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, top: int, child: int, blossom: list[bool]) -> None:
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    for v in queue:  # the queue grows while it is read
        for u in _iter_bits(around[v]):
            if base[v] == base[u] or mate[v] == u:
                continue
            if even[u]:
                top = common_base(v, u)
                blossom = [False] * size
                mark_path(v, top, u, blossom)
                mark_path(u, top, v, blossom)
                for w in range(size):
                    if blossom[base[w]]:
                        base[w] = top
                        if not even[w]:
                            even[w] = True
                            queue.append(w)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:
                    while u >= 0:  # flip the path's edges back to the root
                        back = parent[u]
                        after = mate[back]
                        mate[u], mate[back] = back, u
                        u = after
                    return True
                even[mate[u]] = True
                queue.append(mate[u])
    return False


def complete_graph_matchings(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All matchings of the complete graph on k vertices, as edge bitmasks.

    Edges are indexed in lexicographic order of their vertex pairs.
    Returns (masks, sizes) including the empty matching.
    """
    pairs = list(combinations(range(k), 2))
    masks: list[int] = []
    sizes: list[int] = []

    def extend(start: int, used: int, mask: int, size: int) -> None:
        masks.append(mask)
        sizes.append(size)
        for e in range(start, len(pairs)):
            a, b = pairs[e]
            bits = (1 << a) | (1 << b)
            if used & bits:
                continue
            extend(e + 1, used | bits, mask | (1 << e), size + 1)

    extend(0, 0, 0, 0)
    return np.array(masks, dtype=np.uint32), np.array(sizes, dtype=np.uint8)


def matching_numbers_all_graphs(k: int) -> np.ndarray:
    """Matching number of every labeled graph on k vertices.

    Index g is the graph whose edge set is the bitmask g over the
    lexicographically ordered vertex pairs.  Tabulation limited to k <= 7
    (2^21 graphs).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 7:
        raise ValueError("tabulation limited to k <= 7")
    masks, sizes = complete_graph_matchings(k)
    return _kernels.matching_numbers_table(comb(k, 2), masks, sizes)


def formula_one(d: int, s: int) -> int:
    """Piecewise maximum governing the non-private pair budget.

    Equals C(d+s, 2) - C(d+1, 2) for 3s <= 2d+2 and C(2s-1, 2) for
    3s >= 2d+2; computed as the max of both branches so the piecewise
    split is a tested consequence, not an input.  It is the Erdos-Gallai
    maximum m(k, 2, mu) = max{C(2*mu+1, 2), C(k, 2) - C(k-mu, 2)} of the
    edges of a graph on k vertices with matching number <= mu, taken at
    k = d+s and mu = s-1, wherever that bound applies (k >= 2*mu+1, that
    is s <= d+1), and the same closed form beyond.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    return max(comb(d + s, 2) - comb(d + 1, 2), comb(2 * s - 1, 2))


class ColumnPairs(NamedTuple):
    """Pair counts of one column; the Lemma 3 fields are None where the
    lemma does not apply to the matrix."""

    column: int
    weight: int
    private: int
    nonprivate: int
    matching: int
    bound: int | None = None  # m(d+s, 2, s-1) for s = weight - d
    in_range: bool | None = None  # s <= d-1, the lemma's hypothesis
    bound_ok: bool | None = None  # nonprivate <= bound
    matching_ok: bool | None = None  # matching <= s-1


class PairAnalysis(NamedTuple):
    """Private-pair analysis of a whole matrix at one order d."""

    vacuous: bool  # d >= n
    disjunct: bool
    isolated: frozenset[int]
    columns: tuple[ColumnPairs, ...]
    private_total: int
    pair_budget: int  # C(t, 2)


def analyze_pairs(matrix: BinaryMatrix, d: int) -> PairAnalysis:
    """Count every column's private and non-private pairs and, where
    Lemma 3 applies, check |N(c)| <= m(d+s, 2, s-1) and nu(N(c)) <= s-1.

    The lemma applies to a non-vacuous d-disjunct matrix with no isolated
    columns.  There every column has weight d+s with s >= 1: the rows of
    a column of weight <= d lie in at most d other columns.  The lemma's
    hypothesis asks for s <= d-1; beyond it the bound is still evaluated
    and ``in_range`` is false.  A private pair belongs to exactly one
    column, so ``private_total`` never exceeds ``pair_budget``.

    Each column's partners come from one pass over the all-pairs
    intersection table, as bits, and its rows' partner sets from the
    rows' holders, filled in for the columns with partners only.  The
    pass runs before the checker, so a pair graph past ``DENSE_LIMIT`` is
    refused before any cover search.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    masks = matrix.masks
    holders: dict[int, int] = {}
    counted = []  # (nonprivate, matching) of each column, in column order
    for lo, counts in _kernels.intersection_blocks(matrix.words):
        shared = np.packbits(counts >= 2, axis=1, bitorder="little")
        for j, row in enumerate(shared, lo):
            partners = int.from_bytes(row.tobytes(), "little")
            nonprivate = nu = 0
            if partners:
                _fill_holders(masks, masks[j], holders)
                around = _pair_graph(j, [holders[r] & partners for r in _iter_bits(masks[j])])
                nonprivate = sum(near.bit_count() for near in around) // 2
                nu = _matching(around)
            counted.append((nonprivate, nu))
    verdict = is_d_disjunct(matrix, d)
    isolated = find_isolated_columns(matrix)
    applies = verdict.is_disjunct and not verdict.vacuous and not isolated
    columns = []
    for j, (nonprivate, nu) in enumerate(counted):
        weight = masks[j].bit_count()
        lemma = {}
        if applies:
            s = weight - d
            bound = formula_one(d, s)
            lemma = dict(
                bound=bound,
                in_range=s <= d - 1,
                bound_ok=nonprivate <= bound,
                matching_ok=nu <= s - 1,
            )
        private = comb(weight, 2) - nonprivate
        columns.append(ColumnPairs(j, weight, private, nonprivate, nu, **lemma))
    return PairAnalysis(
        vacuous=verdict.vacuous,
        disjunct=verdict.is_disjunct,
        isolated=isolated,
        columns=tuple(columns),
        private_total=sum(c.private for c in columns),
        pair_budget=comb(matrix.t, 2),
    )
