"""Oracles the library implementations are checked against.

The brute-force oracles (``brute_*``) are deliberately naive: plain
enumeration over subsets, sharing no code with the library, so a bug in
the fast path cannot hide in them.  The reference loops (``reference_is_d_disjunct``,
``reference_max_disjunct_order``, ``passes_incremental``) are former
library loops kept to check the loops that replaced them; they call the
library's cover-search engine, ``disjunctness._cover_search``, which the
disjunctness tests check against brute force.
"""

from itertools import combinations
from math import comb

import numpy as np

from disjunct.disjunctness import (
    DisjunctVerdict,
    Witness,
    _cover_search,
    _trace_tables,
    is_d_disjunct,
)
from disjunct.matrix import BinaryMatrix
from disjunct.pairs import matching_numbers_all_graphs
from disjunct.search import _candidate_pool, _PathUnions


def brute_is_d_disjunct(masks, d):
    """Enumerate all (column, <=d other columns) cover candidates."""
    n = len(masks)
    for j in range(n):
        others = [k for k in range(n) if k != j]
        for size in range(0, d + 1):
            for group in combinations(others, size):
                union = 0
                for k in group:
                    union |= masks[k]
                if masks[j] & ~union == 0:
                    return False
    return True


def brute_max_disjunct_order(masks):
    """Largest d for which the matrix is d-disjunct, capped at n-1.

    The first d the enumeration refutes, minus one.
    """
    n = len(masks)
    for d in range(1, n):
        if not brute_is_d_disjunct(masks, d):
            return d - 1
    return n - 1


def brute_min_cover_size(masks, j, limit):
    """Fewest other columns whose union holds column j, or limit + 1."""
    others = [k for k in range(len(masks)) if k != j]
    for size in range(0, limit + 1):
        for group in combinations(others, size):
            union = 0
            for k in group:
                union |= masks[k]
            if masks[j] & ~union == 0:
                return size
    return limit + 1


def reference_is_d_disjunct(matrix, d):
    """The checker's former per-column loop, kept as the reference for its
    counting bound and its skipping of columns with a private row: one
    cover search for every column, in index order."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d >= matrix.n:
        return DisjunctVerdict(True, vacuous=True)
    masks, tables = matrix.masks, _trace_tables(matrix.masks)
    for j in range(matrix.n):
        cover = _cover_search(tables(j), masks[j], d)
        if cover is not None:
            return DisjunctVerdict(False, Witness(j, tuple(cover)))
    return DisjunctVerdict(True)


def reference_max_disjunct_order(matrix):
    """``max_disjunct_order``'s former loop: every column searched in
    index order, at each depth up to the best order found so far."""
    masks, tables = matrix.masks, _trace_tables(matrix.masks)
    best = matrix.n - 1
    for j in range(matrix.n):
        if best == 0:
            break
        for depth in range(1, best + 1):
            cover = _cover_search(tables(j), masks[j], depth)
            if cover is not None:
                best = min(best, max(1, len(cover)) - 1)
                break
    return best


def brute_matching_number(edges):
    """Max number of pairwise disjoint edges, by exhaustive extension."""
    edges = sorted(edges)

    def extend(start, used, size):
        best = size
        for e in range(start, len(edges)):
            a, b = edges[e]
            if a in used or b in used:
                continue
            best = max(best, extend(e + 1, used | {a, b}, size + 1))
        return best

    return extend(0, frozenset(), 0)


def neighbourhood_masks(k, edges):
    """The graph on range(k) with ``edges`` as the neighbourhood masks the
    library's blossom reads: bit b of entry a is set iff {a, b} is an edge."""
    around = [0] * k
    for a, b in edges:
        around[a] |= 1 << b
        around[b] |= 1 << a
    return around


def brute_maximal(family):
    """The members of ``family`` (int masks) that no other member strictly
    contains, compared as sets of bit positions."""
    rows = {u: {i for i in range(u.bit_length()) if u >> i & 1} for u in family}
    return {u for u in family if not any(rows[u] < rows[v] for v in family)}


def antichain_exists(t, n):
    """Is there an antichain of n distinct nonempty subsets of {0..t-1}?

    Equivalent to the existence of a t x n 1-disjunct matrix; feasible
    for small t only.
    """
    subsets = list(range(1, 1 << t))
    for family in combinations(subsets, n):
        if all(
            a & ~b and b & ~a
            for a, b in combinations(family, 2)
        ):
            return True
    return False


def passes_incremental(masks, d):
    """Is the partial column set still d-disjunct-compatible?

    The search's former admission check, kept as the reference its
    per-path union families must agree with: one library cover search per
    column of the whole prefix.  ``_cover_search`` itself is checked
    against ``brute_is_d_disjunct``, through ``is_d_disjunct``, in the
    disjunctness tests.
    """
    depth = min(d, len(masks) - 1)
    if depth < 1:
        return True
    tables = _trace_tables(masks)
    for j in range(len(masks)):
        if _cover_search(tables(j), masks[j], depth) is not None:
            return False
    return True


def reference_search_one(d, t, budget: int):
    """The search's former DFS, kept as the reference for its lex pruning.

    Enumerates every strictly increasing column sequence from the pool,
    so every row permutation of a candidate matrix is visited; the
    library's DFS must agree with it on found versus exhausted.
    """
    n = t + 1
    if sum(comb(t, w) for w in range(d + 1, t + 1)) < n:
        return None, True, 0  # fewer candidate masks than columns
    if budget <= 0:
        return None, False, 0  # no node to spend: leave the pool unbuilt
    pool = _candidate_pool(t, d)

    found: BinaryMatrix | None = None
    nodes = 0

    def dfs(start: int, path: _PathUnions) -> bool:
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
            if path.admits(c) and dfs(idx + 1, path.push(c)):
                return True
        return False

    ran_out = dfs(0, _PathUnions(d)) and found is None
    return found, not ran_out, nodes


def kautz_singleton(q, k):
    """KS(q, k, q), q^2 x q^k, for a prime q: every polynomial of degree < k
    over GF(q), constant term varying fastest, its value at point x
    one-hot in rows qx .. qx + q - 1.  Two such polynomials agree at most
    k - 1 times, so no column lies in the union of (q - 1) // (k - 1)
    others (Kautz and Singleton, 1964)."""
    masks = [
        sum(1 << (q * x + sum(c // q**i % q * x**i for i in range(k)) % q) for x in range(q))
        for c in range(q**k)
    ]
    return BinaryMatrix.from_masks(q * q, masks)


def column_rows(matrix, j):
    """Row indices of column j, read one bit at a time off its mask."""
    mask = matrix.masks[j]
    return frozenset(i for i in range(matrix.t) if mask >> i & 1)


def masks_of_words(words):
    """Column masks summed word by word from an (n, W) uint64 array."""
    return tuple(
        sum(int(word) << 64 * k for k, word in enumerate(column)) for column in words
    )


def dense_of(matrix):
    """The t x n bool array of ``matrix``, entry (i, j) set iff row i is in
    ``column_rows(matrix, j)``; the library's word packing is not read."""
    dense = np.zeros((matrix.t, matrix.n), dtype=bool)
    for j in range(matrix.n):
        for i in column_rows(matrix, j):
            dense[i, j] = True
    return dense


def matrix_from_dense(array):
    """The matrix whose column j holds the rows i with ``array[i, j]`` set."""
    dense = np.asarray(array, dtype=bool)
    t, n = dense.shape
    return BinaryMatrix.from_masks(
        t, [sum(1 << i for i in range(t) if dense[i, j]) for j in range(n)]
    )


def dmat_text(matrix):
    """Canonical .dmat text of ``matrix``, one character per entry of
    ``dense_of(matrix)``."""
    rows = ("".join("1" if bit else "0" for bit in row) for row in dense_of(matrix))
    return f"{matrix.t} {matrix.n}\n" + "".join(row + "\n" for row in rows)


def brute_private_pairs(dense, j):
    """Classify 2-subsets of column j by scanning every other column."""
    t, n = dense.shape
    rows = [i for i in range(t) if dense[i, j]]
    private, nonprivate = set(), set()
    for a, b in combinations(rows, 2):
        if any(dense[a, k] and dense[b, k] for k in range(n) if k != j):
            nonprivate.add((a, b))
        else:
            private.add((a, b))
    return private, nonprivate


def brute_decode(dense, outcome_rows):
    """Items absent from every negative test, straight off the dense matrix."""
    t, n = dense.shape
    return frozenset(
        j
        for j in range(n)
        if all(i in outcome_rows for i in range(t) if dense[i, j])
    )


def brute_verify_identification(masks, d):
    """(ok, cases, failure) of decoding every positive set of size <= d.

    Sets are tried by size then lexicographically, the empty set first;
    ``cases`` counts the sets tried up to and including the first failure.
    """
    n = len(masks)
    cases = 0
    for k in range(0, min(d, n) + 1):
        for combo in combinations(range(n), k):
            union = 0
            for j in combo:
                union |= masks[j]
            decoded = frozenset(j for j in range(n) if masks[j] & ~union == 0)
            cases += 1
            if decoded != frozenset(combo):
                return False, cases, combo
    return True, cases, None


def brute_max_edges_nu_at_most(k, mu):
    """max edges over all graphs on k labeled vertices with nu <= mu.

    Exhaustive over all 2^C(k,2) graphs with the naive matching oracle;
    only feasible for small k.
    """
    pairs = list(combinations(range(k), 2))
    best = 0
    for g in range(1 << len(pairs)):
        edges = [pairs[e] for e in range(len(pairs)) if g >> e & 1]
        if len(edges) <= best:
            continue
        if brute_matching_number(edges) <= mu:
            best = len(edges)
    return best


def max_edges_matching_bounded(k):
    """max{|E(G)| : G on k labeled vertices, matching number <= mu}, as a
    list indexed by mu = 0 .. k // 2.

    Read off the library's table of all 2^C(k,2) graphs, built once: the
    route against which the closed-form bound is checked, itself checked
    against brute_max_edges_nu_at_most for small k.
    """
    nu = matching_numbers_all_graphs(k)
    edge_counts = np.bitwise_count(np.arange(nu.size, dtype=np.uint32))
    return [int(edge_counts[nu <= mu].max()) for mu in range(k // 2 + 1)]


def reference_place_column(rng, t, w, d, masks, weights):
    """The corpus sampler's former column placement, kept as the reference
    for its per-row masks and its log-time row pick: each draw indexes the
    ascending list of every allowed row, and each drawn row is tested
    against every existing column."""
    caps = [2 if w > d + 1 and wo > d + 1 else 1 for wo in weights]
    for _ in range(20):
        mask = blocked = 0
        shares = [0] * len(masks)
        for _ in range(w):
            allowed = [r for r in range(t) if not (mask | blocked) >> r & 1]
            if not allowed:
                mask = 0
                break
            r = allowed[rng.below(len(allowed))]
            mask |= 1 << r
            for k, other in enumerate(masks):
                if other >> r & 1:
                    shares[k] += 1
                    if shares[k] == caps[k]:
                        blocked |= other
        if mask:
            return mask
    return None


def reference_isolated_columns(matrix):
    """Columns holding a row of degree one, read off ``dense_of(matrix)``."""
    dense = dense_of(matrix)
    degrees = dense.sum(axis=1)
    return frozenset(
        j
        for j in range(matrix.n)
        if any(dense[i, j] and degrees[i] == 1 for i in range(matrix.t))
    )


def reference_peel_isolated(matrix, j):
    """(reduced matrix, removed rows) of dropping column j and the rows
    of degree one it holds, by slicing ``dense_of(matrix)``."""
    dense = dense_of(matrix)
    degrees = dense.sum(axis=1)
    private = [i for i in range(matrix.t) if dense[i, j] and degrees[i] == 1]
    rows = [i for i in range(matrix.t) if i not in private]
    cols = [k for k in range(matrix.n) if k != j]
    return matrix_from_dense(dense[rows][:, cols]), frozenset(private)


def reference_peel_to_core(matrix):
    """``peel_to_core`` through the row-degree oracles above."""
    peeled = 0
    while matrix.n >= 2:
        isolated = reference_isolated_columns(matrix)
        if not isolated:
            break
        matrix, _ = reference_peel_isolated(matrix, min(isolated))
        peeled += 1
    return matrix, peeled
