import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disjunct import _kernels
from disjunct import (
    BinaryMatrix,
    analyze_pairs,
    formula_one,
    identity_matrix,
    is_d_disjunct,
)
from disjunct.pairs import _matching, matching_numbers_all_graphs
from oracles import (
    brute_is_d_disjunct,
    brute_matching_number,
    brute_max_edges_nu_at_most,
    max_edges_matching_bounded,
    brute_private_pairs,
    column_rows,
    dense_of,
    neighbourhood_masks,
    reference_isolated_columns,
)


# -- classification ---------------------------------------------------


def _counts(m):
    """(weight, private, nonprivate, matching) of every column."""
    return [
        (c.weight, c.private, c.nonprivate, c.matching)
        for c in analyze_pairs(m, 1).columns
    ]


def test_affine_lines_all_private(ag):
    m = ag(3)
    assert _counts(m) == [(3, comb(3, 2), 0, 0)] * m.n
    assert all(len(column_rows(m, j)) == 3 for j in range(m.n))


def test_identical_columns_share_everything():
    m = BinaryMatrix.from_masks(3, [0b011, 0b011])
    assert _counts(m) == [(2, 0, 1, 1)] * 2


def test_single_column_all_private():
    m = BinaryMatrix.from_masks(4, [0b1111])
    assert _counts(m) == [(4, comb(4, 2), 0, 0)]


def _brute_counts(m):
    """_counts of every column, from the brute-force pair classification."""
    dense = dense_of(m)
    counts = []
    for j in range(m.n):
        private, nonprivate = brute_private_pairs(dense, j)
        w = len(column_rows(m, j))
        counts.append((w, len(private), len(nonprivate), brute_matching_number(nonprivate)))
    return counts


def test_classification_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(120):
        t, n = rng.randint(2, 8), rng.randint(1, 8)
        masks = [rng.randrange(0, 1 << t) for _ in range(n)]
        m = BinaryMatrix.from_masks(t, masks)
        assert _counts(m) == _brute_counts(m)


def test_partition_invariant(corpus):
    # private and non-private pairs partition the 2-subsets of a column
    for d, matrices in corpus.items():
        for m in matrices[:10]:
            counts = _brute_counts(m)
            for c, (w, private, nonprivate, _) in zip(analyze_pairs(m, d).columns, counts):
                assert (c.weight, c.private, c.nonprivate) == (w, private, nonprivate)
                assert c.private + c.nonprivate == comb(w, 2)


def test_private_pairs_disjoint_across_columns(ag, corpus):
    for m in [ag(3), *corpus[2][:5], *corpus[3][:5]]:
        dense = dense_of(m)
        seen = set()
        analysis = analyze_pairs(m, 1)
        for j, c in enumerate(analysis.columns):
            mine, _ = brute_private_pairs(dense, j)
            assert c.private == len(mine)
            assert not (seen & mine)
            seen |= mine
        assert analysis.private_total == len(seen) <= analysis.pair_budget


# -- matching number --------------------------------------------------


def _nu(k, edges):
    """Matching number of the graph on range(k), from the blossom."""
    return _matching(neighbourhood_masks(k, edges))


def test_matching_examples():
    assert _nu(4, {(0, 1), (2, 3)}) == 2
    assert _nu(3, {(0, 1), (0, 2), (1, 2)}) == 1
    assert _nu(4, {(0, 1), (1, 2), (2, 3)}) == 2
    assert _nu(0, set()) == 0


def test_matching_handles_odd_cycles():
    # 5-cycle: bipartite reasoning would get this wrong
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    assert _nu(5, edges) == 2


def test_matching_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(500):
        k = rng.randint(1, 8)
        edges = {
            (a, b)
            for a, b in combinations(range(k), 2)
            if rng.random() < 0.45
        }
        assert _nu(k, edges) == brute_matching_number(edges)


def _relabelled(rng, k, edges):
    """The matching number of the graph on range(k) with shuffled labels."""
    labels = rng.sample(range(k), k)
    return _nu(k, [(labels[a], labels[b]) for a, b in edges])


def test_matching_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for i in range(200):
        k = rng.randint(10, 80)
        density = i / 199
        edges = [e for e in combinations(range(k), 2) if rng.random() < density]
        oracle = nx.Graph()
        oracle.add_nodes_from(range(k))
        oracle.add_edges_from(edges)
        expected = len(nx.max_weight_matching(oracle, maxcardinality=True))
        assert _relabelled(rng, k, edges) == expected, (k, density)


def _flower(rng, depth, start):
    """A factor-critical graph on vertices start.. : an odd cycle whose
    nodes are flowers of the next depth down, consecutive ones joined by
    one edge between random vertices.  Returns (vertex count, edges)."""
    if depth == 0:
        return 1, []
    size, edges, parts = 0, [], []
    for _ in range(rng.choice((3, 5))):
        count, inner = _flower(rng, depth - 1, start + size)
        parts.append(range(start + size, start + size + count))
        edges += inner
        size += count
    for here, there in zip(parts, parts[1:] + parts[:1]):
        edges.append((rng.choice(here), rng.choice(there)))
    return size, edges


def test_matching_nested_blossoms():
    # a graph is factor-critical when contracting a factor-critical part
    # of it leaves a factor-critical graph (here an odd cycle), so a flower
    # on V vertices has a matching of (V - 1) / 2; a stem path of s
    # vertices hung on any vertex gives floor((V + s) / 2)
    rng = random.Random(13)
    for trial in range(120):
        size, edges = _flower(rng, rng.randint(1, 3), 0)
        stem = trial % 4
        anchor = rng.randrange(size)
        for extra in range(size, size + stem):
            edges.append((anchor if extra == size else extra - 1, extra))
        total = size + stem
        assert _relabelled(rng, total, edges) == total // 2


@pytest.mark.parametrize("k", [24, 25, 35, 64])
def test_matching_complete_graphs(k):
    assert _nu(k, combinations(range(k), 2)) == k // 2


@st.composite
def _graphs(draw):
    k = draw(st.integers(0, 24))
    pairs = list(combinations(range(k), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return k, edges, draw(st.permutations(range(k)))


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_matching_invariant_under_relabelling(graph):
    k, edges, perm = graph
    nu = _nu(k, edges)
    assert _nu(k, [(perm[a], perm[b]) for a, b in edges]) == nu
    assert nu <= k // 2


# -- Erdos-Gallai bound ------------------------------------------------
# m(k, 2, mu), the most edges on k vertices with matching number <= mu,
# is formula_one(k - mu - 1, mu + 1) for k >= 2*mu + 1 and k >= 2


def test_erdos_gallai_examples():
    assert formula_one(7 - 1 - 1, 1 + 1) == 6  # the star on 7 vertices
    for mu in range(1, 4):
        k = 2 * mu + 1
        assert formula_one(k - mu - 1, mu + 1) == comb(k, 2)
    for k in range(2, 9):
        assert formula_one(k - 1, 1) == 0


def test_max_edges_vs_slow_bruteforce():
    # the fast tabulation against the fully naive oracle, small k
    for k in range(2, 6):
        table = max_edges_matching_bounded(k)
        for mu in range(0, (k - 1) // 2 + 1):
            assert table[mu] == brute_max_edges_nu_at_most(k, mu)


def test_matching_table_agrees_with_matching_number():
    rng = random.Random(9)
    for k in (3, 4, 5, 6):
        table = matching_numbers_all_graphs(k)
        pairs = list(combinations(range(k), 2))
        for _ in range(60):
            g = rng.randrange(0, 1 << len(pairs))
            edges = {pairs[e] for e in range(len(pairs)) if g >> e & 1}
            assert table[g] == _nu(k, edges)


def test_max_edges_guard():
    with pytest.raises(ValueError):
        matching_numbers_all_graphs(8)


# -- formula one -------------------------------------------------------


def test_formula_one_examples():
    assert formula_one(3, 1) == 0
    # boundary 3s = 2d+2: both branches agree
    assert formula_one(2, 2) == comb(4, 2) - comb(3, 2) == comb(3, 2) == 3
    for s in range(1, 11):
        assert formula_one(3, s) == max(comb(2 * s - 1, 2), comb(3 + s, 2) - comb(4, 2))


def test_formula_one_piecewise_structure():
    for d in range(1, 51):
        for s in range(1, 2 * d + 1):
            value = formula_one(d, s)
            first = comb(d + s, 2) - comb(d + 1, 2)
            second = comb(2 * s - 1, 2)
            if 3 * s <= 2 * d + 2:
                assert value == first
            if 3 * s >= 2 * d + 2:
                assert value == second


def test_formula_one_is_the_erdos_gallai_bound():
    # analyze_pairs relies on this wherever m(d+s, 2, s-1) is defined
    for k in range(2, 122):
        for mu in range(0, (k - 1) // 2 + 1):
            bound = max(comb(2 * mu + 1, 2), comb(k, 2) - comb(k - mu, 2))
            assert formula_one(k - mu - 1, mu + 1) == bound


def test_formula_one_validation():
    with pytest.raises(ValueError):
        formula_one(3, 0)
    with pytest.raises(ValueError):
        formula_one(0, 1)


# -- lemma 3 verification ----------------------------------------------


def test_lemma3_on_affine_plane(ag):
    analysis = analyze_pairs(ag(5), 4)
    assert analysis.disjunct and not analysis.vacuous and not analysis.isolated
    for c in analysis.columns:
        assert c.weight - 4 == 1 and c.in_range
        assert c.bound == 0 and c.nonprivate == 0
        assert c.matching == 0
        assert c.bound_ok and c.matching_ok


def test_analyze_pairs_vacuous_past_int64(ag):
    assert analyze_pairs(ag(5), 2**63).vacuous


def test_lemma3_weight_d_plus_one_forces_no_shared_pairs(corpus):
    for m in corpus[2][:10]:
        for c in analyze_pairs(m, 2).columns:
            if c.weight == 3:
                assert c.nonprivate == 0


def test_lemma3_flags_name_precondition():
    isolated = analyze_pairs(identity_matrix(4), 1)
    assert isolated.isolated == frozenset(range(4))
    not_disjunct = analyze_pairs(
        BinaryMatrix.from_masks(3, [0b011, 0b011, 0b110, 0b101]), 2
    )
    assert not not_disjunct.disjunct and not not_disjunct.isolated
    for analysis in (isolated, not_disjunct):
        assert all(c.bound is None for c in analysis.columns)
        assert all(c.in_range is None for c in analysis.columns)


def test_lemma3_out_of_range_flag(ag):
    # affine plane lines have s = 1; build weight d+s with s >= d via q=5, d=2
    c = analyze_pairs(ag(5), 2).columns[0]
    assert not c.in_range
    assert c.weight - 2 == 3
    assert c.bound == formula_one(2, 3) == 10


def test_lemma3_contrapositive():
    # s disjoint shared pairs + coverable remainder means not d-disjunct:
    # build it by hand and watch the matching exceed what the lemma allows
    d, s = 3, 2
    # column 0 has weight d+s = 5: rows 0..4; pairs (0,1) and (2,3) are
    # shared with columns 1 and 2; row 4 is shared with column 3
    masks = [
        0b0011111,
        0b0000011,  # shares {0,1}
        0b0001100,  # shares {2,3}
        0b1110000,  # shares {4}
        0b1100000,
    ]
    m = BinaryMatrix.from_masks(7, masks)
    assert not is_d_disjunct(m, d).is_disjunct
    analysis = analyze_pairs(m, d)
    assert not analysis.disjunct
    c = analysis.columns[0]
    assert c.weight == d + s
    assert c.matching == 2 > s - 1  # nu = s, one more than the lemma allows


# the two smallest isolated-free 2-disjunct designs with more than two
# columns: the Fano plane and the dual of K4 (rows are its edges)
FANO = [0b0001011, 0b0010110, 0b0101100, 0b1011000, 0b0110001, 0b1100010, 0b1000101]
K4_DUAL = [0b000111, 0b011001, 0b101010, 0b110100]


def _small_matrix(rng):
    """A uniform random matrix, or a few columns of FANO or K4_DUAL with
    random columns added and up to two cells flipped."""
    if rng.random() < 0.5:
        t, n = rng.randint(1, 7), rng.randint(1, 8)
        return BinaryMatrix.from_masks(t, [rng.randrange(1 << t) for _ in range(n)])
    t, masks = rng.choice([(7, FANO), (6, K4_DUAL)])
    masks = rng.sample(masks, rng.randint(2, len(masks)))
    masks += [rng.randrange(1 << t) for _ in range(rng.randint(0, 8 - len(masks)))]
    for _ in range(rng.randint(0, 2)):
        masks[rng.randrange(len(masks))] ^= 1 << rng.randrange(t)
    return BinaryMatrix.from_masks(t, masks)


def test_lemma3_applies_to_every_column():
    # on a non-vacuous isolated-free d-disjunct matrix the rows of a column
    # of weight <= d lie in at most d other columns, so every s is >= 1
    rng = random.Random(13)
    applied = {1: 0, 2: 0}
    for _ in range(1500):
        m = _small_matrix(rng)
        if reference_isolated_columns(m):
            continue
        for d in applied:
            if d >= m.n or not brute_is_d_disjunct(m.masks, d):
                continue
            applied[d] += 1
            assert all(mask.bit_count() >= d + 1 for mask in m.masks)
            assert all(c.bound is not None for c in analyze_pairs(m, d).columns)
    assert all(applied.values()), applied


def _dense_matrix(rng):
    """Random dense columns over at most 8 rows, with an empty column, a
    duplicate column and a column nested in another."""
    t, n = rng.randint(3, 8), rng.randint(3, 9)
    masks = [sum(1 << r for r in range(t) if rng.random() < 0.7) for _ in range(n)]
    masks[rng.randrange(n)] = 0
    masks[rng.randrange(n)] = masks[rng.randrange(n)]
    masks[rng.randrange(n)] = masks[rng.randrange(n)] & rng.randrange(1 << t)
    return BinaryMatrix.from_masks(t, masks)


def _path_family(t):
    """An all-ones column, then a column on rows {k, k+1} for each k: every
    row of the first column has its own partner set."""
    return BinaryMatrix.from_masks(t, [(1 << t) - 1] + [0b11 << k for k in range(t - 1)])


def _kautz_singleton(q, k):
    """KS(q, k, q): every polynomial of degree < k over GF(q), its value at
    point x one-hot in rows qx .. qx + q-1."""
    masks = [
        sum(1 << (q * x + sum(c // q**i % q * x**i for i in range(k)) % q) for x in range(q))
        for c in range(q**k)
    ]
    return BinaryMatrix.from_masks(q * q, masks)


def test_analyze_pairs_matches_oracles_under_a_small_cell_cap(monkeypatch):
    # two cells put one column of the intersection table in each block;
    # dense columns share many pairs, and a trace of three rows or more
    # is an odd cycle in the pair graph.  The path family gives each row
    # of its first column a partner set of its own, and KS(5, 3, 5)
    # columns partner sets that overlap without being equal
    monkeypatch.setattr(_kernels, "_CELLS", 2)
    rng = random.Random(23)
    odd_cycles = 0
    inputs = [_dense_matrix(rng) for _ in range(120)]
    for m in inputs + [_path_family(12), _kautz_singleton(5, 3)]:
        dense = dense_of(m)
        analysis = analyze_pairs(m, 1)
        private_total = 0
        for j, c in enumerate(analysis.columns):
            private, nonprivate = brute_private_pairs(dense, j)
            assert (c.private, c.nonprivate) == (len(private), len(nonprivate))
            assert c.matching == brute_matching_number(nonprivate)
            private_total += len(private)
            odd_cycles += any(
                (m.masks[j] & mask).bit_count() >= 3
                for k, mask in enumerate(m.masks)
                if k != j
            )
        assert analysis.private_total == private_total
    assert odd_cycles


def test_analyze_pairs_dense_columns_in_bounded_memory():
    # three all-ones 1,000-row columns: each has all 499,500 pairs of its
    # rows non-private, so the pairs must be counted, never listed
    m = BinaryMatrix.from_masks(1000, [(1 << 1000) - 1] * 3)
    tracemalloc.start()
    try:
        analysis = analyze_pairs(m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = [(c.nonprivate, c.private, c.matching) for c in analysis.columns]
    assert counts == [(499500, 0, 500)] * 3
    assert peak < 16 << 20, peak


# -- private pair budget ----------------------------------------------


def test_budget_tight_on_affine_plane(ag):
    analysis = analyze_pairs(ag(3), 2)
    assert analysis.private_total == 36 and analysis.pair_budget == 36


def test_budget_identity():
    analysis = analyze_pairs(identity_matrix(6), 1)
    assert analysis.private_total == 0
    assert analysis.private_total <= analysis.pair_budget


def test_budget_always_holds():
    rng = random.Random(17)
    for _ in range(60):
        t, n = rng.randint(1, 8), rng.randint(1, 8)
        m = BinaryMatrix.from_masks(t, [rng.randrange(0, 1 << t) for _ in range(n)])
        analysis = analyze_pairs(m, 1)
        assert analysis.pair_budget == comb(t, 2)
        assert analysis.private_total <= analysis.pair_budget



def test_pair_graph_carries_column_support(ag):
    m = ag(3)
    column = analyze_pairs(m, 1).columns[0]
    assert column.weight == len(column_rows(m, 0)) == 3
    assert column.private == comb(column.weight, 2)
    # no other line meets line 0 in two points, so its pair graph has no edges
    assert column.nonprivate == column.matching == 0
