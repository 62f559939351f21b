import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disjunct import (
    BinaryMatrix,
    DisjunctVerdict,
    Witness,
    affine_plane_matrix,
    delete_column_and_rows,
    find_isolated_columns,
    identity_matrix,
    is_d_disjunct,
    max_disjunct_order,
    peel_to_core,
    verify_identification,
)
from disjunct import disjunctness
from disjunct.disjunctness import _cover_search, _trace_tables
from disjunct.matrix import _private_rows
from oracles import (
    brute_is_d_disjunct,
    brute_max_disjunct_order,
    column_rows,
    dense_of,
    reference_is_d_disjunct,
    reference_isolated_columns,
    reference_max_disjunct_order,
    reference_peel_to_core,
)


def random_masks(rng, t, n):
    return [rng.randrange(0, 1 << t) for _ in range(n)]


def assert_witness_sound(masks, d, verdict):
    w = verdict.witness
    assert len(w.covering) <= d
    assert w.column not in w.covering
    union = 0
    for k in w.covering:
        union |= masks[k]
    assert masks[w.column] & ~union == 0


# -- is_d_disjunct ----------------------------------------------------


def test_identity_is_disjunct():
    m = identity_matrix(3)
    assert is_d_disjunct(m, 2).is_disjunct


def test_explicit_cover_witness():
    # {0,1} is the union of {0} and {1}; {0} is also inside {0,1}, and the
    # reported witness is for the lowest failing column
    m = BinaryMatrix.from_masks(2, [0b01, 0b10, 0b11])
    verdict = is_d_disjunct(m, 2)
    assert not verdict.is_disjunct
    assert verdict.witness.column == 0
    assert_witness_sound([0b01, 0b10, 0b11], 2, verdict)
    # the cover promised for {0,1} exists as well
    union = m.masks[0] | m.masks[1]
    assert m.masks[2] & ~union == 0


def test_affine_plane_disjunct(ag):
    assert is_d_disjunct(ag(3), 2).is_disjunct
    verdict = is_d_disjunct(ag(3), 3)
    assert not verdict.is_disjunct
    assert_witness_sound(list(ag(3).masks), 3, verdict)


def test_d_parameter_validation():
    m = identity_matrix(2)
    with pytest.raises(ValueError):
        is_d_disjunct(m, 0)


def test_vacuous_regime():
    m = identity_matrix(3)
    verdict = is_d_disjunct(m, 3)
    assert verdict.is_disjunct and verdict.vacuous
    assert not is_d_disjunct(m, 2).vacuous


def test_duplicate_column_fails_immediately():
    m = BinaryMatrix.from_masks(3, [0b011, 0b011, 0b100])
    verdict = is_d_disjunct(m, 1)
    assert not verdict.is_disjunct
    assert len(verdict.witness.covering) == 1


def test_empty_column_covered_by_empty_union():
    m = BinaryMatrix.from_masks(3, [0, 0b101])
    verdict = is_d_disjunct(m, 1)
    assert not verdict.is_disjunct
    assert verdict.witness.column == 0
    assert verdict.witness.covering == ()


def test_checker_matches_bruteforce():
    rng = random.Random(20)
    for _ in range(300):
        t = rng.randint(2, 8)
        n = rng.randint(2, 10)
        masks = random_masks(rng, t, n)
        m = BinaryMatrix.from_masks(t, masks)
        for d in range(1, min(4, n)):
            verdict = is_d_disjunct(m, d)
            assert verdict.is_disjunct == brute_is_d_disjunct(masks, d)
            if not verdict.is_disjunct:
                assert_witness_sound(masks, d, verdict)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.lists(
                st.integers(min_value=0, max_value=(1 << t) - 1),
                min_size=2,
                max_size=7,
            ),
            st.integers(min_value=1, max_value=3),
        )
    )
)
def test_checker_matches_bruteforce_hypothesis(args):
    t, masks, d = args
    if d >= len(masks):
        return  # vacuous regime, outside the oracle's contract
    m = BinaryMatrix.from_masks(t, masks)
    assert is_d_disjunct(m, d).is_disjunct == brute_is_d_disjunct(masks, d)


def test_monotonicity():
    rng = random.Random(33)
    for _ in range(100):
        t, n = rng.randint(3, 7), rng.randint(3, 8)
        m = BinaryMatrix.from_masks(t, random_masks(rng, t, n))
        results = [is_d_disjunct(m, d).is_disjunct for d in range(1, n)]
        # once the property fails it stays failed for larger d
        assert results == sorted(results, reverse=True)


# -- max_disjunct_order ----------------------------------------------


def test_max_order_identity():
    assert max_disjunct_order(identity_matrix(5)) == 4
    assert max_disjunct_order(identity_matrix(1)) == 0


def test_max_order_affine(ag):
    assert max_disjunct_order(ag(3)) == 2
    assert max_disjunct_order(ag(5)) == 4


def test_max_order_duplicate():
    m = BinaryMatrix.from_masks(3, [0b011, 0b011, 0b100])
    assert max_disjunct_order(m) == 0


def test_cover_of_a_thousand_columns():
    # column 0 holds every row and column r + 1 row r alone, so the one
    # cover of column 0 is all 1,100 other columns: deeper than the
    # interpreter's default recursion limit
    t = 1100
    m = BinaryMatrix.from_masks(t, [(1 << t) - 1] + [1 << r for r in range(t)])
    verdict = is_d_disjunct(m, t)
    assert verdict.witness == Witness(0, tuple(range(1, t + 1)))
    assert max_disjunct_order(m) == 0


def holds_by_brute_force(masks, j, target, depth):
    """Do at most ``depth`` columns other than j hold the rows ``target``?"""
    others = [k for k in range(len(masks)) if k != j]
    for size in range(depth + 1):
        for group in combinations(others, size):
            union = 0
            for k in group:
                union |= masks[k]
            if target & ~union == 0:
                return True
    return False


def test_cover_search_engine_matches_brute_force():
    # one table answers mixed targets and depths, deepest first and
    # shallowest first: the states it refutes for one query must stay
    # refuted for the next, and no query may see another's answer; the
    # tables of one matrix share the row holders the earlier ones filled
    rng = random.Random(46)
    for _ in range(250):
        t, n = rng.randint(1, 8), rng.randint(2, 8)
        m = BinaryMatrix.from_masks(t, random_masks(rng, t, n))
        masks, tables = m.masks, _trace_tables(m.masks)
        for j in range(n):
            queries = [(masks[j] & rng.getrandbits(t), rng.randint(1, 3)) for _ in range(6)]
            for reverse in (False, True):
                table = tables(j)
                for target, depth in sorted(queries, key=lambda q: q[1], reverse=reverse):
                    cover = _cover_search(table, target, depth)
                    assert (cover is not None) == holds_by_brute_force(masks, j, target, depth)
                    if cover is not None:
                        assert len(cover) <= depth and j not in cover
                        union = 0
                        for k in cover:
                            union |= masks[k]
                        assert target & ~union == 0
                    # a fresh table, which has not branched yet, agrees
                    fresh = _trace_tables(masks)(j)
                    assert _cover_search(fresh, target, depth) == cover


def test_refuted_states_are_remembered(monkeypatch):
    # column 0 holds 4m rows; each block of four gets two ways to be
    # covered by two pair columns, and one triple covers three rows of the
    # first block, so 2m - 1 columns cover no column 0.  The table's dead
    # set refutes each (uncovered rows, depth left) state once: without it
    # the search branches 175,104 times at m = 12 (188 with it)
    m = 12
    masks = [(1 << 4 * m) - 1]
    for r in range(0, 4 * m, 4):
        masks += [0b11 << r, 0b1100 << r, 0b101 << r, 0b1010 << r]
    masks.append(0b111)
    branched = []
    candidates = disjunctness._TraceTable.candidates
    monkeypatch.setattr(
        disjunctness._TraceTable,
        "candidates",
        lambda table: branched.append(0) or candidates(table),
    )
    assert _cover_search(_trace_tables(masks)(0), masks[0], 2 * m - 1) is None
    assert len(branched) <= 500


def test_trace_tables_keep_each_column_table():
    # one factory makes column j's table once, so every search on j shares
    # its candidates and refuted states; a fresh factory starts anew
    masks = [0b0011, 0b0110, 0b1100, 0b1001]
    tables = _trace_tables(masks)
    first = tables(2)
    assert tables(2) is first and tables(1) is not first
    assert _trace_tables(masks)(2) is not first


def test_trace_tables_hold_the_undominated_traces():
    # a table's candidates are the lowest column of every trace on column
    # j that no other trace contains, and the holders its tables share
    # map each row of column j to every column holding it
    rng = random.Random(47)
    shapes = [(rng.randint(1, 16), rng.randint(2, 30), rng.choice((0.2, 0.5, 0.7)))
              for _ in range(60)]
    for t, n, p in shapes + [(24, 56, 0.5)] * 6:
        bits = [[rng.random() < p for _ in range(t)] for _ in range(n)]
        masks = [sum(b << r for r, b in enumerate(col)) for col in bits]
        tables = _trace_tables(masks)
        for j in rng.sample(range(n), n):
            traces = {k: masks[k] & masks[j] for k in range(n) if k != j and masks[k] & masks[j]}
            candidates = [
                k for k, trace in traces.items()
                if not any(
                    other | trace == other and (other != trace or i < k)
                    for i, other in traces.items() if i != k
                )
            ]
            widest = max((traces[k].bit_count() for k in candidates), default=0)
            table = tables(j)
            assert table.candidates() == (sum(1 << k for k in candidates), widest)
            for r in range(t):
                if masks[j] >> r & 1:
                    held = sum(1 << k for k in range(n) if masks[k] >> r & 1)
                    assert table.holders[r] == held


def test_checker_memory_is_linear_in_the_rows():
    # two all-ones 10,000-row columns: the shared holders map is keyed by
    # row index, so filling a column costs no t-bit key per row
    m = BinaryMatrix.from_masks(10_000, [(1 << 10_000) - 1] * 2)
    questions = [
        (lambda: is_d_disjunct(m, 1), DisjunctVerdict(False, Witness(0, (1,)))),
        (lambda: max_disjunct_order(m), 0),
        (lambda: verify_identification(m, 1).failure, (0,)),
    ]
    for ask, answer in questions:
        tracemalloc.start()
        try:
            assert ask() == answer
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak


def test_witnesses_are_pinned():
    # the search order fixes every witness: the lowest-index covered column
    # and the first cover found for it, as the checker reported them
    # before its cover search and verify-id's became one engine
    rng = random.Random(48)
    lines = []
    for _ in range(200):
        t, n = rng.randint(6, 14), rng.randint(6, 14)
        m = BinaryMatrix.from_masks(t, [rng.getrandbits(t) | rng.getrandbits(t) for _ in range(n)])
        for d in (1, 2, 3):
            verdict = is_d_disjunct(m, d)
            lines.append(f"{d} {verdict.is_disjunct} {verdict.witness}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3e01935c9737ccf430e59adc0be30d0d3d57e2d1ee78cfe535b788acc8d8284e"


def test_max_order_matches_checker_ladder():
    rng = random.Random(44)
    for _ in range(100):
        t, n = rng.randint(2, 7), rng.randint(2, 8)
        m = BinaryMatrix.from_masks(t, random_masks(rng, t, n))
        order = max_disjunct_order(m)
        naive = 0
        for d in range(1, n):
            if not is_d_disjunct(m, d).is_disjunct:
                break
            naive = d
        if naive == n - 1 or is_d_disjunct(m, n - 1).is_disjunct:
            naive = n - 1
        assert order == naive


def test_max_order_matches_brute_force_oracle():
    # a search state refuted with one column left must stay open with two:
    # a dead set keyed on the uncovered rows alone reports 3 here
    assert max_disjunct_order(BinaryMatrix.from_masks(9, [209, 99, 30, 390])) == 2
    rng = random.Random(45)
    for i in range(3000):
        t, n = rng.randint(2, 10), rng.randint(1, 9)
        if i % 2:
            masks = random_masks(rng, t, n)
        else:
            # distinct columns of one weight: none contains another, so
            # the orders spread up to n-1 instead of sitting at 0
            w = rng.randint(1, max(1, t // 2))
            pool = [sum(1 << r for r in c) for c in combinations(range(t), w)]
            masks = rng.sample(pool, min(n, len(pool)))
        m = BinaryMatrix.from_masks(t, masks)
        assert max_disjunct_order(m) == brute_max_disjunct_order(masks), masks


@pytest.mark.parametrize("q", [5, 7, 11])
def test_max_order_planes_and_vertical_line_mutants(ag, monkeypatch, q):
    # a line has no private point, so its weight caps the order at q-1,
    # and q-1 lines meet a line in at most q-1 of its q points: the cap is
    # the order and nothing is searched.  With one point gone from line 0
    # or the first vertical line, q-1 lines cover it, and its weight caps
    # the order at q-2
    searches = []
    search = disjunctness._cover_search

    def spy(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(disjunctness, "_cover_search", spy)
    plane = ag(q)
    assert max_disjunct_order(plane) == q - 1
    for j in (0, q * q):
        for row in sorted(column_rows(plane, j)):
            masks = list(plane.masks)
            masks[j] &= ~(1 << row)
            assert max_disjunct_order(BinaryMatrix.from_masks(q * q, masks)) == q - 2
    assert searches == []


@pytest.mark.parametrize(
    "t, masks, order",
    [
        (4, [1, 2, 4, 8], 3),  # the identity: every column isolated
        (3, [0b011, 0, 0b110], 0),  # an empty column
        (2, [0b11], 0),  # one column
        (3, [0b101, 0b011, 0b101], 0),  # two equal columns
    ],
)
def test_max_order_weight_cap_edge_cases(t, masks, order):
    m = BinaryMatrix.from_masks(t, masks)
    assert max_disjunct_order(m) == brute_max_disjunct_order(masks) == order


# -- isolated columns and peeling ------------------------------------


def test_isolated_examples(ag):
    assert find_isolated_columns(identity_matrix(4)) == frozenset(range(4))
    assert find_isolated_columns(ag(3)) == frozenset()
    single = BinaryMatrix.from_masks(4, [0b1111])
    assert find_isolated_columns(single) == frozenset({0})


def test_peel_to_fixpoint():
    rng = random.Random(7)
    for _ in range(60):
        t, n = rng.randint(2, 7), rng.randint(2, 8)
        m = BinaryMatrix.from_masks(t, random_masks(rng, t, n))
        core, peeled = peel_to_core(m)
        assert peeled == m.n - core.n
        if core.n >= 2:
            assert find_isolated_columns(core) == frozenset()


def test_peel_preserves_disjunctness():
    # lemma: removing an isolated column and its private rows keeps d-disjunct,
    # so the core that peel_to_core leaves is d-disjunct too
    rng = random.Random(8)
    checked = 0
    while checked < 40:
        t, n = rng.randint(3, 7), rng.randint(3, 7)
        masks = random_masks(rng, t, n)
        m = BinaryMatrix.from_masks(t, masks)
        isolated = find_isolated_columns(m)
        if not isolated or m.n < 3:
            continue
        core, _ = peel_to_core(m)
        for d in range(1, n - 1):
            if not is_d_disjunct(m, d).is_disjunct:
                continue
            assert is_d_disjunct(core, d).is_disjunct
            checked += 1


def odd_column_matrices(t, seed):
    """Random t-row matrices, sparse enough to have private rows, with a
    duplicate, an empty and a full column mixed in."""
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(2, 7)
        bits = max(1, t // rng.randint(2, 6))
        masks = [
            sum(1 << r for r in rng.sample(range(t), rng.randint(0, bits)))
            for _ in range(n)
        ]
        for extra in rng.sample([masks[0], 0, (1 << t) - 1], rng.randint(0, 3)):
            masks.insert(rng.randint(0, len(masks)), extra)
        yield BinaryMatrix.from_masks(t, masks)


@pytest.mark.parametrize("t", [1, 63, 64, 65, 130])
def test_peeling_matches_the_row_degree_oracle(t):
    for m in odd_column_matrices(t, seed=t):
        degrees = dense_of(m).sum(axis=1)
        private = sum(1 << i for i in range(t) if degrees[i] == 1)
        assert _private_rows(m.masks) == private
        isolated = find_isolated_columns(m)
        assert isolated == reference_isolated_columns(m)
        assert peel_to_core(m) == reference_peel_to_core(m)


# -- delete_column_and_rows ------------------------------------------


def test_delete_identity():
    assert delete_column_and_rows(identity_matrix(3), 0) == identity_matrix(2)


def test_delete_affine_line(ag):
    reduced = delete_column_and_rows(ag(3), 0)
    assert (reduced.t, reduced.n) == (6, 11)
    assert is_d_disjunct(reduced, 1).is_disjunct


def test_delete_full_weight_column():
    m = BinaryMatrix.from_masks(2, [0b11, 0b01, 0b10])
    reduced = delete_column_and_rows(m, 0)
    assert reduced.t == 0 and reduced.n == 2
    assert reduced.weights().tolist() == [0, 0]


def test_delete_requires_two_columns():
    with pytest.raises(ValueError):
        delete_column_and_rows(BinaryMatrix.from_masks(2, [0b11]), 0)


def test_delete_preserves_weaker_disjunctness(corpus):
    # lemma: deleting a column and its rows drops the order by at most one
    for d, matrices in corpus.items():
        if d < 2:
            continue
        for m in matrices[:5]:
            for j in range(m.n):
                reduced = delete_column_and_rows(m, j)
                if reduced.t == 0 or reduced.n < 2:
                    continue
                assert is_d_disjunct(reduced, d - 1).is_disjunct


def test_min_weight_without_isolated_columns(corpus):
    # a non-isolated column of a d-disjunct matrix has weight >= d+1
    for d, matrices in corpus.items():
        for m in matrices[:20]:
            assert int(m.weights().min()) >= d + 1


# -- the counting bound against the former per-column loop -------------


def assert_same_as_reference(m, ds):
    for d in ds:
        assert is_d_disjunct(m, d) == reference_is_d_disjunct(m, d), (m.masks, d)
    assert max_disjunct_order(m) == reference_max_disjunct_order(m), m.masks


def test_bound_agrees_with_reference_on_pinned_corpora(corpus, mixed_corpus):
    for corpora in (corpus, mixed_corpus):
        for d, matrices in corpora.items():
            for m in matrices:
                assert_same_as_reference(m, (d - 1, d, d + 1))


def plane_mutants(q, rng):
    """AG(2, q) and one-point mutants: points deleted from and added to
    lines at both ends of the column order and one between."""
    plane = affine_plane_matrix(q)
    t = plane.t
    yield plane
    for j in (0, rng.randrange(plane.n), plane.n - 1):
        masks = list(plane.masks)
        masks[j] &= ~(1 << rng.choice(sorted(column_rows(plane, j))))
        yield BinaryMatrix.from_masks(t, masks)
        masks = list(plane.masks)
        outside = [r for r in range(t) if not masks[j] >> r & 1]
        masks[j] |= 1 << rng.choice(outside)
        yield BinaryMatrix.from_masks(t, masks)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_bound_agrees_with_reference_on_planes(q):
    rng = random.Random(q)
    for m in plane_mutants(q, rng):
        assert_same_as_reference(m, sorted({max(1, q - 2), q - 1, q}))


@st.composite
def small_matrices(draw):
    """Small matrices with empty, duplicate, nested and union columns,
    single-column ones and t on both sides of one 64-bit word."""
    t = draw(st.one_of(st.integers(1, 10), st.integers(60, 130)))
    n = draw(st.integers(1, 8))
    masks = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "empty", "copy", "union", "subset"]))
        if kind == "empty" or not masks and kind != "random":
            masks.append(0)
            continue
        if kind == "random":
            masks.append(draw(st.integers(0, (1 << t) - 1)))
            continue
        picks = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=3))
        union = 0
        for mask in picks:
            union |= mask
        if kind == "copy":
            union = picks[0]
        elif kind == "subset":
            union &= draw(st.integers(0, (1 << t) - 1))
        masks.append(union)
    return BinaryMatrix.from_masks(t, masks)


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.integers(1, 10))
def test_bound_agrees_with_reference_hypothesis(m, d):
    # d runs past n - 1 into the vacuous regime
    assert_same_as_reference(m, (d,))


# -- metamorphic properties ------------------------------------------


def permute(m, row_perm, col_perm):
    """Row r moves to row_perm[r]; new column i is old column col_perm[i]."""
    masks = []
    for j in col_perm:
        mask = 0
        for r in column_rows(m, j):
            mask |= 1 << row_perm[r]
        masks.append(mask)
    return BinaryMatrix.from_masks(m.t, masks)


def assert_brute_witness(masks, d, witness):
    union = 0
    for k in witness.covering:
        union |= masks[k]
    assert witness.column not in witness.covering
    assert len(set(witness.covering)) == len(witness.covering) <= d
    assert masks[witness.column] & ~union == 0
    assert not brute_is_d_disjunct(masks, d)


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.integers(1, 6), st.randoms(use_true_random=False))
def test_checker_invariant_under_row_and_column_permutations(m, d, rng):
    row_perm = list(range(m.t))
    col_perm = list(range(m.n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    p = permute(m, row_perm, col_perm)
    assert max_disjunct_order(p) == max_disjunct_order(m)
    verdict, permuted = is_d_disjunct(m, d), is_d_disjunct(p, d)
    assert (permuted.is_disjunct, permuted.vacuous) == (verdict.is_disjunct, verdict.vacuous)
    if not permuted.is_disjunct:
        # the permuted witness, mapped back to the original column ids
        witness = permuted.witness
        back = Witness(
            col_perm[witness.column], tuple(col_perm[k] for k in witness.covering)
        )
        assert_brute_witness(list(m.masks), d, back)
        assert_brute_witness(list(p.masks), d, witness)


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_delete_column_and_rows_lowers_the_order_by_at_most_one(m):
    if m.n < 2:
        return
    order = max_disjunct_order(m)
    for j in range(m.n):
        assert max_disjunct_order(delete_column_and_rows(m, j)) >= order - 1
