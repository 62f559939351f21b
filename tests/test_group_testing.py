import random
from itertools import combinations
from math import comb

import pytest

from disjunct import _kernels, disjunctness, group_testing
from disjunct import (
    BinaryMatrix,
    BudgetExceededError,
    OutcomeVector,
    analyze_pairs,
    identity_matrix,
    is_d_disjunct,
    max_disjunct_order,
    naive_decode,
    outcomes,
    verify_identification,
)
from oracles import (
    brute_decode,
    brute_is_d_disjunct,
    brute_max_disjunct_order,
    brute_verify_identification,
    dense_of,
)


def test_outcome_vector_bitstring_round_trip():
    o = OutcomeVector.from_bitstring("10110")
    assert o.t == 5 and o.positives == frozenset({0, 2, 3})
    assert o.to_bitstring() == "10110"
    # int(..., 2) reads the last three, so only the 0/1 check refuses them
    for text in ("102", "0_1", "\uff110", " 01"):
        with pytest.raises(ValueError):
            OutcomeVector.from_bitstring(text)


@pytest.mark.parametrize("t", [0, 1, 63, 64, 65, 1000])
def test_outcome_vector_bitstrings_match_a_bit_loop(t):
    rng = random.Random(t)
    for _ in range(20):
        text = "".join(rng.choice("01") for _ in range(t))
        mask = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
        o = OutcomeVector.from_bitstring(text)
        assert o == OutcomeVector(t, mask)
        assert o.to_bitstring() == text
        assert o.to_bitstring() == "".join(
            "1" if mask >> i & 1 else "0" for i in range(t)
        )


def test_outcomes_examples(ag):
    m = ag(3)
    assert outcomes(m, []).mask == 0
    ident = identity_matrix(4)
    assert outcomes(ident, [2]).positives == frozenset({2})
    # two parallel lines are disjoint, so their union has 6 points
    parallel = outcomes(m, [0, 1])
    assert len(parallel.positives) == 6
    with pytest.raises(ValueError):
        outcomes(m, [12])


def test_decode_examples(ag):
    m = ag(3)
    assert naive_decode(m, OutcomeVector(m.t, 0)) == frozenset()
    for j in range(m.n):
        assert naive_decode(m, outcomes(m, [j])) == frozenset({j})
    for pair in combinations(range(m.n), 2):
        assert naive_decode(m, outcomes(m, pair)) == frozenset(pair)


def test_decode_length_mismatch(ag):
    with pytest.raises(ValueError):
        naive_decode(ag(3), OutcomeVector(4, 0))


def test_decode_matches_bruteforce():
    rng = random.Random(2)
    for _ in range(100):
        t, n = rng.randint(1, 8), rng.randint(1, 8)
        m = BinaryMatrix.from_masks(t, [rng.randrange(0, 1 << t) for _ in range(n)])
        mask = rng.randrange(0, 1 << t)
        got = naive_decode(m, OutcomeVector(t, mask))
        rows = {i for i in range(t) if mask >> i & 1}
        assert got == brute_decode(dense_of(m), rows)


def test_decoder_superset_property():
    rng = random.Random(12)
    for _ in range(150):
        t, n = rng.randint(2, 7), rng.randint(2, 8)
        masks = [rng.randrange(1, 1 << t) for _ in range(n)]  # nonempty columns
        m = BinaryMatrix.from_masks(t, masks)
        positives = {j for j in range(n) if rng.random() < 0.3}
        decoded = naive_decode(m, outcomes(m, positives))
        assert decoded >= positives


def test_verify_identification_affine(ag):
    report = verify_identification(ag(3), 2)
    assert report.ok
    assert report.cases == 79  # 1 + 12 + 66, empty set included


def test_verify_identification_identity():
    report = verify_identification(identity_matrix(3), 3)
    assert report.ok and report.cases == 8


def test_verify_identification_failure_witness():
    # third column is the boolean sum of the first two; the first failing
    # set in size-then-lex order is the singleton {2}, whose outcome
    # already decodes to all three items
    m = BinaryMatrix.from_masks(4, [0b0011, 0b1100, 0b1111])
    report = verify_identification(m, 2)
    assert not report.ok
    assert report.failure == (2,)
    assert naive_decode(m, outcomes(m, [0, 1])) == frozenset({0, 1, 2})


def test_verify_identification_empty_column():
    # an empty column is decoded beside any positive set, the empty set
    # first: it fails as the first case, and no larger set is looked at
    m = BinaryMatrix.from_masks(2, [0b01, 0b10, 0])
    assert verify_identification(m, 1) == (False, 1, ())
    assert brute_verify_identification(list(m.masks), 1) == (False, 1, ())


def test_lex_rank_matches_combinations():
    for n in range(10):
        for k in range(n + 1):
            for rank, combo in enumerate(combinations(range(n), k)):
                assert group_testing._lex_rank(n, combo) == rank


def test_binomial_sum_matches_comb():
    for n in range(81):
        for k in range(n + 3):
            assert group_testing._binomial_sum(n, k) == sum(comb(n, i) for i in range(k))


def test_verify_identification_budget():
    m = identity_matrix(30)
    with pytest.raises(BudgetExceededError, match=f"^{sum(comb(30, k) for k in range(5))} "):
        verify_identification(m, 4, max_cases=1000)
    with pytest.raises(ValueError, match="max_cases must be >= 0"):
        verify_identification(m, 0, max_cases=-1)


def test_verify_identification_budget_past_the_digit_limit():
    # 2**15000 sets: 4,516 digits, past Python's default int-to-str limit,
    # where the refusal names the count in scientific notation
    rng = random.Random(0)
    m = BinaryMatrix.from_masks(16, [rng.getrandbits(16) for _ in range(15_000)])
    with pytest.raises(BudgetExceededError, match="positive sets exceed the budget of 2000000$"):
        verify_identification(m, 15_000)
    text = group_testing._decimal(2**15000)
    assert text == "2.818e+4515" or int(text) == 2**15000


def test_verify_identification_multiword_path():
    # t = 130 packs each column into three words
    masks = [1 << i for i in range(0, 130, 13)]
    m = BinaryMatrix.from_masks(130, masks)
    report = verify_identification(m, 2)
    assert report.ok
    # rows 0, 70, 100 and 129 lie in three different words; column 2 is
    # inside the union of columns 0 and 1 only when both words count
    m = BinaryMatrix.from_masks(130, [1 | 1 << 100, 1 << 70 | 1 << 129, 1 | 1 << 70])
    report = verify_identification(m, 2)
    assert not report.ok
    assert report.failure == (0, 1)
    assert report.cases == 5  # empty set, three singletons, then {0, 1}
    assert naive_decode(m, outcomes(m, [0, 1])) == frozenset({0, 1, 2})


def _random_columns(rng, t, n):
    density = rng.choice((0.05, 0.2, 0.5))
    masks = [
        sum(1 << i for i in range(t) if rng.random() < density) for _ in range(n)
    ]
    if rng.random() < 0.5:
        # plant a column inside the union of a few others
        j, *others = rng.sample(range(n), rng.randint(2, min(n, 4)))
        masks[j] = 0
        for k in others:
            masks[j] |= masks[k]
        if rng.random() < 0.5:
            masks[j] &= ~(1 << rng.randrange(t))
    return masks


def _reports_against_oracle(rng, row_counts):
    """Reports on random matrices with t rows for each t given, each
    checked against brute_verify_identification."""
    reports = []
    for t in row_counts:
        for _ in range(20):
            masks = _random_columns(rng, t, rng.randint(3, 11))
            m = BinaryMatrix.from_masks(t, masks)
            for d in (1, 2, 3):
                report = verify_identification(m, d)
                expected = brute_verify_identification(masks, d)
                assert (report.ok, report.cases, report.failure) == expected
                reports.append(report)
    assert {report.ok for report in reports} == {True, False}
    return reports


def test_verify_identification_matches_oracle():
    _reports_against_oracle(random.Random(31), (5, 63, 64, 65, 130))
    # the failing-set walk past the first covered column: in the first, a
    # later column's cover beats the incumbent after following its first
    # column; in the second, a column's walk meets an incumbent column that
    # holds none of its uncovered rows and stops.  A walk that never took
    # another column's incumbent column unprobed gives (0, 3, 5), (0, 2, 4)
    for masks, failure in (
        ([184, 3360, 1736, 3611, 3143, 338], (0, 1, 4)),
        ([3286, 3145, 293, 1840, 3594], (0, 1, 3)),
    ):
        report = verify_identification(BinaryMatrix.from_masks(12, masks), 3)
        assert (report.ok, report.cases, report.failure) == brute_verify_identification(masks, 3)
        assert report.failure == failure


def test_verify_identification_matches_oracle_under_a_small_cell_cap(monkeypatch):
    # a cap below every column count makes min_cover_sizes, whose bounds
    # the least cover search and the failing-set search share, work one
    # column of its intersection table at a time
    cells = 2
    monkeypatch.setattr(_kernels, "_CELLS", cells)
    calls = []
    cover_sizes = _kernels.min_cover_sizes

    def spy(words, limit):
        calls.append(len(words))
        return cover_sizes(words, limit)

    monkeypatch.setattr(_kernels, "min_cover_sizes", spy)
    _reports_against_oracle(random.Random(47), (5, 64, 130))
    assert calls and min(calls) > cells


def _wide_columns(rng, t, n, plant):
    """Random columns over t rows; if ``plant``, column j inside the union
    of columns a < b, and now and then an empty or a repeated column."""
    masks = [sum(1 << i for i in range(t) if rng.random() < 0.35) for _ in range(n)]
    if not plant:
        return masks
    a = rng.randrange(n // 2, n - 2)
    b, j = rng.sample(range(a + 1, n), 2)
    # j lies inside a | b but holds neither: six rows of each left out
    # keep a and b from being decoded beside j and any one other column
    only_a = [i for i in range(t) if masks[a] >> i & 1 and not masks[b] >> i & 1]
    only_b = [i for i in range(t) if masks[b] >> i & 1 and not masks[a] >> i & 1]
    masks[j] = masks[a] | masks[b]
    for i in only_a[:6] + only_b[:6]:
        masks[j] &= ~(1 << i)
    if rng.random() < 0.2:
        masks[rng.randrange(n)] = 0
    if rng.random() < 0.2:
        i, k = rng.sample(range(n), 2)
        masks[k] = masks[i]
    return masks


def test_verify_identification_multiword_columns_match_oracle():
    # more than 64 columns, over rows packed in one to three words
    rng = random.Random(53)
    passed = failed = 0
    for t in (7, 63, 64, 65, 130):
        for plant in (True, True, True, False):
            masks = _wide_columns(rng, t, rng.randint(60, 140), plant)
            m = BinaryMatrix.from_masks(t, masks)
            for d in (1, 2):
                report = verify_identification(m, d)
                expected = brute_verify_identification(masks, d)
                assert (report.ok, report.cases, report.failure) == expected
                passed += report.ok and d == 2
                failed += report.failure is not None and len(report.failure) == 2
    assert passed > 0 and failed > 0


def test_identification_is_disjunctness_without_empty_columns():
    # every set of <= d positives decodes iff no column is empty and no
    # column lies in the union of <= min(d, n-1) others; a failing set
    # has one column more than the largest order of disjunctness
    rng = random.Random(61)
    failures = 0
    for _ in range(15000):
        t, n, d = rng.randint(1, 12), rng.randint(1, 14), rng.randint(0, 4)
        density = rng.choice((0.1, 0.3, 0.5, 0.7))
        masks = [sum(1 << i for i in range(t) if rng.random() < density) for _ in range(n)]
        if rng.random() < 0.2:
            masks[rng.randrange(n)] = 0
        if n > 1 and rng.random() < 0.3:
            i, k = rng.sample(range(n), 2)
            masks[k] = masks[i]
        ok, _, failure = brute_verify_identification(masks, d)
        assert ok == (0 not in masks and brute_is_d_disjunct(masks, min(d, n - 1)))
        if not ok and 0 not in masks:
            assert len(failure) == brute_max_disjunct_order(masks) + 1
            failures += 1
    assert failures > 1000


def test_identification_agrees_with_max_order_past_brute_force():
    # the least cover search answers both: every set of <= d positives
    # decodes iff the matrix is min(d, n-1)-disjunct, and a failing set
    # has one column more than the largest order, at sizes brute force
    # cannot reach
    rng = random.Random(62)
    failures = 0
    for _ in range(60):
        t, n, d = rng.randint(20, 80), rng.randint(30, 120), rng.randint(1, 4)
        density = rng.choice((0.2, 0.3, 0.5))
        masks = [sum(1 << i for i in range(t) if rng.random() < density) or 1 for _ in range(n)]
        m = BinaryMatrix.from_masks(t, masks)
        report, order = verify_identification(m, d, max_cases=10**12), max_disjunct_order(m)
        assert report.ok == (order >= min(d, n - 1))
        if not report.ok:
            assert len(report.failure) == order + 1
            failures += 1
    assert 10 < failures < 60


def test_trace_tables_are_made_once_per_column(monkeypatch):
    # the least cover search, the failing-set search after it and
    # max_disjunct_order reuse each column's table from one k to the next
    made = []
    init = disjunctness._TraceTable.__init__

    def spy(self, masks, column, holders):
        made.append(column)
        init(self, masks, column, holders)

    monkeypatch.setattr(disjunctness._TraceTable, "__init__", spy)
    rng = random.Random(64)
    m = BinaryMatrix.from_masks(100, [rng.getrandbits(100) for _ in range(100)])
    report = verify_identification(m, 3, max_cases=10**12)
    assert not report.ok and len(report.failure) == 3
    assert made and len(made) == len(set(made))
    made.clear()
    assert max_disjunct_order(m) == 2
    assert made and len(made) == len(set(made))


def spy_on_cover_searches(monkeypatch):
    """The (table, target, depth) of every cover search: only
    ``disjunctness`` names the engine."""
    searches = []
    search = disjunctness._cover_search
    monkeypatch.setattr(
        disjunctness, "_cover_search", lambda *args: searches.append(args) or search(*args)
    )
    return searches


def test_whole_columns_are_searched_once(monkeypatch):
    # the failing-set search starts from the column the least cover search
    # found covered, so no whole column is searched twice at one depth
    searches = spy_on_cover_searches(monkeypatch)
    rng = random.Random(64)
    m = BinaryMatrix.from_masks(100, [rng.getrandbits(100) for _ in range(100)])
    report = verify_identification(m, 3, max_cases=10**12)
    assert report == (False, 5075, (0, 1, 25))
    whole = [
        (table.column, depth) for table, target, depth in searches if target == m.masks[table.column]
    ]
    assert whole and len(whole) == len(set(whole))
    assert len(searches) > len(whole)  # the lex pass probes parts of columns


def test_private_rows_are_found_once_per_question(monkeypatch, ag):
    # each entry finds the matrix's private rows once and hands the mask
    # to every scan it runs
    calls = []
    private_rows = disjunctness._private_rows
    monkeypatch.setattr(
        disjunctness, "_private_rows", lambda masks: calls.append(0) or private_rows(masks)
    )
    plane, rng = ag(7), random.Random(64)
    m = BinaryMatrix.from_masks(100, [rng.getrandbits(100) for _ in range(100)])
    for question in (
        lambda: max_disjunct_order(plane),
        lambda: max_disjunct_order(m),
        lambda: verify_identification(m, 3, 10**12),
        lambda: is_d_disjunct(m, 3),
    ):
        calls.clear()
        question()
        assert len(calls) == 1


def test_isolated_columns_are_never_searched(monkeypatch):
    # column j holds row 50 + j alone and 20 of 50 shared rows: a private
    # row has no cover, so no command's scan looks at any column
    searches = spy_on_cover_searches(monkeypatch)
    rng = random.Random(64)
    n = 300
    masks = [1 << 50 + j | sum(1 << r for r in rng.sample(range(50), 20)) for j in range(n)]
    m = BinaryMatrix.from_masks(50 + n, masks)
    assert max_disjunct_order(m) == n - 1
    assert verify_identification(m, 10, max_cases=10**400).ok
    assert is_d_disjunct(m, 3).is_disjunct and is_d_disjunct(m, 6).is_disjunct
    analysis = analyze_pairs(m, 3)
    assert analysis.disjunct and analysis.isolated == frozenset(range(n))
    assert searches == []


def test_verify_identification_kautz_singleton_code(kautz_singleton_13, monkeypatch):
    # about 1.6e17 positive sets: the least cover search gives the verdict
    # and the count is a sum of binomials
    m = kautz_singleton_13
    report = verify_identification(m, 6, max_cases=10**18)
    assert report.ok
    assert report.cases == sum(comb(2197, k) for k in range(7))
    # at d=7 the failing-set search follows the incumbent at every level,
    # so few of the 2,197 columns build their candidate sets
    built = []
    candidates = disjunctness._TraceTable.candidates

    def spy(table):
        if table._candidates is None:
            built.append(table.column)
        return candidates(table)

    monkeypatch.setattr(disjunctness._TraceTable, "candidates", spy)
    report = verify_identification(m, 7, max_cases=10**20)
    assert report.failure == (0, 1, 2, 3, 6, 8, 10)
    assert len(built) <= 200


def test_cap_zero_questions_read_no_intersection_table(kautz_singleton_13, monkeypatch):
    # at d = 0, or with an empty column (the least cover, of no columns),
    # the cap is 0 and no counting bound needs the all-pairs table
    blocks = []
    intersection_blocks = _kernels.intersection_blocks
    monkeypatch.setattr(
        _kernels, "intersection_blocks", lambda w: blocks.append(0) or intersection_blocks(w)
    )
    m = kautz_singleton_13
    empty = BinaryMatrix.from_masks(m.t, list(m.masks) + [0])
    for question, answer in (
        (lambda: verify_identification(m, 0), (True, 1, None)),
        (lambda: max_disjunct_order(empty), 0),
        (lambda: verify_identification(empty, 4, max_cases=10**20), (False, 1, ())),
    ):
        blocks.clear()
        assert question() == answer
        assert blocks == []


def test_depth_one_probes_build_no_candidate_sets(monkeypatch):
    # columns 0..199 each hold a private row and the shared row 200, so no
    # scan searches them; columns 200..599 hold rows 201..260 and the
    # shared row at random.  The lex pass probes each later column at
    # depth one under each of columns 0..199, answered from the row
    # holders without the column's candidate set (199 built without that)
    rng = random.Random(1)
    masks = [1 << c | 1 << 200 for c in range(200)]
    for _ in range(400):
        mask = sum(1 << 201 + r for r in range(60) if rng.random() < 0.5)
        masks.append(mask | (1 << 200 if rng.random() < 0.5 else 0))
    built = []
    candidates = disjunctness._TraceTable.candidates

    def spy(table):
        if table._candidates is None:
            built.append(table.column)
        return candidates(table)

    monkeypatch.setattr(disjunctness._TraceTable, "candidates", spy)
    report = verify_identification(BinaryMatrix.from_masks(261, masks), 2)
    assert report.failure == (200, 202)
    assert len(built) <= 5


def test_verify_identification_deep_covers():
    # failing-set searches deeper than the interpreter's default recursion
    # limit: column 0 holds every row and column r + 1 row r alone, so {0}
    # fails first
    t = 1100
    star = BinaryMatrix.from_masks(t, [(1 << t) - 1] + [1 << r for r in range(t)])
    assert verify_identification(star, t, max_cases=10**400) == (False, 2, (0,))
    # column 0 holds rows 0..599 and column r + 1 rows r and 600 + r: only
    # all 600 others cover column 0, the last of the sets of 600 columns
    masks = [(1 << 600) - 1] + [1 << r | 1 << 600 + r for r in range(600)]
    report = verify_identification(BinaryMatrix.from_masks(1200, masks), 600, max_cases=10**400)
    assert report == (False, 2**601 - 1, tuple(range(1, 601)))


def test_identification_implies_weaker_disjunctness():
    # exact decoding of all sets of size <= d forces (d-1)-disjunctness
    rng = random.Random(23)
    confirmed = 0
    for _ in range(400):
        t, n = rng.randint(2, 6), rng.randint(3, 8)
        masks = [rng.randrange(1, 1 << t) for _ in range(n)]
        m = BinaryMatrix.from_masks(t, masks)
        for d in (2, 3):
            if d >= n:
                continue
            if verify_identification(m, d).ok:
                assert is_d_disjunct(m, d - 1).is_disjunct
                confirmed += 1
    assert confirmed > 0


def test_disjunct_implies_exact_identification(corpus):
    for d, matrices in corpus.items():
        for m in matrices[:8]:
            assert verify_identification(m, d).ok
