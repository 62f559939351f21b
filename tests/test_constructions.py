import hashlib
import random

import numpy as np
import pytest

from disjunct import constructions
from disjunct import matrix as matrix_module
from disjunct import (
    affine_plane_matrix,
    find_isolated_columns,
    identity_matrix,
    is_d_disjunct,
    max_disjunct_order,
    random_disjunct_corpus,
)
from conftest import CORPUS_PARAMS, MIXED_PARAMS
from oracles import (
    brute_is_d_disjunct,
    column_rows,
    dense_of,
    reference_place_column,
)


def test_identity_examples():
    one = identity_matrix(1)
    assert (one.t, one.n) == (1, 1) and one.masks == (1,)
    three = identity_matrix(3)
    assert max_disjunct_order(three) == 2
    five = identity_matrix(5)
    assert find_isolated_columns(five) == frozenset(range(5))
    with pytest.raises(ValueError):
        identity_matrix(0)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_affine_plane_shape_and_structure(q):
    m = affine_plane_matrix(q)
    assert (m.t, m.n) == (q * q, q * q + q)
    assert set(m.weights().tolist()) == {q}
    assert set(dense_of(m).sum(axis=1).tolist()) == {q + 1}
    assert find_isolated_columns(m) == frozenset()
    # two lines meet in at most one point
    masks = m.masks
    for a in range(m.n):
        for b in range(a + 1, m.n):
            assert (masks[a] & masks[b]).bit_count() <= 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_affine_plane_spec_structure(q):
    # the columns are q + 1 parallel classes of q lines in turn
    m = affine_plane_matrix(q)
    for lo in range(0, m.n, q):
        group = [column_rows(m, j) for j in range(lo, lo + q)]
        assert all(len(line) == q for line in group)
        # each class partitions the point set
        covered = sorted(r for line in group for r in line)
        assert covered == list(range(q * q))


def test_affine_plane_two_points_one_line():
    m = affine_plane_matrix(3)
    for p in range(m.t):
        for r in range(p + 1, m.t):
            both = 1 << p | 1 << r
            through = [j for j, mask in enumerate(m.masks) if mask & both == both]
            assert len(through) == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_affine_plane_disjunct_orders(q):
    m = affine_plane_matrix(q)
    assert is_d_disjunct(m, q - 1).is_disjunct
    assert not is_d_disjunct(m, q).is_disjunct
    assert max_disjunct_order(m) == q - 1


def test_affine_plane_rejects_nonprime():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            affine_plane_matrix(q)


def test_affine_plane_column_order_is_pinned():
    # golden masks for q=2: slope-major lines, then verticals
    m = affine_plane_matrix(2)
    assert list(m.masks) == [
        0b0101,  # m=0 b=0: (0,0),(1,0) -> rows 0,2
        0b1010,  # m=0 b=1: rows 1,3
        0b1001,  # m=1 b=0: (0,0),(1,1) -> rows 0,3
        0b0110,  # m=1 b=1: rows 1,2
        0b0011,  # x=0: rows 0,1
        0b1100,  # x=1: rows 2,3
    ]
    m3 = affine_plane_matrix(3)
    assert column_rows(m3, 0) == frozenset({0, 3, 6})
    assert column_rows(m3, 11) == frozenset({6, 7, 8})


def test_corpus_deterministic():
    a = random_disjunct_corpus(2, 9, 8, seed=5, attempts=30)
    b = random_disjunct_corpus(2, 9, 8, seed=5, attempts=30)
    assert len(a) == len(b)
    assert all(x == y for x, y in zip(a, b))
    c = random_disjunct_corpus(2, 9, 8, seed=6, attempts=30)
    assert any(x != y for x, y in zip(a, c)) or len(a) != len(c)


def test_corpus_matrices_verified(corpus):
    for d, matrices in corpus.items():
        assert len(matrices) >= 100, f"corpus for d={d} too small"
        for m in matrices[:25]:
            assert is_d_disjunct(m, d).is_disjunct
            assert find_isolated_columns(m) == frozenset()


def test_corpus_small_antichain_exists():
    # five weight-2 columns over four rows form a 1-disjunct matrix
    corpus = random_disjunct_corpus(1, 4, 5, seed=1, attempts=20)
    assert corpus
    for m in corpus:
        assert is_d_disjunct(m, 1).is_disjunct
        assert set(m.weights().tolist()) == {2}


def test_corpus_weight_ranges(mixed_corpus):
    for d, matrices in mixed_corpus.items():
        cap = max(d + 1, (5 * d) // 3)
        for m in matrices:
            weights = m.weights()
            assert int(weights.min()) >= d + 1
            assert int(weights.max()) <= cap


def test_corpus_parameter_validation():
    with pytest.raises(ValueError):
        random_disjunct_corpus(0, 5, 5, seed=1, attempts=5)
    assert random_disjunct_corpus(3, 2, 5, seed=1, attempts=5) == []


def _corpus_digest(matrices):
    h = hashlib.sha256()
    for m in matrices:
        h.update(f"{m.t}:{','.join(map(str, m.masks))}\n".encode())
    return h.hexdigest()


# (kept, SHA-256 of every matrix's t and column masks) per conftest corpus;
# a change here means the generator's sampling changed
PINNED_CORPORA = {
    ("constant", 2): (110, "f1e869ef5c9042bec5f62ce976b19048830d210424fda4a0aba1cdceda73a1e6"),
    ("constant", 3): (110, "dde440d9d6ae8525eb85479960bf609e93bd0193b2d4c41c7db59fe519e673f1"),
    ("constant", 4): (102, "562b9f0546ab4e923f840d7a64e8d7e4a4c5c54f743776b6fb03adc7f3f9d624"),
    ("mixed", 3): (5, "4986a9cf434e08c53c0a4d4a7a68786dc93d656d9086030528932d5d5c29b3b5"),
    ("mixed", 4): (1, "c3ce900edd4da0a63619273397d714478e6bbfdebf229bcadafb4a0c13f9992b"),
}


def test_corpus_sizes_are_pinned(corpus, mixed_corpus):
    built = {("constant", d): corpus[d] for d in CORPUS_PARAMS}
    built.update({("mixed", d): mixed_corpus[d] for d in MIXED_PARAMS})
    assert {
        key: (len(matrices), _corpus_digest(matrices))
        for key, matrices in built.items()
    } == PINNED_CORPORA


# why attempts keep nothing, per conftest corpus: (sampler dead ends,
# checker refusals, cores peeled down to one column, kept); every attempt
# is one of the four
REJECTIONS = {
    ("constant", 2): (0, 0, 0, 110),
    ("constant", 3): (20, 0, 0, 110),
    ("constant", 4): (278, 0, 0, 102),
    ("mixed", 3): (289, 6, 0, 5),
    ("mixed", 4): (94, 105, 0, 1),
}


def test_corpus_rejections_are_pinned(monkeypatch):
    place, check = constructions._place_column, constructions.is_d_disjunct
    dead_ends = refusals = 0

    def spy_place(*args):
        nonlocal dead_ends
        mask = place(*args)
        dead_ends += mask is None  # a dead end ends its attempt
        return mask

    def spy_check(matrix, d):
        nonlocal refusals
        verdict = check(matrix, d)
        # each complete attempt is checked once, before peeling
        refusals += not verdict.is_disjunct
        return verdict

    monkeypatch.setattr(constructions, "_place_column", spy_place)
    monkeypatch.setattr(constructions, "is_d_disjunct", spy_check)
    found = {}
    for kind, table in (("constant", CORPUS_PARAMS), ("mixed", MIXED_PARAMS)):
        for d, params in table.items():
            dead_ends = refusals = 0
            kept = len(random_disjunct_corpus(
                d, isolated_free=True, mixed_weights=kind == "mixed", **params
            ))
            one_column = params["attempts"] - dead_ends - refusals - kept
            found[kind, d] = (dead_ends, refusals, one_column, kept)
    assert found == REJECTIONS


def test_corpus_drops_a_core_of_one_column(monkeypatch):
    # two 1-disjunct columns each hold a row the other lacks, a private
    # row, so peeling leaves one column: all five attempts are kept whole,
    # and all five are dropped once peeled
    assert len(random_disjunct_corpus(1, 4, 2, 0, 5)) == 5
    peel, cores = constructions.peel_to_core, []
    monkeypatch.setattr(
        constructions, "peel_to_core", lambda m: cores.append(peel(m)) or cores[-1]
    )
    assert random_disjunct_corpus(1, 4, 2, 0, 5, isolated_free=True) == []
    assert [(core.n, peeled) for core, peeled in cores] == [(1, 1)] * 5


def test_peeled_cores_stay_disjunct(corpus, mixed_corpus):
    # a core that lost a column is kept without a second check; brute
    # force confirms each one is still d-disjunct
    built = [(d, corpus[d], CORPUS_PARAMS[d]["n"]) for d in CORPUS_PARAMS]
    built += [(d, mixed_corpus[d], MIXED_PARAMS[d]["n"]) for d in MIXED_PARAMS]
    cores = [(d, m) for d, matrices, n in built for m in matrices if m.n < n]
    assert len(cores) == 102
    for d, m in cores:
        assert brute_is_d_disjunct(list(m.masks), d), (d, m.masks)


def _stream(seed, index):
    return constructions._Stream(constructions._hash_pool(constructions._words32(seed)), index)


# 2**130 + 9 has five 32-bit words: the fifth is mixed into the pool
# that every attempt of a corpus shares, before the index words
@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 + 7, 2**130 + 9])
@pytest.mark.parametrize("index", [0, 2**32 + 3])
def test_stream_matches_numpy_generator(seed, index):
    # numpy is the reference only here: the library never loads numpy.random
    reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    stream = _stream(seed, index)
    ks = [1, 2, 17, 2**31 + 1, 2**32 - 1, 2**32, 3, 1, 25]
    for i in range(120):
        k = ks[i % len(ks)]
        if i % 3 == 2:
            assert i + stream.below(k) == int(reference.integers(i, i + k))
        else:
            assert stream.below(k) == int(reference.integers(k))


def test_builders_check_their_own_size(monkeypatch):
    # the library refuses as the CLI does, before any column is built
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 107)
    for build in (
        lambda: identity_matrix(11),
        lambda: affine_plane_matrix(3),
        lambda: random_disjunct_corpus(2, 12, 9, seed=0, attempts=1),
    ):
        with pytest.raises(ValueError, match="too large to densify"):
            build()
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 108)
    assert identity_matrix(10).n == 10
    assert affine_plane_matrix(3).n == 12
    assert len(random_disjunct_corpus(2, 12, 9, seed=0, attempts=1)) <= 1


def test_corpus_refuses_negative_seeds():
    with pytest.raises(ValueError, match="non-negative"):
        random_disjunct_corpus(2, 9, 8, seed=-1, attempts=0)
    with pytest.raises(ValueError, match="non-negative"):
        random_disjunct_corpus(3, 2, 5, seed=-(2**40), attempts=5)


def _sample_in_step(t, d, seed, index):
    """Place columns with the sampler and its reference on two copies of
    one stream, growing the matrix by their common choice: each call must
    return the same mask (or None) and leave the streams in step.  Returns
    how many placements met an earlier column under a cap of two rows."""
    span = min(max(d + 1, 5 * d // 3), t) - d
    fast, slow = _stream(seed, index), _stream(seed, index)
    masks, weights = [], []
    light_of, heavy_at = {}, {}  # the sampler's per-row masks
    cap_2 = 0
    for _ in range(60):
        w = d + 1 + fast.below(span)
        assert d + 1 + slow.below(span) == w
        cap_2 += w > d + 1 and any(wo > d + 1 for wo in weights)
        mask = constructions._place_column(fast, t, w, d, light_of, heavy_at)
        assert mask == reference_place_column(slow, t, w, d, masks, weights)
        assert fast.below(2**32) == slow.below(2**32)
        if mask is None:
            break
        for r in range(t):
            if mask >> r & 1:
                if w > d + 1:
                    heavy_at.setdefault(r, []).append(mask)
                else:
                    light_of[r] = light_of.get(r, 0) | mask
        masks.append(mask)
        weights.append(w)
    return cap_2


@pytest.mark.parametrize("t", [5, 12, 25, 64, 65, 130])
def test_place_column_matches_the_list_sampler(t):
    cap_2 = sum(
        _sample_in_step(t, d, seed, 2**32 + t)
        for d in range(1, 5)
        if t >= d + 1
        for seed in range(3)
    )
    # weights run from d + 1 to floor(5d/3): d = 3, 4 place columns with
    # a cap of two shared rows against earlier heavy columns
    assert cap_2 > 0


@pytest.mark.parametrize("t", [5, 12, 64, 65, 130])
def test_place_column_forced_dead_end(t):
    # one column holds every row and is listed with weight d + 1, so it
    # may share one row: the first draw blocks all others, and each of
    # the 20 tries ends in a dead end
    for d in (1, 2):
        fast, slow = _stream(t, d), _stream(t, d)
        full = (1 << t) - 1
        light_of = {r: full for r in range(t)}
        assert constructions._place_column(fast, t, d + 1, d, light_of, {}) is None
        assert reference_place_column(slow, t, d + 1, d, [full], [d + 1]) is None
        assert fast.below(2**32) == slow.below(2**32)


def test_nth_bit_matches_the_sorted_bits():
    # per width, the full mask and random masks whose top bit is set; at
    # 2**18 rows only sparse masks, so that every k stays cheap to check
    rng = random.Random(18)
    for width in [*range(1, 131), 2**18]:
        densities = (1, 0.5, 0.1) if width <= 130 else (0.002, 0.0001)
        for density in densities:
            bits = [r for r in range(width - 1) if rng.random() < density]
            bits.append(width - 1)
            mask = sum(1 << r for r in bits)
            assert [constructions._nth_bit(mask, k) for k in range(len(bits))] == bits


def test_corpus_at_a_quarter_million_rows():
    # row picks cost O(log t) big-int operations, so 2**18 rows build in
    # well under a second; masks digest recorded with the list sampler
    matrices = random_disjunct_corpus(1, 2**18, 2, seed=3, attempts=2)
    h = hashlib.sha256()
    for m in matrices:
        h.update(f"{m.t}:{','.join(map(hex, m.masks))}\n".encode())
    assert len(matrices) == 2
    assert h.hexdigest() == "a6e8dd90c843ffa02feeda1dfaa26ff85d8f7ce83f6789de8379f268e8d2b0a5"
