import numpy as np
import pytest

from disjunct import _kernels, is_d_disjunct
from disjunct.matrix import BinaryMatrix
from disjunct.pairs import complete_graph_matchings
from oracles import brute_min_cover_size

def random_words(rng, n, t):
    masks = []
    for _ in range(n):
        bits = rng.integers(0, 2, size=t)
        masks.append(sum(1 << i for i in range(t) if bits[i]))
    return BinaryMatrix.from_masks(t, masks), masks


def test_column_weights():
    rng = np.random.default_rng(1)
    for t in (5, 64, 100):
        m, masks = random_words(rng, 7, t)
        got = _kernels.column_weights(m.words)
        assert got.tolist() == [mask.bit_count() for mask in masks]


def test_subset_columns():
    rng = np.random.default_rng(2)
    for t in (6, 70):
        m, masks = random_words(rng, 9, t)
        bits = rng.integers(0, 2, size=t)
        target = sum(1 << i for i in range(t) if bits[i])
        target_words = np.frombuffer(
            target.to_bytes(m.words.shape[1] * 8, "little"), dtype=np.uint64
        )
        got = _kernels.subset_columns(m.words, target_words)
        assert got.tolist() == [mask & ~target == 0 for mask in masks]


def test_intersection_counts():
    rng = np.random.default_rng(3)
    for t in (6, 70):
        m, masks = random_words(rng, 9, t)
        got = _kernels.intersection_counts(m.words, m.words[0])
        assert got.tolist() == [(mask & masks[0]).bit_count() for mask in masks]


def counting_bound(masks, j, limit):
    """The definition, by hand: fewest k whose k largest intersections
    with column j reach its weight, or limit + 1; 0 for an empty column."""
    weight = masks[j].bit_count()
    if weight == 0:
        return 0
    meets = sorted(
        ((masks[j] & m).bit_count() for i, m in enumerate(masks) if i != j),
        reverse=True,
    )
    reach = 0
    for k, meet in enumerate(meets[:limit], 1):
        reach += meet
        if reach >= weight:
            return k
    return limit + 1


@pytest.mark.parametrize("block", [2, 20, 1 << 15])
def test_min_cover_sizes(monkeypatch, block):
    # a small block puts several column blocks, and a partial one, in a call;
    # two cells put one column in each
    monkeypatch.setattr(_kernels, "_CELLS", block)
    rng = np.random.default_rng(5)
    for t in (1, 6, 64, 70, 130):
        for n in (1, 2, 5, 9):
            for limit in range(n + 2):
                m, masks = random_words(rng, n, t)
                masks[rng.integers(n)] = 0
                masks[0] |= masks[-1]  # a column holding another
                m = BinaryMatrix.from_masks(t, masks)
                got = _kernels.min_cover_sizes(m.words, limit).tolist()
                assert got == [counting_bound(masks, j, limit) for j in range(n)]
                for j in range(n):
                    # a lower bound: no cover has fewer columns
                    assert got[j] <= brute_min_cover_size(masks, j, limit)


@pytest.mark.parametrize("block", [2, 20, 1 << 15])
def test_min_cover_sizes_dense_tall_columns(monkeypatch, block):
    # t <= 192 keeps the counts uint8, while limit times the largest count
    # passes 255: the clearing test must not wrap around in the count type
    monkeypatch.setattr(_kernels, "_CELLS", block)
    rng = np.random.default_rng(7)
    for t, n in ((86, 5), (102, 28), (150, 9), (192, 12)):
        masks = []
        while len(masks) < n:
            bits = rng.random(t) < 0.93
            mask = sum(1 << i for i in range(t) if bits[i])
            if mask.bit_count() >= 86:
                masks.append(mask)
        m = BinaryMatrix.from_masks(t, masks)
        assert m.words.shape[1] <= 3
        for limit in range(3, n + 2):
            got = _kernels.min_cover_sizes(m.words, limit).tolist()
            assert got == [counting_bound(masks, j, limit) for j in range(n)]


@pytest.mark.parametrize("block", [20, 1 << 15])
def test_min_cover_sizes_structured(monkeypatch, ag, kautz_singleton_13, block):
    # lines meet in at most one point and these polynomials agree at most
    # twice, so the low limits clear whole blocks and the high ones rank
    monkeypatch.setattr(_kernels, "_CELLS", block)
    ks = kautz_singleton_13
    for matrix in (ag(7), BinaryMatrix.from_masks(ks.t, ks.masks[:200])):
        masks = matrix.masks
        for limit in range(1, 9):
            got = _kernels.min_cover_sizes(matrix.words, limit).tolist()
            assert got == [counting_bound(masks, j, limit) for j in range(matrix.n)]


def test_min_cover_sizes_clears_blocks_unranked(monkeypatch, kautz_singleton_13):
    # two of these polynomials agree at most twice, so 6 intersections of
    # at most 2 rows never reach a column's 13: checking KS(13, 3, 13) at
    # d = 6 clears every block of the table without ranking one, where
    # ranking each block counts its reaches 157 times
    ranked = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(
        np, "count_nonzero", lambda *args, **kw: ranked.append(0) or count_nonzero(*args, **kw)
    )
    assert is_d_disjunct(kautz_singleton_13, 6).is_disjunct
    assert ranked == []


def test_intersection_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    # blocks of one column, of two or more with a partial last, and one
    for cells in (2, 20, 1 << 15):
        monkeypatch.setattr(_kernels, "_CELLS", cells)
        for t, n in ((6, 1), (70, 9), (130, 5)):
            m, masks = random_words(rng, n, t)
            blocks = list(_kernels.intersection_blocks(m.words))
            assert [lo for lo, _ in blocks] == list(range(0, n, max(1, cells // n)))
            assert all(counts.size <= max(cells, n) for _, counts in blocks)
            table = np.concatenate([counts for _, counts in blocks])
            assert table.tolist() == [
                [(a & b).bit_count() if i != k else 0 for k, b in enumerate(masks)]
                for i, a in enumerate(masks)
            ]


def test_row_degrees(monkeypatch):
    rng = np.random.default_rng(4)
    # blocks of one column, of two or more with a partial last, and one
    for cells in (1, 20, 1 << 15):
        monkeypatch.setattr(_kernels, "_CELLS", cells)
        for t in (6, 64, 130):
            m, masks = random_words(rng, 9, t)
            got = _kernels.row_degrees(m.words, t)
            expected = [sum(mask >> i & 1 for mask in masks) for i in range(t)]
            assert got.tolist() == expected


def test_matching_table_small_graphs():
    masks, sizes = complete_graph_matchings(4)
    table = _kernels.matching_numbers_table(6, masks, sizes)
    assert table[0] == 0
    assert table[0b000001] == 1
    # perfect matching of K4: edges (0,1) and (2,3) are indices 0 and 5
    assert table[0b100001] == 2
    assert table[(1 << 6) - 1] == 2


def test_matching_table_guard():
    masks, sizes = complete_graph_matchings(3)
    with pytest.raises(ValueError):
        _kernels.matching_numbers_table(29, masks, sizes)
