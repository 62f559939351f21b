import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disjunct import (
    BinaryMatrix,
    DmatFormatError,
    OutcomeVector,
    load_matrix,
    naive_decode,
    outcomes,
    read_matrix,
    save_matrix,
    write_matrix,
)
from disjunct import _kernels
from disjunct.matrix import _mask_to_words
from disjunct.search import _maximal
from oracles import (
    brute_maximal,
    column_rows,
    dense_of,
    dmat_text,
    masks_of_words,
    matrix_from_dense,
)


def test_column_support_basics():
    m = BinaryMatrix.from_masks(5, [0b01001])
    assert m.weights().tolist() == [2]
    assert m.words.tolist() == [[0b01001]]
    assert column_rows(m, 0) == frozenset({0, 3})
    # a row index at t, or a negative mask, is refused
    with pytest.raises(ValueError, match="^column 0 contains row indices >= t$"):
        BinaryMatrix.from_masks(3, [1 << 3])
    with pytest.raises(ValueError, match="^column 1 contains row indices >= t$"):
        BinaryMatrix.from_masks(3, [0b001, -1])
    with pytest.raises(ValueError):
        BinaryMatrix.from_masks(3, [1 << 4])


# the boolean sum of columns is the outcome vector of their items, and
# column containment is what the naive decoder tests


def test_boolean_sum_examples():
    m = BinaryMatrix.from_masks(3, [0b011, 0b110])
    empty = outcomes(m, [])
    assert empty.mask == 0 and empty.positives == frozenset()
    assert outcomes(m, [0, 1]).positives == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        outcomes(m, [2])


def test_boolean_sum_weight_subadditive():
    m = BinaryMatrix.from_masks(6, [0b000111, 0b001100])
    assert outcomes(m, [0, 1]).mask.bit_count() <= int(m.weights().sum())


def test_boolean_sum_lines_through_a_point(ag):
    # union of the q+1 lines through one point covers the whole plane
    m = ag(3)
    through = [j for j, mask in enumerate(m.masks) if mask & 1]
    assert len(through) == 4
    assert outcomes(m, through).mask.bit_count() == 1 + 4 * 2 == 9


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.lists(
                st.integers(min_value=0, max_value=(1 << t) - 1),
                min_size=1,
                max_size=5,
            ),
        )
    )
)
def test_boolean_sum_algebra(tm):
    t, masks = tm
    m = BinaryMatrix.from_masks(t, masks)
    items = list(range(m.n))
    total = outcomes(m, items)
    assert total.positives == frozenset().union(*(column_rows(m, j) for j in items))
    # idempotent, commutative, associative: all collapse to the set union
    assert outcomes(m, items + items) == total
    assert outcomes(m, items[::-1]) == total
    if len(items) >= 2:
        left = outcomes(m, items[:1]).mask | outcomes(m, items[1:]).mask
        assert left == total.mask


def test_contains_examples():
    m = BinaryMatrix.from_masks(3, [0b101, 0b100, 0b111])
    assert naive_decode(m, OutcomeVector(3, 0b111)) == frozenset({0, 1, 2})
    assert naive_decode(m, OutcomeVector(3, 0b011)) == frozenset()
    assert naive_decode(m, OutcomeVector(3, 0b101)) == frozenset({0, 1})
    for j in range(m.n):
        assert j in naive_decode(m, outcomes(m, [j]))  # c contains c
    with pytest.raises(ValueError):
        naive_decode(m, OutcomeVector(4, 0))


def test_matrix_construction_equivalence():
    dense = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 0]], dtype=bool)
    a = matrix_from_dense(dense)
    b = read_matrix("3 3\n101\n011\n000\n")
    c = BinaryMatrix.from_masks(3, [1, 2, 3])
    assert a == b == c
    assert a.__eq__(a.masks) is NotImplemented and a != a.masks
    assert a.weights().tolist() == [1, 1, 2]
    assert np.array_equal(dense_of(a), dense)


def test_matrix_validation():
    with pytest.raises(ValueError, match="^matrix must have at least one column$"):
        BinaryMatrix.from_masks(2, [])
    with pytest.raises(ValueError, match="^column 0 contains row indices >= t$"):
        BinaryMatrix.from_masks(2, [1 << 2])
    with pytest.raises(ValueError, match="^column 2 contains row indices >= t$"):
        BinaryMatrix.from_masks(70, [1, 2, 1 << 70])
    with pytest.raises(ValueError, match="^column 1 contains row indices >= t$"):
        BinaryMatrix.from_masks(70, [1, -1])
    with pytest.raises(ValueError):
        BinaryMatrix.from_masks(-1, [0])
    # from_masks checks each column first, so words reach only the
    # constructor's own refusals
    words = np.zeros((1, 1), np.uint64)
    with pytest.raises(ValueError, match="^row count must be >= 0$"):
        BinaryMatrix(-1, words)
    with pytest.raises(ValueError, match="^matrix must have at least one column$"):
        BinaryMatrix(3, np.zeros(1, np.uint64))
    with pytest.raises(ValueError, match="^expected 2 words per column, got 1$"):
        BinaryMatrix(65, words)
    with pytest.raises(ValueError, match="^columns contain row indices >= t$"):
        BinaryMatrix(0, np.ones((1, 1), np.uint64))
    with pytest.raises(ValueError, match="^columns contain row indices >= t$"):
        BinaryMatrix(3, np.array([[0b1000]], np.uint64))


def test_words_are_immutable():
    m = BinaryMatrix.from_masks(3, [1, 6])
    with pytest.raises(ValueError):
        m.words[0, 0] = 0


def test_ones_counted_both_ways():
    # sum of row degrees equals sum of column weights
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        masks = [int(rng.integers(0, 1 << t)) for _ in range(n)]
        m = BinaryMatrix.from_masks(t, masks)
        assert int(_kernels.row_degrees(m.words, t).sum()) == int(m.weights().sum())


def test_row_degrees_match_dense():
    m = BinaryMatrix.from_masks(70, [(1 << 70) - 1, 1 | 1 << 69, 0])
    assert m.words.shape[1] == 2
    assert _kernels.row_degrees(m.words, m.t).tolist() == dense_of(m).sum(axis=1).tolist()


def test_large_dimensions_supported():
    # storage must handle t and n up to 2^16; only queries need be cheap
    t = (1 << 16) + 7
    m = BinaryMatrix.from_masks(t, [1 << (t - 1), 0b11, 1 << 40000])
    assert m.weights().tolist() == [1, 2, 1]
    assert [j for j, mask in enumerate(m.masks) if mask >> (t - 1) & 1] == [0]
    assert [j for j, mask in enumerate(m.masks) if mask >> 40000 & 1] == [2]


def test_zero_row_matrix_is_legal_but_not_serializable():
    m = BinaryMatrix.from_masks(0, [0, 0])
    assert m.t == 0 and m.n == 2
    with pytest.raises(ValueError):
        write_matrix(m)


def test_save_refuses_a_zero_row_matrix_before_opening(tmp_path):
    m = BinaryMatrix.from_masks(0, [0, 0])
    new, old = tmp_path / "new.dmat", tmp_path / "old.dmat"
    save_matrix(BinaryMatrix.from_masks(2, [1, 2]), old)
    before = old.read_bytes()
    for path in (new, old):
        with pytest.raises(ValueError) as exc:
            save_matrix(m, path)
        assert str(exc.value) == "cannot serialize a 0-row matrix"
    assert not new.exists()
    assert old.read_bytes() == before == b"2 2\n10\n01\n"


def test_save_cuts_a_longer_file_to_the_new_text(ag, tmp_path):
    path = tmp_path / "m.dmat"
    save_matrix(ag(5), path)
    small = BinaryMatrix.from_masks(3, [1, 2, 4])
    save_matrix(small, path)
    assert path.read_bytes() == write_matrix(small).encode("ascii")


def test_save_rewrites_a_same_size_file(tmp_path):
    path = tmp_path / "m.dmat"
    save_matrix(BinaryMatrix.from_masks(2, [1, 2]), path)
    save_matrix(BinaryMatrix.from_masks(2, [2, 1]), path)
    assert path.read_bytes() == b"2 2\n01\n10\n"


def test_save_writes_through_a_symlink(ag, tmp_path):
    target, link = tmp_path / "target.dmat", tmp_path / "link.dmat"
    save_matrix(ag(3), target)
    link.symlink_to(target)
    save_matrix(BinaryMatrix.from_masks(2, [1, 2]), link)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b"2 2\n10\n01\n"


def test_save_to_targets_that_are_not_regular_files(ag):
    # neither can be cut to length, and neither needs to be
    save_matrix(ag(3), os.devnull)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader, os.fdopen(write_end, "wb") as writer:
        save_matrix(BinaryMatrix.from_masks(2, [1, 2]), f"/dev/fd/{write_end}")
        writer.close()
        assert reader.read() == b"2 2\n10\n01\n"


def test_save_opens_an_existing_file_without_truncating_it(monkeypatch, tmp_path):
    # truncating to zero and writing again makes ext4 force the new blocks
    # out on close; the file is rewritten in place and cut to length instead
    path = tmp_path / "m.dmat"
    save_matrix(BinaryMatrix.from_masks(3, [1, 2, 4]), path)
    calls = []
    real_open = os.open

    def spy(file, flags, *args, **kwargs):
        calls.append((os.fspath(file), flags))
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    save_matrix(BinaryMatrix.from_masks(2, [1, 2]), path)
    monkeypatch.undo()
    assert [file for file, _ in calls] == [str(path)]
    flags = calls[0][1]
    assert flags & os.O_WRONLY and flags & os.O_CREAT
    assert not flags & os.O_TRUNC
    assert path.read_bytes() == b"2 2\n10\n01\n"


# -- .dmat format ----------------------------------------------------


def test_read_identity():
    m = read_matrix("2 2\n10\n01\n")
    assert m == BinaryMatrix.from_masks(2, [1, 2])


def test_round_trip_canonical():
    text = "3 4\n1010\n0110\n0001\n"
    assert write_matrix(read_matrix(text)) == text


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.lists(
                st.integers(min_value=0, max_value=(1 << t) - 1),
                min_size=1,
                max_size=9,
            ),
        )
    )
)
def test_round_trip_any_matrix(tm):
    t, masks = tm
    m = BinaryMatrix.from_masks(t, masks)
    assert read_matrix(write_matrix(m)) == m


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "missing trailing newline"),
        ("2 2\n10\n01", 3, "missing trailing newline"),
        ("x 2\n10\n01\n", 1, "malformed header"),
        ("2  2\n10\n01\n", 1, "malformed header"),
        # the format is ASCII: other Unicode digits are no digits
        ("\u0662 \u0662\n11\n01\n", 1, "malformed header"),
        ("0 2\n", 1, "positive"),
        ("1 1\n2\n", 2, "invalid character"),
        ("2 2\n10\n0\n", 3, "expected 2 characters"),
        ("2 2\n10\n", 3, "expected 2 rows"),
        ("1 2\n10\n01\n", 3, "expected 1 rows"),
        # 10^11 cells: refused on the header, before any row is looked at
        ("1 100000000000\n0\n", 1, "too large"),
        ("1 100000\n0\n", 2, "expected 100000 characters"),
        # sizes below 1 pass check_size: refused before anything is allocated
        ("0 100000000000\n", 1, "positive"),
        # only "\n" ends a line, not the other breaks str.splitlines knows
        ("2 1\n1\x0b0\n", 3, "expected 2 rows, got 1"),
    ],
)
def test_parse_errors(text, line, fragment, tmp_path):
    # each case through the string reader and, byte for byte, the file reader
    path = tmp_path / "case.dmat"
    path.write_text(text, encoding="utf-8", newline="")
    for parse, source in ((read_matrix, text), (load_matrix, path)):
        if parse is load_matrix and not text.isascii():
            # a .dmat file is ASCII: its decoder refuses the byte first
            with pytest.raises(UnicodeDecodeError):
                load_matrix(path)
            continue
        with pytest.raises(DmatFormatError) as exc:
            parse(source)
        assert exc.value.line == line
        assert fragment in str(exc.value)


def test_oversize_header_stops_the_file_reader_at_line_1(tmp_path):
    # the body runs past 64 KB into a byte the ASCII decoder refuses, so the
    # size error shows that no line past the header is read
    path = tmp_path / "big.dmat"
    path.write_bytes(b"1 300000000\n" + b"0" * 70_000 + b"\xff\n")
    with pytest.raises(DmatFormatError) as exc:
        load_matrix(path)
    assert exc.value.line == 1 and "too large" in str(exc.value)


def test_crlf_file_loads_like_its_lf_twin(tmp_path):
    text = "3 4\n1010\n0110\n0001\n"
    lf, crlf = tmp_path / "lf.dmat", tmp_path / "crlf.dmat"
    lf.write_bytes(text.encode("ascii"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    assert load_matrix(crlf) == load_matrix(lf) == read_matrix(text)
    # the string reader ends lines at "\n" only
    with pytest.raises(DmatFormatError) as exc:
        read_matrix(crlf.read_bytes().decode("ascii"))
    assert str(exc.value) == r"line 1: malformed header '3 4\r'"


def test_file_io_never_holds_the_whole_text(tmp_path):
    # rows are written and read 64 at a time, so neither peak reaches the
    # size of the file (2.1 MB); holding its text would pass it
    rng = np.random.default_rng(1)
    matrix = matrix_from_dense(rng.integers(0, 2, size=(1024, 2048)).astype(bool))
    path = tmp_path / "wide.dmat"
    peaks = []
    for step in (lambda: save_matrix(matrix, path), lambda: load_matrix(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert path.stat().st_size == 10 + 1024 * 2049
    assert max(peaks) < path.stat().st_size
    assert load_matrix(path) == matrix


@pytest.mark.parametrize("t", [63, 64, 65, 127, 128, 130, 200])
def test_round_trip_across_words(t):
    # rows are packed 64 at a time; the last block may be partial
    rng = np.random.default_rng(t)
    dense = rng.integers(0, 2, size=(t, 7)).astype(bool)
    dense[t - 1, 0] = dense[0, 1] = True
    text = write_matrix(matrix_from_dense(dense))
    assert text == dmat_text(matrix_from_dense(dense))
    m = read_matrix(text)
    assert m == matrix_from_dense(dense)
    assert np.array_equal(dense_of(m), dense)
    assert write_matrix(m) == text


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23])
def test_round_trip_planes(ag, q):
    text = write_matrix(ag(q))
    assert text == dmat_text(ag(q))
    assert read_matrix(text) == ag(q)
    assert write_matrix(read_matrix(text)) == text


def test_round_trip_pinned_corpora(corpus, mixed_corpus):
    for matrices in [*corpus.values(), *mixed_corpus.values()]:
        for m in matrices:
            text = write_matrix(m)
            assert text == dmat_text(m)
            assert write_matrix(read_matrix(text)) == text


def _assert_masks_match_words(m):
    expected = masks_of_words(m.words)
    assert type(m.masks) is tuple and all(type(mask) is int for mask in m.masks)
    assert m.masks == expected
    # a matrix built from the words alone derives the same tuple
    assert BinaryMatrix(m.t, m.words).masks == expected


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_masks_match_the_words_planes(ag, q):
    _assert_masks_match_words(ag(q))


def test_masks_match_the_words_pinned_corpora(corpus, mixed_corpus):
    for matrices in [*corpus.values(), *mixed_corpus.values()]:
        for m in matrices:
            _assert_masks_match_words(m)


def test_from_masks_keeps_its_masks():
    masks = [0b101, 1 << 69, 0, (1 << 130) - 1]
    m = BinaryMatrix.from_masks(130, masks)
    # kept from the call, before any read of .masks could derive them
    assert m._masks == tuple(masks)
    _assert_masks_match_words(m)


@pytest.mark.parametrize("t", [1, 63, 64, 65, 130])
def test_from_masks_packs_like_one_column_at_a_time(t):
    rng = np.random.default_rng(t)
    masks = [0, (1 << t) - 1, 1 << (t - 1), 1]
    masks += [int.from_bytes(rng.bytes(17), "little") >> (136 - t) for _ in range(6)]
    m = BinaryMatrix.from_masks(t, masks)
    w = (t + 63) // 64
    assert np.array_equal(m.words, np.stack([_mask_to_words(mask, w) for mask in masks]))
    assert m.masks == tuple(masks)


def test_parse_errors_past_the_first_word():
    rows = ["1010"] * 130
    rows[99] = "1x10"
    rows[120] = "101"
    with pytest.raises(DmatFormatError) as exc:
        read_matrix("130 4\n" + "\n".join(rows) + "\n")
    assert exc.value.line == 101 and "invalid character 'x'" in str(exc.value)
    rows[99] = "1010"
    with pytest.raises(DmatFormatError) as exc:
        read_matrix("130 4\n" + "\n".join(rows) + "\n")
    assert exc.value.line == 122 and "expected 4 characters, got 3" in str(exc.value)
    # the row count is checked before any row
    with pytest.raises(DmatFormatError) as exc:
        read_matrix("131 4\n" + "\n".join(rows) + "\n")
    assert exc.value.line == 132 and "expected 131 rows, got 130" in str(exc.value)


def test_concurrent_queries_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    masks = [0b101010, 0b010101, 0b111000, 0b000111]
    # built from words, so the first queries race to fill the masks cache
    m = BinaryMatrix(6, BinaryMatrix.from_masks(6, masks).words)
    with ThreadPoolExecutor(max_workers=4) as pool:
        seen = list(pool.map(lambda _: m.masks, range(16)))
        weights = list(pool.map(lambda _: m.weights().tolist(), range(16)))
    assert all(list(s) == masks for s in seen)
    assert all(w == [3, 3, 3, 3] for w in weights)


def _family(rng, t):
    """Masks over t rows: fresh ones, repeats, the empty set, and sets
    nested inside or around an earlier member."""
    full = (1 << t) - 1
    family = []
    for _ in range(rng.randint(0, 16)):
        kind = rng.randrange(6) if family else 0
        if kind <= 1:
            u = rng.randint(0, full)
        elif kind == 2:
            u = 0
        elif kind == 3:
            u = rng.choice(family)
        elif kind == 4:
            u = rng.choice(family) & rng.randint(0, full)
        else:
            u = rng.choice(family) | rng.randint(0, full)
        family.append(u)
    return family


def test_maximal_matches_brute_force():
    rng = random.Random(20261019)
    nested = 0
    for _ in range(2000):
        family = _family(rng, rng.randint(1, 10))
        kept = _maximal(family)
        assert set(kept) == brute_maximal(family), family
        assert len(kept) == len(set(kept))
        assert [u.bit_count() for u in kept] == sorted(
            (u.bit_count() for u in kept), reverse=True
        )
        nested += len(kept) < len(set(family))
    assert nested > 1000
    assert _maximal([]) == () and _maximal([0, 0]) == (0,)
