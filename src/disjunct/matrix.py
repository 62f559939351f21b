"""Bit-packed binary incidence matrices and the .dmat text format.

A ``BinaryMatrix`` is a t x n 0/1 matrix stored column-major: each column
is the bit-packed set of row indices it contains, held twice: as uint64
words for the numpy kernels and as int bitmasks for the cover search,
sampler and search.  Rows are tests, columns are items; all analysis code
iterates over columns and intersects them, so the column-major packing is
the natural layout.  Matrices are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from . import _kernels

WORD_BITS = 64

_HEADER_RE = re.compile(r"^([0-9]+) ([0-9]+)$")
_ROW_RE = re.compile(r"^[01]*$")


class DmatFormatError(ValueError):
    """Malformed .dmat text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _num_words(t: int) -> int:
    return max(1, (t + WORD_BITS - 1) // WORD_BITS)


def _mask_to_words(mask: int, num_words: int) -> np.ndarray:
    return np.frombuffer(mask.to_bytes(num_words * 8, "little"), dtype=np.uint64)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _private_rows(masks: Iterable[int]) -> int:
    """Mask of the rows that exactly one of ``masks`` contains: ``once``
    gathers the rows seen in some column, ``twice`` those seen again."""
    once = twice = 0
    for mask in masks:
        twice |= once & mask
        once |= mask
    return once & ~twice


# analysis operations are specified at desk scale; a matrix of more cells
# than this (a .dmat text over 256 MB) is refused when read or built
DENSE_LIMIT = 1 << 28


def check_size(t: int, n: int) -> None:
    """Refuse a t x n matrix of more than DENSE_LIMIT cells; sizes below 1
    are left for the caller to report."""
    if t > 0 and n > 0 and t * n > DENSE_LIMIT:
        raise ValueError(f"matrix too large to densify: t*n = {t * n} > {DENSE_LIMIT}")


class BinaryMatrix:
    """Immutable t x n binary matrix with bit-packed columns.

    Column order is significant and preserved; duplicate and empty columns
    are representable (checkers report them as property violations rather
    than refusing the input).
    """

    __slots__ = ("t", "n", "_words", "_masks")

    def __init__(self, t: int, words: np.ndarray):
        # t == 0 is a legal degenerate case: deleting all rows intersecting
        # a full-weight column leaves a 0 x (n-1) matrix
        if t < 0:
            raise ValueError("row count must be >= 0")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[0] < 1:
            raise ValueError("matrix must have at least one column")
        if words.shape[1] != _num_words(t):
            raise ValueError(
                f"expected {_num_words(t)} words per column, got {words.shape[1]}"
            )
        if t == 0:
            if words.any():
                raise ValueError("columns contain row indices >= t")
        else:
            spill = t % WORD_BITS
            if spill and (words[:, -1] >> np.uint64(spill)).any():
                raise ValueError("columns contain row indices >= t")
        words.setflags(write=False)
        self.t = t
        self.n = words.shape[0]
        self._words = words
        self._masks: tuple[int, ...] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_masks(cls, t: int, masks: Sequence[int]) -> "BinaryMatrix":
        masks = tuple(map(int, masks))
        for j, mask in enumerate(masks):
            if mask < 0 or mask >> t:
                raise ValueError(f"column {j} contains row indices >= t")
        w = _num_words(t)
        raw = b"".join(mask.to_bytes(w * 8, "little") for mask in masks)
        matrix = cls(t, np.frombuffer(raw, dtype=np.uint64).reshape(len(masks), w))
        matrix._masks = masks
        return matrix

    # -- accessors ----------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        """Read-only (n, W) uint64 view of the packed columns."""
        return self._words

    @property
    def masks(self) -> tuple[int, ...]:
        """Column supports as arbitrary-precision int bitmasks."""
        if self._masks is None:
            raw = self._words.tobytes()
            step = self._words.shape[1] * 8
            self._masks = tuple(
                int.from_bytes(raw[lo : lo + step], "little")
                for lo in range(0, len(raw), step)
            )
        return self._masks

    def weights(self) -> np.ndarray:
        return _kernels.column_weights(self._words)

    # -- dunder -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self.t == other.t
            and self.n == other.n
            and bool(np.array_equal(self._words, other._words))
        )

    def __hash__(self):
        return hash((self.t, self.n, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryMatrix(t={self.t}, n={self.n})"


# ---------------------------------------------------------------------------
# .dmat text format
# ---------------------------------------------------------------------------


def _check_header_size(line: str) -> None:
    """Refuse a well-formed header of more than DENSE_LIMIT cells; any
    other header fault is reported by read_matrix in its usual order."""
    header = _HEADER_RE.match(line)
    if header is not None:
        try:
            check_size(int(header.group(1)), int(header.group(2)))
        except ValueError as exc:
            raise DmatFormatError(1, str(exc)) from None


def read_matrix(text: str) -> BinaryMatrix:
    """Parse .dmat text: header ``"t n"`` then t rows of n chars in {0,1}.

    Raises :class:`DmatFormatError` naming the offending line on any
    deviation, including a missing trailing newline and a header whose
    t * n exceeds ``DENSE_LIMIT``.  Rows are validated and packed 64 at a
    time straight into the column words, so the only full-size copies
    held are ``text`` and its lines.
    """
    end = text.find("\n")
    _check_header_size(text if end < 0 else text[:end])
    if not text.endswith("\n"):
        raise DmatFormatError(max(1, text.count("\n") + 1), "missing trailing newline")
    lines = text.split("\n")[:-1]
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise DmatFormatError(1, f"malformed header {lines[0]!r}")
    t, n = int(header.group(1)), int(header.group(2))
    if t < 1 or n < 1:
        raise DmatFormatError(1, "t and n must be positive")
    actual = len(lines) - 1
    if actual < t:
        raise DmatFormatError(len(lines) + 1, f"expected {t} rows, got {actual}")
    if actual > t:
        raise DmatFormatError(t + 2, f"expected {t} rows, got {actual}")
    words = np.zeros((n, _num_words(t)), dtype=np.uint64)
    octets = words.view(np.uint8)  # row i is bit i & 7 of octet i >> 3
    for lo in range(0, t, WORD_BITS):
        rows = lines[lo + 1 : lo + 1 + WORD_BITS]
        for i, row in enumerate(rows, lo + 2):
            if not _ROW_RE.match(row):
                bad = next(ch for ch in row if ch not in "01")
                raise DmatFormatError(i, f"invalid character {bad!r}")
            if len(row) != n:
                raise DmatFormatError(i, f"expected {n} characters, got {len(row)}")
        body = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
        bits = (body == ord("1")).reshape(len(rows), n)
        packed = np.packbits(bits, axis=0, bitorder="little")
        octets[:, lo // 8 : lo // 8 + packed.shape[0]] = packed.T
    return BinaryMatrix(t, words)


def write_matrix(matrix: BinaryMatrix) -> str:
    """Serialize to canonical .dmat text (round-trips with read_matrix).

    The text is laid out in one uint8 buffer, the header then t rows of
    n digits and a newline, filled from the column words 64 rows at a
    time; the buffer and the returned string are the only full-size
    copies held.
    """
    t, n = matrix.t, matrix.n
    if t == 0:
        raise ValueError("cannot serialize a 0-row matrix")
    header = f"{t} {n}\n".encode("ascii")
    text = np.empty(len(header) + t * (n + 1), dtype=np.uint8)
    text[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    rows = text[len(header) :].reshape(t, n + 1)
    rows[:, n] = ord("\n")
    for w, lo in enumerate(range(0, t, WORD_BITS)):
        octets = np.ascontiguousarray(matrix.words[:, w : w + 1]).view(np.uint8)
        count = min(WORD_BITS, t - lo)
        bits = np.unpackbits(octets, axis=1, count=count, bitorder="little")
        np.bitwise_or(bits.T, ord("0"), out=rows[lo : lo + count, :n])
    return str(text.data, "ascii")


def load_matrix(path) -> BinaryMatrix:
    """Read a .dmat file; an oversize header is refused before the body is read."""
    with open(path, "r", encoding="ascii") as fh:
        _check_header_size(fh.readline().rstrip("\n"))
        fh.seek(0)
        return read_matrix(fh.read())


def save_matrix(matrix: BinaryMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_matrix(matrix))
