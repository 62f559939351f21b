"""Bit-packed binary incidence matrices and the .dmat text format.

A ``BinaryMatrix`` is a t x n 0/1 matrix stored column-major: each column
is the bit-packed set of row indices it contains, held twice: as uint64
words for the numpy kernels and as int bitmasks for the cover search,
sampler and search.  Rows are tests, columns are items; all analysis code
iterates over columns and intersects them, so the column-major packing is
the natural layout.  Matrices are immutable after construction and safe to
share between threads.  ``.dmat`` text is read and written 64 rows at a
time, one word of every column per block, so no file's text is held whole.
"""

from __future__ import annotations

import os
import re
import stat
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernels

WORD_BITS = 64

_HEADER_RE = re.compile(r"^([0-9]+) ([0-9]+)$")
_ROW_RE = re.compile(r"^[01]*$")
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+")  # a line and its "\n", if any


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


def _fill_holders(masks: Sequence[int], rows: int, holders: dict[int, int]) -> None:
    """Transpose ``masks`` on the ``rows`` that ``holders`` lacks: row r,
    keyed by its index, maps to the columns holding it, as bits.
    ``holders[-1]`` is the mask of the rows filled in, so each row is
    transposed once however many callers share the map."""
    filled = holders.get(-1, 0)
    if fresh := rows & ~filled:
        holders[-1] = filled | fresh
        for k, mask in enumerate(masks):
            bit = 1 << k
            for r in _iter_bits(mask & fresh):
                holders[r] = holders.get(r, 0) | bit


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


def _pack_rows(octets: np.ndarray, lo: int, lines: list[str], n: int):
    """Pack rows lo, lo+1, ... (up to 64 lines with their ``\\n``) into the column
    octets, row i as bit i & 7 of octet i >> 3; else return the first bad one's error."""
    body = np.frombuffer("".join(lines).encode("ascii", "replace"), np.uint8)
    if body.size == len(lines) * (n + 1):
        # digits in the first n columns leave every "\n" in column n, or the
        # last line unterminated, which is reported as such before any row
        digits = body.reshape(len(lines), n + 1)[:, :n]
        if ((digits | 1) == ord("1")).all():
            packed = np.packbits(digits == ord("1"), axis=0, bitorder="little")
            octets[:, lo // 8 : lo // 8 + packed.shape[0]] = packed.T
            return None
    for i, line in enumerate(lines, lo + 2):
        row = line.rstrip("\n")
        if not _ROW_RE.match(row):
            ch = next(ch for ch in row if ch not in "01")
            return DmatFormatError(i, f"invalid character {ch!r}")
        if len(row) != n:
            return DmatFormatError(i, f"expected {n} characters, got {len(row)}")
    return None  # the last line lacks its "\n", which is reported instead


def _read_lines(lines: Iterator[str]) -> BinaryMatrix:
    """Parse .dmat lines with their ``\\n``: line 1 is size-checked before
    line 2 is read, rows are packed 64 at a time, and the first bad row waits
    until every line is counted, since all other faults are reported first."""
    line = next(lines, "")
    first = line.rstrip("\n")
    header = _HEADER_RE.match(first)
    t, n = map(int, header.groups()) if header else (0, 0)
    try:
        check_size(t, n)
    except ValueError as exc:
        raise DmatFormatError(1, str(exc)) from None
    # a "0 N" header passes check_size, so allocate only for t, n >= 1
    octets = np.zeros((n, 8 * _num_words(t)), np.uint8) if t > 0 and n > 0 else None
    bad, block, count = None, [], 1
    for count, line in enumerate(lines, 2):
        if octets is not None and bad is None and count <= t + 1:
            block.append(line)
            if len(block) == WORD_BITS or count == t + 1:
                bad = _pack_rows(octets, count - 1 - len(block), block, n)
                block = []
    if not line.endswith("\n"):
        raise DmatFormatError(count, "missing trailing newline")
    if header is None:
        raise DmatFormatError(1, f"malformed header {first!r}")
    if octets is None:
        raise DmatFormatError(1, "t and n must be positive")
    if count - 1 != t:  # name the first missing row, or the first extra one
        raise DmatFormatError(min(count, t + 1) + 1, f"expected {t} rows, got {count - 1}")
    if bad is not None:
        raise bad
    return BinaryMatrix(t, octets.view(np.uint64))


def read_matrix(text: str) -> BinaryMatrix:
    """Parse .dmat text: header ``"t n"`` then t rows of n chars in {0,1},
    each line ended by ``\\n`` alone.  Raises :class:`DmatFormatError` naming
    the offending line on any deviation, including a missing trailing newline
    and a header whose t * n exceeds ``DENSE_LIMIT``."""
    return _read_lines(m.group() for m in _LINE_RE.finditer(text))


def _text_blocks(matrix: BinaryMatrix):
    """Yield the .dmat header, then 64 rows at a time from one word per column."""
    t, n = matrix.t, matrix.n
    if t == 0:
        raise ValueError("cannot serialize a 0-row matrix")
    yield f"{t} {n}\n"
    for w, lo in enumerate(range(0, t, WORD_BITS)):
        octets = np.ascontiguousarray(matrix.words[:, w : w + 1]).view(np.uint8)
        count = min(WORD_BITS, t - lo)
        bits = np.unpackbits(octets, axis=1, count=count, bitorder="little")
        rows = np.full((count, n + 1), ord("\n"), dtype=np.uint8)
        np.bitwise_or(bits.T, ord("0"), out=rows[:, :n])
        yield str(rows.data, "ascii")


def write_matrix(matrix: BinaryMatrix) -> str:
    """Serialize to canonical .dmat text (round-trips with read_matrix)."""
    return "".join(_text_blocks(matrix))


def load_matrix(path) -> BinaryMatrix:
    """Read a .dmat file line by line; an oversize header stops it at line 1."""
    with open(path, "r", encoding="ascii") as fh:
        return _read_lines(fh)


def _open_untruncated(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def save_matrix(matrix: BinaryMatrix, path) -> None:
    """Write a .dmat file one 64-row block at a time; a 0-row matrix is
    refused before ``path`` is created or written.

    An existing file is rewritten in place, then cut to the new length if it
    was longer: truncating it to zero first made ext4 force the new blocks
    out at the next journal commit.  As before, the write is neither atomic
    nor fsynced, so a crash during writeback may leave old bytes where a
    truncating writer could leave an empty file; ``.dmat`` outputs are
    deterministic, so the command can be run again.  Targets that are not
    regular files (``/dev/null``, a pipe) are never cut."""
    blocks = _text_blocks(matrix)
    header = next(blocks)
    with open(path, "w", encoding="ascii", opener=_open_untruncated) as fh:
        fh.write(header)
        fh.writelines(blocks)
        fh.flush()
        status = os.fstat(fh.fileno())
        if stat.S_ISREG(status.st_mode) and status.st_size > fh.tell():
            fh.truncate()
