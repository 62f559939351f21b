"""Generators of disjunct matrices: identity, affine planes, random corpora."""

from __future__ import annotations

from .disjunctness import is_d_disjunct, peel_to_core
from .matrix import BinaryMatrix, _iter_bits, check_size


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def identity_matrix(n: int) -> BinaryMatrix:
    """The n x n identity: the scheme that tests every item individually."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, n)
    return BinaryMatrix.from_masks(n, [1 << i for i in range(n)])


def affine_plane_matrix(q: int) -> BinaryMatrix:
    """Point-line incidence matrix of the affine plane of prime order q.

    Every line has q points and two points lie on exactly one common
    line, so the matrix is (q-1)-disjunct with constant column weight q
    and more columns (q^2+q) than rows (q^2): it attains the (d+1)^2 row
    bound with equality for d = q - 1.

    Point (x, y) of Z_q^2 is row x*q + y.  The columns come in q+1
    parallel classes of q lines each: first the lines {(x, m*x + b)} of
    slope m = 0..q-1, intercepts b ascending, then the verticals
    {(x0, y)}, x0 ascending.

    Only prime q is supported; prime-power orders would need polynomial
    field arithmetic that nothing downstream exercises.  The size limit
    is checked first, so an oversize q is refused whether prime or not.
    """
    if q > 0:
        check_size(q * q, q * q + q)
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    sloped = [
        sum(1 << (x * q + (m * x + b) % q) for x in range(q))
        for m in range(q)
        for b in range(q)
    ]
    vertical = [((1 << q) - 1) << (x0 * q) for x0 in range(q)]
    return BinaryMatrix.from_masks(q * q, sloped + vertical)


# -- the attempt stream ---------------------------------------------------
# Attempt i of a corpus with seed s draws from the stream numpy gives as
# default_rng(SeedSequence(s, spawn_key=(i,))): the SeedSequence hash
# (numpy's bit_generator.pyx), PCG64 XSL-RR 128/64 (O'Neill 2014)
# read as 32-bit halves, low half first, and Lemire's bounded draw with
# its rejection step (Lemire 2019).  Defined here, the corpora do not
# depend on the numpy version and numpy's random module is never loaded.

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> list[int]:
    """The 32-bit words of n >= 0, least significant first (0 is one word)."""
    words = [n & _M32]
    while n >> 32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash_pool(words: list[int], pool=None, hash_a=0x43B0D7E5) -> tuple[list[int], int]:
    """SeedSequence's entropy pool and hash constant after ``words``: mixed
    into ``pool`` in place, or else into a new pool made from the first four
    (zero-padded, as a spawn key follows).  A corpus hashes its seed once."""

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    if pool is None:
        words = words + [0] * (4 - len(words))
        pool = [hashmix(word) for word in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        words = words[4:]
    for word in words:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool, hash_a


class _Stream:
    """Bounded draws of numpy's default_rng(SeedSequence(seed, spawn_key=(index,))),
    given ``seed_pool = _hash_pool(_words32(seed))``."""

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed_pool: tuple[list[int], int], index: int):
        pool, _ = _hash_pool(_words32(index), list(seed_pool[0]), seed_pool[1])
        hash_b = 0x8B51F9DD
        state = 0  # generate_state(4, uint64) as one little-endian 256-bit int
        for i in range(8):
            value = pool[i % 4] ^ hash_b
            hash_b = hash_b * 0x58F38DED & _M32
            value = value * hash_b & _M32
            state |= (value ^ value >> 16) << 32 * i
        words = [state >> 64 * k & _M64 for k in range(4)]
        initstate, initseq = words[0] << 64 | words[1], words[2] << 64 | words[3]
        self._inc = (initseq << 1 | 1) & _M128
        # PCG's srandom: step from state 0, add initstate, step again
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._high: int | None = None

    def below(self, k: int) -> int:
        """A uniform draw from range(k), 1 <= k <= 2**32, as
        ``Generator.integers(k)``; k == 1 consumes nothing."""
        if k == 1:
            return 0
        while True:
            if self._high is None:
                state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
                rot = state >> 122
                x = (state >> 64 ^ state) & _M64
                x = (x >> rot | x << (64 - rot)) & _M64
                self._high = x >> 32
                m = (x & _M32) * k
            else:
                m, self._high = self._high * k, None
            # Lemire: redraw while the low half falls under 2**32 mod k
            if m & _M32 >= k or m & _M32 >= (1 << 32) % k:
                return m >> 32


# the set bits of every byte value, ascending: those of b + 2**bit, for
# b < 2**bit, are those of b and then bit
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]


def _nth_bit(mask: int, k: int) -> int:
    """Index of the set bit of ``mask`` that has k set bits below it.

    Halves the span still holding that bit, counting the set bits of its
    lower half, until at most 8 bits are left, then reads the bit from
    ``_BYTE_BITS``: O(log t) big-int operations, and no list of the bits.
    """
    low = 0
    width = mask.bit_length()
    while width > 8:
        half = width >> 1
        below = mask & ((1 << half) - 1)
        count = below.bit_count()
        if k < count:
            mask, width = below, half
        else:
            k -= count
            mask >>= half
            low += half
            width -= half
    return low + _BYTE_BITS[mask][k]


def _place_column(
    rng: _Stream,
    t: int,
    w: int,
    d: int,
    light_of: dict[int, int],
    heavy_at: dict[int, list[int]],
) -> int | None:
    """Draw a weight-w support meeting each existing column in few rows.

    Rows are chosen one at a time among those still compatible with the
    per-column intersection caps, which keeps the acceptance rate high
    where uniform rejection sampling stalls.  Per-row masks, keyed by the
    rows in use: ``light_of[r]`` is the union of the columns of weight d+1
    holding row r, ``heavy_at[r]`` lists the heavier ones.  ``free`` holds
    the allowed rows; a drawn row r clears itself and ``light_of[r]`` from
    it, then the heavy holders of r: all of them for a light new column,
    and for a heavy one (which may share two rows with a heavy column)
    only those that already share a drawn row.  The next row is the set
    bit of ``free`` with ``rng.below(free.bit_count())`` set bits below it
    (:func:`_nth_bit`): the row the same draw picks from the ascending list
    of allowed rows.  None after repeated dead ends.
    """
    heavy = w > d + 1
    light_at, heavy_holders = light_of.get, heavy_at.get
    below = rng.below
    full = (1 << t) - 1
    for _ in range(20):
        mask = 0
        free = full
        for _ in range(w):
            if not free:
                mask = 0
                break
            r = _nth_bit(free, below(free.bit_count()))
            bit = 1 << r
            free &= ~(bit | light_at(r, 0))
            for other in heavy_holders(r, ()):
                if not heavy or other & mask:
                    free &= ~other
            mask |= bit
        if mask:
            return mask
    return None


def random_disjunct_corpus(
    d: int,
    t: int,
    n: int,
    seed: int,
    attempts: int,
    *,
    mixed_weights: bool = False,
    isolated_free: bool = False,
) -> list[BinaryMatrix]:
    """Sample random column sets and keep the verified d-disjunct ones.

    Uniform random columns are almost never d-disjunct at useful
    densities, so each attempt builds its columns greedily: a random
    support is accepted only if it meets every earlier column in at most
    one row (two rows when both columns have weight above d+1, which is
    how non-private pairs can appear at all).  Low pairwise intersection
    merely biases the proposal; every returned matrix is verified by the
    exact checker.

    Columns have constant weight d+1 unless ``mixed_weights`` draws
    weights from d+1 up to floor(5d/3).  With ``isolated_free`` each
    surviving matrix is peeled to its isolated-free core, which needs no
    second check: a peeled column takes along only rows that no other
    column holds, so no remaining column gains a cover.
    Each attempt keeps per-row masks of its columns (:func:`_place_column`).
    Deterministic for a fixed seed: attempt i draws from its own stream,
    so the corpus does not depend on how many attempts succeed.  The
    stream is defined in this module and is compatible with numpy's: it
    reproduces ``default_rng(SeedSequence(seed, spawn_key=(i,)))``
    (SeedSequence hashing, PCG64, Lemire's bounded draws) without
    loading numpy's random module.  May return fewer than ``attempts``
    matrices; a negative seed or a t x n past the size limit raises
    ValueError.
    """
    check_size(t, n)
    if d < 1 or t < 1 or n < 1 or attempts < 0:
        raise ValueError("d, t, n must be positive and attempts >= 0")
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if t < d + 1:
        return []
    max_weight = max(d + 1, (5 * d) // 3) if mixed_weights else d + 1
    max_weight = min(max_weight, t)
    seed_pool = _hash_pool(_words32(seed))
    corpus: list[BinaryMatrix] = []
    for i in range(attempts):
        rng = _Stream(seed_pool, i)
        masks: list[int] = []
        light_of: dict[int, int] = {}
        heavy_at: dict[int, list[int]] = {}
        for _ in range(n):
            w = d + 1 + rng.below(max_weight - d) if mixed_weights else d + 1
            mask = _place_column(rng, t, w, d, light_of, heavy_at)
            if mask is None:
                break
            for r in _iter_bits(mask):
                if w > d + 1:
                    heavy_at.setdefault(r, []).append(mask)
                else:
                    light_of[r] = light_of.get(r, 0) | mask
            masks.append(mask)
        if len(masks) < n:
            continue
        candidate = BinaryMatrix.from_masks(t, masks)
        if not is_d_disjunct(candidate, d).is_disjunct:
            continue
        if isolated_free:
            # the core of two or more columns has no isolated column left,
            # and it is d-disjunct: peeling gives no remaining column a cover
            candidate, _ = peel_to_core(candidate)
            if candidate.n < 2:
                continue
        corpus.append(candidate)
    return corpus
