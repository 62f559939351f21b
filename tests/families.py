"""Shared test instances: one builder per family that several tests or CI
steps use, each returning a ``BinaryMatrix``.

CI writes its inputs from these builders with ``save_matrix``, e.g.
``PYTHONPATH=tests python -c 'import families; from disjunct import
save_matrix; save_matrix(families.star(1100), "deep.dmat")'``, and pins
the SHA-256 of each file.
"""

import random

from disjunct.matrix import BinaryMatrix


def star(t):
    """t x (t+1): column 0 holds every row and column r + 1 row r alone, so
    the one cover of column 0 is all t other columns."""
    return BinaryMatrix.from_masks(t, [(1 << t) - 1] + [1 << r for r in range(t)])


def deep_cover(h):
    """2h x (h+1): column 0 holds rows 0..h-1 and column r + 1 rows r and
    h + r, so only all h other columns cover column 0."""
    masks = [(1 << h) - 1] + [1 << r | 1 << h + r for r in range(h)]
    return BinaryMatrix.from_masks(2 * h, masks)


def isolated(n, seed):
    """(50 + n) x n: column j holds row 50 + j alone and 20 of 50 shared
    rows, drawn by ``random.Random(seed).sample``; a private row has no
    cover, so every column is isolated."""
    rng = random.Random(seed)
    masks = [1 << 50 + j | sum(1 << r for r in rng.sample(range(50), 20)) for j in range(n)]
    return BinaryMatrix.from_masks(50 + n, masks)


def all_ones(t, n):
    """t x n of ones: every pair of a column's rows is non-private."""
    return BinaryMatrix.from_masks(t, [(1 << t) - 1] * n)
