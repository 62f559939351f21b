"""Generators of disjunct matrices: identity, affine planes, random corpora."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disjunctness import find_isolated_columns, is_d_disjunct, peel_to_core
from .matrix import BinaryMatrix


@dataclass(frozen=True)
class AffinePlaneSpec:
    """The affine plane of prime order q as points and parallel line classes.

    ``points[i]`` is the (x, y) coordinate of row i; ``parallel_classes``
    holds q+1 classes of q mutually disjoint lines each (slopes 0..q-1,
    verticals last), every line given as its sorted row indices.
    Flattening the classes in order yields the column order of
    :func:`affine_plane_matrix`.
    """

    q: int
    points: tuple[tuple[int, int], ...]
    parallel_classes: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def lines(self) -> tuple[tuple[int, ...], ...]:
        return tuple(line for group in self.parallel_classes for line in group)


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
    return BinaryMatrix.from_masks(n, [1 << i for i in range(n)])


def affine_plane_spec(q: int) -> AffinePlaneSpec:
    """Points and lines of the affine plane of prime order q over Z_q.

    Point (x, y) gets row index x*q + y.  The line of slope m and
    intercept b is {(x, m*x + b) : x in Z_q}; slope classes come first
    (slope-major, intercepts ascending), the vertical class {(x0, y)} last.
    """
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    points = tuple((x, y) for x in range(q) for y in range(q))
    classes = []
    for m in range(q):
        classes.append(
            tuple(
                tuple(sorted(x * q + (m * x + b) % q for x in range(q)))
                for b in range(q)
            )
        )
    classes.append(
        tuple(tuple(x0 * q + y for y in range(q)) for x0 in range(q))
    )
    return AffinePlaneSpec(q=q, points=points, parallel_classes=tuple(classes))


def affine_plane_matrix(q: int) -> BinaryMatrix:
    """Point-line incidence matrix of the affine plane of prime order q.

    Every line has q points and two points lie on exactly one common
    line, so the matrix is (q-1)-disjunct with constant column weight q
    and more columns (q^2+q) than rows (q^2): it attains the (d+1)^2 row
    bound with equality for d = q - 1.

    Only prime q is supported; prime-power orders would need polynomial
    field arithmetic that nothing downstream exercises.
    """
    spec = affine_plane_spec(q)
    return BinaryMatrix.from_columns(q * q, spec.lines)


def _place_column(
    rng: np.random.Generator,
    t: int,
    w: int,
    d: int,
    masks: list[int],
    weights: list[int],
) -> int | None:
    """Draw a weight-w support meeting each existing column in few rows.

    Rows are chosen one at a time among those still compatible with the
    per-column intersection caps, which keeps the acceptance rate high
    where uniform rejection sampling stalls.  Returns None after
    repeated dead ends.
    """
    caps = [2 if w > d + 1 and wo > d + 1 else 1 for wo in weights]
    for _ in range(20):
        mask = 0
        shares = [0] * len(masks)
        for _ in range(w):
            allowed = [
                r
                for r in range(t)
                if not mask >> r & 1
                and all(
                    shares[k] < caps[k] or not masks[k] >> r & 1
                    for k in range(len(masks))
                )
            ]
            if not allowed:
                mask = 0
                break
            r = int(allowed[rng.integers(len(allowed))])
            mask |= 1 << r
            for k in range(len(masks)):
                if masks[k] >> r & 1:
                    shares[k] += 1
        if mask:
            return mask
    return None


# seed sequences spawned per block: repeated spawn(k) calls continue the
# same child sequence, so corpora do not depend on the block size
_SPAWN_BLOCK = 1024


def _attempt_seeds(root: np.random.SeedSequence, attempts: int):
    """The first ``attempts`` children of ``root``, spawned a block at a time."""
    while attempts > 0:
        k = min(attempts, _SPAWN_BLOCK)
        yield from root.spawn(k)
        attempts -= k


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
    surviving matrix is peeled to its isolated-free core and re-verified.
    Deterministic for a fixed seed: attempt i uses the i-th spawn of the
    root seed sequence, so the corpus does not depend on how many
    attempts succeed.  May return fewer than ``attempts`` matrices.
    """
    if d < 1 or t < 1 or n < 1 or attempts < 0:
        raise ValueError("d, t, n must be positive and attempts >= 0")
    if t < d + 1:
        return []
    max_weight = max(d + 1, (5 * d) // 3) if mixed_weights else d + 1
    max_weight = min(max_weight, t)
    root = np.random.SeedSequence(seed)
    corpus: list[BinaryMatrix] = []
    for child in _attempt_seeds(root, attempts):
        rng = np.random.default_rng(child)
        masks: list[int] = []
        weights: list[int] = []
        for _ in range(n):
            w = int(rng.integers(d + 1, max_weight + 1)) if mixed_weights else d + 1
            mask = _place_column(rng, t, w, d, masks, weights)
            if mask is None:
                break
            masks.append(mask)
            weights.append(w)
        if len(masks) < n:
            continue
        candidate = BinaryMatrix.from_masks(t, masks)
        if not is_d_disjunct(candidate, d).is_disjunct:
            continue
        if isolated_free:
            candidate, _ = peel_to_core(candidate)
            if candidate.n < 2 or find_isolated_columns(candidate):
                continue
            if not is_d_disjunct(candidate, d).is_disjunct:
                continue
        corpus.append(candidate)
    return corpus
