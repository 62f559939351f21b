import pytest

from disjunct import BinaryMatrix, affine_plane_matrix, random_disjunct_corpus

# corpus parameters are pinned so the counts are deterministic; the
# acceptance suite requires at least 100 matrices per d
CORPUS_PARAMS = {
    2: dict(t=12, n=10, seed=101, attempts=110),
    3: dict(t=16, n=14, seed=202, attempts=130),
    4: dict(t=25, n=20, seed=303, attempts=380),
}

MIXED_PARAMS = {
    3: dict(t=14, n=12, seed=404, attempts=300),
    4: dict(t=24, n=16, seed=505, attempts=200),
}


@pytest.fixture(scope="session")
def ag():
    cache = {}

    def build(q):
        if q not in cache:
            cache[q] = affine_plane_matrix(q)
        return cache[q]

    return build


@pytest.fixture(scope="session")
def corpus():
    """Verified d-disjunct, isolated-free corpora keyed by d."""
    built = {}
    for d, params in CORPUS_PARAMS.items():
        built[d] = random_disjunct_corpus(d, isolated_free=True, **params)
    return built


@pytest.fixture(scope="session")
def mixed_corpus():
    """Smaller mixed-weight corpora; these exercise nonempty N(c)."""
    built = {}
    for d, params in MIXED_PARAMS.items():
        built[d] = random_disjunct_corpus(
            d, isolated_free=True, mixed_weights=True, **params
        )
    return built


@pytest.fixture(scope="session")
def kautz_singleton_13():
    """KS(13, 3, 13), 169 x 2197: every polynomial a + bx + cx^2 over
    GF(13), its value at point x one-hot in rows 13x .. 13x + 12.  Two
    such polynomials agree at most twice, so no column lies in the union
    of 6 others (Kautz and Singleton, 1964)."""
    q = 13
    masks = [
        sum(1 << (q * x + (a + b * x + c * x * x) % q) for x in range(q))
        for c in range(q)
        for b in range(q)
        for a in range(q)
    ]
    return BinaryMatrix.from_masks(q * q, masks)
