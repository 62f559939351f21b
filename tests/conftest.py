import pytest

from disjunct import affine_plane_matrix, random_disjunct_corpus
from oracles import kautz_singleton

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
    """KS(13, 3, 13), 169 x 2197: no column lies in the union of 6 others."""
    return kautz_singleton(13, 3)
