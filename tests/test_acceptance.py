"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
each test enforces its stated tolerance (exact integer equality unless
noted) and runtime limit.
"""

import random
import time
from itertools import combinations
from math import comb

import numpy as np

from disjunct import (
    KAPPA,
    affine_plane_matrix,
    analyze_pairs,
    delete_column_and_rows,
    exhaustive_T,
    find_isolated_columns,
    formula_one,
    identity_matrix,
    is_d_disjunct,
    theorem1_certificate,
    verify_identification,
)
from disjunct.pairs import _matching
from oracles import (
    antichain_exists,
    brute_matching_number,
    max_edges_matching_bounded,
    neighbourhood_masks,
)


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


def test_01_affine_plane_reproduction():
    start = time.perf_counter()
    for q in (2, 3, 5, 7):
        m = affine_plane_matrix(q)
        d = q - 1
        assert (m.t, m.n) == (q * q, q * q + q)
        assert set(m.weights().tolist()) == {q}
        assert is_d_disjunct(m, d).is_disjunct
        assert not is_d_disjunct(m, q).is_disjunct
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "affine-plane-reproduction", f"{elapsed:.2f}s")


def test_02_theorem1_certificate_tightness():
    for q in (3, 5, 7):
        d = q - 1
        cert = theorem1_certificate(affine_plane_matrix(q), d)
        assert cert.ok
        assert cert.union_weight == (d + 1) ** 2 == cert.t
    _report(2, "constant-weight-certificate")


def test_03_erdos_gallai_oracle():
    start = time.perf_counter()
    checked = 0
    for k in range(2, 8):
        table = max_edges_matching_bounded(k)
        for mu in range(0, (k - 1) // 2 + 1):
            brute = table[mu]
            bound = formula_one(k - mu - 1, mu + 1)  # m(k, 2, mu)
            assert brute <= bound, (k, mu)
            assert brute == bound, (k, mu)  # the bound is attained
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, "erdos-gallai-oracle", f"{checked} (k,mu) pairs, {elapsed:.2f}s")


def test_04_formula_one_equivalence():
    for d in range(1, 51):
        for s in range(1, 2 * d + 1):
            direct = max(comb(2 * s - 1, 2), comb(d + s, 2) - comb(d + 1, 2))
            assert formula_one(d, s) == direct
    _report(4, "piecewise-maximum-equivalence", "d<=50, s<=2d")


def test_05_lemma3_corpus(corpus, mixed_corpus):
    matrices = {d: list(ms) for d, ms in corpus.items()}
    for d, ms in mixed_corpus.items():
        matrices[d].extend(ms)
    total = 0
    in_range_columns = 0
    for d, ms in matrices.items():
        assert len(ms) >= 100, f"need >= 100 matrices for d={d}, got {len(ms)}"
        total += len(ms)
        for m in ms:
            assert find_isolated_columns(m) == frozenset()
            analysis = analyze_pairs(m, d)
            assert analysis.disjunct and not analysis.vacuous and not analysis.isolated
            for c in analysis.columns:
                s = c.weight - d
                if not 1 <= s <= d - 1:
                    continue
                in_range_columns += 1
                assert c.in_range, (d, c.column)
                assert c.bound_ok, (d, c.column)
                assert c.matching_ok, (d, c.column)
    _report(5, "pair-bound-corpus", f"{total} matrices, {in_range_columns} columns")


def test_06_deletion_preserves_weaker_order(corpus):
    violations = 0
    for q in (3, 5):
        m = affine_plane_matrix(q)
        d = q - 1
        for j in range(m.n):
            reduced = delete_column_and_rows(m, j)
            if not is_d_disjunct(reduced, d - 1).is_disjunct:
                violations += 1
    count = 0
    for d, ms in sorted(corpus.items()):
        if d < 2:
            continue
        for m in ms:
            if count >= 50:
                break
            count += 1
            for j in range(m.n):
                reduced = delete_column_and_rows(m, j)
                if reduced.n < 1 or reduced.t < 1:
                    continue
                if not is_d_disjunct(reduced, d - 1).is_disjunct:
                    violations += 1
    assert count >= 50
    assert violations == 0
    _report(6, "column-deletion-check", f"{count} corpus matrices")


def test_07_decoder_guarantee():
    start = time.perf_counter()
    small = verify_identification(affine_plane_matrix(3), 2)
    assert small.ok and small.cases == 79
    big = verify_identification(affine_plane_matrix(5), 4)
    assert big.ok and big.cases >= 31_930
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, "decoder-guarantee", f"{big.cases} sets, {elapsed:.2f}s")


def test_08_private_pair_budget(corpus, mixed_corpus):
    rng = random.Random(99)
    matrices = [affine_plane_matrix(q) for q in (2, 3, 5, 7)]
    matrices += [identity_matrix(n) for n in (1, 4, 9)]
    for d, ms in corpus.items():
        matrices.extend(ms)
    for d, ms in mixed_corpus.items():
        matrices.extend(ms)
    from disjunct import BinaryMatrix

    for _ in range(50):
        t, n = rng.randint(1, 8), rng.randint(1, 8)
        matrices.append(
            BinaryMatrix.from_masks(t, [rng.randrange(0, 1 << t) for _ in range(n)])
        )
    for m in matrices:
        analysis = analyze_pairs(m, 1)
        assert analysis.pair_budget == comb(m.t, 2)
        assert analysis.private_total <= analysis.pair_budget
    tight = analyze_pairs(affine_plane_matrix(3), 2)
    assert tight.private_total == tight.pair_budget == 36
    _report(8, "private-pair-budget", f"{len(matrices)} matrices, AG(2,3) tight")


def test_09_individual_testing_threshold():
    start = time.perf_counter()
    certs = exhaustive_T(1, 5)
    by_t = {c.t: c for c in certs}
    for t in (1, 2, 3):
        assert not by_t[t].found and by_t[t].exhausted
        assert not antichain_exists(t, t + 1)
    assert by_t[4].found
    assert antichain_exists(4, 5)
    found = by_t[4].matrix
    assert (found.t, found.n) == (4, 5)
    assert is_d_disjunct(found, 1).is_disjunct
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(9, "threshold-T1-equals-4", f"{elapsed:.2f}s")


def test_10_bound_constant():
    assert abs(KAPPA - 0.8643567769390845) < 1e-12
    assert 6 / 7 <= KAPPA <= 7 / 8
    assert abs((3 * KAPPA - 1) * (2 - 2 * KAPPA) - KAPPA / 2) < 1e-12
    _report(10, "bound-constant", f"kappa={KAPPA!r}")


def test_11_matching_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        density = rng.random()
        edges = {
            (a, b)
            for a, b in combinations(range(int(k)), 2)
            if rng.random() < density
        }
        if _matching(neighbourhood_masks(k, edges)) != brute_matching_number(edges):
            mismatches += 1
    assert mismatches == 0
    _report(11, "matching-oracle", "10000 instances")
