import argparse
import io
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from disjunct import (
    BinaryMatrix,
    affine_plane_matrix,
    identity_matrix,
    load_matrix,
    save_matrix,
)
from disjunct import cli, constructions, disjunctness
from disjunct import matrix as matrix_module
from disjunct.cli import main
from disjunct.pairs import ColumnPairs, PairAnalysis
import families
from oracles import brute_matching_number, brute_private_pairs, dense_of


@pytest.fixture()
def plane_file(tmp_path):
    path = tmp_path / "p3.dmat"
    save_matrix(affine_plane_matrix(3), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_check(tmp_path, capsys):
    out = tmp_path / "p3.dmat"
    code, stdout, _ = run(capsys, "construct", "affine", "--q", "3", "-o", str(out))
    assert code == 0 and "t=9 n=12" in stdout
    code, stdout, _ = run(capsys, "check", "--d", "2", str(out))
    assert code == 0
    assert stdout.strip() == "DISJUNCT d=2"


def test_construct_to_stdout(capsys):
    code, stdout, _ = run(capsys, "construct", "identity", "--n", "2", "-o", "-")
    assert code == 0
    assert stdout == "2 2\n10\n01\n"


def test_check_refuted_with_witness(plane_file, capsys):
    code, stdout, _ = run(capsys, "check", "--d", "3", plane_file)
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0] == "NOT DISJUNCT d=3"
    assert lines[1].startswith("column=")
    assert lines[2].startswith("cover=")


def test_check_max(plane_file, capsys):
    code, stdout, _ = run(capsys, "check", "--max", plane_file)
    assert code == 0
    assert stdout.strip() == "max_disjunct_order=2"


def test_check_vacuous(tmp_path, capsys):
    path = tmp_path / "i.dmat"
    code, _, _ = run(capsys, "construct", "identity", "--n", "3", "-o", str(path))
    code, stdout, _ = run(capsys, "check", "--d", "7", str(path))
    assert code == 0
    assert "vacuous=true" in stdout


def test_analyze_golden(plane_file, capsys):
    code, stdout, _ = run(capsys, "analyze", "--d", "2", plane_file)
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 13
    for j in range(12):
        assert lines[j] == (
            f"column={j} weight=3 private=3 nonprivate=0"
            " matching=0 bound=0 lemma3=pass"
        )
    assert lines[12] == "private_total=36 pair_budget=36 budget_ok=true"


def test_analyze_skips_checks_on_invalid_input(tmp_path, capsys):
    path = tmp_path / "dup.dmat"
    path.write_text("2 2\n11\n11\n")
    code, stdout, _ = run(capsys, "analyze", "--d", "1", str(path))
    assert code == 0
    assert "note=matrix is not 1-disjunct" in stdout
    assert "lemma3=n/a" in stdout
    assert stdout.splitlines()[-1] == "private_total=0 pair_budget=1 budget_ok=true"


def test_analyze_refuses_a_pair_graph_past_the_cell_cap(tmp_path, capsys, monkeypatch):
    # two all-ones columns share all 16,385 rows: V^2 bits of masks pass
    # DENSE_LIMIT, so analyze refuses before it builds any of them, and
    # the pair pass runs before the checker, so no column is searched
    searched = []
    first_covered = disjunctness._first_covered

    def spy(matrix, k, columns, tables):
        searched.append(columns)
        return first_covered(matrix, k, columns, tables)

    monkeypatch.setattr(disjunctness, "_first_covered", spy)
    path = tmp_path / "ones.dmat"
    save_matrix(families.all_ones(16385, 2), path)
    code, stdout, stderr = run(capsys, "analyze", "--d", "1", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert searched == []


def test_analyze_golden_out_of_range(tmp_path, capsys):
    # weight 5 at d=2 gives s=3 > d-1: the bound is still evaluated
    path = tmp_path / "p5.dmat"
    save_matrix(affine_plane_matrix(5), path)
    code, stdout, _ = run(capsys, "analyze", "--d", "2", str(path))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[:-1] == [
        f"column={j} weight=5 private=10 nonprivate=0"
        " matching=0 bound=10 lemma3=pass-out-of-range"
        for j in range(30)
    ]
    assert lines[-1] == "private_total=300 pair_budget=300 budget_ok=true"


def test_analyze_runs_the_matrix_wide_checks_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p5.dmat"
    save_matrix(affine_plane_matrix(5), path)
    # the pair counts and the checker's counting bounds each make one pass
    # over the all-pairs intersection table
    calls = {"find_isolated_columns": 0, "_first_covered": 0, "intersection_blocks": 0}
    for module in [m for name, m in sys.modules.items() if name.startswith("disjunct.")]:
        for name in calls:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    code, _, _ = run(capsys, "analyze", "--d", "4", str(path))
    assert code == 0
    assert calls == {"find_isolated_columns": 1, "_first_covered": 1, "intersection_blocks": 2}


def test_analyze_nonprivate_pairs_match_oracles(mixed_corpus, tmp_path, capsys):
    matrix = mixed_corpus[4][0]
    path = tmp_path / "m4.dmat"
    save_matrix(matrix, path)
    code, stdout, _ = run(capsys, "analyze", "--d", "4", str(path))
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == matrix.n + 1
    dense = dense_of(matrix)
    for j, line in enumerate(lines[:-1]):
        fields = dict(item.split("=") for item in line.split())
        private, nonprivate = brute_private_pairs(dense, j)
        assert int(fields["column"]) == j
        assert int(fields["private"]) == len(private)
        assert int(fields["nonprivate"]) == len(nonprivate)
        assert int(fields["matching"]) == brute_matching_number(nonprivate)
    assert lines[1] == (
        "column=1 weight=6 private=13 nonprivate=2 matching=1 bound=5 lemma3=pass"
    )
    assert lines[-1] == "private_total=170 pair_budget=276 budget_ok=true"


# AG(2,5) plus a column on every point but 0, analysed at d=4; recorded
# with the exponential matching recursion that Edmonds' algorithm replaced
ANALYZE_WIDE_GOLDEN = """\
note=matrix is not 4-disjunct; pair-bound checks skipped
column=0 weight=5 private=4 nonprivate=6 matching=2 bound=- lemma3=n/a
column=1 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=2 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=3 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=4 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=5 weight=5 private=4 nonprivate=6 matching=2 bound=- lemma3=n/a
column=6 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=7 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=8 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=9 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=10 weight=5 private=4 nonprivate=6 matching=2 bound=- lemma3=n/a
column=11 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=12 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=13 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=14 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=15 weight=5 private=4 nonprivate=6 matching=2 bound=- lemma3=n/a
column=16 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=17 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=18 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=19 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=20 weight=5 private=4 nonprivate=6 matching=2 bound=- lemma3=n/a
column=21 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=22 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=23 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=24 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=25 weight=5 private=4 nonprivate=6 matching=2 bound=- lemma3=n/a
column=26 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=27 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=28 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=29 weight=5 private=0 nonprivate=10 matching=2 bound=- lemma3=n/a
column=30 weight=24 private=0 nonprivate=276 matching=12 bound=- lemma3=n/a
private_total=24 pair_budget=300 budget_ok=true
"""


def test_analyze_golden_dense_pair_graph(tmp_path, capsys):
    # column 30's non-private pair graph is K24
    plane = affine_plane_matrix(5)
    path = tmp_path / "wide.dmat"
    wide = list(plane.masks) + [((1 << 25) - 1) & ~1]
    save_matrix(BinaryMatrix.from_masks(25, wide), path)
    code, stdout, _ = run(capsys, "analyze", "--d", "4", str(path))
    assert code == 0
    assert stdout == ANALYZE_WIDE_GOLDEN


@pytest.mark.parametrize("extra", [0, 1])
def test_analyze_skips_checks_when_vacuous(mixed_corpus, tmp_path, capsys, extra):
    # d >= n: no d other columns exist, so Lemma 3 has nothing to bound
    matrix = mixed_corpus[4][0]
    path = tmp_path / "m4.dmat"
    save_matrix(matrix, path)
    d = matrix.n + extra
    code, stdout, stderr = run(capsys, "analyze", "--d", str(d), str(path))
    assert code == 0 and stderr == ""
    lines = stdout.splitlines()
    assert lines[0] == f"note=d={d} >= n=16 is vacuous; pair-bound checks skipped"
    dense = dense_of(matrix)
    for j, line in enumerate(lines[1:-1]):
        fields = dict(item.split("=") for item in line.split())
        _, nonprivate = brute_private_pairs(dense, j)
        assert int(fields["column"]) == j
        assert int(fields["matching"]) == brute_matching_number(nonprivate)
        assert (fields["bound"], fields["lemma3"]) == ("-", "n/a")
    assert len(lines) == matrix.n + 2
    assert lines[-1] == "private_total=170 pair_budget=276 budget_ok=true"


@pytest.mark.parametrize("d", [2**63 - 1, 10**30])
def test_analyze_vacuous_past_int64(tmp_path, capsys, d):
    # a d past int64 is vacuous like any d >= n, not an overflow
    path = tmp_path / "ag5.dmat"
    save_matrix(affine_plane_matrix(5), path)
    code, expected, _ = run(capsys, "analyze", "--d", "100", str(path))
    assert code == 0
    code, stdout, stderr = run(capsys, "analyze", "--d", str(d), str(path))
    assert code == 0 and stderr == ""
    lines = stdout.splitlines()
    assert lines[0] == f"note=d={d} >= n=30 is vacuous; pair-bound checks skipped"
    assert len(lines) == 32 and lines[1:] == expected.splitlines()[1:]


def test_analyze_skips_checks_with_isolated_columns(tmp_path, capsys):
    # a triangle and a column on a row of its own: 1-disjunct, one isolated
    path = tmp_path / "iso.dmat"
    path.write_text("4 4\n1100\n1010\n0110\n0001\n")
    code, stdout, stderr = run(capsys, "analyze", "--d", "1", str(path))
    assert code == 0 and stderr == ""
    assert stdout == (
        "note=1 isolated columns; pair-bound checks skipped\n"
        "column=0 weight=2 private=1 nonprivate=0 matching=0 bound=- lemma3=n/a\n"
        "column=1 weight=2 private=1 nonprivate=0 matching=0 bound=- lemma3=n/a\n"
        "column=2 weight=2 private=1 nonprivate=0 matching=0 bound=- lemma3=n/a\n"
        "column=3 weight=1 private=0 nonprivate=0 matching=0 bound=- lemma3=n/a\n"
        "private_total=3 pair_budget=6 budget_ok=true\n"
    )


def test_analyze_refutes_lemma3_with_exit_1(plane_file, capsys, monkeypatch):
    # no valid input refutes the lemma, so stand in a pass that does
    column = ColumnPairs(
        column=0, weight=3, private=1, nonprivate=2, matching=1,
        bound=1, in_range=True, bound_ok=False, matching_ok=True,
    )
    analysis = PairAnalysis(
        vacuous=False, disjunct=True, isolated=frozenset(), columns=(column,),
        private_total=1, pair_budget=3,
    )
    monkeypatch.setattr(cli, "analyze_pairs", lambda matrix, d: analysis)
    code, stdout, stderr = run(capsys, "analyze", "--d", "2", plane_file)
    assert code == 1 and stderr == ""
    assert stdout == (
        "column=0 weight=3 private=1 nonprivate=2 matching=1 bound=1 lemma3=fail\n"
        "private_total=1 pair_budget=3 budget_ok=true\n"
    )


def test_decode(plane_file, capsys):
    code, stdout, _ = run(capsys, "decode", "--outcomes", "111000000", plane_file)
    assert code == 0
    assert stdout.strip() == "candidates=9"


def test_verify_id(plane_file, capsys):
    code, stdout, _ = run(capsys, "verify-id", "--d", "2", plane_file)
    assert code == 0
    assert stdout.strip() == "IDENTIFIABLE d=2 cases=79"


def test_verify_id_budget_error(plane_file, capsys):
    code, _, stderr = run(capsys, "verify-id", "--d", "2", "--max-cases", "10", plane_file)
    assert code == 2
    assert "budget" in stderr


def test_verify_id_refuses_a_negative_budget(plane_file, capsys):
    code, stdout, stderr = run(capsys, "verify-id", "--d", "2", "--max-cases", "-1", plane_file)
    assert code == 2 and stdout == ""
    assert stderr == "error: max_cases must be >= 0\n"
    # a budget of 0 is legal and too small: the empty set alone is a case
    code, stdout, stderr = run(capsys, "verify-id", "--d", "2", "--max-cases", "0", plane_file)
    assert code == 2 and stdout == ""
    assert "exceed the budget of 0" in stderr


def test_verify_id_refuted(tmp_path, capsys):
    path = tmp_path / "bad.dmat"
    path.write_text("2 3\n101\n011\n")
    code, stdout, _ = run(capsys, "verify-id", "--d", "2", str(path))
    assert code == 1
    assert "NOT IDENTIFIABLE" in stdout
    assert "failing_set=" in stdout


def test_verify_id_empty_failing_set(tmp_path, capsys):
    # column 2 is empty: the empty set already decodes to {2}
    path = tmp_path / "empty.dmat"
    path.write_text("2 3\n100\n010\n")
    code, stdout, stderr = run(capsys, "verify-id", "--d", "1", str(path))
    assert code == 1 and stderr == ""
    assert stdout == "NOT IDENTIFIABLE d=1\nfailing_set=\n"


def test_verify_id_kautz_singleton_code(kautz_singleton_13, tmp_path, capsys):
    path = tmp_path / "ks13.dmat"
    save_matrix(kautz_singleton_13, path)
    code, stdout, stderr = run(
        capsys, "verify-id", "--d", "6", "--max-cases", str(10**18), str(path)
    )
    assert code == 0 and stderr == ""
    assert stdout == f"IDENTIFIABLE d=6 cases={sum(comb(2197, k) for k in range(7))}\n"


def test_bounds_golden(capsys):
    code, stdout, _ = run(capsys, "bounds", "--d", "4")
    assert code == 0
    lines = stdout.splitlines()
    assert "bassalygo=15" in lines
    assert "theorem2=14" in lines
    assert "conjecture=25" in lines
    assert "combined=15" in lines
    # the largest power of ten whose kappa d^2 is a finite float
    code, stdout, stderr = run(capsys, "bounds", "--d", str(10**154))
    assert code == 0 and stderr == ""
    assert "theorem2_real=8.643567769390847e+307" in stdout.splitlines()


def test_bounds_with_n(capsys):
    code, stdout, _ = run(capsys, "bounds", "--d", "10", "--n", "1000000")
    assert code == 0
    assert "t_dn=87" in stdout
    assert "dominant=theorem2" in stdout


def test_search_writes_certificates(tmp_path, capsys):
    outdir = tmp_path / "certs"
    code, stdout, _ = run(
        capsys, "search", "--d", "1", "--tmax", "4", "-o", str(outdir)
    )
    assert code == 0
    lines = stdout.splitlines()
    assert "t=1 found=false exhausted=true nodes=0" in lines
    assert any(line.startswith("t=4 found=true") for line in lines)
    written = sorted(p.name for p in outdir.iterdir())
    assert written == ["t4_d1.dmat"]
    cert = load_matrix(outdir / "t4_d1.dmat")
    assert (cert.t, cert.n) == (4, 5)


def test_search_settles_t2_golden(capsys):
    code, stdout, stderr = run(capsys, "search", "--d", "2", "--tmax", "9")
    assert code == 0 and stderr == ""
    assert stdout == (
        "t=1 found=false exhausted=true nodes=0\n"
        "t=2 found=false exhausted=true nodes=0\n"
        "t=3 found=false exhausted=true nodes=0\n"
        "t=4 found=false exhausted=true nodes=3\n"
        "t=5 found=false exhausted=true nodes=63\n"
        "t=6 found=false exhausted=true nodes=670\n"
        "t=7 found=false exhausted=true nodes=9340\n"
        "t=8 found=false exhausted=true nodes=269433\n"
        "t=9 found=true exhausted=false nodes=0\n"
    )


def test_random_construct_deterministic(tmp_path, capsys):
    args = [
        "construct", "random", "--d", "1", "--t", "4", "--n", "5",
        "--seed", "9", "--attempts", "5",
    ]
    code, first, _ = run(capsys, *args, "-o", str(tmp_path / "a"))
    assert code == 0
    code, second, _ = run(capsys, *args, "-o", str(tmp_path / "b"))
    a_files = sorted((tmp_path / "a").iterdir())
    b_files = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in a_files] == [p.name for p in b_files]
    assert [p.read_text() for p in a_files] == [p.read_text() for p in b_files]


def test_random_construct_refuses_negative_seeds(tmp_path, capsys):
    out = tmp_path / "neg"
    for attempts in ("0", "5"):
        code, stdout, stderr = run(
            capsys, "construct", "random", "--d", "2", "--t", "9", "--n", "8",
            "--seed", "-1", "--attempts", attempts, "-o", str(out),
        )
        assert code == 2 and stdout == ""
        assert stderr == "error: expected non-negative integer\n"
    assert not out.exists()


def test_random_construct_does_not_load_numpy_random(tmp_path):
    script = (
        "import sys\n"
        "from disjunct.cli import main\n"
        "code = main(['construct', 'random', '--d', '2', '--t', '12', '--n', '10',"
        " '--seed', '7', '--attempts', '20', '--isolated-free', '-o', sys.argv[1]])\n"
        "assert code == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "corpus")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("kept=20 attempts=20\n")


def test_import_does_not_load_dataclasses():
    script = "import sys\nimport disjunct.cli\nassert 'dataclasses' not in sys.modules\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_construct_to_stdout_streams_row_blocks(monkeypatch):
    # -o - writes 64 rows at a time, as save_matrix does, so the peak stays
    # below the size of the text (1 MB); joining it first would pass it
    class Sink(io.TextIOBase):
        size = 0

        def write(self, text):
            self.size += len(text)
            return len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["construct", "identity", "--n", "1024", "-o", "-"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size == len("1024 1024\n") + 1024 * 1025
    assert peak < sink.size


def test_errors_exit_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "check", "--d", "2", str(tmp_path / "nope.dmat"))
    assert code == 2 and "error:" in stderr
    bad = tmp_path / "bad.dmat"
    bad.write_text("1 1\n2\n")
    code, _, stderr = run(capsys, "check", "--d", "1", str(bad))
    assert code == 2 and "invalid character" in stderr
    # 10^11 columns in the header: rejected before the body is read
    bad.write_text("1 100000000000\n0\n")
    code, stdout, stderr = run(capsys, "check", "--d", "1", str(bad))
    assert code == 2 and stdout == ""
    assert "line 1: matrix too large to densify" in stderr
    code, _, stderr = run(capsys, "construct", "affine", "--q", "4", "-o", "-")
    assert code == 2 and "prime" in stderr
    code, stdout, stderr = run(
        capsys, "search", "--d", "1", "--tmax", "3", "--budget", "-1"
    )
    assert code == 2 and stdout == ""
    assert "error: budget must be >= 0" in stderr
    code, stdout, stderr = run(
        capsys, "search", "--d", "1008", "--tmax", "1018081"
    )
    assert code == 2 and stdout == ""
    assert "error: t_max must be <= 1024" in stderr
    # kappa d^2 past the float range: inf, or d itself not a float
    for d in (2 * 10**154, 10**400):
        code, stdout, stderr = run(capsys, "bounds", "--d", str(d))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
    # t(d, n) is refused before any bound is printed
    for n in ("0", "-5"):
        code, stdout, stderr = run(capsys, "bounds", "--d", "3", "--n", n)
        assert code == 2 and stdout == ""
        assert stderr == "error: d and n must be >= 1\n"


def test_construct_to_dev_null(capsys):
    code, stdout, stderr = run(capsys, "construct", "affine", "--q", "3", "-o", os.devnull)
    assert (code, stdout, stderr) == (0, "wrote=/dev/null t=9 n=12\n", "")


def test_construct_into_a_bad_target_exit_2(tmp_path, capsys):
    missing = tmp_path / "no" / "p3.dmat"
    for target, reason in (
        (tmp_path, "[Errno 21] Is a directory"),
        (missing, "[Errno 2] No such file or directory"),
    ):
        code, stdout, stderr = run(
            capsys, "construct", "affine", "--q", "3", "-o", str(target)
        )
        assert (code, stdout, stderr) == (2, "", f"error: {reason}: '{target}'\n")
    assert not missing.parent.exists()


def test_construct_refuses_oversize_before_building(monkeypatch, capsys):
    # each builder checks its own shape first: with the limit set low, no
    # column is drawn and no masks reach a matrix
    def refuse(*args, **kwargs):
        raise AssertionError("built a matrix past the size limit")

    monkeypatch.setattr(constructions.BinaryMatrix, "from_masks", refuse)
    monkeypatch.setattr(constructions, "_place_column", refuse)
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 107)
    for argv, cells in (
        (["identity", "--n", "11"], 121),
        # AG(2,3) is 9 x 12 cells; 4 is not prime, and its size comes first
        (["affine", "--q", "3"], 108),
        (["affine", "--q", "4"], 320),
        (["random", "--d", "2", "--t", "12", "--n", "9", "--seed", "0",
         "--attempts", "1"], 108),
        # ahead of the corpus's own argument checks, as before
        (["random", "--d", "0", "--t", "12", "--n", "9", "--seed", "-1",
         "--attempts", "1"], 108),
    ):
        code, stdout, stderr = run(capsys, "construct", *argv, "-o", "-")
        assert code == 2 and stdout == ""
        assert stderr == f"error: matrix too large to densify: t*n = {cells} > 107\n"


def test_construct_accepts_the_size_limit(monkeypatch, capsys):
    # 16384^2 cells is exactly the real limit
    matrix_module.check_size(16384, 16384)
    with pytest.raises(ValueError, match="too large"):
        matrix_module.check_size(16385, 16384)
    # a build of exactly the limit is written
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 4)
    code, stdout, _ = run(capsys, "construct", "identity", "--n", "2", "-o", "-")
    assert code == 0 and stdout == "2 2\n10\n01\n"
    code, stdout, stderr = run(capsys, "construct", "identity", "--n", "3", "-o", "-")
    assert code == 2 and stdout == ""
    assert stderr == "error: matrix too large to densify: t*n = 9 > 4\n"


def test_dmat_header_above_the_size_limit(monkeypatch, plane_file, capsys):
    # AG(2,3) is 9 x 12 = 108 cells
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 107)
    for argv in (["check", "--d", "2"], ["analyze", "--d", "2"], ["verify-id", "--d", "1"]):
        code, stdout, stderr = run(capsys, *argv, plane_file)
        assert code == 2 and stdout == ""
        assert stderr == "error: line 1: matrix too large to densify: t*n = 108 > 107\n"
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 108)
    code, stdout, _ = run(capsys, "check", "--d", "2", plane_file)
    assert code == 0 and stdout == "DISJUNCT d=2\n"


def test_construct_above_the_size_limit(monkeypatch, capsys):
    # construct and the .dmat reader share one limit: no file is written
    # that check would then refuse
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 107)
    code, stdout, stderr = run(capsys, "construct", "affine", "--q", "3", "-o", "-")
    assert code == 2 and stdout == ""
    assert stderr == "error: matrix too large to densify: t*n = 108 > 107\n"
    monkeypatch.setattr(matrix_module, "DENSE_LIMIT", 108)
    code, stdout, _ = run(capsys, "construct", "affine", "--q", "3", "-o", "-")
    assert code == 0 and stdout.startswith("9 12\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "p.dmat"])  # neither --d nor --max
    assert exc.value.code == 2


USAGE = (
    "usage: disjunct [-h]\n"
    "                {construct,check,analyze,decode,verify-id,bounds,search} ...\n"
)
CHECK_USAGE = "usage: disjunct check [-h] (--d D | --max) file\n"
INVALID_CHOICE = (
    "disjunct: error: argument command: invalid choice: {!r} (choose from"
    " 'construct', 'check', 'analyze', 'decode', 'verify-id', 'bounds', 'search')\n"
)
# stdout, stderr and exit code of main, as argparse formats them at 80 columns
USAGE_GOLDEN = {
    "": ("", USAGE + "disjunct: error: the following arguments are required: command\n", 2),
    "-h": (
        USAGE
        + "\n"
        "Construct, verify and analyze d-disjunct group-testing matrices.\n"
        "\n"
        "positional arguments:\n"
        "  {construct,check,analyze,decode,verify-id,bounds,search}\n"
        "    construct           generate matrices\n"
        "    check               exact disjunctness check\n"
        "    analyze             per-column private-pair analysis\n"
        "    decode              naive decoder for an outcome vector\n"
        "    verify-id           exhaustive identification guarantee check\n"
        "    bounds              evaluate row lower bounds\n"
        "    search              exhaustive search for T(d) certificates\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
        0,
    ),
    "bogus": ("", USAGE + INVALID_CHOICE.format("bogus"), 2),
    "check": (
        "",
        CHECK_USAGE + "disjunct check: error: the following arguments are required: file\n",
        2,
    ),
    "check --help": (
        CHECK_USAGE
        + "\n"
        "positional arguments:\n"
        "  file        .dmat input\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --d D       order to verify\n"
        "  --max       report the largest order\n",
        "",
        0,
    ),
    "construct": (
        "",
        "usage: disjunct construct [-h] {affine,identity,random} ...\n"
        "disjunct construct: error: the following arguments are required: kind\n",
        2,
    ),
    "construct random --help": (
        "usage: disjunct construct random [-h] --d D --t T --n N --seed SEED --attempts\n"
        "                                 ATTEMPTS [--mixed-weights] [--isolated-free]\n"
        "                                 -o OUTPUT\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --d D\n"
        "  --t T\n"
        "  --n N\n"
        "  --seed SEED\n"
        "  --attempts ATTEMPTS\n"
        "  --mixed-weights\n"
        "  --isolated-free\n"
        "  -o OUTPUT, --output OUTPUT\n"
        "                        output directory\n",
        "",
        0,
    ),
    "check --d 1 --max F": (
        "",
        CHECK_USAGE + "disjunct check: error: argument --max: not allowed with argument --d\n",
        2,
    ),
    "check --d x F": (
        "",
        CHECK_USAGE + "disjunct check: error: argument --d: invalid int value: 'x'\n",
        2,
    ),
    "--d 3 check F": ("", USAGE + INVALID_CHOICE.format("3"), 2),
    "check --d 4 F extra": ("", USAGE + "disjunct: error: unrecognized arguments: extra\n", 2),
}


# argparse words and wraps help and errors differently in other Python
# versions (3.13 prints "-o, --output OUTPUT"); these are 3.11's, the CI's
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text of Python 3.11")
@pytest.mark.parametrize("line", USAGE_GOLDEN)
def test_usage_golden(monkeypatch, capsys, line):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    captured = capsys.readouterr()
    assert (captured.out, captured.err, exc.value.code) == USAGE_GOLDEN[line]


def test_main_builds_only_the_invoked_commands_options(monkeypatch, plane_file, capsys):
    added = set()
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.update(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    # check's --d and --max go through its mutually exclusive group
    assert run(capsys, "check", "--max", plane_file) == (0, "max_disjunct_order=2\n", "")
    assert added == {"-h", "--help", "file"}
    added.clear()
    code, stdout, _ = run(capsys, "bounds", "--d", "3")
    assert code == 0 and stdout.startswith("d=3\n")
    assert added == {"-h", "--help", "--d", "--n"}


def test_byte_identical_reruns(plane_file, capsys):
    first = run(capsys, "analyze", "--d", "2", plane_file)
    second = run(capsys, "analyze", "--d", "2", plane_file)
    assert first == second
