"""Workload inputs and command lists.

Set-up writes every input as ``.dmat`` under ``indir`` using this
package's own generators, so the inputs do not change when the program
does.  A workload is a list of stages; each stage maps the results of the
earlier stages of the same pass to the CLI commands it runs, which lets
``corpus`` check every matrix that ``construct random`` wrote.

Every workload's pass includes PROBE_REPEATS rounds of the same small
probe, one command per command family.  A family metric therefore
exists on every workload: on a workload whose main list lacks the family,
it times the probe alone, and an optimisation aimed elsewhere predicts no
change there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from . import speed, truth

PRIMES = (5, 7, 11, 13, 17, 19, 23)
MAX_ORDER_PRIMES = (5, 7, 11, 13, 17)

# the pinned corpora of tests/conftest.py: (d, t, n, seed, attempts, mixed)
CORPUS_SETS = (
    (2, 12, 10, 101, 110, False),
    (3, 16, 14, 202, 130, False),
    (4, 25, 20, 303, 380, False),
    (3, 14, 12, 404, 300, True),
    (4, 24, 16, 505, 200, True),
)
# check --max and analyze run on the first PER_SET matrices each corpus
# keeps: the constant-weight sets keep 84-125 of their attempts depending
# on the seed (seeds 0-29), and a fixed count keeps that out of the times
PER_SET = 80
SEARCHES = ((2, 6), (3, 7), (4, 8))
BOUNDS = ((10, 1_000_000), (30, 10**9), (100, None))
# the probe's commands take milliseconds; repeats give their medians samples
PROBE_REPEATS = 20

FAMILIES = (
    "check",
    "check_max",
    "verify_id_1w",
    "verify_id_mw",
    "analyze",
    "construct",
    "search",
    "bounds",
)


@dataclass
class Cmd:
    family: str
    argv: list[str]
    check: Callable[[list[str], int], str | None]


@dataclass
class Result:
    cmd: Cmd
    rc: int
    stdout: str
    seconds: float
    # host speed: reference-loop seconds around the command (speed.py)
    reference_s: float = 0.0

    @property
    def scaled_s(self) -> float:
        return speed.scale(self.seconds, self.reference_s)

    @property
    def lines(self) -> list[str]:
        return self.stdout.splitlines()


Stage = Callable[[list[Result]], list[Cmd]]


@dataclass
class Workload:
    spec: dict
    stages: list[Stage] = field(default_factory=list)


class _Inputs:
    """Writes matrices under ``indir`` and remembers their columns."""

    def __init__(self, indir: Path):
        self.indir = indir
        self.matrices: dict[str, tuple[int, list[int]]] = {}

    def add(self, name: str, t: int, masks: list[int]) -> str:
        path = self.indir / f"{name}.dmat"
        path.write_text(truth.dmat_text(t, masks), encoding="ascii")
        self.matrices[str(path)] = (t, masks)
        return str(path)


def _verify_id(inputs: _Inputs, path: str, d: int) -> Cmd:
    t, masks = inputs.matrices[path]
    family = "verify_id_1w" if t <= 64 else "verify_id_mw"
    return Cmd(
        family,
        ["verify-id", "--d", str(d), path],
        partial(truth.expect_identifiable, n=len(masks), d=d),
    )


def _max_order(path: Path, order: int) -> Cmd:
    return Cmd("check_max", ["check", "--max", str(path)],
               partial(truth.expect_max_order, order=order))


def _analyze(inputs: _Inputs, path: str, d: int) -> Cmd:
    t, masks = inputs.matrices[path]
    return Cmd(
        "analyze",
        ["analyze", "--d", str(d), path],
        partial(truth.expect_analysis, t=t, masks=masks, d=d),
    )


def _construct_random(d, t, n, seed, attempts, mixed, outdir) -> Cmd:
    argv = ["construct", "random", "--d", str(d), "--t", str(t), "--n", str(n)]
    argv += ["--seed", str(seed), "--attempts", str(attempts), "--isolated-free"]
    if mixed:
        argv.append("--mixed-weights")
    argv += ["-o", outdir]
    return Cmd("construct", argv, partial(truth.expect_corpus, d=d, attempts=attempts))


def _search(d: int, tmax: int, outdir: str) -> Cmd:
    return Cmd(
        "search",
        ["search", "--d", str(d), "--tmax", str(tmax), "-o", outdir],
        partial(truth.expect_search, d=d, tmax=tmax, outdir=outdir),
    )


def _bounds(d: int, n: int | None) -> Cmd:
    argv = ["bounds", "--d", str(d)] + ([] if n is None else ["--n", str(n)])
    return Cmd("bounds", argv, partial(truth.expect_bounds, d=d, n=n))


def _probe(inputs: _Inputs, outdir: Path) -> list[Cmd]:
    ag5 = inputs.add("probe_ag5", 25, truth.affine_plane(5))
    ag7 = inputs.add("probe_ag7", 49, truth.affine_plane(7))
    # multi-word (t = 121) but only C(56, <=2) = 1597 cases, so that the
    # probe stays cheap enough to repeat
    ag11 = inputs.add("probe_ag11_first56", 121, truth.affine_plane(11)[:56])
    written = str(outdir / "probe_ag11.dmat")
    return [
        Cmd(
            "construct",
            ["construct", "affine", "--q", "11", "-o", written],
            partial(truth.expect_affine_file, path=written, q=11),
        ),
        _construct_random(2, 12, 10, 7, 20, False, str(outdir / "probe_corpus")),
        Cmd("check", ["check", "--d", "4", ag5], partial(truth.expect_disjunct, d=4)),
        Cmd(
            "check",
            ["check", "--d", "5", ag5],
            partial(truth.expect_refutation, d=5, masks=truth.affine_plane(5)),
        ),
        _max_order(Path(ag7), 6),
        _verify_id(inputs, ag5, 3),
        _verify_id(inputs, ag11, 2),
        _analyze(inputs, ag5, 4),
        # d=1 finds and writes matrices from t=4 on; d=2 settles below t=6
        # without finding, so its time is search work alone
        _search(1, 5, str(outdir / "probe_search")),
        _search(2, 5, str(outdir / "probe_search")),
        _bounds(3, 100),
    ]


def _static(cmds: list[Cmd]) -> Stage:
    return lambda _results: cmds


def _with_probe(inputs: _Inputs, outdir: Path, stages: list[Stage]) -> list[Stage]:
    """Follow each stage with a round of the probe while rounds are left,
    then run the rest, so the probe's samples spread over the pass."""
    rounds = [_static(_probe(inputs, outdir))] * PROBE_REPEATS
    out = []
    for stage in stages:
        out.append(stage)
        if rounds:
            out.append(rounds.pop())
    return out + rounds


def planes(seed: int, indir: Path, outdir: Path) -> Workload:
    """Affine planes AG(2, q), their one-point-deleted mutants and AG(2, 5)
    plus a column on 24 of its 25 points."""
    inputs = _Inputs(indir)
    rng = random.Random(seed)
    checks: list[Cmd] = []
    refutes: list[Cmd] = []
    mutant_at = {}
    for q in PRIMES:
        plane = truth.affine_plane(q)
        path = inputs.add(f"ag{q}", q * q, plane)
        checks.append(Cmd("check", ["check", "--d", str(q - 1), path],
                          partial(truth.expect_disjunct, d=q - 1)))
        # the mutated line is a vertical one, i.e. among the last q columns,
        # so the refutation comes after the checker has cleared the rest
        j = len(plane) - q + rng.randrange(q)
        point = rng.choice(list(truth.bits(plane[j])))
        mutant = list(plane)
        mutant[j] &= ~(1 << point)
        mutant_at[q] = (j, point)
        mpath = inputs.add(f"ag{q}_mutant", q * q, mutant)
        refutes.append(Cmd(
            "check",
            ["check", "--d", str(q - 1), mpath],
            partial(truth.expect_refutation, d=q - 1, masks=mutant, column=j),
        ))
    # a q-point line meets every other line, mutant included, in at most
    # one point, so AG(2, q) is exactly (q-1)-disjunct and the mutant,
    # whose shortened line needs q-1 covering lines, exactly (q-2)-disjunct
    orders = [_max_order(indir / f"ag{q}.dmat", q - 1) for q in MAX_ORDER_PRIMES]
    orders += [_max_order(indir / f"ag{q}_mutant.dmat", q - 2) for q in MAX_ORDER_PRIMES]
    # the same n = 56 columns and d = 3, so the same 29,317 positive sets,
    # once per identification path: AG(2, 7) fits one word (t = 49), the
    # first 56 lines of AG(2, 11) need two (t = 121)
    ag11_56 = inputs.add("ag11_first56", 121, truth.affine_plane(11)[:56])
    identify = [
        _verify_id(inputs, str(indir / "ag7.dmat"), 3),
        _verify_id(inputs, ag11_56, 3),
    ]
    analyses = [_analyze(inputs, str(indir / f"ag{q}.dmat"), q - 1) for q in (5, 7, 11)]
    # its non-private pair graph is K24, the dense case of matching_number
    missing = rng.randrange(25)
    wide = truth.affine_plane(5) + [((1 << 25) - 1) & ~(1 << missing)]
    analyses.append(_analyze(inputs, inputs.add("ag5_wide", 25, wide), 4))
    bounds = [_bounds(d, n) for d, n in BOUNDS]
    spec = {"mutants": {str(q): list(at) for q, at in mutant_at.items()}, "wide_missing": missing}
    chunks = [checks + refutes, orders, identify, analyses, bounds]
    return Workload(spec, _with_probe(inputs, outdir, [_static(c) for c in chunks]))


def corpus_seeds(seed: int) -> list[int]:
    """Seed 0 reproduces the pinned conftest corpora."""
    return [base + 1000 * seed for *_, base, _, _ in CORPUS_SETS]


def corpus(seed: int, indir: Path, outdir: Path) -> Workload:
    """The five pinned random corpora, then check --max and analyze on
    the first PER_SET matrices each keeps."""
    inputs = _Inputs(indir)
    seeds = corpus_seeds(seed)
    construct = [
        _construct_random(d, t, n, s, attempts, mixed, str(outdir / f"corpus{i}"))
        for i, ((d, t, n, _, attempts, mixed), s) in enumerate(zip(CORPUS_SETS, seeds))
    ]

    def per_matrix(results: list[Result]) -> list[Cmd]:
        cmds = []
        built = [r for r in results if any(r.cmd is c for c in construct)]
        for (d, *_), result in zip(CORPUS_SETS, built):
            wrote = [line for line in result.lines if line.startswith("wrote=")]
            for line in wrote[:PER_SET]:
                path = line.split()[0][len("wrote="):]
                cmds.append(Cmd("check_max", ["check", "--max", path],
                                partial(_expect_file_order, path=path)))
                cmds.append(Cmd("analyze", ["analyze", "--d", str(d), path],
                                partial(_expect_file_analysis, path=path, d=d)))
        return cmds

    stages = [_static([c]) for c in construct] + [per_matrix]
    return Workload({"corpus_seeds": seeds}, _with_probe(inputs, outdir, stages))


def _expect_file_order(lines, rc, path):
    _, masks = truth.read_dmat(path)
    return truth.expect_max_order(lines, rc, truth.max_order(masks))


def _expect_file_analysis(lines, rc, path, d):
    t, masks = truth.read_dmat(path)
    return truth.expect_analysis(lines, rc, t, masks, d)


def search(seed: int, indir: Path, outdir: Path) -> Workload:
    """Searches that end exhausted at every t; the seed is unused."""
    inputs = _Inputs(indir)
    cmds = [_search(d, tmax, str(outdir / f"search_d{d}")) for d, tmax in SEARCHES]
    stages = _with_probe(inputs, outdir, [_static([c]) for c in cmds])
    return Workload({"searches": [list(s) for s in SEARCHES]}, stages)


WORKLOADS = {"planes": planes, "corpus": corpus, "search": search}
