"""Command-line interface.

Exit codes: 0 when the requested property holds (or plain output was
produced), 1 when a property was refuted with a witness, 2 on usage or
input errors.  All diagnostic output goes to stderr; stdout carries
stable ``key=value`` lines so the commands compose in shell pipelines.

Each ``main`` call registers every command, so usage lines and errors
list them all, but builds only the options of the command its first
argument names: building all of them costs about as much as a small
command's work.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import KAPPA, lower_bounds, t_dn_lower_bound
from .constructions import affine_plane_matrix, identity_matrix, random_disjunct_corpus
from .disjunctness import is_d_disjunct, max_disjunct_order
from .group_testing import (
    BudgetExceededError,
    OutcomeVector,
    naive_decode,
    verify_identification,
)
from .matrix import BinaryMatrix, _text_blocks, load_matrix, save_matrix
from .pairs import analyze_pairs
from .search import exhaustive_T


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _write_output(matrix: BinaryMatrix, target: str) -> None:
    if target == "-":
        sys.stdout.writelines(_text_blocks(matrix))  # 64 rows at a time
    else:
        save_matrix(matrix, target)
        print(f"wrote={target} t={matrix.t} n={matrix.n}")


def _cmd_construct(args) -> int:
    if args.kind == "affine":
        _write_output(affine_plane_matrix(args.q), args.output)
    elif args.kind == "identity":
        _write_output(identity_matrix(args.n), args.output)
    else:  # random
        corpus = random_disjunct_corpus(
            args.d,
            args.t,
            args.n,
            args.seed,
            args.attempts,
            mixed_weights=args.mixed_weights,
            isolated_free=args.isolated_free,
        )
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, matrix in enumerate(corpus):
            path = outdir / f"d{args.d}_s{args.seed}_{i:03d}.dmat"
            save_matrix(matrix, path)
            print(f"wrote={path} t={matrix.t} n={matrix.n}")
        print(f"kept={len(corpus)} attempts={args.attempts}")
    return 0


def _cmd_check(args) -> int:
    matrix = load_matrix(args.file)
    if args.max:
        print(f"max_disjunct_order={max_disjunct_order(matrix)}")
        return 0
    verdict = is_d_disjunct(matrix, args.d)
    if verdict.is_disjunct:
        suffix = " vacuous=true" if verdict.vacuous else ""
        print(f"DISJUNCT d={args.d}{suffix}")
        return 0
    witness = verdict.witness
    print(f"NOT DISJUNCT d={args.d}")
    print(f"column={witness.column}")
    print(f"cover={','.join(str(c) for c in witness.covering)}")
    return 1


def _cmd_analyze(args) -> int:
    matrix = load_matrix(args.file)
    d = args.d
    analysis = analyze_pairs(matrix, d)
    if analysis.vacuous:
        print(f"note=d={d} >= n={matrix.n} is vacuous; pair-bound checks skipped")
    elif not analysis.disjunct:
        print(f"note=matrix is not {d}-disjunct; pair-bound checks skipped")
    if analysis.isolated:
        count = len(analysis.isolated)
        print(f"note={count} isolated columns; pair-bound checks skipped")
    refuted = False
    for c in analysis.columns:
        if c.bound is None:
            bound, status = "-", "n/a"
        else:
            ok = c.bound_ok and c.matching_ok
            bound, status = str(c.bound), "pass" if ok else "fail"
            if not c.in_range:
                status += "-out-of-range"
            elif not ok:
                refuted = True
        print(
            f"column={c.column} weight={c.weight} private={c.private}"
            f" nonprivate={c.nonprivate} matching={c.matching}"
            f" bound={bound} lemma3={status}"
        )
    print(
        f"private_total={analysis.private_total} pair_budget={analysis.pair_budget}"
        f" budget_ok={_bool(analysis.private_total <= analysis.pair_budget)}"
    )
    return 1 if refuted else 0


def _cmd_decode(args) -> int:
    matrix = load_matrix(args.file)
    outcome = OutcomeVector.from_bitstring(args.outcomes)
    candidates = sorted(naive_decode(matrix, outcome))
    print(f"candidates={','.join(str(c) for c in candidates)}")
    return 0


def _cmd_verify_id(args) -> int:
    matrix = load_matrix(args.file)
    report = verify_identification(matrix, args.d, max_cases=args.max_cases)
    if report.ok:
        print(f"IDENTIFIABLE d={args.d} cases={report.cases}")
        return 0
    print(f"NOT IDENTIFIABLE d={args.d}")
    print(f"failing_set={','.join(str(j) for j in report.failure)}")
    return 1


def _cmd_bounds(args) -> int:
    report = lower_bounds(args.d)
    tdn = None if args.n is None else t_dn_lower_bound(args.d, args.n)
    print(f"d={report.d}")
    print(f"bassalygo={report.bassalygo}")
    print(f"theorem2_real={report.theorem2_real!r}")
    print(f"theorem2={report.theorem2}")
    print(f"conjecture={report.conjecture_strong}")
    print(f"combined={report.combined}")
    print(f"kappa={KAPPA!r}")
    if tdn is not None:
        print(f"n={tdn.n}")
        print(f"t_dn={tdn.value}")
        print(f"dominant={tdn.dominant}")
    return 0


def _cmd_search(args) -> int:
    certificates = exhaustive_T(args.d, args.tmax, budget=args.budget)
    outdir = Path(args.output) if args.output else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for cert in certificates:
        print(
            f"t={cert.t} found={_bool(cert.found)}"
            f" exhausted={_bool(cert.exhausted)} nodes={cert.nodes}"
        )
        if cert.found and outdir is not None:
            path = outdir / f"t{cert.t}_d{cert.d}.dmat"
            save_matrix(cert.matrix, path)
            print(f"wrote={path}")
    return 0


def _construct_options(construct: argparse.ArgumentParser) -> None:
    kinds = construct.add_subparsers(dest="kind", required=True)
    affine = kinds.add_parser("affine", help="affine plane incidence matrix")
    affine.add_argument("--q", type=int, required=True, help="prime order")
    affine.add_argument("-o", "--output", required=True, help=".dmat path or -")
    identity = kinds.add_parser("identity", help="identity matrix")
    identity.add_argument("--n", type=int, required=True)
    identity.add_argument("-o", "--output", required=True, help=".dmat path or -")
    rand = kinds.add_parser("random", help="random verified d-disjunct corpus")
    rand.add_argument("--d", type=int, required=True)
    rand.add_argument("--t", type=int, required=True)
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--attempts", type=int, required=True)
    rand.add_argument("--mixed-weights", action="store_true")
    rand.add_argument("--isolated-free", action="store_true")
    rand.add_argument("-o", "--output", required=True, help="output directory")
    construct.set_defaults(func=_cmd_construct)


def _check_options(check: argparse.ArgumentParser) -> None:
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="order to verify")
    group.add_argument("--max", action="store_true", help="report the largest order")
    check.add_argument("file", help=".dmat input")
    check.set_defaults(func=_cmd_check)


def _analyze_options(analyze: argparse.ArgumentParser) -> None:
    analyze.add_argument("--d", type=int, required=True)
    analyze.add_argument("file", help=".dmat input")
    analyze.set_defaults(func=_cmd_analyze)


def _decode_options(decode: argparse.ArgumentParser) -> None:
    decode.add_argument("--outcomes", required=True, help="length-t bitstring")
    decode.add_argument("file", help=".dmat input")
    decode.set_defaults(func=_cmd_decode)


def _verify_id_options(verify_id: argparse.ArgumentParser) -> None:
    verify_id.add_argument("--d", type=int, required=True)
    verify_id.add_argument("--max-cases", type=int, default=2_000_000)
    verify_id.add_argument("file", help=".dmat input")
    verify_id.set_defaults(func=_cmd_verify_id)


def _bounds_options(bounds: argparse.ArgumentParser) -> None:
    bounds.add_argument("--d", type=int, required=True)
    bounds.add_argument("--n", type=int, default=None)
    bounds.set_defaults(func=_cmd_bounds)


def _search_options(search: argparse.ArgumentParser) -> None:
    search.add_argument("--d", type=int, required=True)
    search.add_argument("--tmax", type=int, required=True)
    search.add_argument("--budget", type=int, default=2_000_000, help="DFS node budget")
    search.add_argument("-o", "--output", default=None, help="directory for found matrices")
    search.set_defaults(func=_cmd_search)


# every command, in the order of the usage line: its help, and what adds its options
_COMMANDS = {
    "construct": ("generate matrices", _construct_options),
    "check": ("exact disjunctness check", _check_options),
    "analyze": ("per-column private-pair analysis", _analyze_options),
    "decode": ("naive decoder for an outcome vector", _decode_options),
    "verify-id": ("exhaustive identification guarantee check", _verify_id_options),
    "bounds": ("evaluate row lower bounds", _bounds_options),
    "search": ("exhaustive search for T(d) certificates", _search_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``disjunct`` parser.  Every command is registered with its help,
    so usage lines and errors list them all; when ``command`` names one,
    only that command's options are built, otherwise every command's."""
    parser = argparse.ArgumentParser(
        prog="disjunct",
        description="Construct, verify and analyze d-disjunct group-testing matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command not in _COMMANDS or name == command:
            add_options(subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command name first in argv is the command argparse dispatches to,
    # and no other command's options are read
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
