#!/usr/bin/env python3
"""End-to-end benchmark of the ``disjunct`` CLI.

    python3 perfbench/run.py --workload planes --seed 0 --seconds 25 --trace 0

One process, one closed-loop client, no threads.  Three times before
every pass, set-up imports the program afresh and writes the workload's
inputs, generated from ``--seed``, as ``.dmat`` files; its median is
``setup_s``.  A pass runs the workload's command list through
``disjunct.cli.main`` in this process; passes repeat until they have
taken ``--seconds``.  Times are scaled to a nominal host speed measured
while they run (``speed.py``).  Each command's exit code and stdout are
checked against independent truths (``truth.py``) outside the timed
region; later passes must print exactly what the first printed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json: medians over passes.  With ``--trace 1`` traced and
untraced passes alternate and it reports the per-layer metrics, medians
over traced passes, plus the tracing overhead.  The line before it is a
record of the environment, the input digest and every command's median.
Spans of the traced passes go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import speed, trace, workloads  # noqa: E402


def _import_program():
    """Import ``disjunct.cli`` afresh, as a new CLI process would."""
    for name in [m for m in sys.modules if m == "disjunct" or m.startswith("disjunct.")]:
        del sys.modules[name]
    return importlib.import_module("disjunct.cli")


def _digest(indir: Path, spec: dict) -> str:
    h = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    for path in sorted(indir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(make, seed: int, work: Path, host: speed.HostSpeed):
    """Import the program afresh and write the inputs.

    Returns (cli module, workload, seconds taken scaled to the nominal
    host speed, digest of the inputs).
    """
    shutil.rmtree(work / "in", ignore_errors=True)
    (work / "in").mkdir(parents=True)
    # let the collector reach what run_command froze, such as the modules
    # of the previous import
    gc.unfreeze()
    gc.collect()
    with host.running():
        start, paused = time.perf_counter(), host.paused_s
        cli = _import_program()
        workload = make(seed, work / "in", work / "out")
        end = time.perf_counter()
    seconds = end - start - (host.paused_s - paused)
    scaled = speed.scale(seconds, host.reference(start, end))
    return cli, workload, scaled, _digest(work / "in", workload.spec)


def run_command(cli, cmd, tracer, host: speed.HostSpeed):
    """Runs one command; returns (result, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    # start each command with the collector as clean as a new process's:
    # earlier commands' garbage collected, and the benchmark's own objects
    # out of the generations that the command's collections scan
    gc.collect()
    gc.freeze()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, paused = time.perf_counter(), host.paused_s
        try:
            if tracer is None:
                rc = cli.main(cmd.argv)
            else:
                with tracer.command(f"cli.{cmd.argv[0]}"):
                    rc = cli.main(cmd.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the run
            rc = -1
            err.write(traceback.format_exc())
        end = time.perf_counter()
    seconds = end - start - (host.paused_s - paused)
    return workloads.Result(cmd, rc, out.getvalue(), seconds), err.getvalue(), start, end


def run_pass(cli, workload, outdir: Path, host: speed.HostSpeed, tracer=None):
    """One pass over every stage; returns (results, stderr per command).

    Untraced passes sample the host's speed (``speed.py``) throughout and
    give each result the reference around it; traced passes do not, so
    that sampling never lands inside a layer's span.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    results, stderr, spans = [], [], []
    with host.running() if tracer is None else contextlib.nullcontext():
        for stage in workload.stages:
            for cmd in stage(results):
                result, err, start, end = run_command(cli, cmd, tracer, host)
                results.append(result)
                stderr.append(err)
                spans.append((start, end))
    if tracer is None:
        for result, (start, end) in zip(results, spans):
            result.reference_s = host.reference(start, end)
    return results, stderr


def check_pass(results, stderr, first) -> list[str]:
    """Errors of one pass: truths on the first pass, identity with the
    first pass afterwards."""
    errors = []
    for i, (result, err) in enumerate(zip(results, stderr)):
        argv = " ".join(result.cmd.argv)
        if first is None:
            try:
                problem = result.cmd.check(result.lines, result.rc)
            except Exception as exc:  # unparseable output is a wrong output
                problem = f"check raised {exc!r}"
        elif i >= len(first) or (first[i].cmd.argv, first[i].rc, first[i].stdout) != (
            result.cmd.argv, result.rc, result.stdout
        ):
            problem = "output differs from the first pass"
        else:
            problem = None
        if problem:
            errors.append(f"{argv}: {problem} {err.strip()[-300:]}".strip())
    if first is not None and len(results) != len(first):
        errors.append(f"pass ran {len(results)} commands, the first ran {len(first)}")
    return errors


def environment() -> dict:
    import numpy

    disjunct = sys.modules["disjunct"]
    backend = getattr(disjunct, "active_backend", None)
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numba_imports": has_numba,
        "backend": backend() if backend else None,
        "platform": platform.platform(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def command_medians(passes, raw=False) -> list[tuple[workloads.Cmd, int, float]]:
    """(command, runs per pass, median scaled -- or raw -- seconds over all
    its runs)."""
    samples: dict[tuple, list] = {}
    for results, _ in passes:
        for r in results:
            seconds = r.seconds if raw else r.scaled_s
            samples.setdefault(tuple(r.cmd.argv), [r.cmd]).append(seconds)
    per_pass = len(passes)
    return [
        (cmd, len(secs) // per_pass, _median(secs))
        for cmd, *secs in samples.values()
    ]


def end_to_end(passes, setup_seconds) -> dict[str, float]:
    """Family times: per pass, each command's median times its runs."""
    family = dict.fromkeys(workloads.FAMILIES, 0.0)
    for cmd, runs, median in command_medians(passes):
        family[cmd.family] += runs * median
    return {
        "setup_s": _median(setup_seconds),
        "wall_s": _median([wall for _, wall in passes]),
        "check_s": family["check"],
        "check_max_s": family["check_max"],
        "verify_id_1w_s": family["verify_id_1w"],
        "verify_id_mw_s": family["verify_id_mw"],
        "analyze_s": family["analyze"],
        "construct_s": family["construct"],
        "search_s": family["search"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(loop, errors: list[str]) -> dict[str, float]:
    """Medians over traced passes, whose work counts must all agree."""
    per_pass = [t.metrics() for t in loop.tracers]
    counts = [trace.deterministic(m) for m in per_pass]
    if any(c != counts[0] for c in counts):
        errors.append("deterministic counts differ between traced passes")
    metrics = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    metrics.update(counts[0])
    raw_plain = [sum(r.seconds for r in results) for results, _ in loop.plain]
    metrics["trace.overhead_s"] = _median([w for _, w in loop.traced]) - _median(raw_plain)
    metrics.update(trace.kernel_shapes())
    return metrics


SETUP_REPEATS = 3


@dataclass
class Loop:
    plain: list = field(default_factory=list)  # (results, seconds) per pass
    traced: list = field(default_factory=list)
    tracers: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spec: dict = field(default_factory=dict)


def measure(make, seed: int, work: Path, seconds: float, tracing: int) -> Loop:
    """Set up, then run a pass, until passes have taken ``seconds``.

    Set-up, ``SETUP_REPEATS`` times before every pass, spreads its samples
    over the run; the pass uses the last.  When
    tracing, traced and untraced passes alternate, traced first, and at
    least two are traced.
    """
    loop, first, measured, host = Loop(), None, 0.0, speed.HostSpeed()
    while measured < seconds or not loop.plain or (tracing and len(loop.traced) < 2):
        for _ in range(SETUP_REPEATS):
            cli, workload, setup_s, digest = set_up(make, seed, work, host)
            loop.setup_s.append(setup_s)
            loop.digests.add(digest)
        loop.spec = workload.spec
        tracer = None
        if tracing and len(loop.traced) <= len(loop.plain):
            tracer = trace.Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            results, stderr = run_pass(cli, workload, work / "out", host, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        measured += time.perf_counter() - start
        problems = check_pass(results, stderr, first)
        loop.failed += len(problems)
        loop.errors += problems
        loop.attempted += len(results)
        first = first or results
        # scaled seconds; a traced pass's results are unscaled
        wall = sum(r.scaled_s for r in results)
        if tracer is None:
            loop.plain.append((results, wall))
        else:
            loop.traced.append((results, wall))
            loop.tracers.append(tracer)
    if len(loop.digests) != 1:
        loop.errors.append("set-up wrote different inputs")
    return loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "disjunct" / "__init__.py").is_file():
        print(f"perfbench: no disjunct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    base = Path(".perfbench_work")
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        loop = measure(workloads.WORKLOADS[args.workload], args.seed, work,
                       args.seconds, args.trace)
        errors = loop.errors
        base.mkdir(exist_ok=True)
        if args.trace:
            metrics = per_layer(loop, errors)
            spans = base / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps([t.dump() for t in loop.tracers]))
        else:
            metrics = end_to_end(loop.plain, loop.setup_s)

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "inputs_digest": sorted(loop.digests)[0],
            "spec": loop.spec,
            "environment": environment(),
            "passes": {"untraced": len(loop.plain), "traced": len(loop.traced)},
            "setup_samples_s": loop.setup_s,
            "reference_median_s": _median(
                [r.reference_s for results, _ in loop.plain for r in results]
            ),
            "reference_nominal_s": speed.NOMINAL_S,
            "failed_frac": loop.failed / loop.attempted,
            "errors": errors[:20],
        }
        commands = [
            {"argv": " ".join(cmd.argv), "family": cmd.family,
             "runs_per_pass": runs, "median_s": median, "raw_median_s": raw[2]}
            for (cmd, runs, median), raw in zip(command_medians(loop.plain),
                                                 command_medians(loop.plain, raw=True))
        ]
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (base / f"result-{stem}.json").write_text(
            json.dumps({**record, "metrics": metrics, "commands": commands}, indent=1)
        )
        for m in section:
            print(f"{m['name']}={metrics[m['name']]!r} {m['unit']}")
        print(f"failed_frac={loop.failed / loop.attempted!r} 1")
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": not errors,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section
            },
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
