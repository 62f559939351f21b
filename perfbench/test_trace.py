"""Smoke test of the traced run.

    python3 -m pytest perfbench/test_trace.py

Two traced passes over the probe (one command of every family, so every
layer works) must count exactly the same work, pass the output checks,
and report every metric that BENCHMARK.json declares.
"""

import json
import shutil
import sys
from pathlib import Path

from perfbench import run, trace, workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _probe(seed, indir, outdir):
    inputs = workloads._Inputs(indir)
    return workloads.Workload({}, workloads._with_probe(inputs, outdir, []))


def test_traced_counts_repeat_and_cover_declared_metrics():
    work = ROOT / ".perfbench_work" / "smoke"
    try:
        loop = run.measure(_probe, 0, work, seconds=0, tracing=1)
        assert loop.errors == []
        assert len(loop.digests) == 1
        assert len(loop.traced) == 2 and len(loop.plain) == 1

        first, second = (t.metrics() for t in loop.tracers)
        assert trace.deterministic(first) == trace.deterministic(second)
        runs = workloads.PROBE_REPEATS
        assert first["kernels.id_scan_cases"] == 4526 * runs  # C(30, <=3) on AG(2, 5)
        # C(56, <=2) on the first 56 lines of AG(2, 11)
        assert first["group_testing.cases_mw"] == 1597 * runs
        assert first["search.leaf_checks"] == 2 * runs  # t=4 seeded, t=5 found
        assert first["constructions.kept"] > 0
        assert first["disjunctness.cover_searches"] > 0

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        reported = set(first) | set(trace.kernel_shapes()) | {"trace.overhead_s"}
        assert {m["name"] for m in declared["per_layer"]} == reported
        e2e = run.end_to_end(loop.plain, loop.setup_s)
        assert {m["name"] for m in declared["end_to_end"]} == set(e2e)
        assert all(v > 0 for v in e2e.values())
    finally:
        shutil.rmtree(work, ignore_errors=True)
