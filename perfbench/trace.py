"""Outside-in layer tracing of the disjunct library.

:class:`Tracer` replaces public (and a few hot private) functions of the
``disjunct`` modules with timing wrappers while it is installed, and puts
the originals back on :meth:`Tracer.uninstall`.  Low-frequency calls get
one span each (name, start, end, parent).  Calls that can number in the
millions -- the cover search, the sampler's column placement, kernels,
pair classification -- are aggregated as count plus total time per
parent span.  Self time is computed online: a frame's duration minus the
time of the wrapped calls directly under it, so every instant is
attributed to the innermost wrapped call.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


def _nbytes(args, result) -> int:
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return total + (result.nbytes if isinstance(result, np.ndarray) else 0)


# per-call hooks: (counters, args, result, seconds) -> None


def _read_bytes(c, args, result, dt):
    c["matrix.read_bytes"] += os.path.getsize(args[0])


def _save_bytes(c, args, result, dt):
    c["matrix.write_bytes"] += os.path.getsize(args[1])


def _text_bytes(c, args, result, dt):
    c["matrix.write_bytes"] += len(result)


def _kernel(c, args, result, dt):
    c["kernels.bytes_computed"] += _nbytes(args, result)


def _id_scan(c, args, result, dt):
    _kernel(c, args, result, dt)
    c["kernels.id_scan_cases"] += args[1].shape[0]


def _verdict(c, args, result, dt):
    c["disjunctness.refuted"] += not result.is_disjunct


def _corpus(c, args, result, dt):
    c["constructions.attempts"] += args[4]
    c["constructions.kept"] += len(result)


def _placement(c, args, result, dt):
    c["constructions.sampler_dead_ends"] += result is None


def _identification(c, args, result, dt):
    path = "1w" if args[0].t <= 64 else "mw"
    c[f"group_testing.cases_{path}"] += result.cases
    c[f"group_testing.verify_{path}_s"] += dt


def _matching(c, args, result, dt):
    c["pairs.matching_max_vertices"] = max(
        c["pairs.matching_max_vertices"], len(args[0].vertices)
    )


def _certificates(c, args, result, dt):
    c["search.nodes"] += sum(cert.nodes for cert in result)
    c["search.exhausted_certs"] += sum(cert.exhausted for cert in result)


# (module, attribute, frame name, aggregated, hook)
TARGETS = [
    ("cli", "load_matrix", "matrix.read", False, _read_bytes),
    ("cli", "save_matrix", "matrix.write", False, _save_bytes),
    ("cli", "write_matrix", "matrix.write", False, _text_bytes),
    ("cli", "is_d_disjunct", "disjunctness.check", False, _verdict),
    ("constructions", "is_d_disjunct", "disjunctness.check", False, _verdict),
    ("search", "is_d_disjunct", "disjunctness.check", False, _verdict),
    ("pairs", "is_d_disjunct", "disjunctness.check", False, _verdict),
    ("cli", "max_disjunct_order", "disjunctness.max_order", False, None),
    ("constructions", "peel_to_core", "disjunctness.peel", False, None),
    ("disjunctness", "_cover_search", "disjunctness.cover_search", True, None),
    ("search", "_cover_search", "disjunctness.cover_search", True, None),
    ("cli", "random_disjunct_corpus", "constructions.corpus", False, _corpus),
    ("cli", "affine_plane_matrix", "constructions.affine", False, None),
    ("constructions", "_place_column", "constructions.place_column", True, _placement),
    ("cli", "verify_identification", "group_testing.verify", False, _identification),
    ("cli", "classify_pairs", "pairs.classify", True, None),
    ("pairs", "classify_pairs", "pairs.classify", True, None),
    ("cli", "matching_number", "pairs.matching", True, _matching),
    ("pairs", "matching_number", "pairs.matching", True, _matching),
    ("cli", "verify_lemma3", "pairs.lemma3", False, None),
    ("cli", "exhaustive_T", "search.exhaustive", False, _certificates),
    ("cli", "lower_bounds", "bounds.lower", False, None),
    ("cli", "t_dn_lower_bound", "bounds.t_dn", False, None),
] + [
    ("_kernels", name, f"kernels.{name}", True, _id_scan if name == "identification_scan" else _kernel)
    for name in (
        "column_weights",
        "subset_columns",
        "intersection_counts",
        "row_degrees",
        "matching_numbers_table",
        "identification_scan",
    )
]


def deterministic(metrics: dict[str, float]) -> dict[str, float]:
    """The work counts, which must repeat exactly; times end in ``s``."""
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent span id, start, end]
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.by_parent: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(int)
        self._stack = [_Frame("root", None)]
        self._originals: list[tuple] = []

    def _enter(self, name, aggregated, start):
        parent = self._stack[-1]
        if aggregated:
            frame = _Frame(name, parent.span_id)
        else:
            frame = _Frame(name, len(self.spans))
            self.spans.append([name, parent.span_id, start, None])
        self._stack.append(frame)
        return parent, frame

    def _exit(self, parent, frame, aggregated, start, end):
        self._stack.pop()
        dt = end - start
        parent.child_s += dt
        st = self.stats[frame.name]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame.child_s
        bp = self.by_parent[(frame.name, parent.name)]
        bp[0] += 1
        bp[1] += dt
        if aggregated:
            agg = self.aggregates[(parent.span_id, frame.name)]
            agg[0] += 1
            agg[1] += dt
        else:
            self.spans[frame.span_id][3] = end
        return dt

    def _wrap(self, fn, name, aggregated, hook):
        enter, leave, counters = self._enter, self._exit, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            parent, frame = enter(name, aggregated, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = leave(parent, frame, aggregated, start, clock())
            if hook is not None:
                hook(counters, args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def command(self, name):
        start = time.perf_counter()
        parent, frame = self._enter(name, False, start)
        try:
            yield
        finally:
            self._exit(parent, frame, False, start, time.perf_counter())

    def install(self):
        """Wrap every target the loaded ``disjunct`` package still has."""
        for module, attr, name, aggregated, hook in TARGETS:
            mod = sys.modules.get(f"disjunct.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, aggregated, hook))

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(self.spans)
            ],
            "aggregates": [
                {"parent": p, "name": n, "count": c, "total_s": t}
                for (p, n), (c, t) in self.aggregates.items()
            ],
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since construction."""
        st, bp, c = self.stats, self.by_parent, self.counters

        def calls(*names):
            return sum(st[n][0] for n in names if n in st)

        def total(*names):
            return sum(st[n][1] for n in names if n in st)

        def layer_self(layer):
            return sum(v[2] for n, v in st.items() if n.split(".")[0] == layer)

        def under(parent, *names):
            return [bp[(n, parent)] for n in names if (n, parent) in bp]

        kernels = [n for n in st if n.startswith("kernels.")]
        attempts = c["constructions.attempts"]
        leaves = under("search.exhaustive", "disjunctness.check")
        checked = under("constructions.corpus", "disjunctness.check", "disjunctness.peel")
        search_s = total("search.exhaustive")
        return {
            "matrix.read_calls": calls("matrix.read"),
            "matrix.read_bytes": c["matrix.read_bytes"],
            "matrix.read_s": total("matrix.read"),
            "matrix.write_calls": calls("matrix.write"),
            "matrix.write_bytes": c["matrix.write_bytes"],
            "matrix.write_s": total("matrix.write"),
            "kernels.calls": calls(*kernels),
            "kernels.bytes_computed": c["kernels.bytes_computed"],
            "kernels.self_s": layer_self("kernels"),
            "kernels.id_scan_cases": c["kernels.id_scan_cases"],
            "kernels.id_scan_s": total("kernels.identification_scan"),
            "disjunctness.checks": calls("disjunctness.check"),
            "disjunctness.refuted": c["disjunctness.refuted"],
            "disjunctness.check_s": total("disjunctness.check"),
            "disjunctness.max_order_calls": calls("disjunctness.max_order"),
            "disjunctness.max_order_s": total("disjunctness.max_order"),
            "disjunctness.peel_calls": calls("disjunctness.peel"),
            "disjunctness.peel_s": total("disjunctness.peel"),
            "disjunctness.cover_searches": calls("disjunctness.cover_search"),
            "disjunctness.self_s": layer_self("disjunctness"),
            "constructions.attempts": attempts,
            "constructions.kept": c["constructions.kept"],
            "constructions.keep_ratio": c["constructions.kept"] / attempts if attempts else 0.0,
            "constructions.sampler_dead_ends": c["constructions.sampler_dead_ends"],
            "constructions.self_s": layer_self("constructions"),
            "constructions.verify_s": sum(v[1] for v in checked),
            "group_testing.cases_1w": c["group_testing.cases_1w"],
            "group_testing.cases_mw": c["group_testing.cases_mw"],
            "group_testing.verify_1w_s": c["group_testing.verify_1w_s"],
            "group_testing.verify_mw_s": c["group_testing.verify_mw_s"],
            "group_testing.self_s": layer_self("group_testing"),
            "pairs.classify_calls": calls("pairs.classify"),
            "pairs.classify_s": total("pairs.classify"),
            "pairs.matching_calls": calls("pairs.matching"),
            "pairs.matching_max_vertices": c["pairs.matching_max_vertices"],
            "pairs.matching_s": total("pairs.matching"),
            "pairs.lemma3_calls": calls("pairs.lemma3"),
            "pairs.lemma3_s": total("pairs.lemma3"),
            "search.nodes": c["search.nodes"],
            "search.exhausted_certs": c["search.exhausted_certs"],
            "search.leaf_checks": sum(v[0] for v in leaves),
            "search.leaf_check_s": sum(v[1] for v in leaves),
            "search.s": search_s,
            "search.nodes_per_s": c["search.nodes"] / search_s if search_s else 0.0,
            "bounds.calls": calls("bounds.lower", "bounds.t_dn"),
            "bounds.s": total("bounds.lower", "bounds.t_dn"),
            "cli.commands": calls(*(n for n in st if n.startswith("cli."))),
            "cli.overhead_s": layer_self("cli"),
        }


def _timed(fn, min_reps=3, min_s=0.1, max_reps=50) -> float:
    """Median seconds of ``fn()`` after one warm-up call."""
    fn()
    samples = []
    while len(samples) < min_reps or (sum(samples) < min_s and len(samples) < max_reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def kernel_shapes() -> dict[str, float]:
    """Kernel timings on fixed shapes, called directly, untraced."""
    kernels = sys.modules["disjunct._kernels"]
    pairs = sys.modules["disjunct.pairs"]
    disjunct = sys.modules["disjunct"]
    rng = np.random.default_rng(0)
    t, n = 4096, 2048
    words = rng.integers(0, 1 << 63, size=(n, t // 64), dtype=np.int64).astype(np.uint64)
    mask = words[0].copy()
    masks7, sizes7 = pairs.complete_graph_matchings(7)
    plane = disjunct.affine_plane_matrix(5)
    shapes = {
        "kernels.shape.column_weights_2048x4096_s": lambda: kernels.column_weights(words),
        "kernels.shape.subset_columns_2048x4096_s": lambda: kernels.subset_columns(words, mask),
        "kernels.shape.intersection_counts_2048x4096_s": lambda: kernels.intersection_counts(words, mask),
        "kernels.shape.row_degrees_2048x4096_s": lambda: kernels.row_degrees(words, t),
        "kernels.shape.matching_table_k7_s": lambda: kernels.matching_numbers_table(21, masks7, sizes7),
        "kernels.shape.verify_id_ag5_d4_s": lambda: disjunct.verify_identification(plane, 4),
        "kernels.shape.matching_all_graphs_k6_s": lambda: pairs.matching_numbers_all_graphs(6),
    }
    return {name: _timed(fn) for name, fn in shapes.items()}
