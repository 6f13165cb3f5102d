"""Outside-in span tracer for spherecount's layers.

For a traced pass the tracer replaces public functions such as
``spherecount.alpha.sigma_min_many`` with timing wrappers and restores the
originals afterwards.  The engine reaches the sphere, polysys and alpha
functions through module attributes, and ``RoundedArithmetic`` reaches
``round_value`` as a module global, so the wrappers see every call.  Private
helpers (``_grid_point_data``, ``_canonical_map``) are not wrapped; their
time is the self time of ``engine.build_graph``.

Each span records its name, start, end, thread and parent.  A span that
starts on a worker thread with nothing open takes the innermost span open on
the main thread as its parent, which during the grid kernel is
``engine.build_graph``; otherwise ``build_graph``'s self time would absorb the
wait for its workers.  Spans stay in memory until the metrics are computed.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = {
    "cli": ("main",),
    "engine": ("count_roots", "build_graph", "connected_components", "halting_report"),
    "sphere": ("grid_lattice", "project_many", "tangent_basis_many", "pairwise_distances"),
    "polysys": ("evaluate_many", "jacobian_many"),
    "alpha": ("compute_M_many", "sigma_min_many", "newton_refine"),
    "rounding": ("round_value",),
}

# Work done by one call, read from its result.
COUNTERS = {
    "sphere.grid_lattice": lambda r: {"points": len(r)},
    "sphere.pairwise_distances": lambda r: {"pairs": len(r) * (len(r) - 1) // 2},
    "polysys.evaluate_many": lambda r: {"points": len(r[1])},
    "alpha.sigma_min_many": lambda r: {"matrices": int(np.size(r))},
    "alpha.newton_refine": lambda r: {"steps": r.steps},
    "rounding.round_value": lambda r: {"values": int(np.size(r))},
    "engine.build_graph": lambda r: {"vertices": r.n_vertices, "edges": len(r.edges)},
    "engine.count_roots": lambda r: {"halt_k": r.iterations[-1].k if r.iterations else 0},
}

# The point kernel that build_graph runs per chunk, possibly on worker threads.
KERNEL = ("sphere.project_many", "polysys.evaluate_many", "alpha.compute_M_many",
          "alpha.sigma_min_many")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("sphere.grid_lattice.s", "s"),
    ("sphere.grid_lattice.points", "count"),
    ("sphere.project_many.s", "s"),
    ("sphere.tangent_basis_many.s", "s"),
    ("sphere.pairwise_distances.s", "s"),
    ("sphere.pairwise_distances.pairs", "count"),
    ("polysys.evaluate_many.s", "s"),
    ("polysys.evaluate_many.points", "count"),
    ("polysys.jacobian_many.s", "s"),
    ("alpha.compute_M_many.self_s", "s"),
    ("alpha.sigma_min_many.s", "s"),
    ("alpha.sigma_min_many.matrices", "count"),
    ("alpha.newton_refine.s", "s"),
    ("alpha.newton_refine.steps", "count"),
    ("rounding.round_value.s", "s"),
    ("rounding.round_value.calls", "count"),
    ("rounding.round_value.values", "count"),
    ("engine.build_graph.s", "s"),
    ("engine.build_graph.self_s", "s"),
    ("engine.build_graph.kernel_concurrency", "ratio"),
    ("engine.connected_components.s", "s"),
    ("engine.halting_report.s", "s"),
    ("engine.levels", "count"),
    ("engine.vertices", "count"),
    ("engine.edges", "count"),
    ("engine.vertex_yield", "ratio"),
    ("cli.io_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict | None


def _targets():
    for mod_name, fn_names in LAYERS.items():
        module = importlib.import_module(f"spherecount.{mod_name}")
        for fn_name in fn_names:
            yield f"{mod_name}.{fn_name}", module, fn_name


def snapshot() -> dict:
    """The objects currently bound to every traced attribute."""
    return {name: getattr(module, attr) for name, module, attr in _targets()}


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []  # Span fields, in completion order
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    @property
    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.records]

    def _wrap(self, name, fn):
        # Bound once here: round_value alone is called ~10^5 times a pass.
        counter = COUNTERS.get(name)
        local, main_stack, ids, record = self._local, self._main_stack, self._ids, self.records.append
        clock, thread_id = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            record((sid, parent, name, thread_id(), start, end, counter(result) if counter else None))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        originals = [(name, module, attr, getattr(module, attr)) for name, module, attr in _targets()]
        for name, module, attr, fn in originals:
            setattr(module, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for _, module, attr, fn in originals:
                setattr(module, attr, fn)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Totals over the spans of one pass."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.by_name[name])

    def self_seconds(self, name: str) -> float:
        """Duration minus the part of it that child spans, on any thread, cover."""
        total = 0.0
        for s in self.by_name[name]:
            covered = _union_length(
                (max(c.start, s.start), min(c.end, s.end)) for c in self.children[s.sid]
            )
            total += (s.end - s.start) - covered
        return total

    def count(self, name: str, key: str | None = None) -> int:
        spans = self.by_name[name]
        if key is None:
            return len(spans)
        return sum(s.counts[key] for s in spans)

    def kernel_concurrency(self) -> float:
        """Busy seconds of the point kernel over the wall time it spans."""
        graphs = {s.sid for s in self.by_name["engine.build_graph"]}
        kernel = [s for name in KERNEL for s in self.by_name[name] if s.parent in graphs]
        union = _union_length((s.start, s.end) for s in kernel)
        return sum(s.end - s.start for s in kernel) / union if union else 0.0

    def repeat_counts(self) -> dict:
        """Counts that must repeat exactly on every pass and run of one seed."""
        return {
            "engine.levels": self.count("engine.build_graph"),
            "engine.vertices": self.count("engine.build_graph", "vertices"),
            "engine.edges": self.count("engine.build_graph", "edges"),
            "polysys.evaluate_many.points": self.count("polysys.evaluate_many", "points"),
            "rounding.round_value.values": self.count("rounding.round_value", "values"),
            "alpha.newton_refine.steps": self.count("alpha.newton_refine", "steps"),
            "halting_levels": [s.counts["halt_k"] for s in
                               sorted(self.by_name["engine.count_roots"], key=lambda s: s.start)],
        }

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac."""
        root_s = self.seconds("cli.main")
        points = self.count("polysys.evaluate_many", "points")
        m = {
            "sphere.grid_lattice.s": self.seconds("sphere.grid_lattice"),
            "sphere.grid_lattice.points": self.count("sphere.grid_lattice", "points"),
            "sphere.project_many.s": self.seconds("sphere.project_many"),
            "sphere.tangent_basis_many.s": self.seconds("sphere.tangent_basis_many"),
            "sphere.pairwise_distances.s": self.seconds("sphere.pairwise_distances"),
            "sphere.pairwise_distances.pairs": self.count("sphere.pairwise_distances", "pairs"),
            "polysys.evaluate_many.s": self.seconds("polysys.evaluate_many"),
            "polysys.jacobian_many.s": self.seconds("polysys.jacobian_many"),
            "alpha.compute_M_many.self_s": self.self_seconds("alpha.compute_M_many"),
            "alpha.sigma_min_many.s": self.seconds("alpha.sigma_min_many"),
            "alpha.sigma_min_many.matrices": self.count("alpha.sigma_min_many", "matrices"),
            "alpha.newton_refine.s": self.seconds("alpha.newton_refine"),
            "rounding.round_value.s": self.seconds("rounding.round_value"),
            "rounding.round_value.calls": self.count("rounding.round_value"),
            "engine.build_graph.s": self.seconds("engine.build_graph"),
            "engine.build_graph.self_s": self.self_seconds("engine.build_graph"),
            "engine.build_graph.kernel_concurrency": self.kernel_concurrency(),
            "engine.connected_components.s": self.seconds("engine.connected_components"),
            "engine.halting_report.s": self.seconds("engine.halting_report"),
            "engine.vertex_yield": self.count("engine.build_graph", "vertices") / points,
            "cli.io_s": root_s - self.seconds("engine.count_roots"),
            # Inside count_roots, on its own thread, outside every layer span.
            "trace.unattributed_frac": self.self_seconds("engine.count_roots") / root_s,
        }
        for key, value in self.repeat_counts().items():
            if key != "halting_levels":
                m[key] = value
        return m
