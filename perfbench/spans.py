"""Per-layer spans recorded from outside the library.

Each span wraps one public callable of an `expandec` module.  A wrapped
function is replaced in every `expandec` namespace that binds it (for example
`compute_walk` in `walks`, `cuts` and `decomposition`), otherwise calls through
the other names would go untraced; a wrapped method is replaced on its class.
A span's self time is its duration minus the time of the spans it encloses.
Counts are read from arguments and return values.  Wrappers exist only inside
`Tracer.installed()`, so an untraced pass runs the library unmodified.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


# -- counters read from arguments and return values ---------------------------


def _view_built(c, args, kwargs, out):
    view = args[0]
    c["views.build.verts"] += len(view.verts)
    c["views.build.edges"] += view.m_live


def _oracle_built(c, args, kwargs, out):
    view = args[1] if len(args) > 1 else kwargs["view"]
    c["clustering.oracle.cells"] += len(view.verts) * view.m_live


def _walk(c, args, kwargs, out):
    c["walks.steps_stored"] += out.t_last
    c["walks.steps_horizon"] += out.t0
    c["walks.vertex_steps"] += out.t_last * len(out.view.verts)


def _scan(c, args, kwargs, out):
    run = args[1] if len(args) > 1 else kwargs["run"]
    c["cuts.scan.steps"] += out.t if out is not None else min(run.t0, run.t_last)
    c["cuts.scan.hits"] += out is not None


def _balanced(c, args, kwargs, out):
    c["cuts.balanced.found"] += out is not None


def _concurrent(c, args, kwargs, out):
    c["cuts.concurrent.aborts"] += out.aborted_overlap


def _lowdiam(c, args, kwargs, out):
    c["clustering.lowdiam.cut_edges"] += len(out.cut_edges)


def _decomposition(c, args, kwargs, out):
    for ch, edges in out.removed.items():
        c[f"decomposition.removed.{ch}"] += len(edges)
    c["decomposition.phase2.entries"] += len(out.diagnostics["phase2"])
    c["decomposition.max_depth"] = max(c["decomposition.max_depth"], out.diagnostics["max_depth"])


def _triangles(c, args, kwargs, out):
    c["triangles.levels"] += len(out.levels)


@dataclass(frozen=True)
class Span:
    name: str
    module: str
    attr: str
    cls: str | None = None
    count: Callable | None = None


SPANS = (
    Span("graph.build", "expandec.graph", "__init__", cls="Graph"),
    Span("graph.oracle", "expandec.graph", "min_conductance_oracle"),
    Span("graph.mixing", "expandec.graph", "mixing_time_estimate"),
    Span("views.build", "expandec.views", "__init__", cls="ActiveView", count=_view_built),
    Span("simulator.bfs_tree", "expandec.simulator", "bfs_tree"),
    Span("simulator.run_round", "expandec.simulator", "run_round", cls="Network"),
    Span("simulator.sample", "expandec.simulator", "sample_by_degree"),
    Span("simulator.sample", "expandec.simulator", "subtree_degrees"),
    Span("walks.compute_walk", "expandec.walks", "compute_walk", count=_walk),
    Span("cuts.scan_run", "expandec.cuts", "scan_run", count=_scan),
    Span("cuts.balanced", "expandec.cuts", "balanced_sparse_cut", count=_balanced),
    Span("cuts.concurrent", "expandec.cuts", "concurrent_local_cuts", count=_concurrent),
    Span("clustering.oracle", "expandec.clustering", "__init__", cls="NeighborhoodOracle",
         count=_oracle_built),
    Span("clustering.split", "expandec.clustering", "build_dense_sparse_split"),
    Span("clustering.shift", "expandec.clustering", "exponential_shift_clustering"),
    Span("clustering.lowdiam", "expandec.clustering", "low_diam_decomposition", count=_lowdiam),
    Span("decomposition.run", "expandec.decomposition", "expander_decomposition",
         count=_decomposition),
    Span("triangles.driver", "expandec.triangles", "triangle_enumeration", count=_triangles),
    Span("triangles.enumerate", "expandec.triangles", "enumerate_component"),
    Span("triangles.mixing", "expandec.triangles", "component_mixing_time"),
)

ORACLE_MOVES = "wall_s, peak_rss_mb on dec_er1000; wall_s on tri_dense"

# Every per-layer metric: (name, unit, better, which end-to-end metric on which
# workload it should move).  BENCHMARK.json lists the same names and units.
LAYER_METRICS = (
    ("graph.build.calls", "count", "lower", "setup_s, wall_s on tri_dense; wall_s on dec_small"),
    ("graph.build.self_s", "s", "lower", "setup_s, wall_s on tri_dense; wall_s on dec_small"),
    ("graph.oracle.calls", "count", "lower", "wall_s on dec_small"),
    ("graph.oracle.self_s", "s", "lower", "wall_s on dec_small"),
    ("graph.mixing.self_s", "s", "lower", "wall_s on tri_dense"),
    ("views.build.calls", "count", "lower", "wall_s on dec_chain"),
    ("views.build.self_s", "s", "lower", "wall_s on dec_chain"),
    ("views.build.verts", "count", "lower", "wall_s on dec_chain"),
    ("views.build.edges", "count", "lower", "wall_s on dec_chain"),
    ("simulator.bfs_tree.calls", "count", "lower", "wall_s on dec_er1000, tri_dense"),
    ("simulator.bfs_tree.self_s", "s", "lower", "wall_s on dec_er1000, tri_dense"),
    ("simulator.run_round.calls", "count", "lower", "wall_s on dec_er1000, tri_dense"),
    ("simulator.run_round.self_s", "s", "lower", "wall_s on dec_er1000, tri_dense"),
    ("simulator.sample.self_s", "s", "lower", "wall_s on dec_er1000, tri_dense"),
    ("walks.compute_walk.calls", "count", "lower", "wall_s on dec_small, dec_chain"),
    ("walks.compute_walk.self_s", "s", "lower", "wall_s on dec_small, dec_chain"),
    ("walks.steps_stored", "count", "lower", "wall_s on dec_small, dec_chain"),
    ("walks.steps_horizon", "count", "lower", "wall_s on dec_small, dec_chain"),
    ("walks.freeze_ratio", "ratio", "lower", "wall_s on dec_small, dec_chain"),
    ("walks.vertex_steps", "count", "lower", "wall_s on dec_small, dec_chain"),
    ("cuts.scan_run.calls", "count", "lower", "wall_s on dec_small"),
    ("cuts.scan_run.self_s", "s", "lower", "wall_s on dec_small"),
    ("cuts.scan.steps", "count", "lower", "wall_s on dec_small"),
    ("cuts.scan.hit_ratio", "ratio", "higher", "wall_s on dec_small"),
    ("cuts.balanced.calls", "count", "lower", "wall_s on dec_small"),
    ("cuts.balanced.self_s", "s", "lower", "wall_s on dec_small"),
    ("cuts.balanced.found", "count", "higher", "wall_s on dec_small"),
    ("cuts.concurrent.calls", "count", "lower", "wall_s on dec_small"),
    ("cuts.concurrent.aborts", "count", "lower", "wall_s on dec_small"),
    ("clustering.oracle.calls", "count", "lower", ORACLE_MOVES),
    ("clustering.oracle.self_s", "s", "lower", ORACLE_MOVES),
    ("clustering.oracle.cells", "count", "lower", ORACLE_MOVES),
    ("clustering.split.self_s", "s", "lower", "wall_s on dec_er1000, tri_dense"),
    ("clustering.shift.self_s", "s", "lower", "wall_s on dec_er1000, tri_dense"),
    ("clustering.lowdiam.calls", "count", "lower", "wall_s on dec_er1000, tri_dense"),
    ("clustering.lowdiam.self_s", "s", "lower", "wall_s on dec_er1000, tri_dense"),
    ("clustering.lowdiam.cut_edges", "count", "lower", "kept_frac on dec_er1000"),
    ("decomposition.run.calls", "count", "lower", "kept_frac, ok_frac on dec_chain"),
    ("decomposition.run.self_s", "s", "lower", "wall_s on dec_chain"),
    ("decomposition.removed.r1", "count", "lower", "kept_frac on dec_chain"),
    ("decomposition.removed.r2", "count", "lower", "kept_frac on dec_chain"),
    ("decomposition.removed.r3", "count", "lower", "kept_frac, ok_frac on dec_chain"),
    ("decomposition.phase2.entries", "count", "lower", "kept_frac, ok_frac on dec_chain"),
    ("decomposition.max_depth", "count", "lower", "kept_frac, ok_frac on dec_chain"),
    ("triangles.driver.self_s", "s", "lower", "wall_s on tri_dense"),
    ("triangles.enumerate.calls", "count", "lower", "wall_s on tri_dense"),
    ("triangles.enumerate.self_s", "s", "lower", "wall_s on tri_dense"),
    ("triangles.mixing.self_s", "s", "lower", "wall_s on tri_dense"),
    ("triangles.levels", "count", "lower", "wall_s, kept_frac on tri_dense"),
    ("other.self_s", "s", "lower", "wall_s on every workload (time outside all spans)"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
)


class Tracer:
    """Span self times, call counts and counters for one traced pass."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_s = 0.0            # time inside outermost spans
        self._child_s: list[float] = []

    def wrap(self, span: Span, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self.clock() - t0
                self.self_s[span.name] += dur - self._child_s.pop()
                self.calls[span.name] += 1
                if self._child_s:
                    self._child_s[-1] += dur
                else:
                    self.top_s += dur
            if span.count is not None:
                span.count(self.counts, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        patches = []  # (owner, attr, original)
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "expandec" or name.startswith("expandec.")]
        for span in SPANS:
            owner = importlib.import_module(span.module)
            if span.cls is not None:
                owner = getattr(owner, span.cls)
                original = owner.__dict__[span.attr]
                places = [(owner, span.attr)]
            else:
                original = getattr(owner, span.attr)
                places = [(ns, attr) for ns in namespaces
                          for attr, value in vars(ns).items() if value is original]
            wrapped = self.wrap(span, original)
            for target, attr in places:
                patches.append((target, attr, original))
                setattr(target, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def metrics(self, pass_wall_s: float) -> dict[str, float]:
        """Per-layer values of this pass, except trace.overhead_ratio."""
        c = self.counts
        derived = {
            "walks.freeze_ratio": c["walks.steps_stored"] / max(1, c["walks.steps_horizon"]),
            "cuts.scan.hit_ratio": c["cuts.scan.hits"] / max(1, self.calls["cuts.scan_run"]),
            "other.self_s": pass_wall_s - self.top_s,
        }
        out = {}
        for name, *_ in LAYER_METRICS:
            span, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "self_s":
                out[name] = self.self_s.get(span, 0.0)
            elif field == "calls":
                out[name] = self.calls.get(span, 0)
            else:
                out[name] = c.get(name, 0)
        del out["trace.overhead_ratio"]
        return out
