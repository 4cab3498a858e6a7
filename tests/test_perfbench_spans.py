"""The benchmark's per-layer spans wrap library callables by name: each one must
still resolve, so a rename shows up here rather than as a dark metric."""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from time import perf_counter

import expandec
from expandec import generators as gen
from expandec.config import DESK

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _span_target(span):
    owner = importlib.import_module(span.module)
    if span.cls is not None:
        owner = getattr(owner, span.cls)
    return getattr(owner, span.attr)


def test_every_span_resolves_and_views_build_is_traced():
    spans = _load_spans()
    for info in pkgutil.iter_modules(expandec.__path__):  # as the benchmark does
        importlib.import_module(f"expandec.{info.name}")
    tracer = spans.Tracer(perf_counter)
    with tracer.installed():
        unresolved = [s.name for s in spans.SPANS
                      if not hasattr(_span_target(s), "__wrapped__")]
        decomposition = importlib.import_module("expandec.decomposition")
        triangles = importlib.import_module("expandec.triangles")
        decomposition.expander_decomposition(gen.cliques_chain(3, 8, 1), 0.5, 2, 0, DESK)
        triangles.triangle_enumeration(gen.erdos_renyi(40, 0.3, 1), 1 / 6, 2, 1, DESK)
    assert unresolved == []
    assert all(not hasattr(_span_target(s), "__wrapped__") for s in spans.SPANS)
    assert tracer.calls["views.build"] > 0
    assert tracer.counts["views.build.verts"] > 0
    assert tracer.calls["decomposition.run"] == 2  # one direct, one per triangle level
    assert tracer.calls["triangles.driver"] == 1
