"""src/ holds what the pipeline, the CLI and the benchmark's spans run: every
top-level function and method of `src/expandec` is read somewhere else in
`src/`, unless it is a dunder, the module-level definition that
`expandec/__init__.py` re-exports, the callable that a benchmark span wraps,
or listed in EXEMPT.  Exemptions name one definition (module.function or
module.Class.method), so a method is not exempt because a function of the
same name is exported.  A read is a load in `src/expandec` outside the
definition's own body: of an attribute, for a method, and of an attribute
or a name, for a function; a name that a function binds itself (a
parameter or a local) is not one.  So a call of a function is no read of a
method of the same name.  Reads count by name, so one read of a name that
src defines twice counts for both definitions: each such name is listed in
DEFINED_TWICE with the reason it is defined twice.  A reference that only
tests call belongs in `tests/helpers_h.py`.

Every parameter of every function, method and nested function of
`src/expandec` is read in its body (a nested function that binds the same
name as a parameter does not read it), unless its name starts with `_`, the
mark of a callback slot that the caller fills, or it is listed in
PARAM_EXEMPT: an input that nothing reads is one that every caller supplies
for no one.

Every field and property of every dataclass of `src/expandec` is read on its
own class: code in `src/` or `perfbench/` loads it from an instance of that
class, unless it is listed in FIELD_EXEMPT.  A field that nothing reads is a
result computed for no one, and a read of a field of the same name on
another class does not count.  The reads are recorded while a tour of the
program's entry points runs, with each dataclass's `__getattribute__`
wrapped to look at its caller's frame: the benchmark's smoke operations
executed, summarized and checked, then executed in one traced pass; the CLI
commands decompose, verify, triangles --verify, lowdiam at a radius that
covers the view and one below it, sparse-cut, bench and gen; a start tree on
a view that leaves out its tree's root; and one simulated round.  A read in
`tests/` counts only for the fields listed in TEST_OBSERVED, keyed
`Class.field`, each with the test that reads it and why the pipeline keeps
it for that test; a field that the pipeline fills on every call for tests
alone is a test's observable, recorded outside the pipeline (as
`helpers_h.recorded_merges` records the merges of a cut accumulation and
`helpers_h.recorded_splits` the splits of a low-diameter decomposition).
Whether a test reads a listed field is checked by name."""
import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import sys
from collections import Counter
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from time import perf_counter

import pytest

import expandec
from expandec import cli
from expandec.cuts import StartTree
from expandec.errors import Disconnected
from expandec.graph import Graph
from expandec.simulator import Msg, Network, RoundLedger, bfs_tree
from expandec.views import ActiveView

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "expandec"
SPANS_PY = ROOT / "perfbench" / "spans.py"
PROGRAM = (SRC, ROOT / "perfbench")
TESTS = ROOT / "tests"

EXEMPT = {
    "cuts.ladder_h": "the quality function that ladder_h_inv inverts; the pair is one contract",
    "simulator.RoundLedger.snapshot": "how a caller compares the charges of two runs",
}
# Class.field -> why it stays although nothing reads it
FIELD_EXEMPT: dict[str, str] = {}
# Class.field -> the test that reads it, and why the pipeline keeps it
# although only tests read it
TEST_OBSERVED = {
    "ShiftClustering.centre": "test_shift_clustering_matches_epoch_simulation and "
                              "test_accept_5: the clusters are the clustering's output; the "
                              "low-diameter stage reads only their cut",
    "ShiftClustering.start": "test_shift_clustering_matches_epoch_simulation: the start "
                             "epochs, against the epoch-by-epoch simulation",
    "DenseSparseSplit.dense_prime": "test_split_merges_dense_components_within_a and "
                                    "test_accept_7: the dense-region growth invariant is "
                                    "checked on it",
    "DenseSparseSplit.stages": "test_split_merges_dense_components_within_a and test_accept_7: "
                               "the components of each stage of the dense-region growth, "
                               "which the invariant is checked on",
    "SweepCandidate.starred": "test_scan_run_matches_per_step_oracle: which test the accepted "
                              "prefix passed, to cover jump candidates",
    "ComponentCertificate.phi_value": "test_small_components_pass_oracle and test_accept_2: "
                                      "the certified conductance that a verify report states",
    "Cut.boundary": "test_cut_stats_k4_pair and test_view_cut_stats_use_live_boundary: the "
                    "exact boundary behind a cut's conductance",
    "Msg.kind": "test_neighborhood_edges_fast_equals_messages: the message-level reference "
                "protocols dispatch on it (`helpers_h.neighborhood_edges_per_round`)",
    "Msg.payload": "test_same_round_messages_invisible: the content of a simulated message",
    "ComponentEnumeration.assignees": "test_generator_rng_draws_the_seed: the vertex that "
                                      "reports each triangle",
    "WalkParams.f_phi": "test_derive_paper_f_phi: the detectability threshold of the walk "
                        "parameters",
    "WalkRun.b": "test_walk_initial_state and test_sweep_order_uniform_ties_by_id: the level "
                 "whose truncation `helpers_h.state_at` rebuilds a walk's state at",
    "WalkRun.freeze_t": "test_walk_freeze_charges_full_horizon: the step where a walk froze",
}
# function or method name -> why src defines it twice
DEFINED_TWICE = {
    "ball_edge_counts": "the oracle's method and the function that dispatches to it",
    "rounds_charged": "the sum property of both triangle reports, a level's and the run's",
}
# module.function.parameter -> why it stays although its body never reads it
PARAM_EXEMPT = {
    "cuts.scan_run.run": "the benchmark's scan counter reads it (perfbench/spans.py `_scan`)",
}


def _reads(node) -> tuple[Counter, Counter]:
    """(attributes, names) read under node, less the names that a function
    there binds itself."""
    attrs, names = Counter(), Counter()

    def visit(n, local):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = n.args
            local = local | {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            local |= {x.arg for x in (a.vararg, a.kwarg) if x is not None}
            local |= {x.id for x in ast.walk(n) if isinstance(x, ast.Name)
                      and not isinstance(x.ctx, ast.Load)}
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
            names[n.id] += 1
        for child in ast.iter_child_nodes(n):
            visit(child, local)

    visit(node, frozenset())
    return attrs, names


def _read(qualname: str, attrs: Counter, names: Counter) -> int:
    """Reads of the definition qualname, function or Class.method: a method
    is read only as an attribute."""
    name = qualname.rsplit(".", 1)[-1]
    return attrs[name] + (0 if "." in qualname else names[name])


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _span_targets() -> set[str]:
    """module.[Class.]attr of the callable that each Span(module, attr, cls)
    of the benchmark's span table wraps."""
    out = set()
    for call in ast.walk(ast.parse(SPANS_PY.read_text())):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Span":
            cls = {k.arg: k.value for k in call.keywords}.get("cls")
            module = call.args[1].value.removeprefix("expandec.")
            out.add(".".join([module] + ([cls.value] if cls else []) + [call.args[2].value]))
    return out


def _exports() -> set[str]:
    """module.name of each name that `expandec/__init__.py` re-exports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {f"{node.module}.{alias.name}" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name in expandec.__all__}


def test_every_src_definition_is_read_in_src():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    attrs, names = Counter(), Counter()
    for tree in modules.values():
        tree_attrs, tree_names = _reads(tree)
        attrs += tree_attrs
        names += tree_names
    spans = _span_targets()
    assert {"simulator.Network.run_round", "cuts.scan_run", "cuts.concurrent_local_cuts"} <= spans
    exempt = _exports() | spans | set(EXEMPT)
    unread, defined, times = [], set(), Counter()
    for stem, tree in modules.items():
        for qualname, node in _definitions(tree):
            defined.add(f"{stem}.{qualname}")
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            times[node.name] += 1
            if f"{stem}.{qualname}" in exempt:
                continue
            if _read(qualname, attrs, names) - _read(qualname, *_reads(node)) <= 0:
                unread.append(f"{stem}.{qualname}")
    assert unread == []
    # a name defined twice is listed, and a listed name is defined twice
    assert {name for name, count in times.items() if count > 1} == set(DEFINED_TWICE)
    # every span wraps a definition of src
    assert spans <= defined, spans - defined
    # an exemption that gained a caller in src, or lost its definition, is noise
    assert set(EXEMPT) <= defined
    assert not any(_read(name.split(".", 1)[1], attrs, names) for name in EXEMPT)


def _src_dataclasses() -> list[type]:
    """Each dataclass of `src/expandec`, from the module that defines it."""
    modules = [importlib.import_module(f"expandec.{info.name}")
               for info in pkgutil.iter_modules(expandec.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__]


def _fields(cls) -> set[str]:
    """The fields and properties of a dataclass."""
    return {f.name for f in dataclasses.fields(cls)} | {
        name for name, value in vars(cls).items()
        if isinstance(value, (property, cached_property))}


@contextmanager
def _program_loads(classes):
    """The set of Class.name of each field or property of classes that code
    in PROGRAM loads from an instance of that class while the context is
    open: each class's `__getattribute__` is wrapped to look at its caller's
    frame."""
    loads, in_program = set(), {}
    folders = tuple(f"{os.path.realpath(folder)}{os.sep}" for folder in PROGRAM)

    def recording(cls):
        names, get = _fields(cls), cls.__getattribute__

        def __getattribute__(self, name):
            if name in names:
                code = sys._getframe(1).f_code
                if code not in in_program:
                    in_program[code] = os.path.realpath(code.co_filename).startswith(folders)
                if in_program[code]:
                    loads.add(f"{cls.__name__}.{name}")
            return get(self, name)

        return __getattribute__

    own = {cls: vars(cls).get("__getattribute__") for cls in classes}
    for cls in classes:
        cls.__getattribute__ = recording(cls)
    try:
        yield loads
    finally:
        for cls, original in own.items():
            if original is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = original


def _perfbench(name: str):
    """perfbench/<name>.py loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _tour(tmp: Path):
    """The program's entry points, each run once on a small input: the
    benchmark's smoke operations executed, summarized and checked, then
    executed in a traced pass; each CLI command; a start tree on a view
    that leaves out the tree's root; and one simulated round."""
    workloads, spans = _perfbench("workloads"), _perfbench("spans")
    ops = workloads.make_ops("smoke", 1)
    graphs = workloads.build_graphs(ops)
    for op in ops:
        graph, ledger = graphs[(op.spec, op.graph_seed)], RoundLedger()
        out = workloads.execute(op, graph, ledger)
        workloads.summarize(op, out, ledger)
        assert workloads.check(op, graph, out) == [], op
    tracer = spans.Tracer(perf_counter)
    with tracer.installed():
        for op in ops:
            workloads.execute(op, graphs[(op.spec, op.graph_seed)], RoundLedger())
    tracer.metrics(0.0)
    g, run, out = (str(tmp / name) for name in ("g.txt", "run.json", "out"))
    for argv in (["gen", "--family", "cliques_chain:3:6:1", "--out", g],
                 ["decompose", "--graph", g, "--epsilon", "0.5", "--out", run],
                 ["verify", "--graph", g, "--run", run, "--out", out],
                 ["triangles", "--graph", g, "--verify", "--out", out],
                 # the ball radius covers the view, and below it
                 ["lowdiam", "--spec", "erdos_renyi:48:0.12", "--beta", "0.3", "--out", out],
                 ["lowdiam", "--spec", "cycle:160", "--beta", "0.9", "--K", "0.01",
                  "--out", out],
                 ["sparse-cut", "--spec", "barbell:10:1", "--phi", "0.02", "--seed", "3",
                  "--out", out],
                 ["bench", "--graph", g, "--out", out]):
        assert cli.main(argv) == 0, argv
    host = Graph.from_edges(3, [(1, 2)])  # vertex 0 is isolated
    net, whole = Network(host), ActiveView.whole(host)
    tree = bfs_tree(net, 0, whole.edges_local, whole.verts)
    with pytest.raises(Disconnected):
        StartTree.on(whole.subview([1, 2]), tree)
    net.run_round({1: None}, {}, lambda v, state, inbox: (state, [(2, Msg("ping"))]))


def _attribute_loads(folder: Path) -> Counter:
    """Attribute loads by name in the modules of folder."""
    return Counter(n.attr for path in sorted(folder.glob("*.py"))
                   for n in ast.walk(ast.parse(path.read_text()))
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_dataclass_field_is_read(tmp_path):
    classes = _src_dataclasses()
    with _program_loads(classes) as program:
        _tour(tmp_path)
    assert len({cls.__name__ for cls in classes}) == len(classes)
    fields = {f"{cls.__name__}.{name}" for cls in classes for name in _fields(cls)}
    tests = _attribute_loads(TESTS)
    assert fields and sorted(fields - program - set(TEST_OBSERVED) - set(FIELD_EXEMPT)) == []
    # an exemption that gained a reader, or lost its field, is noise
    assert set(FIELD_EXEMPT) <= fields
    assert not any(name in program or tests[name.split(".")[1]] for name in FIELD_EXEMPT)
    # so is a test observable that the program reads, or no test reads, or that is gone
    assert set(TEST_OBSERVED) <= fields
    assert [name for name in TEST_OBSERVED
            if name in program or not tests[name.split(".")[1]]] == []


def _params(fn) -> list[str]:
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [x.arg for x in (a.vararg, a.kwarg) if x is not None]


def _loads(node, name: str) -> bool:
    """Whether name is loaded under node, outside the nested functions that
    bind it as a parameter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                and name in _params(child):
            continue
        if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
            return True
        if _loads(child, name):
            return True
    return False


def _unread_params(node, qualname: str):
    """module.[Class.]function.parameter of each parameter under node that
    its function's body never reads."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _unread_params(child, f"{qualname}.{child.name}")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{qualname}.{child.name}"
            body = ast.Module(body=child.body, type_ignores=[])
            yield from (f"{name}.{p}" for p in _params(child)
                        if not p.startswith("_") and not _loads(body, p))
            yield from _unread_params(child, name)
        else:
            yield from _unread_params(child, qualname)


def test_every_src_parameter_is_read():
    unread = [name for path in sorted(SRC.glob("*.py"))
              for name in _unread_params(ast.parse(path.read_text()), path.stem)]
    assert [name for name in unread if name not in PARAM_EXEMPT] == []
    # an exemption whose parameter is read, or gone, is noise
    assert set(PARAM_EXEMPT) <= set(unread)
