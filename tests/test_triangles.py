"""Triangle oracle, per-component enumeration, recursion driver, router costs."""
import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from expandec import generators as gen
from expandec import triangles
from expandec.config import DESK
from expandec.errors import BadEpsilon, Disconnected, NotATriangle, StalledLevel, TooLarge
from expandec.graph import Graph
from expandec.views import ActiveView
from expandec.triangles import (
    C_MIX,
    TRIANGLE_N_MAX,
    ComponentEnumeration,
    brute_force_triangles,
    component_mixing_time,
    enumerate_component,
    router_cost_report,
    triangle_enumeration,
)

from helpers_h import enumerate_component_per_triple, neighbors, reporters


def test_oracle_k4():
    assert len(brute_force_triangles(gen.clique(4))) == 4


def test_oracle_bipartite_c6():
    assert brute_force_triangles(gen.cycle(6)) == set()


def test_oracle_matches_matrix_cube():
    g = gen.erdos_renyi(30, 0.5, seed=1)
    a = np.zeros((30, 30))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    expected = int(round(np.trace(np.linalg.matrix_power(a, 3)) / 6))
    assert len(brute_force_triangles(g)) == expected


def test_oracle_too_large():
    with pytest.raises(TooLarge):
        brute_force_triangles(Graph.from_edges(2001, []))


def test_enumerate_component_k4():
    g = gen.clique(4)
    rep = enumerate_component(g, range(4), 2.0, 4)
    assert rep.triangles == brute_force_triangles(g)


def test_enumerate_component_boundary_triangle():
    # component = one edge; the triangle closes through an external vertex
    g = gen.clique(3)
    rep = enumerate_component(g, [0, 1], 1.0, 3)
    assert (0, 1, 2) in rep.triangles


def test_enumerate_components_cover_all_but_inter_triangles():
    g = gen.erdos_renyi(40, 0.3, seed=7)
    from expandec.decomposition import expander_decomposition

    dec = expander_decomposition(g, 1 / 6, 2, 11, DESK)
    inter = {e for es in dec.removed.values() for e in es}
    got = set()
    for comp in dec.components:
        if len(comp) < 2:
            continue
        got |= enumerate_component(g, comp, 2.0, g.n).triangles
    all_tris = brute_force_triangles(g)
    missing = all_tris - got
    for u, v, w in missing:  # only triangles entirely inside the removed set
        for e in ((u, v), (v, w), (u, w)):
            assert tuple(sorted(e)) in inter
    assert got <= all_tris


def test_triangle_free_graph():
    rep = triangle_enumeration(gen.grid(5, 5), 1 / 6, 2, 0, DESK, verify=True)
    assert rep.triangles == set()
    assert rep.verified


def test_epsilon_cap():
    with pytest.raises(BadEpsilon):
        triangle_enumeration(gen.clique(5), 0.3, 2, 0, DESK)


def test_oracle_equality_small_random():
    rng = np.random.default_rng(2)
    for trial in range(6):
        n = int(rng.integers(20, 45))
        p = [0.2, 0.5][trial % 2]
        g = gen.erdos_renyi(n, p, seed=trial + 300)
        rep = triangle_enumeration(g, 1 / 6, 2, trial, DESK, verify=True)
        assert rep.verified, f"n={n} p={p} trial={trial}"


def test_planted_clique_found():
    bg = gen.erdos_renyi(40, 0.08, seed=9)
    edges = {tuple(sorted(e)) for e in bg.edges}
    for u in range(10):
        for v in range(u + 1, 10):
            edges.add((u, v))
    g = Graph.from_edges(40, sorted(edges))
    rep = triangle_enumeration(g, 1 / 6, 2, 5, DESK)
    clique_tris = {t for t in rep.triangles if all(x < 10 for x in t)}
    assert len(clique_tris) == math.comb(10, 3)


def test_reporters_recorded_and_membership_not_required():
    g = gen.clique(3)
    rep = enumerate_component(g, [0, 1], 1.0, 3)
    assert reporters(rep)[(0, 1, 2)] in (0, 1)  # reporter is an assignee, not always a member


def test_recursion_shrinks_edges():
    g = gen.cliques_chain(4, 6, 1)
    rep = triangle_enumeration(g, 1 / 6, 2, 3, DESK, verify=True)
    assert rep.verified
    sizes = [lvl.edges_in for lvl in rep.levels]
    assert all(a > b for a, b in zip(sizes, sizes[1:] + [0]))


def test_batch_count_scaling_on_clique():
    g = gen.clique(30)
    rep = triangle_enumeration(g, 1 / 6, 2, 1, DESK)
    comp = rep.levels[0].components[0]
    assert comp.batches <= 4 * 30 ** (1 / 3) * math.log2(30)


def test_mixing_time_consistent_with_conductance_form():
    from expandec.graph import min_conductance_oracle

    g = gen.clique(16)
    tau = component_mixing_time(g, range(16), 1 / 48)
    phi, _ = min_conductance_oracle(g)
    assert tau <= C_MIX * math.log2(16) / float(phi) ** 2
    assert tau <= 8


def test_router_report_empty_graph():
    rep = triangle_enumeration(Graph.from_edges(5, []), 1 / 6, 2, 0, DESK)
    rc = router_cost_report(rep)
    assert rc["levels"] == []
    assert rc["total_rounds_charged"] == 0


def test_mixing_time_disconnected_component_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])  # {0..3} is not connected at this level
    with pytest.raises(Disconnected):
        component_mixing_time(g, range(4), 1 / 48)


def test_generator_rng_draws_the_seed():
    g = gen.cliques_chain(3, 5, 1)

    def first_seed(gen_seed):
        return triangle_enumeration(g, 1 / 6, 2, np.random.default_rng(gen_seed), DESK)

    a, b = first_seed(1), first_seed(2)
    assert a.levels[0].decomposition.seed != b.levels[0].decomposition.seed
    again = first_seed(1)
    assert again.levels[0].decomposition.seed == a.levels[0].decomposition.seed
    assert again.triangles == a.triangles
    assert [c.assignees.tolist() for lvl in again.levels for c in lvl.components] == \
        [c.assignees.tolist() for lvl in a.levels for c in lvl.components]
    assert again.ledger.rows() == a.ledger.rows()
    assert [lvl.decomposition.to_json() for lvl in again.levels] == \
        [lvl.decomposition.to_json() for lvl in a.levels]


# -- the array kernel against the per-triple reference ------------------------


EDGE_PATHS = ("table", "search")


@contextlib.contextmanager
def _edge_path(path):
    """Every edge test on one path: `_edge_test` itself, which takes the
    dense table on graphs within TRIANGLE_N_MAX, or the binary search of its
    fallback (`_is_key` over the keys) in its place.  Yields the counts of
    keys asked of edge tests and searched by `_is_key`; the search path must
    have searched every key asked, the table path none."""
    seen = {"asked": 0, "searched": 0}
    edge_test, is_key = triangles._edge_test, triangles._is_key

    def counted_edge_test(keys, n):
        test = edge_test(keys, n) if path == "table" else partial(triangles._is_key, keys)

        def ask(q):
            seen["asked"] += len(q)
            return test(q)
        return ask

    def counted_is_key(keys, q):
        seen["searched"] += len(q)
        return is_key(keys, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangles, "_edge_test", counted_edge_test)
        mp.setattr(triangles, "_is_key", counted_is_key)
        yield seen
    assert seen["searched"] == (seen["asked"] if path == "search" else 0)


def test_no_edge_table_above_the_bound(monkeypatch):
    searched = []
    is_key = triangles._is_key
    monkeypatch.setattr(triangles, "_is_key", lambda keys, q: searched.append(len(q)) or
                        is_key(keys, q))
    for n in (TRIANGLE_N_MAX, TRIANGLE_N_MAX + 1):
        keys = np.array([1, n * n - 1])
        q = np.array([0, 1, n * n - 1])
        assert triangles._edge_test(keys, n)(q).tolist() == [False, True, True]
    assert searched == [3]  # n = TRIANGLE_N_MAX takes the table


def _same_enumeration(got, ref):
    assert got.component == ref.component
    assert np.array_equal(got.tris, ref.tris)
    assert np.array_equal(got.assignees, ref.assignees)
    assert got.triangles == ref.triangles and reporters(got) == reporters(ref)
    assert (got.buckets, got.triples, got.batches, got.rounds_charged) == \
        (ref.buckets, ref.triples, ref.batches, ref.rounds_charged)


def _component_draws(count, seed):
    """(graph, comp) draws: random graphs with connected balls, arbitrary
    (often disconnected) subsets and two-vertex components."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(3, 48))
        g = gen.erdos_renyi(n, float(rng.uniform(0.05, 0.9)), seed=int(rng.integers(1 << 30)))
        kind = trial % 3
        if kind == 0:
            comp = rng.choice(n, size=2, replace=False)
        elif kind == 1:
            comp = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        else:  # a ball around a random vertex
            ball = {int(rng.integers(n))}
            for _ in range(int(rng.integers(1, 3))):
                ball |= {u for v in ball for u in neighbors(g, v)}
            comp = sorted(ball)
        yield g, sorted(int(v) for v in comp)


def test_enumerate_component_matches_per_triple_reference():
    for path in EDGE_PATHS:
        seen = set()
        with _edge_path(path) as counts:
            for g, comp in _component_draws(150, 8):
                got = enumerate_component(g, comp, 3.0, g.n)
                _same_enumeration(got, enumerate_component_per_triple(g, comp, 3.0, g.n))
                inside = set(comp)
                universe = inside | {u for v in comp for u in neighbors(g, v)}
                hits = [sum(x in inside for x in t) for t in got.triangles]
                seen |= {f"in_comp_{h}" for h in hits}
                if len(comp) == 2:
                    seen.add("comp_2")
                if got.buckets * math.ceil(len(universe) / got.buckets) > len(universe):
                    seen.add("partial_last_bucket")
                if len(ActiveView.whole(g).subview(comp).components()) > 1:
                    seen.add("disconnected")
        # boundary triangles (1 or 2 vertices in comp) and triangles wholly in N(comp)
        assert seen >= {"in_comp_0", "in_comp_1", "in_comp_2", "in_comp_3", "comp_2",
                        "partial_last_bucket", "disconnected"}
        assert counts["asked"] > 0


def test_enumerate_component_across_wedge_chunks(monkeypatch):
    monkeypatch.setattr(triangles, "WEDGE_CHUNK", 3)
    for path in EDGE_PATHS:
        with _edge_path(path) as counts:
            for g, comp in _component_draws(30, 9):
                _same_enumeration(enumerate_component(g, comp, 2.0, g.n),
                                  enumerate_component_per_triple(g, comp, 2.0, g.n))
        assert counts["asked"] > 0


def _planted(seed):
    """A sparse random graph with a dense planted block: multi-level runs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 60))
    edges = {tuple(sorted(e)) for e in gen.erdos_renyi(n, 0.1, seed=seed).edges}
    block = int(rng.integers(8, 14))
    edges |= {(u, v) for u in range(block) for v in range(u + 1, block) if rng.random() < 0.8}
    return Graph.from_edges(n, sorted(edges))


def test_triangle_enumeration_matches_per_triple_reference():
    for path in EDGE_PATHS:
        levels, contested = [], 0
        with _edge_path(path) as counts:
            for trial in range(16):
                g = (_planted(trial) if trial % 2 else
                     gen.cliques_chain(2 + trial % 5, 4 + trial % 4, 1))
                rep = triangle_enumeration(g, 1 / 6, 2, trial, DESK)
                first = {}
                for lvl in rep.levels:
                    for c in lvl.components:
                        ref = enumerate_component_per_triple(lvl.decomposition.graph,
                                                             c.component, c.tau_mix, g.n)
                        _same_enumeration(c, ref)
                        for tri, who in reporters(ref).items():
                            contested += first.setdefault(tri, who) != who
                assert rep.triangles == set(first) == brute_force_triangles(g)
                levels.append(len(rep.levels))
        # multi-level runs, and triangles reported by two components with
        # different assignees, which the report's set holds once
        assert max(levels) >= 2 and contested > 0
        assert counts["asked"] > 0


def test_enumerate_component_reports_triangles_outside_comp():
    rep = enumerate_component(gen.clique(4), [0], 1.0, 4)
    assert rep.triangles == brute_force_triangles(gen.clique(4))
    assert (1, 2, 3) in reporters(rep) and set(reporters(rep).values()) == {0}


# -- the driver's guards --------------------------------------------------------


def _fake_triangle(row):
    """An enumerate_component that reports row as each component's triangle."""
    def fake(level_graph, comp, tau_mix, n_global):
        comp = tuple(sorted(comp))
        return ComponentEnumeration(comp, np.array([row]), np.array([comp[0]]),
                                    1, 1, 0, tau_mix, 0.0)
    return fake


def test_soundness_rejects_a_non_triangle(monkeypatch):
    g = Graph.from_edges(10, [(0, 1), (1, 5), (2, 5), (3, 4), (4, 6), (3, 6)])
    # (0, 1, 15) is out of range, and two of its keys alias edges: 0 * 10 + 15
    # is (1, 5) and 1 * 10 + 15 is (2, 5); (-10, 1, 5) is out of range below 0
    for row in ((0, 1, 5), (0, 1, 15), (-10, 1, 5)):
        monkeypatch.setattr(triangles, "enumerate_component", _fake_triangle(row))
        for path in EDGE_PATHS:
            with _edge_path(path) as counts:
                with pytest.raises(NotATriangle, match=re.escape(str(row))):
                    triangle_enumeration(g, 1 / 6, 2, 0, DESK)
            # a row out of range is rejected before its keys are looked up
            assert counts["asked"] == (3 if row == (0, 1, 5) else 0)


def test_a_level_that_keeps_every_edge_is_an_error(monkeypatch):
    real = triangles.expander_decomposition

    def keep_all(graph, *args, **kwargs):
        return dataclasses.replace(real(graph, *args, **kwargs), removed={"r1": list(graph.edges)})

    monkeypatch.setattr(triangles, "expander_decomposition", keep_all)
    with pytest.raises(StalledLevel, match="level 1 kept 10 of 10 edges"):
        triangle_enumeration(gen.clique(5), 1 / 6, 2, 0, DESK)


def test_soundness_check_survives_optimize_flag():
    code = (
        "import numpy as np\n"
        "from expandec import generators as gen, triangles\n"
        "from expandec.config import DESK\n"
        "from expandec.errors import NotATriangle\n"
        "assert False, 'asserts are on'\n"
        "def fake(level_graph, comp, tau_mix, n_global):\n"
        "    comp = tuple(sorted(comp))\n"
        "    return triangles.ComponentEnumeration(\n"
        "        comp, np.array([[0, 1, 5]]), np.array([comp[0]]), 1, 1, 0, tau_mix, 0.0)\n"
        "triangles.enumerate_component = fake\n"
        "try:\n"
        "    triangles.triangle_enumeration(gen.cliques_chain(2, 4, 1), 1 / 6, 2, 0, DESK)\n"
        "except NotATriangle:\n"
        "    print('typed')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "typed"


def test_triangle_enumeration_matches_networkx_beyond_test_sizes():
    g = gen.generate("erdos_renyi:200:0.3", seed=0)
    rep = triangle_enumeration(g, 1 / 6, 2, 0, DESK)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    counts = np.zeros(g.n, dtype=np.int64)
    for tri in rep.triangles:
        assert tri[0] < tri[1] < tri[2] and all(nxg.has_edge(*e) for e in
                                                 (tri[:2], tri[1:], tri[::2]))
        counts[list(tri)] += 1
    expected = nx.triangles(nxg)
    assert counts.tolist() == [expected[v] for v in range(g.n)]
