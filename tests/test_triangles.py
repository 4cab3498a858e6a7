"""Triangle oracle, per-component enumeration, recursion driver, router costs."""
import math

import numpy as np
import pytest

from expandec import generators as gen
from expandec.config import DESK
from expandec.errors import BadEpsilon, Disconnected, TooLarge
from expandec.graph import Graph
from expandec.triangles import (
    Router,
    brute_force_triangles,
    component_mixing_time,
    enumerate_component,
    router_cost_report,
    triangle_enumeration,
)


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
    rep = enumerate_component(g, range(4), Router(), 2.0, 4)
    assert rep.triangles == brute_force_triangles(g)


def test_enumerate_component_boundary_triangle():
    # component = one edge; the triangle closes through an external vertex
    g = gen.clique(3)
    rep = enumerate_component(g, [0, 1], Router(), 1.0, 3)
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
        got |= enumerate_component(g, comp, Router(), 2.0, g.n).triangles
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
    rep = enumerate_component(g, [0, 1], Router(), 1.0, 3)
    assert rep.reporters[(0, 1, 2)] in (0, 1)  # reporter is an assignee, not always a member


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
    tau = component_mixing_time(g, range(16), 1 / 48, DESK)
    phi, _ = min_conductance_oracle(g)
    assert tau <= DESK.c_mix * math.log2(16) / float(phi) ** 2
    assert tau <= 8


def test_router_report_empty_graph():
    rep = triangle_enumeration(Graph.from_edges(5, []), 1 / 6, 2, 0, DESK)
    rc = router_cost_report(rep)
    assert rc["levels"] == []
    assert rc["total_rounds_charged"] == 0


def test_mixing_time_disconnected_component_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])  # {0..3} is not connected at this level
    with pytest.raises(Disconnected):
        component_mixing_time(g, range(4), 1 / 48, DESK)


def test_generator_rng_draws_the_seed():
    g = gen.cliques_chain(3, 5, 1)

    def first_seed(gen_seed):
        return triangle_enumeration(g, 1 / 6, 2, np.random.default_rng(gen_seed), DESK)

    a, b = first_seed(1), first_seed(2)
    assert a.levels[0].decomposition.seed != b.levels[0].decomposition.seed
    again = first_seed(1)
    assert again.levels[0].decomposition.seed == a.levels[0].decomposition.seed
    assert again.triangles == a.triangles and again.reporters == a.reporters
    assert again.ledger.rows() == a.ledger.rows()
    assert [lvl.decomposition.to_json() for lvl in again.levels] == \
        [lvl.decomposition.to_json() for lvl in a.levels]
