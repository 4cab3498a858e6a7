"""Graph arithmetic: volumes, cuts, contraction, loop-preserving removal, oracles."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from expandec import generators as gen
from expandec.errors import DegenerateCut, Disconnected, FormatError, MissingEdge, TooLarge
from expandec.graph import (
    INF,
    Graph,
    adjacency_csr,
    components_of,
    contract,
    cut_stats,
    format_graph_text,
    hop_distances,
    lazy_walk_matrix,
    min_conductance_oracle,
    mixing_time_estimate,
    parse_graph_text,
)
from helpers_h import graph_from_rows, has_edge, neighbors, remove_edge_to_loops


def barbell44():
    return gen.barbell(4, 1)


def test_volume_k4_full():
    g = gen.clique(4)
    assert g.volume(range(4)) == 12


def test_volume_empty_set():
    assert gen.clique(4).volume([]) == 0


def test_volume_barbell_one_side():
    g = barbell44()
    assert g.volume(range(4)) == 13  # degree sum by direct enumeration


def test_cut_stats_k4_pair():
    c = cut_stats(gen.clique(4), {0, 1})
    assert c.boundary == 4
    assert c.vol_s == 6
    assert c.conductance == Fraction(2, 3)
    assert c.balance == Fraction(1, 2)


def test_cut_stats_barbell_side():
    c = cut_stats(barbell44(), range(4))
    assert c.conductance == Fraction(1, 13)
    assert c.balance == Fraction(1, 2)


def test_cut_stats_c6_arc():
    c = cut_stats(gen.cycle(6), {0, 1, 2})
    assert c.conductance == Fraction(1, 3)


def test_cut_stats_degenerate():
    g = gen.clique(3)
    with pytest.raises(DegenerateCut):
        cut_stats(g, set())
    with pytest.raises(DegenerateCut):
        cut_stats(g, {0, 1, 2})


def test_cut_symmetry_random_subsets():
    rng = np.random.default_rng(7)
    g = gen.erdos_renyi(9, 0.4, seed=3)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        s = set(rng.choice(9, size=k, replace=False).tolist())
        rest = set(range(9)) - s
        assert cut_stats(g, s).conductance == cut_stats(g, rest).conductance


def test_contract_k3_pair():
    h = contract(gen.clique(3), {0, 1})
    assert h.n == 2 and h.m == 1
    assert h.loops.tolist() == [1, 1]
    assert h.deg[0] == h.deg[1] == 2


def test_contract_identity():
    g = gen.erdos_renyi(8, 0.5, seed=1)
    assert contract(g, range(8)) == g


def test_contract_k4_triple():
    h = contract(gen.clique(4), {0, 1, 2})
    assert h.n == 3 and h.m == 3
    assert h.loops.tolist() == [1, 1, 1]
    assert all(h.deg[v] == 3 for v in range(3))


def test_contract_preserves_degrees():
    g = gen.erdos_renyi(10, 0.4, seed=5)
    s = [0, 2, 3, 7, 9]
    h = contract(g, s)
    for i, v in enumerate(s):
        assert h.deg[i] == g.deg[v]


def test_remove_edge_k2():
    h = remove_edge_to_loops(gen.clique(2), 0, 1)
    assert h.m == 0
    assert h.loops.tolist() == [1, 1]
    assert h.deg[0] == h.deg[1] == 1


def test_remove_edge_volume_invariant():
    g = gen.erdos_renyi(12, 0.3, seed=2)
    before = g.volume()
    u, v = g.edges[0]
    assert remove_edge_to_loops(g, u, v).volume() == before


def test_remove_edge_triangle():
    h = remove_edge_to_loops(gen.clique(3), 0, 1)
    assert h.m == 2
    assert all(h.deg[v] == 2 for v in range(3))


def test_remove_edge_missing():
    with pytest.raises(MissingEdge):
        remove_edge_to_loops(gen.path(3), 0, 2)


def test_has_edge_outside_vertex_range_is_false():
    g = gen.cycle(6)
    assert has_edge(g, 4, 5) and has_edge(g, 5, 4)
    assert not has_edge(g, -1, 4)  # a negative id must not wrap to vertex 5
    assert not has_edge(g, 4, -1)
    assert not has_edge(g, 9, 2) and not has_edge(g, 2, 9)
    with pytest.raises(MissingEdge):
        remove_edge_to_loops(g, -1, 4)


def test_degree_preserved_under_removal_and_contraction():
    g = gen.erdos_renyi(10, 0.5, seed=11)
    h = g
    for u, v in g.edges[:4]:
        h = remove_edge_to_loops(h, u, v)
    keep = [1, 3, 4, 6, 8]
    c = contract(h, keep)
    for i, v in enumerate(keep):
        assert c.deg[i] == g.deg[v]


def test_oracle_k4():
    phi, _ = min_conductance_oracle(gen.clique(4))
    assert phi == Fraction(2, 3)


def test_oracle_barbell():
    phi, witness = min_conductance_oracle(barbell44())
    assert phi == Fraction(1, 13)
    assert witness in (frozenset(range(4)), frozenset(range(4, 8)))


def test_oracle_k2():
    phi, _ = min_conductance_oracle(gen.clique(2))
    assert phi == Fraction(1, 1)


def test_oracle_too_large():
    with pytest.raises(TooLarge):
        min_conductance_oracle(gen.cycle(17))


def test_oracle_matches_cut_stats_enumeration():
    g = gen.erdos_renyi(7, 0.5, seed=9)
    phi, _ = min_conductance_oracle(g)
    best = min(
        cut_stats(g, s).conductance
        for k in range(1, 7)
        for s in map(set, combinations(range(7), k))
    )
    assert phi == best


def test_contraction_conductance_inequality():
    # Phi(G{S}) <= Phi(G[S]) for the loop-free induced subgraph, all subsets.
    g = gen.erdos_renyi(8, 0.55, seed=4)
    for k in range(2, 7):
        for s in combinations(range(8), k):
            gs = contract(g, s)
            induced = Graph.from_edges(
                len(s),
                [
                    (i, j)
                    for i, u in enumerate(s)
                    for j, v in enumerate(s)
                    if i < j and has_edge(g, u, v)
                ],
            )
            if induced.m == 0 or not induced.is_connected():
                continue
            phi_contracted, _ = min_conductance_oracle(gs)
            phi_induced, _ = min_conductance_oracle(induced)
            assert phi_contracted <= phi_induced


def test_mixing_time_k2():
    assert mixing_time_estimate(gen.clique(2), 1e-3) == 1


def test_mixing_time_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        mixing_time_estimate(g, 1e-3)


def test_mixing_time_c4_matches_matrix_powering():
    g = gen.cycle(4)
    t = mixing_time_estimate(g, 1e-6)
    m = lazy_walk_matrix(g)
    psi = g.deg / g.volume()
    pt = np.linalg.matrix_power(m, t)
    ptm1 = np.linalg.matrix_power(m, t - 1)
    assert np.abs(pt - psi[:, None]).sum(axis=0).max() <= 1e-6
    assert np.abs(ptm1 - psi[:, None]).sum(axis=0).max() > 1e-6


def test_text_roundtrip():
    g = gen.erdos_renyi(10, 0.4, seed=8)
    assert parse_graph_text(format_graph_text(g)) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "q 2 1\n0 1",
        "p 2 2\n0 1",
        "p 2 1\n0 0",
        "p 2 2\n0 1\n1 0",
        "p 2 1\n0 2",
        "p 2 1\n0 1 3",
    ],
)
def test_text_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_graph_text(text)


@pytest.mark.parametrize(
    "neighbors",
    [
        [[1], []],  # 0 -> 1 without 1 -> 0
        [[1, 2], [0], [1]],  # 0 -> 2 and 2 -> 1 have no back edge
        [[1]] + [[0]] * 5 + [[]],  # rows 2..5 point at 0, which lists only 1
    ],
)
def test_asymmetric_adjacency_rejected(neighbors):
    with pytest.raises(FormatError, match="asymmetric"):
        graph_from_rows(neighbors)


def test_bad_neighbor_rejected():
    for neighbors in ([[0]], [[2], [0]], [[-1], [0]]):
        with pytest.raises(FormatError, match="bad neighbor"):
            graph_from_rows(neighbors)


def test_graph_arrays_from_shuffled_edges():
    rng = np.random.default_rng(5)
    for n in (1, 2, 9, 30):
        ref = gen.erdos_renyi(n, 0.3, seed=n)
        pairs = ref.edges[rng.permutation(ref.m)]
        flip = rng.random(ref.m) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        loops = rng.integers(0, 3, size=n)
        g = Graph.from_edges(n, pairs, loops)
        want = sorted(map(tuple, pairs.tolist()), key=lambda e: (min(e), max(e)))
        assert g.edges.tolist() == [[min(e), max(e)] for e in want]
        for v in range(n):
            row = g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
            assert row == sorted({u for e in want for u in e if v in e} - {v})
        assert g.deg.tolist() == (np.diff(g.indptr) + loops).tolist()
        assert g == graph_from_rows([neighbors(g, v) for v in range(n)], loops)


@pytest.mark.parametrize("build, match", [
    (lambda: graph_from_rows([[1, 1], [0, 0]]), "ascending"),
    (lambda: graph_from_rows([[2, 1], [0], [0]]), "ascending"),
    (lambda: graph_from_rows([[1], [0]], [0, -1]), "self-loop"),
    (lambda: Graph(2, [0, 2, 1], [1, 0]), "row pointers"),
    (lambda: Graph(2, [0, 1], [1, 0]), "row pointers"),
    (lambda: Graph.from_edges(3, [(0, 1), (1, 0)]), "ascending"),
    (lambda: Graph.from_edges(3, [(2, 2)]), "bad neighbor"),
    (lambda: Graph.from_edges(3, [(0, 3)]), "outside"),
    (lambda: Graph.from_edges(3, [(-1, 1)]), "outside"),
    (lambda: Graph.from_edges(3, [(0, 2**70)]), "outside"),
])
def test_graph_construction_rejects(build, match):
    with pytest.raises(FormatError, match=match):
        build()


# -- traversal substrate: differential against networkx ------------------------


def _nx_graph(n, edges):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def _random_instances():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 23, 60):
        for p in (0.0, 0.04, 0.12, 0.5):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            yield n, edges


def test_components_of_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n, edges in _random_instances():
        labels = [3 * v + 5 for v in range(n)]
        got = components_of(adjacency_csr(n, edges), labels)
        want = sorted(
            (frozenset(labels[v] for v in c) for c in nx.connected_components(_nx_graph(n, edges))),
            key=min,
        )
        assert got == want, (n, edges)
        assert all(type(v) is int for c in got for v in c)


def test_hop_distances_match_networkx():
    nx = pytest.importorskip("networkx")
    for n, edges in _random_instances():
        d = hop_distances(adjacency_csr(n, edges))
        assert d.shape == (n, n) and d.dtype == np.int32
        want = np.full((n, n), INF, dtype=np.int32)
        for s, row in nx.all_pairs_shortest_path_length(_nx_graph(n, edges)):
            for t, k in row.items():
                want[s, t] = k
        assert np.array_equal(d, want), (n, edges)


def test_substrate_on_induced_subset_and_cut_mask():
    nx = pytest.importorskip("networkx")
    g = gen.erdos_renyi(40, 0.08, seed=4)
    adj = adjacency_csr(g.n, g.edges)
    rows = np.array([v for v in range(g.n) if v % 3 != 1])
    sub = nx.Graph(_nx_graph(g.n, g.edges).subgraph(rows.tolist()))
    got = components_of(adj[rows][:, rows], rows)
    assert got == sorted((frozenset(c) for c in nx.connected_components(sub)), key=min)
    sub_d = hop_distances(adj[rows][:, rows])
    pos = {int(v): i for i, v in enumerate(rows)}
    for s, row in nx.all_pairs_shortest_path_length(sub):
        for t, k in row.items():
            assert sub_d[pos[s], pos[t]] == k
    assert (sub_d < INF).sum() == sum(len(c) ** 2 for c in got)
    # drop every third edge, as a cut-edge mask would
    el = np.array(g.edges, dtype=np.int64)
    keep = np.arange(len(el)) % 3 != 0
    cut_graph = _nx_graph(g.n, [tuple(e) for e in el[keep].tolist()])
    got = components_of(adjacency_csr(g.n, el[keep]), range(g.n))
    assert got == sorted((frozenset(c) for c in nx.connected_components(cut_graph)), key=min)


def test_is_connected_cases():
    assert graph_from_rows([]).is_connected()
    assert graph_from_rows([[]]).is_connected()
    assert not graph_from_rows([[], []]).is_connected()
    assert gen.cycle(9).is_connected()
    assert not Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]).is_connected()


def test_expandec_imports_stay_light():
    """The traversal substrate needs only numpy and scipy.sparse: importing every
    expandec module must not pull in scipy.sparse.csgraph or scipy.linalg."""
    import os
    import pkgutil
    import subprocess
    import sys

    import expandec

    modules = [f"expandec.{m.name}" for m in pkgutil.iter_modules(expandec.__path__)]
    code = (
        "import importlib, sys\n"
        f"for m in {modules!r}: importlib.import_module(m)\n"
        "print(','.join(m for m in ('scipy.sparse.csgraph', 'scipy.linalg') if m in sys.modules))\n"
    )
    src = os.path.dirname(expandec.__path__[0])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert len(modules) >= 10
    assert out.stdout.strip() == ""
