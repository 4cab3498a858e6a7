"""Shift clustering, neighborhood estimation, dense/sparse split, low-diameter parts."""
import math

import numpy as np
import pytest

from expandec import generators as gen
from expandec.simulator import Network
from expandec.views import ActiveView, WorkingGraph
from expandec.clustering import (
    NeighborhoodOracle,
    ball_edge_counts,
    build_dense_sparse_split,
    exponential_shift_clustering,
    low_diam_decomposition,
    neighborhood_size_estimate,
    neighborhood_threshold_test,
)

from helpers_h import (
    OVER,
    clusters,
    live_neighbors,
    neighborhood_edges_exact,
    neighborhood_edges_per_round,
    shift_clustering_per_epoch,
)


def cluster_eccentricity(view, members, center):
    mem = set(members)
    dist = {center: 0}
    frontier = [center]
    while frontier:
        nxt = []
        for v in frontier:
            for u in live_neighbors(view, v):
                if u in mem and u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    assert set(dist) == mem  # clusters are connected via join pointers
    return max(dist.values())


def test_forced_zero_shifts_all_singletons():
    g = gen.cycle(16)
    view = ActiveView.whole(g)
    net = Network(g)
    c = exponential_shift_clustering(net, view, 0.2, np.random.default_rng(0),
                                     deltas={v: 0.0 for v in range(16)})
    assert all(len(m) == 1 for m in clusters(c).values())


def test_cluster_diameter_bound_many_seeds():
    for g in (gen.cycle(32), gen.erdos_renyi(40, 0.15, seed=9)):
        view = ActiveView.whole(g)
        n = g.n
        for beta in (0.1, 0.3):
            bound = 4 * math.log2(n) / beta
            for seed in range(60):
                net = Network(g)
                c = exponential_shift_clustering(net, view, beta,
                                                 np.random.default_rng([seed, 7]))
                for center, members in clusters(c).items():
                    assert center in members
                    assert 2 * cluster_eccentricity(view, members, center) <= bound


def test_edge_cut_frequency_statistical():
    g = gen.cycle(32)
    view = ActiveView.whole(g)
    beta = 0.1
    runs = 400
    total = 0
    for seed in range(runs):
        net = Network(g)
        c = exponential_shift_clustering(net, view, beta, np.random.default_rng([seed, 3]))
        total += len(c.cut_edges)
    mean_freq = total / (runs * g.m)
    sigma = math.sqrt(2 * beta * (1 - 2 * beta) / (runs * g.m))
    assert mean_freq <= 2 * beta + 3 * sigma


def test_rounds_charged_equal_epoch_count():
    g = gen.cycle(20)
    net = Network(g)
    exponential_shift_clustering(net, ActiveView.whole(g), 0.25, np.random.default_rng(1))
    horizon = math.ceil(2 * math.log2(g.n) / 0.25)
    assert net.ledger.totals().rounds == horizon


def test_shift_clustering_matches_epoch_simulation():
    """Random views (removed edges, vertex subsets, isolated vertices), beta in
    [0.05, 0.9], drawn shifts and small integer shifts that force ties, against
    the epoch-by-epoch simulation: the same clusters, starts, cut order,
    ledger and generator state."""
    rng = np.random.default_rng(0x5F7)
    ties = isolated = 0
    for draw in range(200):
        n = int(rng.integers(1, 30))
        g = gen.erdos_renyi(n, float(rng.uniform(0.05, 0.4)), seed=draw)
        working = WorkingGraph(g)
        working.remove_edges([e for e in g.edges if rng.random() < 0.2], "x")
        view = ActiveView(working, [v for v in range(n) if rng.random() < 0.8] or [0])
        beta = float(rng.uniform(0.05, 0.9))
        deltas = None
        if draw % 2:
            deltas = {int(v): int(rng.integers(0, 5)) for v in view.verts}
            ties += len(set(deltas.values())) < len(deltas)
        isolated += bool((view.live_deg == 0).any())
        net, ref_net = Network(g), Network(g)
        gen_a, gen_b = np.random.default_rng(draw), np.random.default_rng(draw)
        a = exponential_shift_clustering(net, view, beta, gen_a, deltas)
        b = shift_clustering_per_epoch(ref_net, view, beta, gen_b, deltas)
        assert list(a.assignment.items()) == list(b.assignment.items())
        assert a.centers == b.centers
        assert list(a.start.items()) == list(b.start.items())
        assert a.epochs == b.epochs
        assert a.cut_edges == b.cut_edges
        assert net.ledger.snapshot() == ref_net.ledger.snapshot()
        assert gen_a.integers(1 << 62) == gen_b.integers(1 << 62)
    assert ties >= 50 and isolated >= 20, (ties, isolated)


def test_neighborhood_edges_p9():
    g = gen.path(9)
    view = ActiveView.whole(g)
    out = neighborhood_edges_exact(Network(g), view, set(map(tuple, g.edges.tolist())), 3, 100)
    assert out[4] == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]


def test_neighborhood_edges_d1_incident():
    g = gen.clique(4)
    view = ActiveView.whole(g)
    out = neighborhood_edges_exact(Network(g), view, set(map(tuple, g.edges.tolist())), 1, 3)
    for v in range(4):
        assert out[v] == [e for e in map(tuple, g.edges.tolist()) if v in e]


def test_neighborhood_edges_over_threshold():
    g = gen.clique(4)
    view = ActiveView.whole(g)
    out = neighborhood_edges_exact(Network(g), view, set(map(tuple, g.edges.tolist())), 2, 1)
    assert all(r == OVER for r in out.values())


def test_neighborhood_edges_fast_equals_messages():
    # the whole graph, then a view with removed edges and a missing vertex
    g = gen.erdos_renyi(14, 0.3, seed=4)
    working = WorkingGraph(g)
    working.remove_edges(g.edges[1::5], "x")
    views = [ActiveView.whole(g), ActiveView(working, range(1, g.n))]
    estar = set(map(tuple, g.edges[::2].tolist()))
    kinds = set()
    for view in views:
        for d, tau in ((1, 5), (2, 4), (3, 50)):
            a = neighborhood_edges_per_round(Network(g), view, estar, d, tau)
            b = neighborhood_edges_exact(Network(g), view, estar, d, tau)
            assert a == b
            kinds |= {r == OVER for r in b.values()}
    assert kinds == {True, False}


def test_threshold_test_deterministic_branch():
    g = gen.erdos_renyi(20, 0.25, seed=5)
    view = ActiveView.whole(g)
    oracle = NeighborhoodOracle(view)
    d, z, f = 2, 30, 0.25
    assert 10 * math.log2(g.n) >= f * f * z  # exact branch
    bits = neighborhood_threshold_test(Network(g), view, d, z, f,
                                       np.random.default_rng(0), oracle=oracle)
    counts = oracle.ball_edge_counts(d)
    for i, v in enumerate(view.verts):
        exact = int(counts[i])
        if exact <= z:
            assert bits[int(v)] == 1
        if exact > (1 + f) * z:
            assert bits[int(v)] == 0


def test_threshold_test_sampled_branch_statistical():
    g = gen.erdos_renyi(64, 0.25, seed=6)
    view = ActiveView.whole(g)
    oracle = NeighborhoodOracle(view)
    counts = oracle.ball_edge_counts(2)
    f = 0.9
    z = 140
    assert 10 * math.log2(g.n) < f * f * z  # sampled branch engaged
    low = [int(v) for i, v in enumerate(view.verts) if counts[i] <= z]
    high = [int(v) for i, v in enumerate(view.verts) if counts[i] >= (1 + f) * z]
    ok_low = ok_high = trials = 0
    for seed in range(120):
        bits = neighborhood_threshold_test(Network(g), view, 2, z, f,
                                           np.random.default_rng([seed, 1]), oracle=oracle)
        trials += 1
        ok_low += all(bits[v] == 1 for v in low)
        ok_high += all(bits[v] == 0 for v in high)
    assert ok_low >= 0.95 * trials
    assert ok_high >= 0.95 * trials


def _views_for_closed_form():
    g = gen.erdos_renyi(40, 0.12, seed=21)
    two = gen.Graph.from_edges(
        14, [(u, v) for u in range(6) for v in range(u + 1, 6)]
        + [(6 + i, 7 + i) for i in range(7)])
    cut = WorkingGraph(gen.cycle(20))
    cut.remove_edges([(0, 1), (10, 11), (4, 5)], "r1")  # three paths
    sub = WorkingGraph(g)
    sub.remove_edges(list(g.edges[::3]), "r2")
    return {
        "connected": ActiveView.whole(g),
        "disconnected": ActiveView.whole(two),
        "removed edges": ActiveView(cut, range(20)),
        "sub view, removed edges": ActiveView(sub, range(5, 35)),
    }


def test_closed_form_ball_counts_equal_oracle():
    for name, view in _views_for_closed_form().items():
        oracle = NeighborhoodOracle(view)
        rng = np.random.default_rng(len(view))
        for mask in (None, rng.random(view.m_live) < 0.4, np.zeros(view.m_live, bool)):
            for d in (len(view), len(view) + 5):
                got = ball_edge_counts(view, d, mask)
                want = oracle.ball_edge_counts(d, mask)
                assert got.tolist() == want.tolist(), (name, d)


def _diameters_by_bfs(view, components):
    """Largest hop distance in the view between two members, by plain BFS."""
    out = []
    for comp in components:
        best = 0
        for src in comp:
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in live_neighbors(view, v):
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                frontier = nxt
            best = max(best, max(dist[v] for v in comp))
        out.append(best)
    return out


def test_lazy_diameters_match_bfs():
    cases = ((gen.erdos_renyi(48, 0.12, seed=12), 0.3, 10, True),
             (gen.generate("grid:12:12", seed=0), 0.95, 0.05, False))
    for g, beta, K, saturated in cases:
        view = ActiveView.whole(g)
        res = low_diam_decomposition(Network(g), view, beta, K, np.random.default_rng(5))
        assert (res.split.a >= len(view)) == saturated
        assert "diameters" not in vars(res)  # not computed before first access
        assert res.diameters == _diameters_by_bfs(view, res.components)


def test_size_estimate_isolated_floor():
    g = gen.path(2)
    view = ActiveView.whole(g)
    est = neighborhood_size_estimate(Network(g), view, 1, 0.25, np.random.default_rng(2))
    assert est[0] >= 1.0


def test_size_estimate_k8():
    g = gen.clique(8)
    view = ActiveView.whole(g)
    f = 0.25
    hits = 0
    for seed in range(40):
        est = neighborhood_size_estimate(Network(g), view, 2, f,
                                         np.random.default_rng([seed, 2]))
        if all(28 / (1 + f) <= est[v] <= (1 + f) * 28 for v in range(8)):
            hits += 1
    assert hits >= 0.95 * 40


def test_size_estimate_monotone_in_d():
    g = gen.erdos_renyi(24, 0.15, seed=8)
    view = ActiveView.whole(g)
    for seed in range(10):
        ests = [
            neighborhood_size_estimate(Network(g), view, d, 0.25,
                                       np.random.default_rng([seed, 4]))
            for d in (1, 2, 3)
        ]
        for v in view.active:
            assert ests[0][v] <= ests[1][v] <= ests[2][v]


def test_split_sparse_long_cycle():
    # Uniformly sparse input: radius-a balls see a vanishing edge fraction.
    g = gen.cycle(512)
    view = ActiveView.whole(g)
    split = build_dense_sparse_split(Network(g), view, 0.9, 0.01, np.random.default_rng(3))
    assert split.v_dense == frozenset()
    assert split.v_sparse == view.active


def test_split_components_far_apart_and_h_conditions():
    # Two cliques at the ends of a long path; small K makes the path sparse.
    from helpers_h import check_h_conditions

    g = blobs_and_path()
    view = ActiveView.whole(g)
    for seed in range(5):
        split = build_dense_sparse_split(Network(g), view, 0.9, 0.05,
                                         np.random.default_rng([seed, 9]))
        check_h_conditions(view, split)


def blobs_and_path():
    size = 12
    path_len = 90
    edges = []
    for u in range(size):
        for v in range(u + 1, size):
            edges.append((u, v))
            edges.append((size + path_len + u, size + path_len + v))
    prev = 0
    for i in range(path_len):
        node = size + i
        edges.append((prev, node))
        prev = node
    edges.append((prev, size + path_len))
    n = 2 * size + path_len
    return gen.Graph.from_edges(n, edges)


def test_low_diam_decomposition_properties():
    for g in (gen.cycle(32), gen.erdos_renyi(48, 0.12, seed=12)):
        view = ActiveView.whole(g)
        for seed in range(20):
            net = Network(g)
            res = low_diam_decomposition(net, view, 0.3, 10,
                                         np.random.default_rng([seed, 11]))
            covered = set()
            for comp in res.components:
                assert not (comp & covered)
                covered |= comp
            assert covered == view.active
            assert res.max_diameter <= res.diameter_bound
            assert len(res.cut_edges) <= 0.3 * g.m + 1e-9
            # never cuts an edge with both endpoints dense
            for u, v in res.cut_edges:
                assert u in res.split.v_sparse or v in res.split.v_sparse
