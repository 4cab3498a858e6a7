"""Shift clustering, neighborhood estimation, dense/sparse split, low-diameter parts."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from expandec import clustering, decomposition, views
from expandec import generators as gen
from expandec.config import DESK
from expandec.graph import adjacency_csr, components_of, group_by_root
from expandec.simulator import Network
from expandec.views import ActiveView, WorkingGraph
from expandec.clustering import (
    SPLIT_F,
    NeighborhoodOracle,
    ball_edge_counts,
    build_dense_sparse_split,
    exponential_shift_clustering,
    low_diam_decomposition,
    neighborhood_size_estimate,
)

from helpers_h import (
    OVER,
    GivenShifts,
    clusters,
    live_edges,
    live_neighbors,
    neighborhood_edges_exact,
    neighborhood_edges_per_round,
    neighborhood_size_estimate_per_rung,
    neighborhood_threshold_test,
    shift_assignment_per_epoch,
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
    c = exponential_shift_clustering(net, view, 0.2, GivenShifts(np.zeros(16)))
    assert all(len(m) == 1 for m in clusters(view, c).values())


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
                for center, members in clusters(view, c).items():
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
        total += int(c.inter.sum())
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
        if draw % 2:
            shifts = [int(rng.integers(0, 5)) for _ in view.verts]
            ties += len(set(shifts)) < len(shifts)
            gen_a, gen_b = GivenShifts(shifts), GivenShifts(shifts)
        else:
            gen_a, gen_b = np.random.default_rng(draw), np.random.default_rng(draw)
        isolated += bool((view.live_deg == 0).any())
        net, ref_net = Network(g), Network(g)
        a = exponential_shift_clustering(net, view, beta, gen_a)
        b = shift_clustering_per_epoch(ref_net, view, beta, gen_b)
        for name in ("centre", "start", "inter"):
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (draw, name)
        assert a.epochs == b.epochs
        assert net.ledger.snapshot() == ref_net.ledger.snapshot()
        if not draw % 2:
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


def test_low_diameter_run_builds_one_distance_table(monkeypatch):
    # below a saturated radius the split's oracle and the diameters read the
    # view's one hop-distance table
    calls = []
    hop = views.hop_distances
    monkeypatch.setattr(views, "hop_distances", lambda adj: calls.append(1) or hop(adj))
    g = gen.cycle(160)
    view = ActiveView.whole(g)
    res = low_diam_decomposition(Network(g), view, 0.9, 0.01, np.random.default_rng(1))
    assert res.split.a < len(view)
    assert res.max_diameter == max(_diameters_by_bfs(view, res.components))
    assert len(calls) == 1


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


def _count_generators(monkeypatch) -> list[str]:
    """Record the module of each caller that builds a numpy generator from
    here on: `expandec.clustering` builds only rung streams."""
    built = []
    make = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(sys._getframe(1).f_globals["__name__"])
        return make(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return built


def _views_for_size_estimate():
    """Views with removed edges, several components and an isolated vertex,
    and two 64-vertex hosts that reach the top rungs at f = 0.9, where the
    low rungs accept counts up to 91.2 and a sampled count up to about 107:
    a 20-clique (190 edges) leaves them to the sampled counts, and a
    15-clique (105 edges) settles at the first one without a stream."""
    g = gen.erdos_renyi(30, 0.2, seed=3)
    removed = WorkingGraph(g)
    removed.remove_edges(list(g.edges[::4]), "r2")
    isolated = WorkingGraph(gen.clique(6))
    isolated.remove_edges([(0, v) for v in range(1, 6)], "r1")  # 0 keeps no live edge

    def clique_and_path(q):
        return gen.Graph.from_edges(64, [(u, v) for u in range(q) for v in range(u + 1, q)]
                                    + [(i, i + 1) for i in range(q, 63)])

    views = dict(_views_for_closed_form())
    views.update({
        "removed edges, sub view": ActiveView(removed, range(2, 30)),
        "isolated vertex": ActiveView(isolated, range(6)),
        "sampled rungs decide": ActiveView.whole(clique_and_path(20)),
        "no rung stream": ActiveView.whole(clique_and_path(15)),
    })
    return views


def test_size_estimate_equals_per_rung_reference(monkeypatch):
    """The one-count ladder against a threshold test per rung: the same
    estimates, ledger snapshot and generator state, at radii below len(view)
    (oracle counts) and from it on (closed form), at f = SPLIT_F, 1/4 and
    0.9, over 20 seeds."""
    views = _views_for_size_estimate()
    built = _count_generators(monkeypatch)
    streams = {}
    for name, view in views.items():
        oracle = NeighborhoodOracle(view)
        built.clear()
        for d in (1, 2, 3, len(view), len(view) + 3):
            for f in (SPLIT_F, 0.25, 0.9):
                for seed in range(20):
                    net, ref_net = Network(view.graph), Network(view.graph)
                    gen_a, gen_b = np.random.default_rng([seed]), np.random.default_rng([seed])
                    got = neighborhood_size_estimate(net, view, d, f, gen_a, oracle=oracle)
                    want = neighborhood_size_estimate_per_rung(ref_net, view, d, f, gen_b,
                                                               oracle=oracle)
                    assert got.tolist() == want.tolist(), (name, d, f, seed)
                    assert net.ledger.snapshot() == ref_net.ledger.snapshot(), (name, d, f)
                    assert gen_a.integers(1 << 62) == gen_b.integers(1 << 62)
        streams[name] = (built.count("expandec.clustering"), built.count("helpers_h"))
    sampled, ref_sampled = streams["sampled rungs decide"]
    assert sampled > 0 and ref_sampled > sampled
    none, ref_none = streams["no rung stream"]  # the reference builds the top rungs' streams
    assert none == 0 and ref_none > 0
    # no low rung accepts a clique vertex's ball at radius 2: a top rung does
    for name in ("sampled rungs decide", "no rung stream"):
        view = views[name]
        est = neighborhood_size_estimate(Network(view.graph), view, 2, 0.9,
                                         np.random.default_rng(0))
        assert est[0] > clustering.K_SAMPLE * math.log2(64) / 0.9 ** 2, name


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


def test_split_merges_dense_components_within_a(monkeypatch):
    """Scripted estimates make 50 and 138 the only dense vertices of a
    200-path, whose a = 43 < 200: their a-balls are two components 2 apart,
    so one merge round grows the dense region to one component."""
    from helpers_h import check_h_conditions

    g = gen.path(200)
    view = ActiveView.whole(g)
    far = np.full(len(view), 100.0)
    far[[50, 138]] = 0.0
    estimates = [np.ones(len(view)), far]
    radii = []
    monkeypatch.setattr(clustering, "neighborhood_size_estimate",
                        lambda net, view, d, *args, **kw: radii.append(d) or estimates.pop(0))
    split = build_dense_sparse_split(Network(g), view, 0.9, 0.05, np.random.default_rng(0))
    assert (split.a, split.b) == (43, 1) and radii[0] == split.a
    assert split.dense_prime == {50, 138}
    assert split.stages == [[frozenset(range(7, 94)), frozenset(range(95, 182))],
                            [view.active]]
    assert split.v_dense == view.active and split.v_sparse == frozenset()
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


def _sliced(view, hosts):
    """Components of the view's adjacency sliced to hosts."""
    rows = np.array(sorted(view.index[v] for v in hosts), dtype=np.int64)
    return components_of(view.adj_matrix[rows][:, rows], view.verts[rows])


def test_components_from_roots_equal_sliced_matrix(monkeypatch):
    """Grouping the view's roots, the saturated split's stages and the
    empty-cut decomposition give the same lists, order included, as
    `components_of` on the sliced or rebuilt matrix.  With every vertex
    forced sparse, so that the clustering's cut edges are cut, the parts
    equal those of the rebuilt matrix without the cut edges and networkx's."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(23)
    views = _views_for_closed_form()
    for name, view in views.items():
        whole = components_of(view.adj_matrix, view.verts)
        assert group_by_root(view.roots, view.verts) == whole == view.components(), name
        for _ in range(5):  # unions of whole components, as a saturated W is
            hosts = frozenset().union(*(c for c in whole if rng.random() < 0.5))
            rows = np.flatnonzero(view.member_mask(hosts))
            assert group_by_root(view.roots[rows], view.verts[rows]) == _sliced(view, hosts)
        for seed in range(3):
            res = low_diam_decomposition(Network(view.graph), view, 0.3, 10,
                                         np.random.default_rng([seed, 23]))
            assert res.split.a >= len(view) - 1 and res.cut_edges == [], name
            for stage in res.split.stages:
                assert stage == _sliced(view, frozenset().union(*stage)), name
            assert res.components == components_of(
                adjacency_csr(len(view), view.edges_local), view.verts), name
    split = clustering.build_dense_sparse_split
    monkeypatch.setattr(clustering, "build_dense_sparse_split", lambda net, view, *args: (
        dataclasses.replace(split(net, view, *args), v_sparse=view.active)))
    cuts = 0
    for name, view in views.items():
        res = low_diam_decomposition(Network(view.graph), view, 0.9, 10,
                                     np.random.default_rng(4))
        cut = set(res.cut_edges)
        cuts += len(cut)
        el = view.edges_local
        keep = [(u, v) not in cut for u, v in view.verts[el].tolist()]
        assert res.components == components_of(adjacency_csr(len(view), el[keep]),
                                                view.verts), name
        h = nx.Graph()
        h.add_nodes_from(view.verts.tolist())
        h.add_edges_from(view.verts[el[keep]].tolist())
        assert res.components == sorted(map(frozenset, nx.connected_components(h)), key=min)
    assert cuts > 0


def _set_components(verts, edges) -> set[frozenset]:
    """The connected parts of the graph on verts with edges, by flood fill."""
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    parts, seen = set(), set()
    for v in verts:
        if v not in seen:
            part, frontier = {v}, [v]
            while frontier:
                frontier = [w for u in frontier for w in adj[u] if w not in part]
                part.update(frontier)
            parts.add(frozenset(part))
            seen |= part
    return parts


def test_low_diam_cut_matches_set_reference(monkeypatch):
    """With a chosen sparse side, the low-diameter decomposition cuts exactly
    the inter-cluster live edges with a sparse end, once each, and its parts
    are the components of the live edges less the cut.  The clusters come
    from the epoch simulation of the shifts the clustering drew."""
    split = clustering.build_dense_sparse_split
    shift = clustering.exponential_shift_clustering
    sparse, drawn = [], []
    monkeypatch.setattr(clustering, "build_dense_sparse_split", lambda net, view, *args: (
        dataclasses.replace(split(net, view, *args), v_sparse=sparse[-1])))

    def shift_recorded(net, view, beta, rng):
        # the kernel's own draw, kept for the reference
        draws = rng.exponential(scale=1.0 / beta, size=len(view))
        drawn.append((beta, dict(zip(view.verts.tolist(), draws.tolist()))))
        return shift(net, view, beta, GivenShifts(draws))

    monkeypatch.setattr(clustering, "exponential_shift_clustering", shift_recorded)
    rng = np.random.default_rng(26)
    cutting = 0
    for g in (gen.cycle(64), gen.path(48), gen.grid(6, 7), gen.erdos_renyi(40, 0.1, seed=5)):
        for trial in range(4):
            working = WorkingGraph(g)
            if trial % 2:
                working.remove_edges(g.edges[::7], "x")
            view = ActiveView(working, [v for v in range(g.n) if trial < 2 or v % 5])
            sparse.append(frozenset(v for v in view.verts.tolist() if rng.random() < 0.5))
            res = low_diam_decomposition(Network(g), view, 0.9, 0.01,
                                         np.random.default_rng([trial, 26]))
            beta, deltas = drawn[-1]
            centre = shift_assignment_per_epoch(view, g.n, beta, deltas)[0]
            live = set(live_edges(view))
            want = {(u, v) for u, v in live
                    if centre[u] != centre[v] and (u in sparse[-1] or v in sparse[-1])}
            assert len(res.cut_edges) == len(want) and set(res.cut_edges) == want
            assert set(res.components) == _set_components(view.verts.tolist(), live - want)
            assert len(res.components) == len(set(res.components))
            cutting += bool(want)
    assert cutting >= 12, cutting


def test_chain_decomposition_slices_no_matrix_and_builds_no_rung_stream(monkeypatch):
    """One desk decomposition of cliques_chain:20:12:1: every low-diameter
    stage saturates, so the split groups roots instead of slicing the
    adjacency, and every exact count settles the ladder without a sampled
    rung's stream."""
    sliced, estimates = [], []
    monkeypatch.setattr(clustering, "components_of",
                        lambda *args: sliced.append(args) or components_of(*args))
    estimate = clustering.neighborhood_size_estimate
    monkeypatch.setattr(clustering, "neighborhood_size_estimate",
                        lambda *args, **kw: estimates.append(args) or estimate(*args, **kw))
    built = _count_generators(monkeypatch)
    g = gen.generate("cliques_chain:20:12:1", seed=1)
    decomposition.expander_decomposition(g, 0.5, 2, 1, DESK)
    assert estimates and sliced == []
    assert "expandec.clustering" not in built
