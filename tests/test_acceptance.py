"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Each test prints a single `ACCEPT-n PASS ...` line on success (visible with
pytest -s or -rA); failures surface as ordinary assertion errors.
"""
import math
import time

import numpy as np
import pytest

from expandec import generators as gen
from expandec.config import DESK
from expandec.graph import Graph, cut_stats, lazy_walk_matrix
from expandec.simulator import Network
from expandec.views import ActiveView
from expandec.walks import (
    WalkParams,
    derive_walk_params,
)
from expandec.cuts import sparse_cut_partition
from expandec.clustering import (
    build_dense_sparse_split,
    exponential_shift_clustering,
    low_diam_decomposition,
)
from expandec.decomposition import expander_decomposition, verify_decomposition
from expandec.triangles import brute_force_triangles, triangle_enumeration

from helpers_h import (
    approximate_local_cut_reference,
    check_h_conditions,
    clusters,
    cut_members,
    exact_rho_table,
    influence_set,
    live_neighbors,
    lone_local_cut,
    mass_at,
    recorded_merges,
    walk_trace,
)

PHI = 1 / 12


def planted_k10(n, p, seed):
    bg = gen.erdos_renyi(n, p, seed=seed)
    edges = {tuple(sorted(e)) for e in bg.edges}
    for u in range(10):
        for v in range(u + 1, 10):
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def test_accept_1_triangle_oracle_equality():
    """50 seeded instances, exact set equality, within five minutes."""
    start = time.time()
    instances = []
    for i in range(10):
        instances.append(("gnp2", gen.erdos_renyi(30 + 3 * i, 0.2, seed=100 + i), 100 + i))
    for i in range(10):
        instances.append(("gnp5", gen.erdos_renyi(30 + 3 * i, 0.5, seed=200 + i), 200 + i))
    for i in range(15):
        count, size = 2 + i % 3, 5 + i % 4
        instances.append((f"chain{count}x{size}", gen.cliques_chain(count, size, 1 + i % 2), 300 + i))
    for i in range(15):
        instances.append(("planted", planted_k10(40 + i, 0.1, seed=400 + i), 400 + i))
    assert len(instances) == 50
    for name, g, seed in instances:
        rep = triangle_enumeration(g, 1 / 6, 2, seed, DESK)
        expected = brute_force_triangles(g)
        assert rep.triangles == sorted(expected), f"{name} seed={seed}"
    elapsed = time.time() - start
    assert elapsed <= 300, f"suite took {elapsed:.0f}s"
    print(f"\nACCEPT-1 PASS triangle oracle equality on 50 instances ({elapsed:.0f}s)")


def _decomposition_suite():
    suite = []
    for i in range(12):
        count = 2 + i % 3
        size = 6 + (i // 3) % 3
        bridges = 1 + i % 2
        g = gen.cliques_chain(count, size, bridges)
        eps = 0.5
        assert (count - 1) * bridges <= math.floor(eps * g.m)
        suite.append((f"chain{count}x{size}b{bridges}", g, eps))
    for i, (n, r) in enumerate([(16, 3), (16, 5), (20, 3), (20, 4), (24, 3),
                                (24, 4), (14, 4), (18, 4), (22, 3)]):
        suite.append((f"rr{n}x{r}", gen.random_regular(n, r, seed=i), 0.5))
    for rows, cols in [(4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (6, 6),
                       (3, 6), (3, 8), (4, 8)]:
        suite.append((f"grid{rows}x{cols}", gen.grid(rows, cols), 0.5))
    return suite


DECOMP_RUNS = []  # collected for the structural-assertion criterion


def test_accept_2_expander_decomposition_guarantee():
    """30 instances x 10 seeds: removal fraction, oracle floor, sweep falsifier."""
    suite = _decomposition_suite()
    assert len(suite) == 30
    for idx, (name, g, eps) in enumerate(suite):
        for seed in range(10):
            dec = expander_decomposition(g, eps, 2, [seed, idx], DESK)
            DECOMP_RUNS.append(dec)
            assert dec.removed_total <= eps * g.m, f"{name} seed={seed} removal"
            removed = {e for es in dec.removed.values() for e in es}
            rep = verify_decomposition(g, dec.components, eps, dec.params.phi_k, DESK,
                                       reported_removed=removed)
            # verify certified every component, on the run's own removal set
            assert [c.members for c in rep.component_results] == [
                tuple(sorted(c)) for c in dec.components], f"{name} seed={seed} verify"
            for cert in rep.component_results:
                if cert.kind == "oracle" and len(cert.members) <= 14:
                    assert cert.phi_lower_ok, (
                        f"{name} seed={seed} oracle {cert.phi_value} < {dec.params.phi_k}"
                    )
                elif cert.kind == "sweep":
                    assert cert.phi_lower_ok, (
                        f"{name} seed={seed} sweep falsified at {cert.phi_value}"
                    )
    print("\nACCEPT-2 PASS decomposition guarantee on 30 instances x 10 seeds")


def test_accept_3_partition_hard_bounds():
    """Volume cap, recorded-constant conductance bound, disjoint pieces: zero failures."""
    graphs = [gen.barbell(12, 1), gen.cliques_chain(3, 6, 2), gen.grid(5, 5),
              gen.random_regular(20, 4, seed=2), gen.erdos_renyi(24, 0.3, seed=8)]
    checked = 0
    for g in graphs:
        if not g.is_connected():
            continue
        view = ActiveView.whole(g)
        vol = view.vol()
        for seed in range(10):
            net = Network(g)
            with recorded_merges() as merges:
                members = sparse_cut_partition(net, view, PHI, 0.25, DESK,
                                               np.random.default_rng([seed, 0xACC3]))
            vol_c = sum(g.deg[v] for v in members)
            assert 48 * vol_c <= 47 * vol
            seen = set()
            for piece in merges.pieces:
                assert not (piece & seen)
                seen |= piece
            assert seen == members
            if members:
                cut = cut_stats(g, members)
                assert float(cut.conductance) <= merges.k_phi(g.n) * PHI * math.log2(g.n) + 1e-12
            checked += 1
    assert checked == 50
    print(f"\nACCEPT-3 PASS partition hard bounds over {checked} runs")


def test_accept_4_balance_recovery():
    """Barbell K12-K12, p = 1/4, 200 seeds: >= 0.70 runs recover volume or side."""
    g = gen.barbell(12, 1)
    view = ActiveView.whole(g)
    vol = view.vol()
    side = set(range(12))
    vol_side = sum(g.deg[v] for v in side)
    good = 0
    for seed in range(200):
        net = Network(g)
        members = sparse_cut_partition(net, view, PHI, 0.25, DESK,
                                       np.random.default_rng([seed, 0xBA1]))
        vol_c = sum(g.deg[v] for v in members)
        overlap = sum(g.deg[v] for v in members & side)
        if 48 * vol_c >= vol or 2 * overlap >= vol_side:
            good += 1
    frac = good / 200
    assert frac >= 0.70, f"recovered fraction {frac}"
    print(f"\nACCEPT-4 PASS balance recovery fraction {frac:.2f} >= 0.70")


CLUSTER_FAMILIES = [
    ("C32", gen.cycle(32)),
    ("P64", gen.path(64)),
    ("G(64,0.1)", gen.erdos_renyi(64, 0.1, seed=31)),
]


def _cluster_check(view, clustering, bound):
    for center, members in clusters(view, clustering).items():
        mem = set(members)
        assert center in mem
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
        assert set(dist) == mem  # connected through join pointers
        assert 2 * max(dist.values(), default=0) <= bound


def test_accept_5_shift_clustering():
    """500 runs per family and beta: hard diameter bound, statistical cut bound."""
    for name, g in CLUSTER_FAMILIES:
        view = ActiveView.whole(g)
        for beta in (0.05, 0.1, 0.2):
            bound = 4 * math.log2(g.n) / beta
            total_cut = 0
            runs = 500
            for seed in range(runs):
                net = Network(g)
                c = exponential_shift_clustering(
                    net, view, beta, np.random.default_rng([seed, 0xC15, int(beta * 100)])
                )
                _cluster_check(view, c, bound)
                total_cut += int(c.inter.sum())
            mean_freq = total_cut / (runs * g.m)
            sigma = math.sqrt(2 * beta * (1 - 2 * beta) / (runs * g.m))
            assert mean_freq <= 2 * beta + 3 * sigma, (name, beta, mean_freq)
    print("\nACCEPT-5 PASS shift clustering on 3 families x 3 betas x 500 runs")


def test_accept_6_low_diameter_decomposition():
    """300 runs per family: diameter bound always, cut budget in >= 95% of runs."""
    beta = 0.3
    for name, g in CLUSTER_FAMILIES:
        view = ActiveView.whole(g)
        within_budget = 0
        runs = 300
        for seed in range(runs):
            net = Network(g)
            res = low_diam_decomposition(net, view, beta,
                                         10, np.random.default_rng([seed, 0x10D]))
            assert res.max_diameter <= res.diameter_bound, (name, seed)
            covered = set()
            for comp in res.components:
                assert not (comp & covered)
                covered |= comp
            assert covered == view.active
            if len(res.cut_edges) <= beta * g.m:
                within_budget += 1
        assert within_budget >= 0.95 * runs, (name, within_budget)
    print("\nACCEPT-6 PASS low-diameter decomposition on 3 families x 300 runs")


def _mixed_h_graphs():
    return [
        ("blobs+P100", _blob_path_graph(12, 100), 0.9, 0.05),
        ("blobs+P60", _blob_path_graph(10, 60), 0.9, 0.05),
        ("three-blobs", _three_blob_graph(), 0.9, 0.05),
        ("G(64,0.1)", gen.erdos_renyi(64, 0.1, seed=77), 0.5, 10.0),
        ("C96", gen.cycle(96), 0.8, 0.2),
    ]


def _blob_path_graph(size, path_len):
    edges = []
    for u in range(size):
        for v in range(u + 1, size):
            edges.append((u, v))
            edges.append((size + path_len + u, size + path_len + v))
    prev = 0
    for i in range(path_len):
        edges.append((prev, size + i))
        prev = size + i
    edges.append((prev, size + path_len))
    return Graph.from_edges(2 * size + path_len, edges)


def _three_blob_graph():
    # three K10 blobs anchored on a long cycle, n = 120
    blob, gap = 10, 30
    edges = []
    backbone = []
    node = 0
    for _ in range(3):
        base = node
        for u in range(blob):
            for v in range(u + 1, blob):
                edges.append((base + u, base + v))
        backbone.append(base)
        node += blob
        for _ in range(gap):
            backbone.append(node)
            node += 1
    for i, a in enumerate(backbone):
        b = backbone[(i + 1) % len(backbone)]
        edges.append(tuple(sorted((a, b))))
    return Graph.from_edges(node, sorted(set(edges)))


def test_accept_7_invariant_h_suite():
    """100 seeded splits on mixed graphs n <= 128: all three conditions, brute force."""
    graphs = _mixed_h_graphs()
    runs = 0
    for name, g, beta, K in graphs:
        assert g.n <= 128
        view = ActiveView.whole(g)
        for seed in range(20):
            split = build_dense_sparse_split(Network(g), view, beta, K,
                                             np.random.default_rng([seed, 0x4A5]))
            check_h_conditions(view, split, beta, K)
            runs += 1
    assert runs == 100
    print(f"\nACCEPT-7 PASS invariant suite over {runs} split runs")


def test_accept_8_walk_kernel_numerics():
    """Symmetry to 1e-12 float and exact rational; domination; reach-set volume."""
    rng = np.random.default_rng(0x8A11)
    graphs = []
    while len(graphs) < 20:
        n = int(rng.integers(5, 21))
        g = gen.erdos_renyi(n, 0.45, seed=800 + len(graphs))
        if g.m >= 3 and min(g.deg) >= 1:
            graphs.append(g)
    for g in graphs:
        m = lazy_walk_matrix(g)
        p = np.eye(g.n)
        for _t in range(50):
            p = m @ p
            r = p / g.deg[:, None]
            assert np.abs(r - r.T).max() <= 1e-12
        tables = [exact_rho_table(g, v, 50) for v in range(g.n)]
        for t in range(0, 51, 10):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    ru = tables[v][t].get(u, (0, t))[0]
                    rv = tables[u][t].get(v, (0, t))[0]
                    assert ru * int(g.deg[v]) == rv * int(g.deg[u])
    # pointwise domination of the truncated walk, exact in shared arithmetic
    for g in graphs[:8]:
        view = ActiveView.whole(g)
        params = derive_walk_params(g.m, 1 / 3, DESK)
        run_t = walk_trace(view, 0, params, 1)
        untr = WalkParams(params.m, params.phi, params.ell, params.t0,
                          params.f_phi, params.gamma, 0.0)
        run_u = walk_trace(view, 0, untr, 1)
        for t in range(min(params.t0, 60) + 1):
            assert (mass_at(run_t, t) <= mass_at(run_u, t)).all()
    # reach-set volume bound on n <= 32 at desk constants
    checked = 0
    for trial in range(20):
        n = int(rng.integers(8, 33))
        g = gen.erdos_renyi(n, 0.3, seed=880 + trial)
        if g.m < 2:
            continue
        params = derive_walk_params(g.m, 1 / 3, DESK)
        for b in (1, 2):
            u = int(rng.integers(n))
            z = influence_set(g, u, params, b)
            vol_z = sum(g.deg[v] for v in z)
            assert vol_z <= (params.t0 + 1) / (2 * params.eps_b(b))
            checked += 1
    assert checked >= 30
    print("\nACCEPT-8 PASS walk kernel numerics (symmetry, domination, reach sets)")


EQUIV_GRAPHS = [
    gen.barbell(6, 1),
    gen.cliques_chain(3, 5, 1),
    gen.grid(4, 4),
    gen.erdos_renyi(18, 0.35, seed=5),
    gen.clique(9),
]


def test_accept_9_distributed_centralized_equivalence():
    """100 seeds across 5 graphs: identical member sets; determinism of runs."""
    rng = np.random.default_rng(0x9E0)
    for g in EQUIV_GRAPHS:
        view = ActiveView.whole(g)
        params = derive_walk_params(g.m, PHI, DESK)
        for _ in range(20):
            v = int(rng.integers(g.n))
            b = 1 + int(rng.integers(params.ell))
            _, ref = approximate_local_cut_reference(view, v, PHI, b, params, DESK)
            net = Network(g)
            _, dist = lone_local_cut(net, view, v, PHI, b, params, DESK)
            assert cut_members(ref) == cut_members(dist)
    # determinism: identical seed => identical output and ledger, twice
    g = gen.cliques_chain(3, 6, 1)
    a = expander_decomposition(g, 0.5, 2, 77, DESK)
    b = expander_decomposition(g, 0.5, 2, 77, DESK)
    assert a.components == b.components
    assert a.ledger.snapshot() == b.ledger.snapshot()
    assert a.to_json() == b.to_json()
    # and for the cut accumulation on its own: two fresh runs, one seed
    outs = []
    for _ in range(2):
        net = Network(g)
        members = sparse_cut_partition(net, ActiveView.whole(g), PHI, 0.25, DESK,
                                       np.random.default_rng([9, 0x7D]))
        outs.append((members, net.ledger.snapshot()))
    assert outs[0][0] and outs[0][1]
    assert outs[0] == outs[1]
    print("\nACCEPT-9 PASS distributed/centralized equivalence and determinism")


def test_accept_10_structural_assertions_never_fire():
    """Depth, level, iteration, and overlap budgets hold across the suite."""
    if not DECOMP_RUNS:  # criterion 2 must have populated the pool
        pytest.skip("decomposition suite did not run")
    for dec in DECOMP_RUNS:
        diag = dec.diagnostics
        assert diag["max_depth"] <= diag["d"]
        for stats in diag["phase2"]:
            assert stats["final_level"] <= dec.params.k
            tau = stats["tau"]
            for lvl, vol in stats["removed_vol_at_level"].items():
                assert vol <= stats["m_levels"][lvl - 1] * (1 + 1e-9)
    print(f"\nACCEPT-10 PASS structural assertions over {len(DECOMP_RUNS)} runs")
