"""Walk parameter derivation, fixed-point kernel, sweep machinery, reach sets."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from expandec import cuts
from expandec import generators as gen
from expandec import walks
from expandec.config import DESK, PAPER
from expandec.decomposition import _sweep_falsifier, expander_decomposition
from expandec.errors import BadPhi, TooLarge
from expandec.graph import adjacency_csr, lazy_walk_matrix
from expandec.simulator import Network
from expandec.views import ActiveView, WorkingGraph
from expandec.walks import (
    FREEZE_BLOCK,
    MASS_MSG_BITS,
    SCALE,
    WalkParams,
    compute_walk,
    derive_walk_params,
    sweep_tables,
)
from helpers_h import (
    StateRecorder,
    compute_walk_per_step,
    exact_rho_table,
    graph_from_rows,
    influence_set,
    lazy_step,
    mass_at,
    prefix_boundary_counts,
    pstar,
    state_at,
    sweep_order,
    sweep_order_local,
    truncate,
    walk_step_messages,
    walk_step_units,
    walk_trace,
    walk_traces,
)


def test_derive_paper_ell_t0():
    p = derive_walk_params(100, 0.1, PAPER)
    assert p.ell == 7
    assert p.t0 == 32366  # ceil(49 * (ln 100 + 2) / 0.01)


def test_derive_paper_f_phi():
    p = derive_walk_params(100, 0.1, PAPER)
    assert p.f_phi == pytest.approx(1e-3 / (14**4 * (math.log(100) + 4) ** 2), rel=1e-12)
    assert p.f_phi == pytest.approx(3.5152e-10, rel=1e-3)


def test_eps_halving():
    for profile in (PAPER, DESK):
        p = derive_walk_params(333, 0.07, profile)
        for b in range(1, 9):
            assert p.eps_b(b + 1) == pytest.approx(p.eps_b(b) / 2, rel=1e-15)


def test_derive_bad_phi():
    with pytest.raises(BadPhi):
        derive_walk_params(10, 0.0, DESK)
    with pytest.raises(BadPhi):
        derive_walk_params(10, 1.5, DESK)


def test_lazy_step_k2():
    g = gen.clique(2)
    p = lazy_step(g, np.array([1.0, 0.0]))
    assert np.allclose(p, [0.5, 0.5])


def test_lazy_step_stationary():
    g = gen.barbell(4, 1)
    psi = g.deg / g.volume()
    assert np.allclose(lazy_step(g, psi), psi, atol=1e-15)


def test_lazy_step_k3_matches_matrix():
    g = gen.clique(3)
    chi = np.array([1.0, 0.0, 0.0])
    m = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    assert np.allclose(lazy_step(g, chi), m @ chi)
    assert np.allclose(lazy_step(g, chi), [0.5, 0.25, 0.25])


def test_lazy_step_self_loops_keep_mass():
    g = graph_from_rows([[1], [0]], [2, 0])  # deg 3 and 1
    p = lazy_step(g, np.array([1.0, 0.0]))
    # keeps 1/2 lazily plus 2/6 via loops; sends 1/6 across
    assert np.allclose(p, [5 / 6, 1 / 6])


def test_truncate_examples():
    k2 = gen.clique(2)
    assert np.allclose(truncate(k2, np.array([0.5, 0.5]), 0.3), [0.0, 0.0])
    g = gen.erdos_renyi(6, 0.5, seed=1)
    p = np.abs(np.random.default_rng(0).normal(size=6))
    assert np.allclose(truncate(g, p, 0.0), p)
    star = gen.star(3)
    p = np.array([0.5, 0.2, 0.2, 0.1])
    assert np.allclose(truncate(star, p, 0.04), p)
    assert np.allclose(truncate(star, p, 0.06), [0.5, 0.2, 0.2, 0.0])


def _params(m, phi=1 / 12, t0=None):
    p = derive_walk_params(m, phi, DESK)
    if t0 is not None:
        p = dataclasses.replace(p, t0=t0)
    return p


def test_walk_initial_state():
    g = gen.clique(4)
    view = ActiveView.whole(g)
    run = walk_trace(view, 2, _params(6, t0=10), 1)
    state0 = state_at(run, 0)
    assert state0.mass(2) == 1.0
    assert state0.support() == [2]
    assert state0.participants == frozenset({(0, 2), (1, 2), (2, 3)})


def test_distributed_walk_equals_centralized():
    g = gen.barbell(4, 1)
    view = ActiveView.whole(g)
    params = _params(13, t0=60)
    net = Network(g)
    run_d = walk_trace(view, 0, params, 2, net=net)
    run_c = walk_trace(view, 0, params, 2)
    assert len(run_d.masses) == len(run_c.masses)
    for a, b in zip(run_d.masses, run_c.masses):
        assert np.array_equal(a, b)
    assert net.ledger.totals().rounds == params.t0


def test_walk_freeze_charges_full_horizon():
    g = gen.clique(4)
    net = Network(g)
    params = _params(6, t0=5000)
    run = walk_trace(ActiveView.whole(g), 0, params, 3, net=net)
    assert run.freeze_t is not None and run.freeze_t < 5000
    assert net.ledger.totals().rounds == 5000


def test_pstar_confined_with_large_truncation():
    g = gen.barbell(4, 1)
    params = WalkParams(13, 1 / 12, 4, 50, 1e-3, 1e-2, 0.04)  # eps_1 = 0.02
    run = walk_trace(ActiveView.whole(g), 1, params, 1)
    far_edges = {(u, v) for u, v in g.edges if u >= 4 and v >= 4}
    assert not (pstar(run) & far_edges)
    assert pstar(run)  # near side still explored


def test_mass_never_increases():
    g = gen.erdos_renyi(12, 0.4, seed=3)
    run = walk_trace(ActiveView.whole(g), 0, _params(g.m, t0=80), 2)
    totals = [int(m.sum()) for m in run.masses]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[0] == SCALE


def test_truncated_dominated_by_untruncated_exact():
    g = gen.erdos_renyi(10, 0.5, seed=5)
    view = ActiveView.whole(g)
    params = _params(g.m, t0=60)
    run_t = walk_trace(view, 0, params, 1)
    untr = WalkParams(params.m, params.phi, params.ell, 60, params.f_phi,
                      params.gamma, 0.0)  # zero truncation
    run_u = walk_trace(view, 0, untr, 1)
    for t in range(61):
        assert (mass_at(run_t, t) <= mass_at(run_u, t)).all()


def test_fixed_point_tracks_dense_oracle():
    g = gen.erdos_renyi(10, 0.5, seed=6)
    view = ActiveView.whole(g)
    t0 = 50
    untr = WalkParams(g.m, 0.1, 6, t0, 0.0, 0.0, 0.0)
    run = walk_trace(view, 3, untr, 1)
    m = lazy_walk_matrix(g)
    p = np.zeros(g.n)
    p[3] = 1.0
    for t in range(1, t0 + 1):
        p = m @ p
        q = mass_at(run, t) / SCALE
        assert (q <= p + 1e-12).all()
        assert np.abs(q - p).max() <= t * 2.0**-40


def test_rho_symmetry_float_and_exact():
    rng = np.random.default_rng(11)
    for trial in range(6):
        n = int(rng.integers(4, 13))
        g = gen.erdos_renyi(n, 0.5, seed=trial + 40)
        if g.m == 0 or min(g.deg) == 0:
            continue
        m = lazy_walk_matrix(g)
        p = np.eye(n)
        for _ in range(30):
            p = m @ p
            r = p / g.deg[:, None]
            assert np.abs(r - r.T).max() <= 1e-12
        tables = [exact_rho_table(g, v, 12) for v in range(n)]
        for t in range(13):
            for u in range(n):
                for v in range(u + 1, n):
                    ru = tables[v][t].get(u, (0, t))[0]
                    rv = tables[u][t].get(v, (0, t))[0]
                    assert ru * int(g.deg[v]) == rv * int(g.deg[u])


def test_sweep_order_uniform_ties_by_id():
    g = gen.clique(5)
    view = ActiveView.whole(g)
    params = _params(10, t0=4)
    run = walk_trace(view, 0, params, 3)
    # force a uniform state: every vertex same mass, same degree
    state = state_at(run, 0)
    state.mass_units[:] = 7 << 20
    order, prefix = sweep_order(state)
    assert order == [0, 1, 2, 3, 4]
    assert prefix == [4, 8, 12, 16, 20]


def test_sweep_prefix_volumes_monotone():
    g = gen.barbell(4, 1)
    view = ActiveView.whole(g)
    run = walk_trace(view, 0, _params(13, t0=30), 2)
    state = state_at(run, 10)
    order, prefix = sweep_order(state)
    assert prefix == sorted(prefix)
    assert prefix[-1] == sum(g.deg[v] for v in state.support())


def test_influence_set_volume_bound():
    # Vol(Z) <= (t0+1) / (2 eps_b) with desk-profile constants, random graphs.
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(6, 33))
        g = gen.erdos_renyi(n, 0.3, seed=trial + 100)
        if g.m < 2:
            continue
        params = derive_walk_params(g.m, 1 / 3, DESK)
        for b in (1, 2):
            u = int(rng.integers(n))
            z = influence_set(g, u, params, b)
            vol_z = sum(g.deg[v] for v in z)
            assert vol_z <= (params.t0 + 1) / (2 * params.eps_b(b))
            checked += 1
    assert checked >= 20


def test_influence_set_too_large():
    with pytest.raises(TooLarge):
        influence_set(gen.cycle(80), 0, _params(80, t0=5), 1)


def test_walk_step_exact_at_large_degree():
    # deg(0) = 40001: mass * (2 deg - live) overflows int64 when formed directly
    g = graph_from_rows([[1], [0]], [40000, 0])
    view = ActiveView.whole(g)
    mass = np.array([SCALE, 0], dtype=np.int64)
    ref = [SCALE, 0]
    for _ in range(5):
        mass = walk_step_units(view, mass)
        deg = g.deg.tolist()
        shares = [ref[v] // (2 * deg[v]) for v in range(2)]
        ref = [
            ref[v] * (2 * deg[v] - 1) // (2 * deg[v]) + shares[1 - v]
            for v in range(2)
        ]
        assert mass.tolist() == ref
    assert 0.99 < mass.sum() / SCALE <= 1.0


def _random_view(rng, seed, n_max=24, n_min=2):
    """A view of a random graph without isolated vertices, with some edges
    removed and some vertices left out; None when the draw is degenerate.
    Above 24 vertices the edge probability falls as 24 / n, so the mean
    degree stays below 15."""
    n = int(rng.integers(n_min, n_max))
    g = gen.erdos_renyi(n, float(rng.uniform(0.1, 0.6)) * min(1.0, 24 / n), seed=seed)
    if g.m == 0 or min(g.deg) == 0:
        return None
    working = WorkingGraph(g)
    working.remove_edges([e for e in g.edges if rng.random() < 0.2], "r2")
    return ActiveView(working, [v for v in range(n) if rng.random() < 0.8] or [0])


def _check_tables(view, masses):
    order, cnt, prefvol, bnds = sweep_tables(view, masses)
    # whole rows, the unsupported tail included, on either sort path
    assert np.array_equal(order, np.argsort(-(masses / view.deg_pos), axis=1, kind="stable"))
    for r, mass in enumerate(masses):
        ref = sweep_order_local(view, mass)
        k = len(ref)
        assert cnt[r] == k
        assert order[r, :k].tolist() == ref.tolist()
        assert prefvol[r, :k].tolist() == np.cumsum(view.deg[ref]).tolist()
        assert bnds[r, :k].tolist() == prefix_boundary_counts(view, ref).tolist()


def _tied_rows(view):
    """Rows of masses whose rho values tie, besides the row in which every
    rho is equal (from different (mass, deg) pairs): runs of 12 consecutive
    vertices with one rho, as a clique chain's walk leaves them; the same
    with nine tenths of the vertices unsupported; and keys one ulp apart,
    rho 2^52 or 2^52 + 1 plus 1 / deg on every third vertex, which rounds
    to one of 2^52, 2^52 + 1 and 2^52 + 2."""
    idx, deg = np.arange(len(view)), view.deg_pos
    runs = (idx // 12 % 5 + 1) * deg
    return [runs, np.where(idx % 10 == 3, runs, 0), deg * ((1 << 52) + idx % 2) + (idx % 3 == 0)]


def test_sweep_tables_match_per_row_reference():
    rng = np.random.default_rng(31)
    checked = {True: 0, False: 0}  # views on the stable sort path, on the SIMD one
    # views of 2-23 vertices, then of about 130-600 (of 170-749 drawn)
    for trial, (n_max, n_min) in enumerate([(24, 2)] * 40 + [(750, 170)] * 12):
        view = _random_view(rng, trial + 300, n_max, n_min)
        if view is None:
            continue
        n = len(view)
        stable = n < walks.STABLE_SORT_MAX
        assert stable == (n_max == 24)
        rows = [
            rng.integers(1, SCALE, size=n) * (rng.random(n) < 0.6),  # random masses
            int(rng.integers(1, 1 << 20)) * view.deg,                # every rho equal
            np.where(rng.random(n) < 0.5, 7 * view.deg, rng.integers(0, 50, size=n)),
            np.zeros(n, dtype=np.int64),                            # empty support
            *_tied_rows(view),
        ]
        _check_tables(view, np.array(rows, dtype=np.int64))
        checked[stable] += 1
    assert checked[True] >= 20 and checked[False] >= 6


def test_sweep_tables_without_live_edges():
    g = gen.cliques_chain(3, 4, 1)
    working = WorkingGraph(g)
    working.remove_edges(g.edges, "r1")
    view = ActiveView(working, range(g.n))
    assert view.m_live == 0
    masses = np.array([np.arange(g.n) * 3, np.zeros(g.n), g.deg * 5], dtype=np.int64)
    _check_tables(view, masses)
    order, cnt, prefvol, bnds = sweep_tables(view, masses)
    assert not bnds.any()


def _tables_row_by_row(view, masses):
    return [np.concatenate(tables) for tables in zip(
        *(sweep_tables(view, masses[r : r + 1]) for r in range(len(masses))))]


def test_sweep_tables_in_edge_chunks_match_row_by_row(monkeypatch):
    rng = np.random.default_rng(43)
    views = [v for v in (_random_view(rng, trial + 700) for trial in range(12)) if v is not None]
    g = gen.cliques_chain(3, 4, 1)
    working = WorkingGraph(g)
    working.remove_edges(g.edges, "r1")
    views.append(ActiveView(working, range(g.n)))
    assert views[-1].m_live == 0 and len(views) >= 8
    for view in views:
        n = len(view)
        masses = (rng.integers(0, SCALE, size=(7, n)) * (rng.random((7, n)) < 0.7))
        masses[3] = 0
        want = _tables_row_by_row(view, masses)
        # edge chunks of 1, 2 and 3 rows against the 7-row block
        for chunk in (1, 2, 3):
            monkeypatch.setattr(walks, "SWEEP_BLOCK_CELLS", chunk * max(1, view.m_live))
            got = sweep_tables(view, masses)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        _check_tables(view, masses)


@pytest.mark.parametrize("spec", ["erdos_renyi:400:0.02", "cliques_chain:20:12:1"])
def test_sweep_order_paths_agree(monkeypatch, spec):
    """With every row on the SIMD sort path (STABLE_SORT_MAX 0) and every
    row on the stable one (above n), a view's walk states give identical
    sweep tables and its walks identical scan outcomes; on the clique chain
    the decomposition gives identical JSON, its ledger included."""
    g = gen.generate(spec, seed=1)
    view = ActiveView.whole(g)
    base = derive_walk_params(g.m, 1 / 12, DESK)
    rng = np.random.default_rng(5)
    pairs = [(int(v), int(rng.integers(1, base.ell + 1)))
             for v in rng.choice(view.verts, 12, replace=False)]
    states = np.concatenate([trace.masses[1:] for trace in
                             walk_traces(view, pairs[:3], _walk_with_t0(base, 150))])
    tie_passes = []
    ties_by_index = walks._ties_by_index
    monkeypatch.setattr(walks, "_ties_by_index",
                        lambda key, order: tie_passes.append(1) or ties_by_index(key, order))

    def on_both_paths(run):
        out = []
        for cut in (0, len(view) + 1):
            monkeypatch.setattr(walks, "STABLE_SORT_MAX", cut)
            before = len(tie_passes)
            out.append(run())
            assert (len(tie_passes) > before) == (cut == 0)
        return out

    simd, stable = on_both_paths(lambda: sweep_tables(view, states))
    assert all(np.array_equal(a, b) for a, b in zip(simd, stable, strict=True))
    simd, stable = on_both_paths(lambda: [
        (run.t_last, run.freeze_t, hit, trips)
        for run, hit, trips in cuts.scan_runs(view, pairs, base, DESK)])
    assert simd == stable
    if spec.startswith("cliques_chain"):
        assert any(hit is not None for _, _, hit, _ in simd)
        simd, stable = on_both_paths(
            lambda: expander_decomposition(g, 0.5, 2, 1, DESK).to_json())
        assert simd == stable


class BlockRecorder(StateRecorder):
    """A StateRecorder that also keeps the row count of every block."""

    def __init__(self, view, pairs):
        super().__init__(view, pairs)
        self.blocks = []

    def __call__(self, masses, r_run, r_t):
        self.blocks.append(len(masses))
        return super().__call__(masses, r_run, r_t)


@pytest.mark.parametrize("graph, cells, t_stop, sizes", [
    # n = 8, 28 live edges: first block 84 // 28 = 3 rows, then doubling up to 84 // 8
    (gen.clique(8), 84, 40, [3, 6, 10, 10, 10, 1]),
    (gen.clique(8), 84, 2, [2]),
    (gen.clique(8), 1, 9, [1] * 9),
    # the first block stops at FREEZE_BLOCK steps
    (gen.clique(8), 1 << 16, 40, [FREEZE_BLOCK, 40 - FREEZE_BLOCK]),
    # n = 12 above 11 live edges: every block has 48 // 12 rows
    (gen.path(12), 48, 10, [4, 4, 2]),
    # n = 10, 21 live edges: 2 rows, then 4 (the n cap)
    (gen.barbell(5, 1), 42, 11, [2, 4, 4, 1]),
])
def test_sweep_blocks_grow_from_the_first_block(monkeypatch, graph, cells, t_stop, sizes):
    # one walk to t0 = t_stop without truncation: the sweep gets its steps
    # 1..t0 in blocks of the given sizes, each state as the per-step walk's
    view = ActiveView.whole(graph)
    params = WalkParams(graph.m, 1 / 12, 1, t_stop, 0.0, 0.0, 0.0)
    monkeypatch.setattr(walks, "SWEEP_BLOCK_CELLS", cells)
    rec = BlockRecorder(view, [(0, 1)])
    run = compute_walk(view, 0, params, 1, rec)
    ref = compute_walk_per_step(view, 0, params, 1)
    assert run.freeze_t is None and run.t_last == t_stop and not run.hit
    assert rec.blocks == sizes
    assert all(np.array_equal(a, b) for a, b in zip(rec.masses[0], ref.masses, strict=True))


def test_walk_ledger_matches_per_step_messages():
    rng = np.random.default_rng(37)
    frozen = checked = 0
    for trial in range(30):
        view = _random_view(rng, trial + 500)
        if view is None:
            continue
        base = derive_walk_params(max(1, view.m_live), 1 / 12, DESK)
        params = WalkParams(base.m, base.phi, base.ell, int(rng.integers(1, 300)),
                            base.f_phi, base.gamma,
                            base.eps_base * float(rng.choice([0.0, 1.0, 100.0, 1e4])))
        net = Network(view.graph)
        run = walk_trace(view, int(rng.choice(view.verts)), params, 1, net=net)
        msgs, sent = walk_step_messages(view, run)
        assert net.ledger.snapshot() == {"main": (params.t0, msgs, MASS_MSG_BITS if sent else 0)}
        frozen += run.freeze_t is not None
        checked += 1
    assert checked >= 15 and frozen >= 3


def test_walk_sender_rule_counts_exactly_two_deg():
    # deg 2^23 on both ends: after step 1 vertex 1 holds exactly 2 deg = 2^24
    # units, one share, so it sends in steps 2 and 3 (1 + 2 + 2 messages)
    g = graph_from_rows([[1], [0]], [2**23 - 1, 2**23 - 1])
    view = ActiveView.whole(g)
    params = WalkParams(1, 1 / 12, 1, 3, 0.0, 0.0, 0.0)
    net = Network(g)
    run = walk_trace(view, 0, params, 1, net=net)
    assert run.masses[1][1] == 2 * view.deg[1]
    assert walk_step_messages(view, run) == (5, True)
    assert net.ledger.snapshot() == {"main": (3, 5, MASS_MSG_BITS)}


def _walk_with_t0(params, t0, eps_base=None):
    return WalkParams(params.m, params.phi, params.ell, t0, params.f_phi,
                      params.gamma, params.eps_base if eps_base is None else eps_base)


def _check_walk_against_per_step(view, start, params):
    net, net_ref = Network(view.graph), Network(view.graph)
    run = walk_trace(view, start, params, 1, net=net)
    ref = compute_walk_per_step(view, start, params, 1, net=net_ref)
    assert len(run.masses) == len(ref.masses)
    for a, b in zip(run.masses, ref.masses):
        assert np.array_equal(a, b)
    assert run.freeze_t == ref.freeze_t
    assert pstar(run) == pstar(ref)
    assert net.ledger.snapshot() == net_ref.ledger.snapshot()
    return run


def test_compute_walk_matches_per_step_reference():
    rng = np.random.default_rng(41)
    seen = set()
    for trial in range(120):
        view = _random_view(rng, trial + 900)
        if view is None:
            continue
        base = derive_walk_params(max(1, view.m_live), 1 / 12, DESK)
        eps = base.eps_base * float(rng.choice([0.0, 1.0, 100.0, 1e4]))
        start = int(rng.choice(view.verts))
        # the trajectory does not depend on t0, so one long run gives the
        # natural freeze step f, and t0 = f + 1 puts the repeat on step t0
        f = compute_walk_per_step(view, start, _walk_with_t0(base, 1200, eps), 1).freeze_t
        t0s = {int(rng.integers(1, FREEZE_BLOCK)), FREEZE_BLOCK, int(rng.integers(1, 400))}
        if f is not None:
            t0s |= {max(1, f), f + 1, f + 2, f + FREEZE_BLOCK + 1}
        for t0 in sorted(t0s):
            run = _check_walk_against_per_step(view, start, _walk_with_t0(base, t0, eps))
            if run.freeze_t is None:
                seen.add("no freeze")
            else:
                if run.freeze_t >= FREEZE_BLOCK:
                    seen.add(f"t_last % 16 == {run.t_last % FREEZE_BLOCK}")
                if run.freeze_t == t0 - 1:
                    seen.add("freeze at t0")
                if not run.masses[-1].any():
                    seen.add("support emptied")
            if eps == 0.0:
                seen.add("zero truncation")
            if t0 < FREEZE_BLOCK:
                seen.add("t0 < 16")
            elif t0 == FREEZE_BLOCK:
                seen.add("t0 == 16")
    assert {"no freeze", "t_last % 16 == 15", "t_last % 16 == 0", "freeze at t0",
            "support emptied", "zero truncation", "t0 < 16", "t0 == 16"} <= seen


def test_csr_matvec_adds_product_in_place():
    # the walk step calls scipy's private compiled product directly; pin its
    # contract (out += A @ x for int64 data) against the public operator
    rng = np.random.default_rng(43)
    checked = 0
    for trial in range(30):
        view = _random_view(rng, trial + 700)
        if view is None:
            continue
        adj, n = view.adj_matrix, len(view)
        assert adj.data.dtype == np.int64
        shares = rng.integers(0, 1 << 40, size=n)
        kept = rng.integers(0, 1 << 40, size=n)
        out = kept.copy()
        csr_matvec(n, n, adj.indptr, adj.indices, adj.data, shares, out)
        assert np.array_equal(out, kept + adj @ shares)
        checked += 1
    assert checked >= 15
    assert adjacency_csr(3, [(0, 1), (1, 2)]).data.dtype == np.int64
    assert adjacency_csr(2, []).data.dtype == np.int64
    # against scipy's COO construction: random edge lists, isolated vertices
    # (never an endpoint) and the empty list
    cases = [(5, np.zeros((0, 2), dtype=np.int64)), (1, []), (0, [])]
    for trial in range(40):
        n = int(rng.integers(2, 40))
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        pick = rng.random(len(pairs)) < rng.uniform(0.0, 0.5)
        edges = pairs[pick][rng.permutation(int(pick.sum()))]
        cases.append((n, np.where(rng.random((len(edges), 1)) < 0.5, edges, edges[:, ::-1])))
    isolated = 0
    for n, edges in cases:
        got = adjacency_csr(n, edges)
        el = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        rows, cols = np.concatenate([el[:, 0], el[:, 1]]), np.concatenate([el[:, 1], el[:, 0]])
        want = sp.coo_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                             shape=(n, n)).tocsr()
        assert got.shape == want.shape == (n, n) and got.data.dtype == np.int64
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert got.has_sorted_indices and not (got != got.T).nnz
        isolated += int((np.diff(got.indptr) == 0).sum())
    assert isolated >= 10


def test_isolated_vertex_holds_no_mass_and_is_never_swept():
    # erdos_renyi:50:0.1 at seed 0 has an isolated vertex; the walk and the
    # sweep over the whole graph equal those over the view without it
    g = gen.erdos_renyi(50, 0.1, seed=0)
    iso = [v for v in range(g.n) if g.deg[v] == 0]
    assert len(iso) == 1
    whole = ActiveView.whole(g)
    rest = whole.subview(set(range(g.n)) - set(iso))
    keep = np.array([whole.index[v] for v in rest.verts.tolist()])
    params = derive_walk_params(g.m, 1 / 12, DESK)
    for start in (0, 6, 44):
        run = walk_trace(whole, start, params, 2)
        ref = walk_trace(rest, start, params, 2)
        assert run.freeze_t == ref.freeze_t and pstar(run) == pstar(ref)
        assert len(run.masses) == len(ref.masses)
        for got, want in zip(run.masses, ref.masses):
            assert got[whole.index[iso[0]]] == 0 and np.array_equal(got[keep], want)
        order, cnt, prefvol, bnds = sweep_tables(whole, np.array(run.masses[1:]))
        want = sweep_tables(rest, np.array(ref.masses[1:]))
        assert len(cnt) == run.t_last and np.array_equal(cnt, want[1])
        for r, c in enumerate(cnt.tolist()):
            assert np.array_equal(whole.verts[order[r, :c]], rest.verts[want[0][r, :c]])
            assert np.array_equal(prefvol[r, :c], want[2][r, :c])
            assert np.array_equal(bnds[r, :c], want[3][r, :c])


def _check_batch_against_columns(view, pairs, params):
    """compute_walks against compute_walk per column and against the
    per-step reference; returns the runs."""
    runs = walk_traces(view, pairs, params)
    assert len(runs) == len(pairs)
    for (start, b), run in zip(pairs, runs):
        net, net_ref = Network(view.graph), Network(view.graph)
        ref = walk_trace(view, start, params, b, net=net_ref)
        walks.charge_walk(net, run)
        step_ref = compute_walk_per_step(view, start, params, b)
        assert step_ref.freeze_t == ref.freeze_t and len(step_ref.masses) == len(ref.masses)
        assert all(np.array_equal(a, c) for a, c in zip(step_ref.masses, ref.masses))
        assert (run.view, run.start, run.b, run.params) == (view, start, b, params)
        assert len(run.masses) == len(ref.masses)
        for got, want in zip(run.masses, ref.masses):
            assert np.array_equal(got, want)
        assert run.freeze_t == ref.freeze_t
        assert np.array_equal(run.touched, ref.touched)
        assert run.messages == ref.messages
        assert net.ledger.snapshot() == net_ref.ledger.snapshot()
    return runs


def test_compute_walks_matches_per_column_walks():
    rng = np.random.default_rng(47)
    seen = set()
    views = [_random_view(rng, trial + 1100) for trial in range(40)]
    g = gen.erdos_renyi(50, 0.1, seed=0)  # one isolated vertex
    views.append(ActiveView.whole(g))
    for view in views:
        if view is None:
            continue
        base = derive_walk_params(max(1, view.m_live), 1 / 12, DESK)
        eps = base.eps_base * float(rng.choice([0.0, 1.0, 100.0, 1e4]))
        params = _walk_with_t0(base, int(rng.integers(1, 300)), eps)
        c = int(rng.integers(1, 9))
        pairs = [(int(rng.choice(view.verts)), int(rng.integers(1, base.ell + 1)))
                 for _ in range(c)]
        if c > 2:
            pairs.append(pairs[0])
        if view.graph is g:
            iso = [v for v in range(g.n) if g.deg[v] == 0]
            pairs.append((iso[0], 1))
            seen.add("isolated vertex")
        runs = _check_batch_against_columns(view, pairs, params)
        blocks = {None if r.freeze_t is None else r.freeze_t // FREEZE_BLOCK for r in runs}
        if len(blocks - {None}) >= 2:
            seen.add("freezes in different blocks")
        if None in blocks and len(blocks) >= 2:
            seen.add("unfrozen at t0 beside frozen")
        if len(pairs) == 1:
            seen.add("one column")
        if len(set(pairs)) < len(pairs):
            seen.add("duplicate pairs")
        if len({b for _, b in pairs}) >= 2:
            seen.add("mixed b")
    assert {"isolated vertex", "freezes in different blocks", "unfrozen at t0 beside frozen",
            "one column", "duplicate pairs", "mixed b"} <= seen


def test_compute_walks_of_no_pairs_is_empty():
    # a batch of no pairs walks nothing
    view = ActiveView.whole(gen.barbell(4, 1))
    params = derive_walk_params(view.m_live, 1 / 12, DESK)
    assert walks.compute_walks(view, [], params, lambda *args: {}) == []
    assert cuts.scan_runs(view, [], params, DESK) == []


def test_compute_walks_on_a_column_block_that_is_not_row_major():
    # dropping frozen columns leaves a block that is not row-major; the step
    # must still add the shares into every column
    view = ActiveView.whole(gen.grid(5, 6))
    rng = np.random.default_rng(53)
    block = rng.integers(0, SCALE, size=(len(view), 3))
    cut = block[:, np.array([True, False, True])]
    assert not cut.flags.c_contiguous
    got = walk_step_units(view, cut)
    for j in range(2):
        assert np.array_equal(got[:, j], walk_step_units(view, cut[:, j].copy()))


class StopAt(StateRecorder):
    """A StateRecorder that hits pair i at step stops[i] (None: never)."""

    def __init__(self, view, pairs, stops):
        super().__init__(view, pairs)
        self.stops, self.stopped = stops, set()

    def __call__(self, masses, r_run, r_t):
        super().__call__(masses, r_run, r_t)
        assert not self.stopped & set(r_run.tolist()), "a block after the hit"
        hits = {i: t for i, t in zip(r_run.tolist(), r_t.tolist()) if t == self.stops[i]}
        self.stopped |= set(hits)
        return hits


def test_compute_walks_stop_at_their_hits(monkeypatch):
    # each column stops at the step its sweep hits: rounds, messages and
    # touched edges count its states up to that step, as in the per-step walk
    # that stops there, under several first-block sizes
    rng = np.random.default_rng(59)
    seen = set()
    for trial in range(40):
        view = _random_view(rng, trial + 1300)
        if view is None:
            continue
        base = derive_walk_params(max(1, view.m_live), 1 / 12, DESK)
        eps = base.eps_base * float(rng.choice([0.0, 1.0, 100.0, 1e4]))
        params = _walk_with_t0(base, int(rng.integers(1, 120)), eps)
        pairs = [(int(rng.choice(view.verts)), int(rng.integers(1, base.ell + 1)))
                 for _ in range(int(rng.integers(1, 6)))]
        stops = [None if rng.random() < 0.25 else int(rng.integers(1, params.t0 + 1))
                 for _ in pairs]
        monkeypatch.setattr(walks, "FREEZE_BLOCK", int(rng.choice([1, 3, 16])))
        sweep = StopAt(view, pairs, stops)
        runs = walks.compute_walks(view, pairs, params, sweep)
        for (start, b), stop, run, states in zip(pairs, stops, runs, sweep.masses):
            ref = compute_walk_per_step(view, start, params, b,
                                        scan=lambda t, _m, stop=stop: t == stop or None)
            net, net_ref = Network(view.graph), Network(view.graph)
            walks.charge_walk(net, run)
            walks.charge_walk(net_ref, ref)
            assert (run.t_last, run.freeze_t, run.hit, run.messages) == (
                ref.t_last, ref.freeze_t, ref.hit, ref.messages)
            assert np.array_equal(run.touched, ref.touched)
            assert net.ledger.snapshot() == net_ref.ledger.snapshot()
            assert all(np.array_equal(a, c) for a, c in zip(states, ref.masses))
            if run.hit:
                seen.add("hit at step 1" if run.t_last == 1 else "later hit")
                seen.add("hit beside a walking column" if len(pairs) > 1 else "lone hit")
            elif stop is not None:
                seen.add("froze before its hit")
            else:
                seen.add("no hit")
    assert {"hit at step 1", "later hit", "hit beside a walking column", "lone hit",
            "froze before its hit", "no hit"} <= seen, seen


def _traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_walk_and_sweeps_hold_one_block(monkeypatch):
    # one long walk on a 64-cycle with its scan (a mass floor no prefix
    # meets, so it never hits), and the falsifier's walk and fold: neither
    # stores its states, so the peak is a few blocks whatever t0, although
    # the states of the walk fill at least 10 blocks
    monkeypatch.setattr(walks, "SWEEP_BLOCK_CELLS", 1 << 12)
    block_bytes = walks.SWEEP_BLOCK_CELLS * 8
    g = gen.cycle(64)
    view = ActiveView.whole(g)
    base = dataclasses.replace(derive_walk_params(g.m, 1 / 12, DESK), gamma=1e9)
    peaks = []
    for t0, phi_k in ((1500, 1 / 8), (6000, 1 / 16)):
        params = dataclasses.replace(base, t0=t0)
        out = []
        scan = _traced_peak(lambda: out.extend(cuts.scan_runs(view, [(0, 1)], params, DESK)))
        ((run, hit, _),) = out
        assert hit is None and run.t_last == t0 and run.t_last * len(view) >= 10 * (1 << 12)
        assert derive_walk_params(g.m, phi_k, DESK).t0 >= t0
        falsifier = _traced_peak(lambda: _sweep_falsifier(ActiveView.whole(g), phi_k, DESK))
        peaks.append((scan, falsifier))
    assert all(p < 24 * block_bytes for pair in peaks for p in pair), peaks
    (scan_a, fals_a), (scan_b, fals_b) = peaks
    assert scan_b < 1.25 * scan_a and fals_b < 1.25 * fals_a, peaks
