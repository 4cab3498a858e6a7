"""Walk parameter derivation, fixed-point kernel, sweep machinery, reach sets."""
import math

import numpy as np
import pytest
from scipy.sparse._sparsetools import csr_matvec

from expandec import generators as gen
from expandec.config import DESK, PAPER
from expandec.errors import BadPhi, TooLarge
from expandec.graph import Graph, adjacency_csr, lazy_walk_matrix
from expandec.simulator import Network
from expandec.views import ActiveView, WorkingGraph
from expandec.walks import (
    FREEZE_BLOCK,
    MASS_MSG_BITS,
    SCALE,
    WalkParams,
    compute_walk,
    derive_walk_params,
    exact_rho_table,
    influence_set,
    lazy_step,
    sweep_order,
    sweep_order_local,
    sweep_tables,
    truncate,
    walk_step_units,
)
from helpers_h import compute_walk_per_step, prefix_boundary_counts, walk_step_messages


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
    g = Graph(2, [[1], [0]], self_loops=(2, 0))  # deg 3 and 1
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
        p = WalkParams(p.m, p.phi, p.profile_name, p.ell, t0, p.f_phi, p.gamma, p.eps_base)
    return p


def test_walk_initial_state():
    g = gen.clique(4)
    view = ActiveView.whole(g)
    run = compute_walk(view, 2, _params(6, t0=10), b=1)
    state0 = run.state_at(0)
    assert state0.mass(2) == 1.0
    assert state0.support() == [2]
    assert state0.participants == frozenset({(0, 2), (1, 2), (2, 3)})


def test_distributed_walk_equals_centralized():
    g = gen.barbell(4, 1)
    view = ActiveView.whole(g)
    params = _params(13, t0=60)
    net = Network(g)
    run_d = compute_walk(view, 0, params, 2, net=net)
    run_c = compute_walk(view, 0, params, 2)
    assert len(run_d.masses) == len(run_c.masses)
    for a, b in zip(run_d.masses, run_c.masses):
        assert np.array_equal(a, b)
    assert net.ledger.totals().rounds == params.t0


def test_walk_freeze_charges_full_horizon():
    g = gen.clique(4)
    net = Network(g)
    params = _params(6, t0=5000)
    run = compute_walk(ActiveView.whole(g), 0, params, 3, net=net)
    assert run.freeze_t is not None and run.freeze_t < 5000
    assert net.ledger.totals().rounds == 5000


def test_pstar_confined_with_large_truncation():
    g = gen.barbell(4, 1)
    params = WalkParams(13, 1 / 12, "desk", 4, 50, 1e-3, 1e-2, 0.04)  # eps_1 = 0.02
    run = compute_walk(ActiveView.whole(g), 1, params, 1)
    far_edges = {(u, v) for u, v in g.edges if u >= 4 and v >= 4}
    assert not (run.pstar & far_edges)
    assert run.pstar  # near side still explored


def test_mass_never_increases():
    g = gen.erdos_renyi(12, 0.4, seed=3)
    run = compute_walk(ActiveView.whole(g), 0, _params(g.m, t0=80), 2)
    totals = [int(m.sum()) for m in run.masses]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[0] == SCALE


def test_truncated_dominated_by_untruncated_exact():
    g = gen.erdos_renyi(10, 0.5, seed=5)
    view = ActiveView.whole(g)
    params = _params(g.m, t0=60)
    run_t = compute_walk(view, 0, params, 1)
    untr = WalkParams(params.m, params.phi, "desk", params.ell, 60, params.f_phi,
                      params.gamma, 0.0)  # zero truncation
    run_u = compute_walk(view, 0, untr, 1)
    for t in range(61):
        assert (run_t.mass_at(t) <= run_u.mass_at(t)).all()


def test_fixed_point_tracks_dense_oracle():
    g = gen.erdos_renyi(10, 0.5, seed=6)
    view = ActiveView.whole(g)
    t0 = 50
    untr = WalkParams(g.m, 0.1, "desk", 6, t0, 0.0, 0.0, 0.0)
    run = compute_walk(view, 3, untr, 1)
    m = lazy_walk_matrix(g)
    p = np.zeros(g.n)
    p[3] = 1.0
    for t in range(1, t0 + 1):
        p = m @ p
        q = run.mass_at(t) / SCALE
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
                    assert ru * g.degree(v) == rv * g.degree(u)


def test_sweep_order_uniform_ties_by_id():
    g = gen.clique(5)
    view = ActiveView.whole(g)
    params = _params(10, t0=4)
    run = compute_walk(view, 0, params, 3)
    # force a uniform state: every vertex same mass, same degree
    state = run.state_at(0)
    state.mass_units[:] = 7 << 20
    order, prefix = sweep_order(state)
    assert order == [0, 1, 2, 3, 4]
    assert prefix == [4, 8, 12, 16, 20]


def test_sweep_prefix_volumes_monotone():
    g = gen.barbell(4, 1)
    view = ActiveView.whole(g)
    run = compute_walk(view, 0, _params(13, t0=30), 2)
    state = run.state_at(10)
    order, prefix = sweep_order(state)
    assert prefix == sorted(prefix)
    assert prefix[-1] == sum(g.degree(v) for v in state.support())


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
            vol_z = sum(g.degree(v) for v in z)
            assert vol_z <= (params.t0 + 1) / (2 * params.eps_b(b))
            checked += 1
    assert checked >= 20


def test_influence_set_too_large():
    with pytest.raises(TooLarge):
        influence_set(gen.cycle(80), 0, _params(80, t0=5), 1)


def test_walk_step_exact_at_large_degree():
    # deg(0) = 40001: mass * (2 deg - live) overflows int64 when formed directly
    g = Graph(2, [[1], [0]], [40000, 0])
    view = ActiveView.whole(g)
    mass = np.array([SCALE, 0], dtype=np.int64)
    ref = [SCALE, 0]
    for _ in range(5):
        mass = walk_step_units(view, mass)
        shares = [ref[v] // (2 * g.degree(v)) for v in range(2)]
        ref = [
            ref[v] * (2 * g.degree(v) - 1) // (2 * g.degree(v)) + shares[1 - v]
            for v in range(2)
        ]
        assert mass.tolist() == ref
    assert 0.99 < mass.sum() / SCALE <= 1.0


def _random_view(rng, seed, n_max=24):
    """A view of a random graph without isolated vertices, with some edges
    removed and some vertices left out; None when the draw is degenerate."""
    n = int(rng.integers(2, n_max))
    g = gen.erdos_renyi(n, float(rng.uniform(0.1, 0.6)), seed=seed)
    if g.m == 0 or min(g.deg) == 0:
        return None
    working = WorkingGraph(g)
    working.remove_edges([e for e in g.edges if rng.random() < 0.2], "r2")
    return ActiveView(working, [v for v in range(n) if rng.random() < 0.8] or [0])


def _check_tables(view, masses):
    order, cnt, prefvol, bnds = sweep_tables(view, masses)
    for r, mass in enumerate(masses):
        ref = sweep_order_local(view, mass)
        k = len(ref)
        assert cnt[r] == k
        assert order[r, :k].tolist() == ref.tolist()
        assert prefvol[r, :k].tolist() == np.cumsum(view.deg[ref]).tolist()
        assert bnds[r, :k].tolist() == prefix_boundary_counts(view, ref).tolist()


def test_sweep_tables_match_per_row_reference():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(40):
        view = _random_view(rng, trial + 300)
        if view is None:
            continue
        n = len(view)
        rows = [
            rng.integers(1, SCALE, size=n) * (rng.random(n) < 0.6),  # random masses
            int(rng.integers(1, 1 << 20)) * view.deg,                # every rho equal
            np.where(rng.random(n) < 0.5, 7 * view.deg, rng.integers(0, 50, size=n)),
            np.zeros(n, dtype=np.int64),                            # empty support
        ]
        _check_tables(view, np.array(rows, dtype=np.int64))
        checked += 1
    assert checked >= 20


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


def test_walk_ledger_matches_per_step_messages():
    rng = np.random.default_rng(37)
    frozen = checked = 0
    for trial in range(30):
        view = _random_view(rng, trial + 500)
        if view is None:
            continue
        base = derive_walk_params(max(1, view.m_live), 1 / 12, DESK)
        params = WalkParams(base.m, base.phi, "desk", base.ell, int(rng.integers(1, 300)),
                            base.f_phi, base.gamma,
                            base.eps_base * float(rng.choice([0.0, 1.0, 100.0, 1e4])))
        net = Network(view.graph)
        run = compute_walk(view, int(rng.choice(view.verts)), params, 1, net=net)
        msgs, sent = walk_step_messages(view, run)
        assert net.ledger.snapshot() == {"main": (params.t0, msgs, MASS_MSG_BITS if sent else 0)}
        frozen += run.freeze_t is not None
        checked += 1
    assert checked >= 15 and frozen >= 3


def test_walk_sender_rule_counts_exactly_two_deg():
    # deg 2^23 on both ends: after step 1 vertex 1 holds exactly 2 deg = 2^24
    # units, one share, so it sends in steps 2 and 3 (1 + 2 + 2 messages)
    g = Graph(2, [[1], [0]], [2**23 - 1, 2**23 - 1])
    view = ActiveView.whole(g)
    params = WalkParams(1, 1 / 12, "desk", 1, 3, 0.0, 0.0, 0.0)
    net = Network(g)
    run = compute_walk(view, 0, params, 1, net=net)
    assert run.masses[1][1] == 2 * view.deg[1]
    assert walk_step_messages(view, run) == (5, True)
    assert net.ledger.snapshot() == {"main": (3, 5, MASS_MSG_BITS)}


def _walk_with_t0(params, t0, eps_base=None):
    return WalkParams(params.m, params.phi, "desk", params.ell, t0, params.f_phi,
                      params.gamma, params.eps_base if eps_base is None else eps_base)


def _check_walk_against_per_step(view, start, params):
    net, net_ref = Network(view.graph), Network(view.graph)
    run = compute_walk(view, start, params, 1, net=net)
    ref = compute_walk_per_step(view, start, params, 1, net=net_ref)
    assert len(run.masses) == len(ref.masses)
    for a, b in zip(run.masses, ref.masses):
        assert np.array_equal(a, b)
    assert run.freeze_t == ref.freeze_t
    assert run.pstar == ref.pstar
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
