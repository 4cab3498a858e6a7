"""Local sweep cuts, concurrent instances, cut accumulation, balanced wrapper."""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from expandec import cuts
from expandec import generators as gen
from expandec import walks
from expandec.config import DESK, PAPER
from expandec.decomposition import _sweep_falsifier
from expandec.errors import BadPhi, Disconnected, TooLarge
from expandec.graph import Graph, cut_stats
from expandec.simulator import Network, subtree_sums
from expandec.views import ActiveView
from expandec.walks import MASS_MSG_BITS, SCALE, WalkParams, derive_walk_params
from expandec.cuts import (
    StartTree,
    _jstar,
    _mass_floor_ok,
    _mass_floor_prefilter,
    balanced_sparse_cut,
    concurrent_local_cuts,
    derive_instance_params,
    distributed_local_cut,
    draw_b,
    ladder_h,
    ladder_h_inv,
    scan_run,
    scan_runs,
    sparse_cut_partition,
)
from helpers_h import (
    approximate_local_cut_reference,
    cut_members,
    draw_b_reference,
    graph_from_rows,
    local_cut,
    local_cut_per_step,
    lone_local_cut,
    one_iteration,
    pstar,
    randomized_local_cut,
    recorded_merges,
    sweep_order_local,
    view_starts,
    walk_trace,
    walk_traces,
)

PHI = 1 / 12
# the accept-2 family: the graph specs of perfbench's dec_small workload
ACCEPT_2_SPECS = ("cliques_chain:2:6:1", "cliques_chain:3:7:2", "cliques_chain:4:8:1",
                  "random_regular:16:3", "random_regular:20:4", "random_regular:24:3",
                  "random_regular:18:4", "grid:4:5", "grid:5:6", "grid:4:8")
WALK_BATCH_CELLS = cuts.WALK_BATCH_CELLS


def with_instances(view, params, k):
    """DESK with the instance-count divisor set so that concurrent cuts on
    view run k instances."""
    per_divisor = cuts.participation_budget(params, DESK) / DESK.c_parallel
    profile = dataclasses.replace(DESK, c_parallel=view.vol() / ((k - 0.5) * per_divisor))
    assert derive_instance_params(view.vol(), params, 0.25, profile).k == k
    return profile


def candidate_indices(prefvol, phi):
    """Reference recurrence for the geometric candidate subsequence (1-based)."""
    jmax = len(prefvol)
    out = [1]
    while out[-1] < jmax:
        prev = out[-1]
        thr = (1 + phi) * prefvol[prev - 1]
        j_star = 0
        for j in range(1, jmax + 1):
            if prefvol[j - 1] <= thr + 1e-12:
                j_star = j
        out.append(max(prev + 1, j_star))
    return out


def test_jx_single_vertex():
    assert candidate_indices([3], 0.5) == [1]


def test_jx_doubling_pattern():
    prefvol = list(range(1, 65))
    js = candidate_indices(prefvol, 1.0)
    assert js[:7] == [1, 2, 4, 8, 16, 32, 64]


def test_jx_strictly_increasing_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        degs = rng.integers(1, 9, size=n)
        prefvol = np.cumsum(degs).tolist()
        js = candidate_indices(prefvol, float(rng.uniform(0.02, 0.5)))
        assert all(a < b for a, b in zip(js, js[1:]))
        assert js[-1] == n


def _cut_setup(g, phi=PHI):
    view = ActiveView.whole(g)
    params = derive_walk_params(g.m, phi, DESK)
    return view, params


def test_local_cut_output_bounds():
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    vol = view.vol()
    for v in (0, 3, 9):
        for b in (1, 2, 3):
            _, cand = local_cut(view, v, PHI, b, params, DESK)
            if cand is None:
                continue
            cut = cut_stats(g, cand.members)
            assert cut.conductance <= Fraction(PHI).limit_denominator(10**12)
            assert 6 * cut.vol_s <= 5 * vol


def test_local_cut_k2_unsatisfiable_level():
    g = gen.clique(2)
    view, params = _cut_setup(g)
    # (5/7) * 2^(b-1) > Vol(V) = 2 for b >= 3
    _, cand = local_cut(view, 0, PHI, 3, params, DESK)
    assert cand is None


def test_local_cut_recovers_planted_side():
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    side = set(range(8))
    vol_side = sum(g.deg[v] for v in side)
    good = 0
    total = 0
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = int(rng.integers(0, 8))
        b = 1 + int(rng.integers(0, 3))
        _, cand = local_cut(view, v, PHI, b, params, DESK)
        total += 1
        if cand is not None:
            overlap = sum(g.deg[u] for u in cand.members & side)
            if 2 * overlap >= vol_side:
                good += 1
    assert good >= 0.9 * total


def test_approx_scan_bounds():
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    vol = view.vol()
    for v in range(0, 16, 3):
        for b in (1, 2, 4):
            _, cand = approximate_local_cut_reference(view, v, PHI, b, params, DESK)
            if cand is None:
                continue
            cut = cut_stats(g, cand.members)
            assert float(cut.conductance) <= 12 * PHI + 1e-12
            assert 12 * cut.vol_s <= 11 * vol


def test_approx_scan_rejects_bad_phi():
    g = gen.clique(4)
    view, params = _cut_setup(g)
    with pytest.raises(BadPhi):
        approximate_local_cut_reference(view, 0, 0.5, 1, params, DESK)


def test_distributed_equals_reference_many_seeds():
    graphs = [gen.barbell(6, 1), gen.cliques_chain(3, 5, 1), gen.grid(4, 4),
              gen.erdos_renyi(18, 0.3, seed=5), gen.clique(9)]
    rng = np.random.default_rng(23)
    for g in graphs:
        if not g.is_connected():
            continue
        view, params = _cut_setup(g)
        for _ in range(8):
            v = int(rng.integers(g.n))
            b = 1 + int(rng.integers(0, params.ell))
            _, ref = approximate_local_cut_reference(view, v, PHI, b, params, DESK)
            net = Network(g)
            _, dist = lone_local_cut(net, view, v, PHI, b, params, DESK)
            assert cut_members(ref) == cut_members(dist)


def test_planted_overlap_lower_bound():
    # With the detectability precondition forced via a small constant, the
    # level-b cut from a planted start covers at least 2^(b-2) of the side.
    g = gen.barbell(12, 1)
    prof = dataclasses.replace(DESK, c_f=1e-3)
    view = ActiveView.whole(g)
    params = derive_walk_params(g.m, PHI, prof)
    side = set(range(12))
    vol_side = sum(g.deg[v] for v in side)
    phi_side = 1 / vol_side
    assert phi_side <= 2 * params.f_phi  # precondition (desk constants overridden)
    for v in (0, 5, 11):
        for b in (1, 2, 3, 4):
            _, cand = approximate_local_cut_reference(view, v, PHI, b, params, prof)
            assert cand is not None
            overlap = sum(g.deg[u] for u in cand.members & side)
            assert overlap >= 2 ** (b - 2)


def test_b_marginal_chi_square():
    ell = 8
    rng = np.random.default_rng(5)
    draws = [draw_b(ell, rng) for _ in range(100_000)]
    observed = np.bincount(draws, minlength=ell + 1)[1:]
    probs = np.array([2.0**-i for i in range(1, ell + 1)])
    probs /= probs.sum()
    chi2, p = scipy.stats.chisquare(observed, probs * len(draws))
    assert p > 0.01


def test_draw_b_matches_choice_reference():
    # the cached cdf searched with one rng.random() is rng.choice(ell, p=...):
    # the same levels and the same bit-generator state, for every ell to 40
    for seed in range(300):
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for ell in range(1, 41):
            for _ in range(20):
                assert draw_b(ell, got) == draw_b_reference(ell, ref), (seed, ell)
        assert got.bit_generator.state == ref.bit_generator.state


def test_start_tree_spanning_none_of_the_view_raises():
    # vertex 0 is isolated, so the view's start tree rooted at 0 spans only
    # it: a subview without 0 has no start on the tree, while the zero-volume
    # subview that holds the root still lands every token there
    g = graph_from_rows([[], [2], [1], [4], [3]])
    net = Network(g)
    tree = view_starts(net, ActiveView.whole(g)).tree
    with pytest.raises(Disconnected, match="rooted at 0 spans none of the 3 vertices"):
        StartTree.on(ActiveView.whole(g).subview([1, 2, 3]), tree)
    starts = StartTree.on(ActiveView.whole(g).subview([0]), tree)
    assert starts.sample(net, {1: 2}, np.random.default_rng(0)) == [(0, 1), (0, 1)]


def test_randomized_start_degree_marginal():
    g = gen.star(4)
    view, params = _cut_setup(g)
    rng = np.random.default_rng(8)
    net = Network(g)
    center = 0
    trials = 2000
    hits = 0
    starts = view_starts(net, view)
    for _ in range(trials):
        (v, _b), = starts.sample(net, {1: 1}, rng)
        hits += v == center
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 5 * sigma


def test_participation_frequency_at_paper_constants():
    # The participation bound is vacuous (>1) at this scale; measure and check <= 1.
    g = gen.barbell(3, 1)
    view = ActiveView.whole(g)
    params = derive_walk_params(g.m, PHI, PAPER)
    q = 56 * params.ell * (params.t0 + 1) * params.t0 * (math.log(g.m) + 4) / PHI
    bound = q / view.vol()
    assert bound > 1
    rng = np.random.default_rng(2)
    counts = {e: 0 for e in map(tuple, g.edges.tolist())}
    trials = 20
    for _ in range(trials):
        net = Network(g)
        run, _ = randomized_local_cut(net, view, PHI, params, DESK, rng)
        for e in pstar(run):
            counts[e] += 1
    freq = max(counts.values()) / trials
    assert freq <= 1.0


def test_concurrent_conductance_bound():
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    for seed in range(6):
        net = Network(g)
        res = one_iteration(net, view, PHI, params, with_instances(view, params, 4),
                            np.random.default_rng(seed), view_starts(net, view), 0.25)
        if res.members is None:
            continue
        cut = cut_stats(g, res.members)
        assert float(cut.conductance) <= 276 * res.mi.w * PHI


def test_concurrent_k1_degenerate():
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    net = Network(g)
    res = one_iteration(net, view, PHI, params, with_instances(view, params, 1),
                        np.random.default_rng(4), view_starts(net, view), 0.25)
    assert len(res.instances) == 1
    single = cut_members(res.instances[0][1])
    vol = view.vol()
    if single is not None and 24 * sum(g.deg[v] for v in single) <= 23 * vol:
        assert res.members == single
    else:
        assert res.members is None


def test_concurrent_union_volume_bound_any_seed():
    g = gen.cliques_chain(3, 6, 1)
    view, params = _cut_setup(g)
    vol = view.vol()
    for seed in range(10):
        net = Network(g)
        res = one_iteration(net, view, PHI, params, with_instances(view, params, 5),
                            np.random.default_rng(seed), view_starts(net, view), 0.25)
        if res.members is not None:
            assert 24 * sum(g.deg[v] for v in res.members) <= 23 * vol


@pytest.mark.parametrize("k", [6, 60])
def test_concurrent_instances_walk_one_batch(monkeypatch, k):
    # an iteration's k instances walk their distinct landings in one
    # scan_runs call; each instance equals its local cut run alone and
    # stopped at its hit, and the ledger equals one that charges every
    # instance alone, so a landing drawn twice is walked once and charged twice
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    profile = with_instances(view, params, k)
    repeated = 0
    for seed in range(4):
        batches, charged = [], []
        with monkeypatch.context() as m:
            m.setattr(cuts, "scan_runs", lambda view, pairs, *args: (
                batches.append(list(pairs)) or scan_runs(view, pairs, *args)))
            m.setattr(cuts, "distributed_local_cut", lambda net, outcome: (
                charged.append(outcome) or distributed_local_cut(net, outcome)))
            net = Network(g)
            res = one_iteration(net, view, PHI, params, profile,
                                np.random.default_rng(seed), view_starts(net, view), 0.25)
        landings = [(run.start, run.b) for run, _ in res.instances]
        assert len(landings) == k and batches == [sorted(set(landings))]
        # one charge per instance, of the one run of its landing
        assert [(run.start, run.b) for run, _, _ in charged] == landings
        assert len({id(run) for run, _, _ in charged}) == len(set(landings))
        repeated += len(set(landings)) < k
        alone = []
        with monkeypatch.context() as m:  # every instance walked and scanned alone
            m.setattr(cuts, "distributed_local_cut", lambda net, outcome: alone.append(
                local_cut_per_step(net, view, outcome[0].start, PHI, outcome[0].b, params,
                                   profile)) or alone[-1][1])
            net_ref = Network(g)
            ref = one_iteration(net_ref, view, PHI, params, profile, np.random.default_rng(seed),
                                view_starts(net_ref, view), 0.25)
        for (got, hit), (want, want_hit) in zip(res.instances, alone, strict=True):
            assert ((got.start, got.b, cut_members(hit))
                    == (want.start, want.b, cut_members(want_hit)))
            assert np.array_equal(got.touched, want.touched)
        assert (res.members, res.aborted_overlap) == (ref.members, ref.aborted_overlap)
        assert net.ledger.snapshot() == net_ref.ledger.snapshot()
    assert repeated >= 1


def test_partition_on_expander_returns_empty():
    g = gen.clique(16)
    view = ActiveView.whole(g)
    empty = 0
    for seed in range(40):
        net = Network(g)
        with recorded_merges() as merges:
            members = sparse_cut_partition(net, view, PHI, 0.25, DESK,
                                           np.random.default_rng(seed))
        if not members:
            empty += 1
        else:
            cut = cut_stats(g, members)
            assert float(cut.conductance) <= merges.k_phi(g.n) * PHI * math.log2(g.n)
    assert empty >= 36


def test_partition_hard_bounds_every_seed():
    for g in (gen.barbell(12, 1), gen.cliques_chain(3, 6, 2), gen.grid(5, 5)):
        view = ActiveView.whole(g)
        vol = view.vol()
        for seed in range(5):
            net = Network(g)
            with recorded_merges() as merges:
                members = sparse_cut_partition(net, view, PHI, 0.25, DESK,
                                               np.random.default_rng(seed))
            vol_c = sum(g.deg[v] for v in members)
            assert 48 * vol_c <= 47 * vol
            # pieces disjoint
            seen = set()
            for piece in merges.pieces:
                assert not (piece & seen)
                seen |= piece
            if members:
                cut = cut_stats(g, members)
                assert float(cut.conductance) <= merges.k_phi(g.n) * PHI * math.log2(g.n) + 1e-12
                assert float(cut.conductance) <= 47 * 276 * merges.w * PHI


def test_partition_recovers_planted_cut():
    g = gen.barbell(12, 1)
    view = ActiveView.whole(g)
    vol = view.vol()
    side = set(range(12))
    vol_side = sum(g.deg[v] for v in side)
    ok = 0
    for seed in range(20):
        net = Network(g)
        members = sparse_cut_partition(net, view, PHI, 0.25, DESK, np.random.default_rng(seed))
        vol_c = sum(g.deg[v] for v in members)
        overlap = sum(g.deg[v] for v in members & side)
        if 48 * vol_c >= vol or 2 * overlap >= vol_side:
            ok += 1
    assert ok >= 14  # 0.70 fraction at module scale


def test_balanced_cut_expander_or_bounded():
    from expandec.graph import min_conductance_oracle

    g = gen.random_regular(12, 4, seed=3)
    phi_g, _ = min_conductance_oracle(g)
    target = 0.01
    assert float(phi_g) > target
    for seed in range(6):
        net = Network(g)
        res = balanced_sparse_cut(net, ActiveView.whole(g), target, DESK,
                                  np.random.default_rng(seed))
        if res is not None:
            assert float(cut_stats(g, res.members).conductance) <= res.h_bound


def test_balanced_cut_phi_cap_paper():
    g = gen.clique(8)
    net = Network(g)
    with pytest.raises(BadPhi):
        balanced_sparse_cut(net, ActiveView.whole(g), 0.2, PAPER,
                            np.random.default_rng(0))


def test_h_inverse_pair():
    for n in (8, 64, 1024):
        for c_h in (0.5, 1.0, 3.0):
            for theta in (1e-6, 1e-3, 0.05):
                assert ladder_h_inv(ladder_h(theta, n, c_h), n, c_h) == pytest.approx(theta, abs=1e-9)
                assert ladder_h(theta, n, c_h) < ladder_h(theta * 2, n, c_h)


def test_overlap_rule_from_transcript():
    g = gen.barbell(8, 1)
    view, params = _cut_setup(g)
    aborted = set()
    for seed, k in zip(range(6), (6, 60) * 3):  # w = 50 here, so 60 instances can abort
        net = Network(g)
        res = one_iteration(net, view, PHI, params, with_instances(view, params, k),
                            np.random.default_rng(seed), view_starts(net, view), 0.25)
        recount = {}
        for run, _ in res.instances:
            for e in pstar(run):
                recount[e] = recount.get(e, 0) + 1
        assert res.aborted_overlap == (max(recount.values(), default=0) > res.mi.w)
        aborted.add(res.aborted_overlap)
        if res.members is not None:
            assert max(recount.values()) <= res.mi.w
    assert aborted == {False, True}


def test_instance_params_fields():
    params = derive_walk_params(100, PHI, DESK)
    mi = derive_instance_params(500, params, 0.25, DESK)
    assert mi.k >= 1
    assert mi.w >= 10
    assert mi.s >= 1
    assert mi.union_small_enough(int(500 * 23 / 24))
    assert not mi.union_small_enough(500)


DEFAULT_BLOCK_CELLS = walks.SWEEP_BLOCK_CELLS
BLOCK_ROWS = (1, 3, None)  # first blocks of 1 row, 3 rows, the default


def _block_cells(view, rows):
    """SWEEP_BLOCK_CELLS value that gives the view's walks a first block of
    rows rows (of all columns' states, at least one step each); later
    blocks double up to rows * max(n, live edges) // n rows, past the edge
    chunk of rows rows when the view has more live edges than vertices."""
    return DEFAULT_BLOCK_CELLS if rows is None else rows * max(len(view), view.m_live)


def _cut_both(view, start, params, phi, b, monkeypatch):
    """scan_runs on one walk, charged by distributed_local_cut, against the
    stop-at-hit reference, each with its own ledger, under every block
    schedule of BLOCK_ROWS: the same hit, members, touched edges and ledger
    snapshot.  Returns the hit."""
    net_ref = Network(view.graph)
    ref, hit = local_cut_per_step(net_ref, view, start, phi, b, params, DESK)
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(walks, "SWEEP_BLOCK_CELLS", _block_cells(view, rows))
        net = Network(view.graph)
        (outcome,) = cuts.scan_runs(view, [(start, b)], params, DESK)
        res = distributed_local_cut(net, outcome)
        run, got, _ = outcome
        assert got == hit and run.hit == (hit is not None)
        assert cut_members(res) == cut_members(hit) and np.array_equal(run.touched, ref.touched)
        assert net.ledger.snapshot() == net_ref.ledger.snapshot()
    return hit


def _cut_batch(view, pairs, params, phi, monkeypatch):
    """scan_runs on the walks from pairs, all in one call, under every block
    schedule of BLOCK_ROWS; each of its (run, hit, trips), charged by
    distributed_local_cut, which walks nothing, must give the stop-at-hit
    reference's hit, members, touched edges and ledger snapshot.  Returns
    the hits."""
    refs = []
    for start, b in pairs:
        net = Network(view.graph)
        refs.append((*local_cut_per_step(net, view, start, phi, b, params, DESK),
                     net.ledger.snapshot()))
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(walks, "SWEEP_BLOCK_CELLS", _block_cells(view, rows))
        got = cuts.scan_runs(view, pairs, params, DESK)
        with monkeypatch.context() as m:  # every walk is the batch's
            m.setattr(cuts, "compute_walks", None)
            for (start, b), pre, (ref, hit, ledger) in zip(pairs, got, refs, strict=True):
                net = Network(view.graph)
                res = distributed_local_cut(net, pre)
                assert (pre[0].start, pre[0].b, pre[1]) == (start, b, hit)
                assert (cut_members(res) == cut_members(hit)
                        and np.array_equal(pre[0].touched, ref.touched))
                assert net.ledger.snapshot() == ledger
    return [hit for _, hit, _ in refs]


def _same_order_as_before(view, trace, t):
    """Whether step t sweeps the same prefixes as step t - 1 of a traced walk."""
    return t > 1 and np.array_equal(sweep_order_local(view, trace.masses[t]),
                                    sweep_order_local(view, trace.masses[t - 1]))


def test_scan_run_matches_per_step_oracle(monkeypatch):
    rng = np.random.default_rng(41)
    graphs = [gen.barbell(5, 1), gen.barbell(7, 2), gen.cliques_chain(3, 5, 1),
              gen.cliques_chain(4, 4, 2), gen.grid(4, 5), gen.erdos_renyi(16, 0.3, seed=9),
              gen.random_regular(18, 4, seed=2), gen.grid(3, 12), gen.grid(2, 16)]
    seen = {"frozen": 0, "emptied": 0, "hit": 0, "starred": 0, "dyadic": 0,
            "hit at t = 1": 0, "hit past the first block": 0, "hit at t = 3k": 0,
            "hit in the last row": 0,
            "miss with a frozen tail": 0, "falsifier finite": 0,
            "block wider than its edge chunk": 0, "batched hit in a group's first row": 0,
            "batched hit inside a group": 0, "batched miss with a frozen tail": 0,
            "batched emptied walk": 0, "batch of mixed levels": 0}
    wide = []  # per prefix_tables call: more rows than one edge chunk
    tables = cuts.prefix_tables

    def prefix_tables_recorded(view, order):
        wide.append(len(order) > walks.SWEEP_BLOCK_CELLS // max(1, view.m_live))
        return tables(view, order)

    monkeypatch.setattr(cuts, "prefix_tables", prefix_tables_recorded)
    for trial in range(70):
        wide.clear()
        g = graphs[trial % len(graphs)]
        view = ActiveView.whole(g)
        phi = float(rng.choice([1 / 12, 1 / 16, 1 / 24, 1 / 48, 1 / 64,
                                rng.uniform(0.005, 1 / 12)]))
        base = derive_walk_params(g.m, phi, DESK)
        params = WalkParams(base.m, phi, base.ell, int(rng.integers(1, 250)),
                            base.f_phi, base.gamma * float(rng.choice([0.0, 0.3, 1.0, 5.0])),
                            base.eps_base * float(rng.choice([1.0, 300.0, 3e4, 1e7])))
        b = 1 + int(rng.integers(params.ell))
        start = int(rng.integers(g.n))
        trace = walk_trace(view, start, params, b)  # the walk without a stop
        cand = _cut_both(view, start, params, phi, b, monkeypatch)
        if cand is not None and 1 < cand.t < min(trace.t0, trace.t_last):
            # the same walk with the horizon at the hit: the hit is the
            # last row of the last block under every schedule
            cut = dataclasses.replace(params, t0=cand.t)
            assert _cut_both(view, start, cut, phi, b, monkeypatch) == cand
            seen["hit in the last row"] += 1
        # 2-4 walks at different levels in one scan, from their own generator;
        # a high mass floor makes hits that wait for mass inside a group
        brng = np.random.default_rng([41, trial])
        levels = 1 + brng.permutation(params.ell)[:2 + trial % 3]
        pairs = [(int(brng.integers(g.n)), int(lv)) for lv in levels]
        bparams = dataclasses.replace(params, gamma=base.gamma * float(brng.choice([1, 20, 100])))
        seen["batch of mixed levels"] += len(set(levels.tolist())) > 1
        hits = _cut_batch(view, pairs, bparams, phi, monkeypatch)
        for bat, hit in zip(walk_traces(view, pairs, bparams), hits):
            if hit is not None:
                inside = _same_order_as_before(view, bat, hit.t)
                seen["batched hit inside a group"] += inside
                seen["batched hit in a group's first row"] += not inside
                seen["starred"] += hit.starred
                seen["hit past the first block"] += hit.t > walks.FREEZE_BLOCK
            seen["batched miss with a frozen tail"] += hit is None and bat.t_last < bat.t0
            seen["batched emptied walk"] += not bat.masses[-1].any()
        seen["frozen"] += trace.t_last < trace.t0
        seen["emptied"] += not trace.masses[-1].any()
        seen["hit"] += cand is not None
        seen["starred"] += cand is not None and cand.starred
        seen["dyadic"] += phi in (1 / 16, 1 / 64)
        seen["hit at t = 1"] += cand is not None and cand.t == 1
        seen["hit past the first block"] += cand is not None and cand.t > walks.FREEZE_BLOCK
        seen["hit at t = 3k"] += cand is not None and cand.t % 3 == 0
        seen["miss with a frozen tail"] += cand is None and trace.t_last < trace.t0
        seen["block wider than its edge chunk"] += any(wide)
        comp = frozenset(range(start, g.n))
        comp_view = ActiveView(view.working, comp)
        falsifiers = set()
        for rows in BLOCK_ROWS:
            monkeypatch.setattr(walks, "SWEEP_BLOCK_CELLS", _block_cells(comp_view, rows))
            falsifiers.add(_sweep_falsifier(comp_view, phi, DESK))
        assert len(falsifiers) == 1
        seen["falsifier finite"] += falsifiers != {float("inf")}
    assert min(seen.values()) >= 2, seen


def test_scan_run_frozen_at_start(monkeypatch):
    # A single-vertex view has no live edge: the walk state never moves, so
    # t_last = 0 and the whole horizon is a zero-cost frozen tail.
    g = gen.barbell(5, 1)
    view = ActiveView(ActiveView.whole(g).working, [3])
    params = derive_walk_params(g.m, PHI, DESK)
    assert _cut_both(view, 3, params, PHI, 1, monkeypatch) is None
    ((run, hit, trips),) = cuts.scan_runs(view, [(3, 1)], params, DESK)
    assert (run.t_last, run.freeze_t, hit, trips) == (0, 0, None, 0)


def test_jstar_exact_where_float_rounds_up():
    # 24 * fl(1/12) lies just below 2 and rounds to 2.0, so a float floor
    # would admit the prefix volume 26 > (1 + 1/12) * 24
    got = _jstar(np.array([[24, 25, 26, 30]]), np.array([4]), 1 / 12)
    assert got.tolist() == [[2, 3, 3, 4]]
    rng = np.random.default_rng(53)
    for _ in range(60):
        phi = float(rng.choice([1 / 12, 1 / 24, 1 / 7, 1 / 16, 1 / 64, rng.uniform(0.01, 1.0)]))
        rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        prefvol = np.cumsum(rng.choice([1, 2, 3, 12, 24], size=(rows, n)), axis=1)
        cnt = rng.integers(0, n + 1, size=rows)
        _check_jstar(prefvol, cnt, phi)


def _check_jstar(prefvol, cnt, phi):
    got = _jstar(prefvol, cnt, phi)
    grow = 1 + Fraction(phi)
    for r in range(len(prefvol)):
        row = prefvol[r, : cnt[r]].tolist()
        ref = [sum(1 for v in row if v <= grow * int(pv)) for pv in prefvol[r]]
        assert got[r].tolist() == ref


def test_jstar_exact_at_large_volumes():
    # prefix volumes up to 2^35 against 53-bit numerators of phi: 1/12, 1/48
    # and random phi <= 1/12.  Each row holds a volume pv and the volumes
    # around its threshold t = pv + floor(pv * phi), so a floor off by one
    # changes j*; the denominators of phi's best rational approximations put
    # pv * phi within 2^-30 of an integer, where a float product rounds.
    rng = np.random.default_rng(57)
    phis = [1 / 12, 1 / 48] + [float(Fraction(int(rng.integers(1 << 52, 1 << 53)) | 1,
                                              1 << int(rng.integers(57, 80))))
                               for _ in range(30)]
    assert all(Fraction(phi).numerator.bit_length() == 53 and phi <= 1 / 12 for phi in phis)
    near = 0
    for phi in phis:
        pvs = {Fraction(phi).limit_denominator(lim).denominator
               for lim in (1 << 20, 1 << 25, 1 << 30, (1 << 34) - 1)}
        pvs |= set(rng.integers(1 << 20, 1 << 34, size=4).tolist())
        for pv in sorted(pvs):
            frac = pv * Fraction(phi)
            near += abs(frac - round(frac)) < Fraction(1, 1 << 30)
            t = pv + math.floor(frac)
            row = np.array(sorted({pv, t - 1, t, t + 1, 2 * t}))
            _check_jstar(row[None, :], np.array([len(row)]), phi)
    assert near >= 30
    with pytest.raises(TooLarge):
        _jstar(np.array([[1 << 35]]), np.array([1]), 1 / 12)


def test_mass_floor_prefilter_contains_exact():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        deg = rng.integers(1, 60, size=n)
        pv = rng.integers(1, 5000, size=n)
        gamma = float(rng.choice([rng.uniform(1e-6, 0.2), 1 / 12, 0.0]))
        # masses around the floor: rho * pv = gamma * SCALE * factor
        factor = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(0.5, 2.0, size=n))
        p_units = np.maximum(1, (gamma * SCALE * factor * deg / pv).astype(np.int64))
        g_num, g_den = gamma.as_integer_ratio()
        mask = _mass_floor_prefilter(p_units / deg, pv, gamma)
        for i in range(n):
            p, d, v = int(p_units[i]), int(deg[i]), int(pv[i])
            if _mass_floor_ok(p, d, v, g_num, g_den):
                assert mask[i]
            elif Fraction(p * v, d) < Fraction(gamma) * SCALE * (1 - Fraction(1, 10**6)):
                assert not mask[i]  # clearly below the floor: excluded


def test_concurrent_cuts_with_an_isolated_vertex():
    # erdos_renyi:50:0.1 at seed 0 has an isolated vertex; walks, sweep tables
    # and scans divide by no zero degree (RuntimeWarning is an error here)
    g = gen.erdos_renyi(50, 0.1, seed=0)
    assert min(g.deg[v] for v in range(g.n)) == 0
    view, params = _cut_setup(g)
    for seed in range(2):
        net = Network(g)
        res = one_iteration(net, view, PHI, params, DESK, np.random.default_rng(seed),
                            view_starts(net, view), 0.25)
        assert all(g.deg[run.start] > 0 for run, _ in res.instances)
        assert net.ledger.totals().rounds > 0


def _partition_with_and_without_prefetch(monkeypatch, graph, seed, profile=DESK, p=0.25,
                                         after_each=None):
    """sparse_cut_partition on the whole graph with the batching of
    iterations on and off (WALK_BATCH_CELLS 0: every batch is one
    iteration): per mode, (result or raised error, ledger snapshot, rng,
    scan_runs batches, the batch each iteration read, scans charged, folds,
    merges).  after_each(net) runs after each iteration.  Either way each iteration's
    landings were walked in the last scan_runs batch before it, on its own
    view, and its runs are that batch's; with batching off that batch is
    exactly the iteration's distinct landings.  Every instance's scan is
    charged once, and the start sampling folds its subtree sums once per
    view: the whole view, then at most once per removed piece.  Returns the
    result, its merges, the (view size, pairs) of each batch with batching
    on, and the number of the batch each iteration read."""
    outs = []
    for cells in (WALK_BATCH_CELLS, 0):
        monkeypatch.setattr(cuts, "WALK_BATCH_CELLS", cells)
        batches, read, charged, folds = [], [], [], []

        def concurrent(net, view, mi, depth, rng, landings, runs):
            n_view, pairs = batches[-1]
            assert n_view == len(view) and runs.keys() == set(pairs) >= set(landings)
            read.append((len(batches), sorted(set(landings))))
            res = concurrent_local_cuts(net, view, mi, depth, rng, landings, runs)
            if after_each is not None:
                after_each(net)
            return res

        monkeypatch.setattr(cuts, "concurrent_local_cuts", concurrent)
        monkeypatch.setattr(cuts, "scan_runs", lambda view, pairs, *args: (
            batches.append((len(view), list(pairs))) or scan_runs(view, pairs, *args)))
        monkeypatch.setattr(cuts, "scan_run", lambda *args: (
            charged.append(1) or scan_run(*args)))
        monkeypatch.setattr(cuts, "subtree_sums", lambda *args: (
            folds.append(1) or subtree_sums(*args)))
        net, rng = Network(graph), np.random.default_rng(seed)
        with recorded_merges() as merges:
            try:
                out = sparse_cut_partition(net, ActiveView.whole(graph), PHI, p, profile, rng)
            except BadPhi as exc:
                out = exc
        outs.append((out, net.ledger.snapshot(), rng, batches, read, len(charged), len(folds),
                     merges))
    ((on, ledger_on, rng_on, batches_on, read_on, charged_on, folds_on, merges_on),
     (off, ledger_off, rng_off, batches_off, read_off, charged_off, folds_off, merges_off)) = outs
    # off, one batch per iteration, of exactly its distinct landings
    assert read_off == [(i, pairs) for i, (_, pairs) in enumerate(batches_off, 1)]
    assert charged_on == charged_off
    assert folds_on == folds_off
    if isinstance(on, BadPhi):
        assert isinstance(off, BadPhi) and str(on) == str(off)
    else:
        assert (on, merges_on.pieces, len(merges_on)) == (off, merges_off.pieces, len(merges_off))
        assert charged_off == sum(len(c.instances) for c in merges_off)
        assert len(read_off) == len(merges_off)
        assert 1 <= folds_on <= 1 + len(merges_on.pieces)
    assert ledger_on == ledger_off
    assert rng_on.bit_generator.state == rng_off.bit_generator.state
    assert (rng_on.bit_generator.seed_seq.n_children_spawned
            == rng_off.bit_generator.seed_seq.n_children_spawned)
    return on, merges_on, [(n, len(pairs)) for n, pairs in batches_on], [i for i, _ in read_on]


def test_partition_prefetch_gives_identical_partitions(monkeypatch):
    # grid:5:6 at phi = 1/12 finds its cut at iterations 1 to 11, depending on the seed
    g = gen.grid(5, 6)
    late = 0
    for seed in range(12):
        _, merges, batches, read = _partition_with_and_without_prefetch(monkeypatch, g, seed,
                                                                        p=1 / 900)
        first = next((i + 1 for i, c in enumerate(merges) if c.members), None)
        assert len(batches) == 1 and set(read) == {1}  # every walk in one batch
        late += first is not None and first > 1
    assert late >= 4


def test_partition_prefetch_walks_nothing_alone_before_a_piece(monkeypatch):
    # the accept-2 family graphs: every iteration up to the first removed
    # piece read the first batch
    found = 0
    for spec in ACCEPT_2_SPECS:
        for seed in range(2):
            _, merges, batches, read = _partition_with_and_without_prefetch(
                monkeypatch, gen.generate(spec, seed=seed), seed)
            first = next((i for i, c in enumerate(merges) if c.members), len(merges))
            assert batches and set(read[:first + 1]) == {1}, (spec, seed)
            found += bool(merges.pieces)
    assert 4 <= found < 2 * len(ACCEPT_2_SPECS)


def test_partition_prefetch_caps_columns_with_a_large_s(monkeypatch):
    # without the desk s cap, the 30-clique runs all 24 iterations: two batches,
    # each of at most WALK_BATCH_CELLS // (k n) = 17 iterations of one walk
    g = gen.clique(30)
    profile = dataclasses.replace(DESK, s_cap=None)
    for seed in range(3):
        _, merges, batches, read = _partition_with_and_without_prefetch(monkeypatch, g, seed,
                                                                        profile)
        assert merges[0].mi.s == len(merges) == 24 and not merges.pieces
        assert len(batches) == 2 and max(pairs for _, pairs in batches) <= WALK_BATCH_CELLS // 30
        assert read == [1] * (WALK_BATCH_CELLS // 30) + [2] * (24 - WALK_BATCH_CELLS // 30)


def test_partition_prefetched_run_keeps_the_bandwidth_check(monkeypatch):
    # after the first iteration the bandwidth falls below one mass message, so
    # charging the second iteration's walks, walked in the first batch, raises BadPhi
    def narrow(net):
        net.bandwidth_bits = MASS_MSG_BITS - 1

    for seed in range(3):
        out, _, batches, read = _partition_with_and_without_prefetch(
            monkeypatch, gen.clique(16), seed, after_each=narrow)
        assert isinstance(out, BadPhi) and len(batches) == 1 and read == [1, 1]


def _pendant_cliques(core: int, count: int, size: int):
    """A core clique with count pendant cliques of size vertices, pendant j
    joined to core vertex j by one edge."""
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    for j in range(count):
        lo = core + j * size
        edges += [(u, v) for u in range(lo, lo + size) for v in range(u + 1, lo + size)]
        edges.append((j, lo))
    return Graph.from_edges(core + count * size, edges)


def test_partition_batches_again_after_a_piece(monkeypatch):
    # a pendant clique holds less than 1/48 of the volume, so the loop goes on
    # after removing one, and draws its next batch on the smaller view
    again = 0
    for g in (_pendant_cliques(40, 4, 5), _pendant_cliques(30, 6, 4)):
        for seed in range(6):
            _, merges, batches, read = _partition_with_and_without_prefetch(monkeypatch, g, seed)
            assert batches[0][0] == g.n
            again += bool(merges.pieces) and any(n < g.n for n, _ in batches)
    assert again >= 6
