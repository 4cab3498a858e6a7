"""Parameter derivation, both phases, removal channels, and verification."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from expandec import clustering, cuts, decomposition
from expandec import generators as gen
from expandec.clustering import SPLIT_F
from expandec.config import DESK, PAPER, Profile
from expandec.cuts import K_PHI_PARTS
from expandec.errors import BadEpsilon, BudgetExceeded, LevelOverflow
from expandec.graph import Graph, contract, min_conductance_oracle
from expandec.decomposition import (
    C_H_LADDER,
    LOWDIAM_K,
    DecompParams,
    _sweep_falsifier,
    derive_decomp_params,
    expander_decomposition,
    verify_decomposition,
)
from expandec.views import ActiveView, WorkingGraph
from expandec.generators import generate
from helpers_h import full_horizon_scan_runs, graph_from_rows, neighbors, sweep_falsifier_per_step


def test_params_d_example():
    p = derive_decomp_params(10, 0.6, 2, DESK)
    assert p.d == 88
    assert p.beta == pytest.approx(0.2 / 88)


def _d_predicate(n, eps, d):
    """The defining predicate of d, in the float arithmetic of the parameters."""
    return (1 - eps / 12.0) ** d * (n * (n - 1)) < 1.0


def test_params_d_is_least_solution():
    for n in (0, 1, 2, 3, 10, 97, 1000, 10**6):
        for eps in (0.01, 0.1, 0.3, 0.5, 0.9, 0.99):
            d = derive_decomp_params(n, eps, 2, DESK).d
            loop = 1
            while not _d_predicate(n, eps, loop):
                loop += 1
            assert d == loop, (n, eps)
    for n, eps in ((1000, 1e-6), (10**7, 0.1), (2, 1e-9)):
        d = derive_decomp_params(n, eps, 2, DESK).d
        assert _d_predicate(n, eps, d), (n, eps, d)
        assert d == 1 or not _d_predicate(n, eps, d - 1), (n, eps, d)


def test_params_ladder_strictly_decreasing():
    for n, eps, k in ((10, 0.6, 2), (64, 0.3, 3), (128, 0.1, 1)):
        p = derive_decomp_params(n, eps, k, DESK)
        assert all(a > b for a, b in zip(p.phi_ladder, p.phi_ladder[1:]))
        assert p.phi_ladder[-1] > 0


def test_params_bad_epsilon():
    with pytest.raises(BadEpsilon):
        derive_decomp_params(10, 0.0, 2, DESK)
    with pytest.raises(BadEpsilon):
        derive_decomp_params(10, 0.5, 0, DESK)


def test_decomposition_three_cliques():
    g = gen.cliques_chain(3, 8, 1)
    dec = expander_decomposition(g, 0.5, 2, 7, DESK)
    assert sorted(len(c) for c in dec.components) == [8, 8, 8]
    assert dec.removed_total <= 0.5 * g.m
    for comp in dec.components:
        phi, _ = min_conductance_oracle(contract_live_from(dec, comp))
        assert float(phi) >= dec.params.phi_k


def contract_live_from(dec, comp):
    from expandec.views import ActiveView, WorkingGraph

    working = WorkingGraph(dec.graph)
    flat = [e for es in dec.removed.values() for e in es]
    if flat:
        working.remove_edges(flat, "x")
    return ActiveView(working, comp).materialize()


def test_expander_stays_whole():
    g = gen.random_regular(24, 4, seed=1)
    dec = expander_decomposition(g, 0.5, 2, 3, DESK)
    assert [len(c) for c in dec.components] == [24]
    assert dec.removed_total == 0


def test_disjoint_cliques_each_finalize():
    edges = []
    for i in range(3):
        base = 8 * i
        edges += [(base + u, base + v) for u in range(8) for v in range(u + 1, 8)]
    g = Graph.from_edges(24, edges)
    dec = expander_decomposition(g, 0.5, 2, 2, DESK)
    assert sorted(len(c) for c in dec.components) == [8, 8, 8]
    assert dec.removed_total == 0


def test_small_components_pass_oracle():
    for seed in range(3):
        g = gen.erdos_renyi(30, 0.25, seed=seed + 50)
        if not g.is_connected():
            continue
        dec = expander_decomposition(g, 0.5, 2, seed, DESK)
        removed = {e for es in dec.removed.values() for e in es}
        rep = verify_decomposition(g, dec.components, 0.5, dec.params.phi_k, DESK,
                                   reported_removed=removed)
        assert [c.members for c in rep.component_results] == [tuple(sorted(c))
                                                             for c in dec.components]
        for cert in rep.component_results:
            assert cert.phi_lower_ok
            if cert.kind == "oracle":
                assert cert.phi_value >= dec.params.phi_k


def test_removed_edges_partition_input():
    g = gen.cliques_chain(4, 6, 2)
    dec = expander_decomposition(g, 0.5, 2, 9, DESK)
    removed = {e for es in dec.removed.values() for e in es}
    live = set()
    for comp in dec.components:
        for u in comp:
            for v in neighbors(g, u):
                if u < v and v in comp:
                    if (u, v) not in removed:
                        live.add((u, v))
    assert removed | live == set(map(tuple, g.edges.tolist()))
    assert not (removed & live)


def test_components_match_live_connectivity_and_channels():
    g = gen.cliques_chain(3, 8, 1)
    dec = expander_decomposition(g, 0.5, 2, 13, DESK)
    # every removed edge has endpoints in different components or at a singleton
    comp_of = {}
    for i, comp in enumerate(dec.components):
        for v in comp:
            comp_of[v] = i
    for ch, edges in dec.removed.items():
        for u, v in edges:
            assert comp_of[u] != comp_of[v] or ch == "r3"
    for ch in ("r1", "r2", "r3"):
        assert len(dec.removed[ch]) <= (0.5 / 3) * g.m + 1


def test_json_roundtrip_determinism():
    g = gen.cliques_chain(3, 6, 1)
    a = expander_decomposition(g, 0.5, 2, 21, DESK).to_json()
    b = expander_decomposition(g, 0.5, 2, 21, DESK).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["seed"] == 21
    assert set(payload["removed"]) == {"r1", "r2", "r3"}


def blob_on_clique(clique_n=16, blob=5):
    edges = [(u, v) for u in range(clique_n) for v in range(u + 1, clique_n)]
    base = clique_n
    edges += [(base + u, base + v) for u in range(blob) for v in range(u + 1, blob)]
    edges.append((0, base))
    return Graph.from_edges(clique_n + blob, edges)


def test_phase2_trim_ejects_weak_blob():
    # A profile whose ladder keeps level-1 above the blob's conductance, so the
    # trim phase (not the phase-1 split) must handle it when entered.
    from expandec.decomposition import _RunState, _phase2
    from expandec.simulator import Network, RoundLedger
    from expandec.views import ActiveView, WorkingGraph

    g = blob_on_clique()
    prof = dataclasses.replace(DESK, phi_floor=1 / 12, phi_decay=0.9)
    params = derive_decomp_params(g.n, 0.5, 2, prof)
    found_trim = False
    for seed in range(12):
        working = WorkingGraph(g)
        net = Network(g, ledger=RoundLedger(), phase="test")
        state = _RunState(net, working, params, prof, np.random.default_rng([seed, 77]))
        _phase2(state, frozenset(range(g.n)))
        stats = state.phase2_stats[-1]
        assert stats["final_level"] <= params.k
        if stats["removed_vol_at_level"]:
            found_trim = True
            # every trim event beats the level threshold
            tau = stats["tau"]
            for lvl, vol in stats["removed_vol_at_level"].items():
                assert 2 * tau * vol > stats["m_levels"][lvl - 1]
            singles = [c for c in state.finals if len(c) == 1]
            assert singles  # ejected members became self-loop singletons
    assert found_trim


def _ring_beside_clique():
    """A 40-cycle (0..39), an isolated vertex 40 and a 12-clique (41..52),
    whose 66 edges keep epsilon * m above the cycle's 40 at epsilon 0.99."""
    ring = [(v, (v + 1) % 40) for v in range(40)]
    clique = [(u, v) for u in range(41, 53) for v in range(u + 1, 53)]
    return Graph.from_edges(53, ring + clique)


def _scripted_phase2(monkeypatch, members, k, script):
    """_phase2 on members of the ring graph at epsilon 0.99, its balanced cuts
    replaced by the scripted member sets in order (None: no cut); every
    scripted cut must be taken.  Returns the run state."""
    from expandec.cuts import BalancedCutResult
    from expandec.decomposition import _RunState, _phase2
    from expandec.simulator import Network

    script = list(script)
    monkeypatch.setattr(decomposition, "balanced_sparse_cut", lambda *args: (
        None if (cut := script.pop(0)) is None
        else BalancedCutResult(frozenset(cut), 1 / 12, 1.0)))
    g = _ring_beside_clique()
    params = derive_decomp_params(g.n, 0.99, k, DESK)
    state = _RunState(Network(g), WorkingGraph(g), params, DESK, np.random.default_rng(0))
    _phase2(state, frozenset(members))
    assert script == []
    return state


# at k = 80, tau = 13.2^(1/80), so every m_l of levels 0..7 lies in [10.5, 13.2]:
# five ring vertices (volume 10) are a large cut there and one (volume 2) a small one
EJECT_ALL = [c for lvl in range(8)
             for c in ([range(5 * lvl, 5 * lvl + 5)] + ([{5 * lvl + 5}] if lvl < 7 else []))]


@pytest.mark.parametrize("members, k, script, finals, final_level, ejected, r3", [
    # a small view, and an edgeless one of volume 15, finalize before any cut
    (range(3), 2, [], [range(3)], 1, {}, 0),
    ([0, 2, 41], 2, [], [[0], [2], [41]], 1, {}, 0),
    # a large cut ejects its members as singletons, and no cut finalizes the rest
    (range(40), 2, [{0}, None], [[0], range(1, 40)], 1, {1: 2}, 2),
    # each level ejects five vertices and a small cut advances; the last
    # ejection leaves no member
    (range(40), 80, EJECT_ALL, [[v] for v in range(40)], 8, dict.fromkeys(range(1, 9), 10), 40),
])
def test_phase2_ladder_on_scripted_cuts(monkeypatch, members, k, script, finals, final_level,
                                        ejected, r3):
    """Phase 2 driven by scripted cuts: a cut of volume vol_C at level l
    advances the level when 2 tau vol_C <= m_(l-1), else it is ejected
    (every incident live edge removed under r3 and charged, its members
    singletons); no cut, or a view of volume <= 8 or without a live edge,
    finalizes the view's components."""
    state = _scripted_phase2(monkeypatch, members, k, script)
    assert sorted(map(sorted, state.finals)) == sorted(map(sorted, finals))
    (stats,) = state.phase2_stats
    assert stats["final_level"] == final_level and stats["removed_vol_at_level"] == ejected
    tau, m_levels = stats["tau"], stats["m_levels"]
    assert stats["vol_u"] == int(state.working.graph.deg[list(members)].sum())
    assert tau == pytest.approx((0.99 / 6 * stats["vol_u"]) ** (1 / k))
    for lvl, vol in ejected.items():  # one ejection per level, large and within m_l
        assert 2 * tau * vol > m_levels[lvl - 1] >= vol
    assert len(state.working.removed_by("r3")) == state.removed == r3


def test_phase2_small_cut_past_the_last_level_raises(monkeypatch):
    # a cut of volume 0 (the isolated vertex) is small at every level: the
    # second one advances past k = 2
    with pytest.raises(LevelOverflow, match=r"phase-2 level 3 > k=2$"):
        _scripted_phase2(monkeypatch, [*range(40), 40], 2, [{40}, {40}])


def test_phase2_level_budget_raises_before_2_tau_ejections(monkeypatch):
    # on the ring at k = 2, m_1 = 13.2 and 2 tau = 7.27: every ring vertex
    # (volume 2) is a large cut, and the 7th ejection at level 1 breaks m_1
    # before the level has ejected 2 tau + 1 cuts
    with pytest.raises(BudgetExceeded, match=r"^phase-2 level 1 ejected volume 14 > m_1 = 13\.2$"):
        _scripted_phase2(monkeypatch, range(40), 2, [{v} for v in range(7)])


def _scripted_r1(monkeypatch, parts, cut_edges):
    """Make the first low-diameter decomposition of a run cut cut_edges into
    parts; later ones run as they are."""
    low_diam = clustering.low_diam_decomposition
    calls = []

    def scripted(net, view, *args):
        res = low_diam(net, view, *args)
        calls.append(len(view))
        if len(calls) > 1:
            return res
        return dataclasses.replace(res, components=[frozenset(p) for p in parts],
                                   cut_edges=cut_edges)

    monkeypatch.setattr(clustering, "low_diam_decomposition", scripted)
    return calls


# an 8-clique (0..7) with the path 7 - 8 - 9 hanging off it: 30 edges
PENDANT_PATH = Graph.from_edges(10, [(u, v) for u in range(8) for v in range(u + 1, 8)]
                                + [(7, 8), (8, 9)])


def test_phase1_r1_cut_is_removed_and_each_part_cut_or_finalized(monkeypatch):
    calls = _scripted_r1(monkeypatch, [range(8), [8, 9]], [(7, 8)])
    dec = expander_decomposition(PENDANT_PATH, 0.5, 2, 1, DESK)
    assert calls[0] == 10 and dec.removed["r1"] == [(7, 8)]
    # the path part (volume 3) is finalized whole; the clique part is cut or
    # finalized inside itself
    assert frozenset({8, 9}) in dec.components
    assert all(c <= frozenset(range(8)) for c in dec.components if c != {8, 9})
    removed = {e for es in dec.removed.values() for e in es}
    assert verify_decomposition(PENDANT_PATH, dec.components, 0.5, dec.params.phi_k, DESK,
                                removed).ok


def test_phase1_r1_cut_is_charged_against_the_epsilon_budget(monkeypatch):
    _scripted_r1(monkeypatch, [range(8), [8], [9]], [(7, 8), (8, 9)])
    with pytest.raises(BudgetExceeded, match=r"^r1 removal at phase-1 depth 1 takes the removed "
                                             r"edges from 0 to 2 of 30 > epsilon \* m = 1\.5$"):
        expander_decomposition(PENDANT_PATH, 0.05, 2, 1, DESK)


BUDGET_BREAKS = {
    "level 1": r"phase-2 level 1 ejected volume (\d+) > m_1 = ([\d.]+)$",
    "r2": (r"r2 removal at phase-1 depth \d+ takes the removed edges from (\d+) to (\d+) "
           r"of (\d+) > epsilon \* m = ([\d.]+)$"),
}


@pytest.mark.parametrize("spec, epsilon, outcome", [
    ("cliques_chain:26:12:1", 0.5, 45),  # returns, with this many r2 edges
    ("cliques_chain:27:12:1", 0.5, "level 1"),
    ("cliques_chain:40:12:1", 0.5, "level 1"),
    ("random_regular:200:4", 0.2, "r2"),
])
def test_removal_budgets_are_charged_per_removal(spec, epsilon, outcome):
    """A run that breaks a removal budget raises at the removal that breaks it,
    naming the Phase-2 level (volume over m_l) or the channel and depth (the
    total crosses epsilon * m at that removal, not before); graph seed =
    algorithm seed = 0."""
    g = generate(spec, seed=0)
    if isinstance(outcome, int):
        dec = expander_decomposition(g, epsilon, 2, 0, DESK)
        assert len(dec.removed["r2"]) == outcome
        assert dec.removed_total <= epsilon * g.m
        return
    with pytest.raises(BudgetExceeded) as exc:
        expander_decomposition(g, epsilon, 2, 0, DESK)
    hit = re.match(BUDGET_BREAKS[outcome], str(exc.value))
    assert hit, str(exc.value)
    if outcome == "level 1":
        ejected, m_1 = int(hit[1]), float(hit[2])
        assert ejected > m_1
    else:
        before, after, m, budget = int(hit[1]), int(hit[2]), int(hit[3]), float(hit[4])
        assert m == g.m and budget == epsilon * g.m
        assert before <= budget < after


@pytest.mark.parametrize("epsilon", [0.35, 0.5])
def test_epsilon_budget_boundary(epsilon):
    """floor(epsilon * m) single-edge removals pass; the next one raises."""
    from expandec.decomposition import _RunState
    from expandec.simulator import Network

    g = gen.cycle(10)
    params = derive_decomp_params(g.n, epsilon, 2, DESK)
    state = _RunState(Network(g), WorkingGraph(g), params, DESK, np.random.default_rng(0))
    allowed = math.floor(epsilon * g.m)
    for i in range(allowed):
        state.remove([tuple(g.edges[i])], "r1", "phase-1 depth 1")
    assert state.removed == allowed
    with pytest.raises(BudgetExceeded, match=rf"r3 removal at phase-2 level 2 takes the "
                                             rf"removed edges from {allowed} to {allowed + 1} "):
        state.remove([tuple(g.edges[allowed])], "r3", "phase-2 level 2")


def test_profiles_differ_in_every_field_and_json_records_the_constants():
    # a value both profiles share is a module constant, not a profile field
    shared = [f.name for f in dataclasses.fields(Profile)
              if getattr(PAPER, f.name) == getattr(DESK, f.name)]
    assert shared == []
    assert (1 + SPLIT_F) ** 4 <= 2  # the split's estimates stay one-sided
    dec = expander_decomposition(gen.cliques_chain(3, 8, 1), 0.5, 2, 7, DESK)
    constants = json.loads(dec.to_json())["constants"]
    assert constants["c_h_ladder"] == C_H_LADDER == 1.0
    assert constants["lowdiam_K"] == LOWDIAM_K == 10.0
    assert constants["k_phi_parts"] == list(K_PHI_PARTS)
    assert constants["profile"] == "desk"


def test_decomposition_certifies_nothing(monkeypatch):
    # Certifying a component is verify's job alone: with the certifier, the
    # exact oracle and the falsifier's walk all made to raise, the
    # decomposition still returns singletons, oracle-sized and larger parts.
    import expandec.decomposition as decomposition

    def refuse(*args, **kwargs):
        raise AssertionError("the decomposition certified a component")

    edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    edges += [(20 + u, 20 + v) for u in range(8) for v in range(u + 1, 8)]
    graphs = [Graph.from_edges(29, edges), gen.cliques_chain(3, 8, 1),
              gen.erdos_renyi(40, 0.3, seed=3), blob_on_clique(16, 5)]
    decs = []
    with monkeypatch.context() as mp:
        for name in ("_certify", "min_conductance_oracle", "compute_walk"):
            mp.setattr(decomposition, name, refuse)
        for seed, g in enumerate(graphs):
            decs.append(expander_decomposition(g, 0.5, 2, seed, DESK))
    sizes = {len(c) for dec in decs for c in dec.components}
    assert 1 in sizes and sizes & set(range(2, 17)) and max(sizes) > 16
    kinds = set()
    for g, dec in zip(graphs, decs):
        rep = verify_decomposition(g, dec.components, 0.5, dec.params.phi_k, DESK)
        assert len(rep.component_results) == len(dec.components)
        kinds |= {c.kind for c in rep.component_results}
    assert kinds == {"singleton", "oracle", "sweep"}


def test_verify_pass_and_tamper():
    g = gen.cliques_chain(3, 8, 1)
    dec = expander_decomposition(g, 0.5, 2, 7, DESK)
    rep = verify_decomposition(g, dec.components, 0.5, dec.params.phi_k, DESK)
    assert rep.ok
    # move one vertex across components: recount must fail
    bad = [set(c) for c in dec.components]
    bad[0].discard(min(bad[0]))
    bad[1].add(min(dec.components[0]))
    rep2 = verify_decomposition(g, [frozenset(c) for c in bad], 0.5,
                                dec.params.phi_k, DESK)
    assert not rep2.ok


def test_verify_rejects_overlap_cover_and_recount():
    g = gen.cliques_chain(3, 4, 1)
    parts = [frozenset(range(4)), frozenset(range(4, 8)), frozenset(range(8, 12))]

    def verdict(components, reported=None):
        rep = verify_decomposition(g, components, 0.5, 1 / 12, DESK, reported_removed=reported)
        cert = rep.component_results[0]
        return rep.ok, (cert.kind, cert.phi_lower_ok)

    # the first component that lists a vertex again is named
    assert verdict([parts[0], parts[1] | {2}, parts[2] | {3}]) == (False, ("overlap", False))
    rep = verify_decomposition(g, [parts[0], parts[1], parts[2] | {5}], 0.5, 1 / 12, DESK)
    assert rep.component_results[0].members == tuple(parts[2] | {5})
    for cover in ([parts[0], parts[1]], [parts[0], parts[1], parts[2] | {12}],
                  [parts[0] | {-1}, parts[1], parts[2]]):
        assert verdict(cover) == (False, ("cover", False))
    bridges = {(3, 4), (7, 8)}
    assert verdict(parts, bridges)[0]
    assert verdict(parts, {(3, 4)}) == (False, ("inter-edge recount", False))


def test_verify_fails_an_empty_component():
    # An empty component is not connected: a FAIL verdict, not a raise.
    g = gen.cliques_chain(3, 4, 1)
    parts = [frozenset(range(4)), frozenset(range(4, 8)), frozenset(range(8, 12))]
    rep = verify_decomposition(g, parts + [frozenset()], 0.5, 1 / 12, DESK)
    assert not rep.ok and rep.inter_fraction_ok
    assert [(c.members, c.kind, c.phi_lower_ok) for c in rep.component_results[3:]] == [
        ((), "connectivity", False)]
    assert [c.kind for c in rep.component_results[:3]] == ["oracle"] * 3


# the graph specs of perfbench's dec_small workload
DEC_SMALL_SPECS = (
    "cliques_chain:2:6:1", "cliques_chain:3:7:2", "cliques_chain:4:8:1",
    "random_regular:16:3", "random_regular:20:4", "random_regular:24:3",
    "random_regular:18:4", "grid:4:5", "grid:5:6", "grid:4:8",
)


def test_pipeline_computes_no_cut_statistics(monkeypatch):
    # A cut is a vertex set; its exact statistics are graph.cut_stats' and
    # no stage reads them: with every expandec binding of cut_stats and Cut
    # made to raise, the dec_small decompositions and balanced cuts return.
    import sys

    from expandec.cuts import balanced_sparse_cut
    from expandec.simulator import Network

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline computed cut statistics")

    for name, module in list(sys.modules.items()):
        if name == "expandec" or name.startswith("expandec."):
            for attr in ("cut_stats", "Cut"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    found = 0
    for seed, spec in enumerate(DEC_SMALL_SPECS):
        g = generate(spec, seed=seed)
        expander_decomposition(g, 0.5, 2, seed, DESK)
        found += balanced_sparse_cut(Network(g), ActiveView.whole(g), 0.01, DESK,
                                     np.random.default_rng([seed, 0x5C])) is not None
    assert found > 0


def test_verify_rejects_mislabeled_barbell():
    g = gen.barbell(6, 1)
    rep = verify_decomposition(g, [frozenset(range(g.n))], 0.5, 1 / 12, DESK)
    assert not rep.ok  # oracle sees the 1/31 bridge cut


def test_singletons_from_trim_are_components():
    g = blob_on_clique(16, 5)
    for seed in range(8):
        dec = expander_decomposition(g, 0.5, 2, seed, DESK)
        if dec.removed["r3"]:
            r3_touched = {v for e in dec.removed["r3"] for v in e}
            singles = {min(c) for c in dec.components if len(c) == 1}
            assert singles and singles <= r3_touched
            return
    # phase 2 entry is stochastic at this scale; the direct-trim test covers it


def test_decomposition_builds_no_distance_tables(monkeypatch):
    # Inside the decomposition the ball radius exceeds every view, so the
    # low-diameter stage answers from component roots alone.
    import expandec.clustering as clustering
    import expandec.graph as graph
    import expandec.views as views

    calls = {"oracle": 0, "hop": 0, "lowdiam": 0}

    def count(key, fn):
        def spy(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(clustering.NeighborhoodOracle, "__init__",
                        count("oracle", clustering.NeighborhoodOracle.__init__))
    monkeypatch.setattr(views, "hop_distances", count("hop", views.hop_distances))
    monkeypatch.setattr(graph, "hop_distances", count("hop", graph.hop_distances))
    monkeypatch.setattr(clustering, "low_diam_decomposition",
                        count("lowdiam", clustering.low_diam_decomposition))
    for spec in ("cliques_chain:3:7:2", "erdos_renyi:120:0.06"):
        expander_decomposition(gen.generate(spec, seed=1), 0.5, 2, 0, DESK)
    assert calls["lowdiam"] > 0
    assert calls["oracle"] == 0
    assert calls["hop"] == 0


def test_pipeline_runs_no_message_rounds(monkeypatch):
    # Trees, subtree sums, shift clusters, walks and scans are all charged by
    # formula, so no CLI pipeline simulates a single network round.
    from expandec.clustering import low_diam_decomposition
    from expandec.cuts import balanced_sparse_cut
    from expandec.simulator import Network
    from expandec.triangles import triangle_enumeration
    from expandec.views import ActiveView

    calls = []
    run_round = Network.run_round

    def spy(self, *args, **kwargs):
        calls.append(self.phase)
        return run_round(self, *args, **kwargs)

    monkeypatch.setattr(Network, "run_round", spy)
    cuts = 0
    for spec in ("cliques_chain:3:7:2", "erdos_renyi:120:0.06", "grid:5:6"):
        g = gen.generate(spec, seed=1)
        dec = expander_decomposition(g, 0.5, 2, 0, DESK)
        assert dec.ledger.totals().rounds > 0
        net = Network(g)
        cuts += balanced_sparse_cut(net, ActiveView.whole(g), 0.01, DESK,
                                    np.random.default_rng([1, 0x5C])) is not None
        assert net.ledger.totals().rounds > 0
        net = Network(g)
        low_diam_decomposition(net, ActiveView.whole(g), 0.2, 10.0,
                               np.random.default_rng([1, 0, 0x1D]))
        assert net.ledger.totals().rounds > 0
    assert cuts == 2  # the chain and the grid have sparse cuts
    rep = triangle_enumeration(gen.erdos_renyi(30, 0.4, seed=2), rng=3, verify=True)
    assert rep.verified and rep.ledger.totals().rounds > 0
    assert calls == []


def test_sweep_falsifier_matches_per_step():
    rng = np.random.default_rng(47)
    graphs = [gen.cliques_chain(3, 6, 1), gen.grid(5, 6), gen.random_regular(24, 3, seed=4),
              gen.barbell(8, 2), gen.erdos_renyi(40, 0.15, seed=8)]
    checked = 0
    for g in graphs:
        working = WorkingGraph(g)
        working.remove_edges([e for e in g.edges if rng.random() < 0.1], "r2")
        for _ in range(3):
            comp = frozenset(v for v in range(g.n) if rng.random() < 0.85) or frozenset({0})
            phi_k = float(rng.choice([1 / 12, 1 / 20, rng.uniform(0.05, 0.2)]))
            got = _sweep_falsifier(ActiveView(working, comp), phi_k, DESK)
            assert got == sweep_falsifier_per_step(working, comp, phi_k, DESK)
            checked += got < float("inf")
    assert checked >= 10
    # 10^6 loops make vertex 1's walk share fall below the truncation floor,
    # so every stored step supports vertex 0 alone and no prefix is swept
    g = graph_from_rows([[1], [0, 2], [1]], [0, 10**6, 0])
    working = WorkingGraph(g)
    assert _sweep_falsifier(ActiveView(working, frozenset({0, 1})), 1 / 12, DESK) == float("inf")
    assert sweep_falsifier_per_step(working, frozenset({0, 1}), 1 / 12, DESK) == float("inf")


ACCEPT_2_SPECS = ("cliques_chain:2:6:1", "cliques_chain:3:7:2", "cliques_chain:4:8:1",
                  "random_regular:16:3", "random_regular:20:4", "random_regular:24:3",
                  "random_regular:18:4", "grid:4:5", "grid:5:6", "grid:4:8")


def test_stop_at_hit_keeps_components_and_removals(monkeypatch):
    # The walk that stops at its hit charges less and touches fewer edges,
    # but each local cut finds the same hit, so the decomposition has the
    # same components and removal sets as with walks run to their horizon;
    # the simulated rounds and messages do not rise, nor does the bit load.
    cases = [(generate(spec, seed=seed), seed) for spec in ACCEPT_2_SPECS for seed in (0, 1)]
    cases += [(gen.cliques_chain(6, 10, 1), seed) for seed in (0, 1)]
    fell = 0
    for g, seed in cases:
        dec = expander_decomposition(g, 0.5, 2, seed, DESK)
        with monkeypatch.context() as m:
            m.setattr(cuts, "scan_runs", full_horizon_scan_runs)
            ref = expander_decomposition(g, 0.5, 2, seed, DESK)
        assert dec.components == ref.components and dec.removed == ref.removed
        got, want = dec.ledger.totals(), ref.ledger.totals()
        assert (got.rounds <= want.rounds and got.messages <= want.messages
                and got.max_bits <= want.max_bits)
        fell += got.messages < want.messages
    assert fell >= len(cases) // 3  # the chains and grids hit; most regular graphs do not
