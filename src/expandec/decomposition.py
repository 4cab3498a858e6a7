"""Two-phase expander decomposition with three tagged edge-removal channels.

Phase 1 recursively splits along nearly-most-balanced sparse cuts after a
low-diameter preprocessing pass (channel r1 = clustering cuts, r2 = balanced
cuts).  Components whose cut came back small enter Phase 2, a level ladder
that keeps cutting at successively smaller conductance targets and ejects each
sufficiently large cut wholesale (channel r3), turning its members into
self-loop singletons.  Degrees never change; removed plus remaining edges
always recompose the input.

Removals are never undone, so every removal is charged as it happens against
the run's two budgets: at most epsilon * m removed edges in total, and on each
Phase-2 level l at most m_l ejected volume.  The first removal that breaks one
raises BudgetExceeded naming the channel and the Phase-1 depth or Phase-2
level (for a level, also its ejected volume and m_l); a doomed run stops there
instead of running to its end.

The decomposition certifies nothing itself: `verify_decomposition` is the
one place a component is certified, by the exact oracle when it is small,
else by the sweep falsifier: the least sweep-prefix conductance of one
truncated walk, folded over the blocks of states that `walks.compute_walks`
streams into it, so it holds one block at a time however long the walk.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .config import Profile
from .cuts import K_PHI_PARTS, balanced_sparse_cut, ladder_h_inv
from .errors import (
    BadEpsilon,
    BudgetExceeded,
    DepthExceeded,
    LevelOverflow,
)
from .graph import Graph, N_ORACLE_MAX, edge_key, min_conductance_oracle
from .simulator import Network, RoundLedger
from .views import ActiveView, WorkingGraph
from .walks import compute_walk, derive_walk_params, sweep_tables

C_H_LADDER = 1.0  # constant of the ladder quality function h (`cuts.ladder_h`)
# Components at or below this volume finalize directly: any proper cut of a
# connected piece with volume <= 8 has conductance >= 1/4, above every rung.
VOL_FINALIZE_CUTOFF = 8
LOWDIAM_K = 10.0  # K of `clustering.low_diam_decomposition` inside Phase 1


@dataclass(frozen=True)
class DecompParams:
    epsilon: float
    k: int
    d: int
    beta: float
    phi_ladder: tuple[float, ...]  # phi_0 .. phi_k, strictly decreasing

    @property
    def phi_0(self) -> float:
        return self.phi_ladder[0]

    @property
    def phi_k(self) -> float:
        return self.phi_ladder[-1]


def derive_decomp_params(n: int, epsilon: float, k: int, profile: Profile) -> DecompParams:
    """d is the smallest integer >= 1 with (1 - eps/12)^d * 2 * C(n,2) < 1;
    beta = (eps/3)/d; the phi ladder starts where the cut-quality function h
    meets (eps/6)/log2 C(n,2) and steps down through h-inverse.  The desk
    profile floors the ladder (geometrically, preserving strict decrease)."""
    if not (0.0 < epsilon < 1.0):
        raise BadEpsilon(f"epsilon={epsilon}")
    if k < 1:
        raise BadEpsilon(f"k={k}")
    pairs = n * (n - 1)  # 2 * C(n, 2)
    q = 1 - epsilon / 12.0
    # closed form, then an exact fix-up against the float predicate itself
    d = math.ceil(math.log(pairs) / -math.log(q)) if pairs > 1 else 1
    while q ** d * pairs >= 1.0:
        d += 1
    while d > 1 and q ** (d - 1) * pairs < 1.0:
        d -= 1
    beta = (epsilon / 3.0) / d
    target = (epsilon / 6.0) / math.log2(max(2, n * (n - 1) // 2))
    phi = [ladder_h_inv(target, n, C_H_LADDER)]
    for _ in range(k):
        phi.append(ladder_h_inv(phi[-1], n, C_H_LADDER))
    if profile.phi_floor is not None:
        floor = profile.phi_floor
        phi = [max(p, floor * profile.phi_decay**i) for i, p in enumerate(phi)]
    if not all(a > b for a, b in zip(phi, phi[1:])):
        raise BadEpsilon(f"phi ladder not strictly decreasing: {phi}")
    return DecompParams(epsilon, k, d, beta, tuple(phi))


@dataclass
class ComponentCertificate:
    members: tuple[int, ...]
    # "oracle" | "sweep" | "singleton", or a failed check: "overlap" | "cover"
    # | "inter-edge recount" | "connectivity"
    kind: str
    phi_lower_ok: bool
    phi_value: float | None  # exact oracle value or best sweep upper bound seen


@dataclass
class Decomposition:
    graph: Graph
    params: DecompParams
    components: list[frozenset]
    removed: dict[str, list[tuple[int, int]]]  # channels r1, r2, r3
    ledger: RoundLedger
    seed: int
    constants: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def removed_total(self) -> int:
        return sum(len(v) for v in self.removed.values())

    def to_json(self) -> str:
        return json.dumps({
            "components": [sorted(c) for c in self.components],
            "removed": {ch: len(es) for ch, es in self.removed.items()},
            "removed_edges": {ch: sorted(es) for ch, es in self.removed.items()},
            "epsilon": self.params.epsilon,
            "k": self.params.k,
            "phi_k": self.params.phi_k,
            "constants": self.constants,
            "rounds": self.ledger.rows(),
            "seed": self.seed,
        }, sort_keys=True)


def expander_decomposition(graph: Graph, epsilon: float, k: int,
                           rng: np.random.Generator | int, profile: Profile,
                           ledger: RoundLedger | None = None) -> Decomposition:
    """Phase-1 recursion plus Phase-2 trimming.  Raises BudgetExceeded at the
    first removal that takes the total past epsilon * graph.m or a Phase-2
    level's ejected volume past its m_l."""
    if isinstance(rng, np.random.Generator):
        seed = -1
    else:
        seed_material = [int(rng)] if isinstance(rng, (int, np.integer)) else [int(x) for x in rng]
        seed = seed_material[0]
        rng = np.random.default_rng(seed_material + [0xDEC0])
    params = derive_decomp_params(graph.n, epsilon, k, profile)
    ledger = ledger or RoundLedger()
    net = Network(graph, ledger=ledger, phase="decomp")
    working = WorkingGraph(graph)
    state = _RunState(net, working, params, profile, rng)
    _phase1(state, frozenset(range(graph.n)), depth=1)
    for members in state.phase2_queue:
        _phase2(state, members)
    components = sorted(state.finals, key=min)
    removed = {ch: working.removed_by(ch) for ch in ("r1", "r2", "r3")}
    _check_structure(graph, working, components)
    constants = {
        "c_h_ladder": C_H_LADDER,
        "phi_ladder": list(params.phi_ladder),
        "d": params.d,
        "beta": params.beta,
        "k_phi_parts": list(K_PHI_PARTS),
        "profile": profile.name,
        "lowdiam_K": LOWDIAM_K,
    }
    dec = Decomposition(graph, params, components, removed, ledger, seed, constants)
    dec.diagnostics = {
        "max_depth": state.max_depth_seen,
        "d": params.d,
        "phase2": state.phase2_stats,
    }
    return dec


class _RunState:
    def __init__(self, net, working, params, profile, rng):
        self.net = net
        self.working = working
        self.params = params
        self.profile = profile
        self.rng = rng
        self.finals: list[frozenset] = []
        self.phase2_queue: list[frozenset] = []
        self.max_depth_seen = 0
        self.phase2_stats: list[dict] = []
        self.removed = 0

    def remove(self, edges, channel: str, where: str):
        """Remove edges under channel and charge them to the epsilon * m budget."""
        self.working.remove_edges(edges, channel)
        before, self.removed = self.removed, self.removed + len(edges)
        m = self.working.graph.m
        if self.removed > self.params.epsilon * m:
            raise BudgetExceeded(
                f"{channel} removal at {where} takes the removed edges from {before} "
                f"to {self.removed} of {m} > epsilon * m = {self.params.epsilon * m:g}")


def _phase1(state: _RunState, members: frozenset, depth: int):
    from .clustering import low_diam_decomposition

    params = state.params
    if depth > params.d:
        raise DepthExceeded(f"phase-1 recursion reached depth {depth} > d={params.d}")
    state.max_depth_seen = max(state.max_depth_seen, depth)
    view = ActiveView(state.working, members)
    for comp in view.components():
        comp_view = view.subview(comp)
        if comp_view.vol() <= VOL_FINALIZE_CUTOFF:
            state.finals.append(comp)
            continue
        state.net.set_phase("lowdiam")
        ld = low_diam_decomposition(state.net, comp_view, params.beta,
                                    LOWDIAM_K, state.rng)
        if ld.cut_edges:
            state.remove(ld.cut_edges, "r1", f"phase-1 depth {depth}")
        for u_set in ld.components:
            # without r1 cuts the one low-diameter part is comp itself
            u_view = ActiveView(state.working, u_set) if ld.cut_edges else comp_view
            if u_view.vol() <= VOL_FINALIZE_CUTOFF:
                state.finals.append(u_set)
                continue
            state.net.set_phase("phase1-cut")
            res = balanced_sparse_cut(state.net, u_view, params.phi_0,
                                      state.profile, state.rng)
            if res is None:
                state.finals.append(u_set)
                continue
            vol_u = u_view.vol()
            vol_c = u_view.graph.volume(res.members)
            if 12 * vol_c <= params.epsilon * vol_u:
                state.phase2_queue.append(u_set)
                continue
            inside = u_view.member_mask(res.members)[u_view.edges_local]
            crossing = u_view.edges_local[inside[:, 0] != inside[:, 1]]
            state.remove(u_view.verts[crossing], "r2", f"phase-1 depth {depth}")
            _phase1(state, frozenset(res.members), depth + 1)
            _phase1(state, u_set - res.members, depth + 1)


def _phase2(state: _RunState, members: frozenset):
    params = state.params
    vol_u = state.net.graph.volume(members)
    tau = ((params.epsilon / 6.0) * vol_u) ** (1.0 / params.k)
    m_levels = [(params.epsilon / 6.0) * vol_u]
    for _ in range(params.k):
        m_levels.append(m_levels[-1] / tau)
    level = 1
    active = set(members)
    removed_vol_at_level: dict[int, int] = {}
    while True:
        if level > params.k:
            raise LevelOverflow(f"phase-2 level {level} > k={params.k}")
        cur = ActiveView(state.working, active)
        if cur.vol() <= VOL_FINALIZE_CUTOFF or cur.m_live == 0:
            for comp in cur.components():
                state.finals.append(comp)
            break
        state.net.set_phase("phase2-cut")
        res = balanced_sparse_cut(state.net, cur, params.phi_ladder[level],
                                  state.profile, state.rng)
        if res is None:
            for comp in cur.components():
                state.finals.append(comp)
            break
        vol_c = cur.graph.volume(res.members)
        if 2 * tau * vol_c <= m_levels[level - 1]:
            level += 1
            continue
        # eject the cut: every incident live edge goes, members become singletons
        inside = cur.member_mask(res.members)[cur.edges_local]
        state.remove(cur.verts[cur.edges_local[inside.any(axis=1)]], "r3",
                     f"phase-2 level {level}")
        ejected = removed_vol_at_level[level] = removed_vol_at_level.get(level, 0) + vol_c
        if ejected > m_levels[level - 1]:
            raise BudgetExceeded(f"phase-2 level {level} ejected volume {ejected} > "
                                 f"m_{level} = {m_levels[level - 1]:g}")
        for u in sorted(res.members):
            state.finals.append(frozenset({u}))
        active -= res.members
        if not active:
            break
    state.phase2_stats.append({
        "vol_u": vol_u,
        "tau": tau,
        "m_levels": m_levels,
        "removed_vol_at_level": removed_vol_at_level,
        "final_level": level,
    })


def _check_structure(graph: Graph, working: WorkingGraph, components: list[frozenset]):
    # components must be exactly the connected parts of the remaining edges
    view = ActiveView(working, range(graph.n))
    recomputed = sorted(view.components(), key=min)
    got = sorted(components, key=min)
    if recomputed != got:
        raise AssertionError("final components disagree with live connectivity")


def _certify(view: ActiveView, phi_k: float, profile: Profile) -> tuple[str, bool, float | None]:
    """(kind, phi >= phi_k, value) of the connected component that view
    spans: the exact oracle on its contraction (removed edges as loops) when
    it is small, else the sweep falsifier's upper bound."""
    if len(view) == 1:
        return "singleton", True, None
    if len(view) <= N_ORACLE_MAX:
        phi = float(min_conductance_oracle(view.materialize())[0])
        return "oracle", phi >= phi_k, phi
    best = _sweep_falsifier(view, phi_k, profile)
    return "sweep", best >= phi_k, best


def _sweep_falsifier(view: ActiveView, phi_k: float, profile: Profile) -> float:
    """Sound conductance falsifier: min sweep-prefix conductance of one
    truncated walk on view started at its least vertex (an upper bound on
    Phi), folded over the walk's blocks of states as they stream by; it
    never stops the walk."""
    params = derive_walk_params(max(1, view.m_live), phi_k, profile)
    vol_total = view.vol()
    best = float("inf")

    def fold(masses, _run, _t) -> dict:
        nonlocal best
        _order, cnt, prefvol, bnds = sweep_tables(view, masses)
        small = np.minimum(prefvol, vol_total - prefvol)
        ok = (small > 0) & (np.arange(len(view)) < cnt[:, None]) & (cnt[:, None] >= 2)
        if ok.any():
            best = min(best, float((bnds[ok] / small[ok]).min()))
        return {}

    compute_walk(view, int(view.verts[0]), params, max(1, params.ell // 2), fold)
    return best


# -- verification -----------------------------------------------------------------


@dataclass
class VerifyReport:
    ok: bool
    inter_edges: int
    inter_fraction_ok: bool
    component_results: list[ComponentCertificate]

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}: {self.inter_edges} inter edges, " + ", ".join(
            f"{c.kind}:{'ok' if c.phi_lower_ok else 'FAIL'}" for c in self.component_results
        )


def verify_decomposition(graph: Graph, components: list, epsilon: float,
                         phi_k: float, profile: Profile,
                         reported_removed: set | None = None) -> VerifyReport:
    """Recompute the inter-component fraction and certify every component
    (exact oracle when small, sweep falsifier when large) on one view of it,
    which also checks that it is connected: one component, so an empty one
    fails.  When the run's reported removal set is given, the recount must
    match it exactly."""
    which = np.repeat(np.arange(len(components)), [len(c) for c in components])
    members = np.fromiter(chain.from_iterable(components), dtype=np.int64, count=len(which))
    order = np.argsort(members, kind="stable")
    listed = members[order]
    again = order[1:][listed[1:] == listed[:-1]]  # each later listing of a vertex
    if len(again):
        first = tuple(components[which[again].min()])
        return VerifyReport(False, -1, False, [ComponentCertificate(first, "overlap", False, None)])
    if not np.array_equal(listed, np.arange(graph.n)):
        return VerifyReport(False, -1, False, [ComponentCertificate((), "cover", False, None)])
    comp_of = np.empty(graph.n, dtype=np.int64)
    comp_of[members] = which
    u, v = graph.edges.T
    cut_edges = graph.edges[comp_of[u] != comp_of[v]]
    inter = len(cut_edges)
    frac_ok = inter <= epsilon * graph.m
    if (reported_removed is not None
            and {edge_key(*e) for e in reported_removed} != set(map(tuple, cut_edges.tolist()))):
        return VerifyReport(False, inter, frac_ok,
                            [ComponentCertificate((), "inter-edge recount", False, None)])
    working = WorkingGraph(graph)
    if inter:
        working.remove_edges(cut_edges, "inter")
    results = []
    for comp in components:
        view = ActiveView(working, comp)
        verdict = (("connectivity", False, None) if len(view.components()) != 1
                   else _certify(view, phi_k, profile))
        results.append(ComponentCertificate(tuple(view.verts.tolist()), *verdict))
    ok = frac_ok and all(c.phi_lower_ok for c in results)
    return VerifyReport(ok, inter, frac_ok, results)
