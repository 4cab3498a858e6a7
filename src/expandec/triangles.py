"""Triangle enumeration driven by repeated expander decomposition.

Each level decomposes the current edge set, enumerates every triangle with at
least one intra-component edge via bucket-triple assignments inside each
component, then recurses on the inter-component edges.  A triangle survives a
level only if all three of its edges are inter-component there, so the union
over levels is exhaustive; every reported triple is re-checkable against the
original adjacency.

Routing is direct delivery with an analytic cost model: delivering one batch
of requests (per-vertex load proportional to degree) inside a component is
charged c_r * tau_mix * log2(n)^q rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .config import Profile
from .decomposition import Decomposition, contract_live, expander_decomposition
from .errors import BadEpsilon, TooLarge
from .graph import Graph, mixing_time_estimate
from .simulator import RoundLedger
from .views import WorkingGraph

TRIANGLE_N_MAX = 2000
MIX_EXACT_N_MAX = 128
MIX_TOL = 0.5  # L1 distance to the degree-stationary distribution


def brute_force_triangles(g: Graph) -> set[tuple[int, int, int]]:
    """Exact triangle set by sorted adjacency intersection."""
    if g.n > TRIANGLE_N_MAX:
        raise TooLarge(f"n={g.n} exceeds {TRIANGLE_N_MAX}")
    out = set()
    neighbor_sets = [set(ns) for ns in g.neighbors]
    for u, v in g.edges:
        for w in neighbor_sets[u] & neighbor_sets[v]:
            if w > v:
                out.add((u, v, w))
    return out


@dataclass(frozen=True)
class Router:
    """Direct delivery with an analytic round cost per batch."""

    c_r: float = 1.0
    q_exp: float = 1.0

    def batch_rounds(self, tau_mix: float, n: int) -> float:
        return self.c_r * tau_mix * math.log2(max(2, n)) ** self.q_exp


@dataclass
class ComponentEnumeration:
    component: tuple[int, ...]
    triangles: set
    reporters: dict  # triangle -> assigned vertex
    buckets: int
    triples: int
    batches: int
    tau_mix: float
    rounds_charged: float


def enumerate_component(level_graph: Graph, comp, router: Router,
                        tau_mix: float, n_global: int) -> ComponentEnumeration:
    """Report every triangle of the level graph with >= 2 vertices in comp.

    Component vertices and their external boundary neighbors are split into
    ceil(|comp|^(1/3)) ID-ordered buckets; bucket triples are assigned
    round-robin to component vertices, and each assignee intersects the three
    bucket-pair edge lists drawn from intra edges, boundary edges, and the
    external adjacency among boundary-touching vertices.
    """
    comp = sorted(comp)
    comp_set = set(comp)
    ext = sorted({
        u for v in comp for u in level_graph.neighbors[v] if u not in comp_set
    })
    universe = sorted(comp_set | set(ext))
    uni_set = set(universe)
    n_buckets = max(1, math.ceil(len(comp) ** (1.0 / 3.0)))
    chunk = math.ceil(len(universe) / n_buckets)
    bucket_of = {v: i // chunk for i, v in enumerate(universe)}
    pair_edges: dict[tuple[int, int], list] = {}
    adj_in = {v: (set(level_graph.neighbors[v]) & uni_set) for v in universe}
    for v in universe:
        for u in adj_in[v]:
            if v < u:
                key = tuple(sorted((bucket_of[v], bucket_of[u])))
                pair_edges.setdefault(key, []).append((v, u))
    triples = list(combinations_with_replacement(range(n_buckets), 3))
    triangles = set()
    reporters = {}
    load = {v: 0 for v in comp}
    members = {i: [v for v in universe if bucket_of[v] == i] for i in range(n_buckets)}
    for i, (a, b, c) in enumerate(triples):
        assignee = comp[i % len(comp)]
        lists = [pair_edges.get(tuple(sorted(p)), []) for p in ((a, b), (b, c), (a, c))]
        load[assignee] += sum(len(l) for l in lists)
        set_c = set(members[c])
        for p, q in pair_edges.get(tuple(sorted((a, b))), []):
            for r in (adj_in[p] & adj_in[q]) & set_c:
                tri = tuple(sorted((p, q, r)))
                if tri not in triangles:
                    triangles.add(tri)
                    reporters[tri] = assignee
    batches = max(
        (math.ceil(load[v] / max(1, level_graph.degree(v))) for v in comp), default=0
    )
    rounds = batches * router.batch_rounds(tau_mix, n_global)
    return ComponentEnumeration(tuple(comp), triangles, reporters, n_buckets,
                                len(triples), batches, tau_mix, rounds)


@dataclass
class LevelReport:
    level: int
    edges_in: int
    edges_next: int
    components: list[ComponentEnumeration]
    decomposition: Decomposition

    @property
    def rounds_charged(self) -> float:
        return sum(c.rounds_charged for c in self.components)


@dataclass
class TriangleReport:
    triangles: set
    reporters: dict
    levels: list[LevelReport]
    ledger: RoundLedger
    epsilon: float
    k: int
    verified: bool | None = None

    @property
    def rounds_charged(self) -> float:
        return sum(l.rounds_charged for l in self.levels)


def component_mixing_time(level_graph: Graph, comp, phi_floor: float,
                          profile: Profile) -> float:
    """tau_mix of the degree-preserving contraction: exact powering when small,
    else the mixing-form bound c_mix * log2(n) / phi^2 at the certified floor."""
    if len(comp) <= 1:
        return 0.0
    working = WorkingGraph(level_graph)
    sub = contract_live(working, comp)
    if sub.n <= MIX_EXACT_N_MAX:
        try:
            return float(mixing_time_estimate(sub, MIX_TOL, step_cap=20_000))
        except TooLarge:
            pass
    return profile.c_mix * math.log2(max(2, sub.n)) / phi_floor**2


def triangle_enumeration(graph: Graph, epsilon: float = 1.0 / 6.0, k: int = 2,
                         rng: np.random.Generator | int = 0,
                         profile: Profile | None = None,
                         router: Router | None = None,
                         verify: bool = False) -> TriangleReport:
    """Enumerate every triangle of the graph, recursing on inter-component edges."""
    from .config import DESK

    profile = profile or DESK
    router = router or Router()
    if epsilon > 1.0 / 6.0 + 1e-12:
        raise BadEpsilon(f"epsilon={epsilon} above 1/6")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else int(rng.integers(1 << 62))
    ledger = RoundLedger()
    triangles: set = set()
    reporters: dict = {}
    levels: list[LevelReport] = []
    edges = list(graph.edges)
    level = 0
    max_depth = math.log(max(2, graph.m), 6) + 2
    while edges:
        level += 1
        if level > max_depth:
            raise AssertionError(f"recursion depth {level} exceeds log6 bound")
        level_graph = Graph.from_edges(graph.n, edges)
        dec = expander_decomposition(level_graph, epsilon, k, [seed, level],
                                     profile, ledger=ledger)
        comp_reports = []
        for comp in dec.components:
            if len(comp) < 2:
                continue
            tau = component_mixing_time(level_graph, comp, dec.params.phi_k, profile)
            rep = enumerate_component(level_graph, comp, router, tau, graph.n)
            comp_reports.append(rep)
            for tri in rep.triangles:
                if tri not in triangles:
                    triangles.add(tri)
                    reporters[tri] = rep.reporters[tri]
        next_edges = sorted(e for es in dec.removed.values() for e in es)
        assert len(next_edges) < len(edges)
        levels.append(LevelReport(level, len(edges), len(next_edges), comp_reports, dec))
        edges = next_edges
    report = TriangleReport(triangles, reporters, levels, ledger, epsilon, k)
    for tri in triangles:  # soundness: every reported triple is a real triangle
        u, v, w = tri
        assert graph.has_edge(u, v) and graph.has_edge(v, w) and graph.has_edge(u, w)
    if verify:
        report.verified = triangles == brute_force_triangles(graph)
    return report


def router_cost_report(report: TriangleReport) -> dict:
    """Per-level routing summary: mixing estimates, batch counts, charged rounds."""
    out = {"levels": [], "total_rounds_charged": report.rounds_charged}
    for lvl in report.levels:
        out["levels"].append({
            "level": lvl.level,
            "edges": lvl.edges_in,
            "components": [
                {
                    "size": len(c.component),
                    "tau_mix": c.tau_mix,
                    "buckets": c.buckets,
                    "triples": c.triples,
                    "batches": c.batches,
                    "rounds_charged": c.rounds_charged,
                }
                for c in lvl.components
            ],
        })
    return out
