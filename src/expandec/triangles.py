"""Triangle enumeration driven by repeated expander decomposition.

Each level decomposes the current edge set, enumerates the triangles around
every component of at least two vertices, then recurses on the
inter-component edges.  A triangle survives a level only if all three of its
edges are inter-component there, so the union over levels is exhaustive.

Triangles are int64 arrays from end to end.  Per component, the forward edges
(u < v) of G[comp ∪ N(comp)] are gathered from the level graph's rows of that
vertex set only, and the triangles are listed by a wedge test: every forward
edge (u, v) and forward neighbor w of v close a triangle when (u, w) is an
edge, in chunks of at most WEDGE_CHUNK wedges.  An edge test on n vertices
looks the key u * n + w up in a dense boolean table of the n * n cells when n
is at most TRIANGLE_N_MAX, and binary-searches the sorted edge keys above that
bound, where the table would pass 4 MB.  The bucket-triple assignment of the
routing model (ceil(|comp|^(1/3)) ID-ordered buckets, triples dealt
round-robin to the component's vertices) is kept as arithmetic on the same
arrays: pair-list sizes come from one `bincount`, each triangle's reporter is
the assignee of its sorted bucket triple, and assignee loads are one
`bincount` more; each component keeps its triangles' reporters (`assignees`).
The driver checks every component's triangles against the input graph,
independently of the level graphs: a row must be 0 <= u < v < w < n, and its
three pairs must pass one edge test over the input graph's edges, built once
per run.  It builds the public set from them once: a triangle that two
components list is one member.

Routing is direct delivery with an analytic cost model: delivering one batch
of requests (per-vertex load proportional to degree) inside a component is
charged tau_mix * log2(n) rounds, the routing cost of Ghaffari, Kuhn and Su
(PODC'17) with its constant and log exponent at 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement

import numpy as np

from .config import Profile
from .decomposition import Decomposition, expander_decomposition
from .errors import BadEpsilon, DepthExceeded, NotATriangle, StalledLevel, TooLarge
from .graph import Graph, contract, mixing_time_estimate, row_positions
from .simulator import RoundLedger

TRIANGLE_N_MAX = 2000  # bounds the oracle's dense matrix and every edge table: n^2 cells
MIX_EXACT_N_MAX = 128
MIX_TOL = 0.5  # L1 distance to the degree-stationary distribution
C_MIX = 4.0  # mixing-time form constant: tau <= C_MIX * log2(n) / phi^2
WEDGE_CHUNK = 1 << 18  # candidate wedges tested per numpy pass
TUPLE_CHUNK = 1 << 16  # triangle rows turned into Python tuples per pass


def brute_force_triangles(g: Graph) -> set[tuple[int, int, int]]:
    """Exact triangle set from the dense adjacency matrix: per vertex u, the
    adjacent pairs v < w among its neighbours above u."""
    if g.n > TRIANGLE_N_MAX:
        raise TooLarge(f"n={g.n} exceeds {TRIANGLE_N_MAX}")
    dense = g.adj.toarray().astype(bool)
    out = set()
    for u in range(g.n):
        up = g.indices[g.indptr[u]:g.indptr[u + 1]]
        up = up[up > u]
        i, j = np.nonzero(np.triu(dense[np.ix_(up, up)], k=1))
        out.update(zip([u] * len(i), up[i].tolist(), up[j].tolist()))
    return out


@dataclass
class ComponentEnumeration:
    component: tuple[int, ...]
    tris: np.ndarray       # (T, 3) int64 host ids; rows ascending, in lexicographic order
    assignees: np.ndarray  # (T,) int64: the component vertex that reports each row
    buckets: int
    triples: int
    batches: int
    tau_mix: float
    rounds_charged: float

    @property
    def triangles(self) -> set:
        return set(map(tuple, self.tris.tolist()))


def _is_key(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Membership of each query in the sorted key array."""
    if len(keys) == 0:
        return np.zeros(len(q), dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, q), len(keys) - 1)] == q


def _edge_test(keys: np.ndarray, n: int):
    """Membership test for the sorted edge keys u * n + v (0 <= u, v < n).

    It looks keys up in a dense boolean table of the n * n cells when
    n <= TRIANGLE_N_MAX; otherwise it binary-searches the keys (`_is_key`).
    A query must be a key of a pair in range.
    """
    if n <= TRIANGLE_N_MAX:
        table = np.zeros(n * n, dtype=bool)
        table[keys] = True
        return table.__getitem__
    return partial(_is_key, keys)


def _wedge_triangles(fu: np.ndarray, fv: np.ndarray, n: int) -> np.ndarray:
    """Triangles (u < v < w) of the graph on 0..n-1 whose forward edges
    (u < v) are given in lexicographic order; rows come out in the same order.

    Each forward edge (u, v) meets each forward neighbor w of v in a wedge,
    kept when (u, w) is an edge; edges are taken in runs of at most
    WEDGE_CHUNK wedges (a run holds one edge at least).
    """
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fu, minlength=n), out=ptr[1:])
    wedges = np.cumsum(ptr[fv + 1] - ptr[fv])
    is_edge = _edge_test(fu * n + fv, n)
    out = []
    lo, done = 0, 0
    while lo < len(fu):
        hi = max(lo + 1, int(np.searchsorted(wedges, done + WEDGE_CHUNK, side="right")))
        head = fv[lo:hi]
        cnt = ptr[head + 1] - ptr[head]
        first = np.cumsum(cnt) - cnt  # position of each edge's first wedge in the run
        w = fv[np.repeat(ptr[head] - first, cnt) + np.arange(int(wedges[hi - 1]) - done)]
        u, v = np.repeat(fu[lo:hi], cnt), np.repeat(head, cnt)
        hit = is_edge(u * n + w)
        out.append(np.stack([u[hit], v[hit], w[hit]], axis=1))
        lo, done = hi, int(wedges[hi - 1])
    return np.concatenate(out) if out else np.empty((0, 3), dtype=np.int64)


def enumerate_component(level_graph: Graph, comp, tau_mix: float,
                        n_global: int) -> ComponentEnumeration:
    """Report every triangle of G[comp ∪ N(comp)] in the level graph.

    This includes triangles with one vertex in comp or none (wholly inside
    N(comp)).  The vertex set U = comp ∪ N(comp) is split into
    ceil(|comp|^(1/3)) ID-ordered buckets of ceil(|U| / buckets) vertices;
    bucket triples are assigned round-robin to component vertices, and each
    triangle is reported by the assignee of its sorted bucket triple.  An
    assignee's load is the total size of the three bucket-pair edge lists of
    its triples, and the batch count is the largest load-to-degree ratio;
    each batch is charged tau_mix * log2(n_global) rounds.
    """
    comp = sorted(comp)
    comp_arr = np.array(comp, dtype=np.int64)
    indptr, indices = level_graph.indptr, level_graph.indices
    universe = np.union1d(comp_arr, indices[row_positions(indptr, comp_arr)])
    cols = indices[row_positions(indptr, universe)]
    n_u = len(universe)
    # forward edges of G[U] in local indices: U is sorted, so i < j iff u < v
    rows = np.repeat(np.arange(n_u), np.diff(indptr)[universe])
    local = np.searchsorted(universe, cols)
    inside = local < n_u
    inside[inside] = universe[local[inside]] == cols[inside]
    fwd = inside & (local > rows)
    fu, fv = rows[fwd], local[fwd]
    n_buckets = max(1, math.ceil(len(comp) ** (1.0 / 3.0)))
    chunk = math.ceil(n_u / n_buckets)
    triples = np.array(list(combinations_with_replacement(range(n_buckets), 3)),
                       dtype=np.int64)
    ta, tb, tc = triples.T
    pair = np.bincount((fu // chunk) * n_buckets + fv // chunk,
                       minlength=n_buckets * n_buckets).reshape(n_buckets, n_buckets)
    load = pair[ta, tb] + pair[tb, tc] + pair[ta, tc]
    # bincount sums in float64, exact below 2^53
    per_vertex = np.bincount(np.arange(len(triples)) % len(comp), weights=load,
                             minlength=len(comp)).astype(np.int64)
    batches = int((-(-per_vertex // np.maximum(1, level_graph.deg[comp_arr]))).max(initial=0))
    tris = _wedge_triangles(fu, fv, n_u)
    # the only triple listing a triangle is its sorted bucket triple
    b = tris // chunk
    tkey = (ta * n_buckets + tb) * n_buckets + tc
    idx = np.searchsorted(tkey, (b[:, 0] * n_buckets + b[:, 1]) * n_buckets + b[:, 2])
    rounds = batches * (tau_mix * math.log2(max(2, n_global)))
    return ComponentEnumeration(tuple(comp), universe[tris], comp_arr[idx % len(comp)],
                                n_buckets, len(triples), batches, tau_mix, rounds)


@dataclass
class LevelReport:
    level: int
    edges_in: int
    components: list[ComponentEnumeration]
    decomposition: Decomposition

    @property
    def rounds_charged(self) -> float:
        return sum(c.rounds_charged for c in self.components)


@dataclass
class TriangleReport:
    triangles: set
    levels: list[LevelReport]
    ledger: RoundLedger
    epsilon: float
    k: int
    verified: bool | None = None

    @property
    def rounds_charged(self) -> float:
        return sum(l.rounds_charged for l in self.levels)


def component_mixing_time(level_graph: Graph, comp, phi_floor: float) -> float:
    """tau_mix of the degree-preserving contraction: exact powering when small,
    else the mixing-form bound C_MIX * log2(n) / phi^2 at the certified floor."""
    if len(comp) <= 1:
        return 0.0
    if len(comp) <= MIX_EXACT_N_MAX:
        try:
            return float(mixing_time_estimate(contract(level_graph, comp), MIX_TOL,
                                              step_cap=20_000))
        except TooLarge:
            pass
    return C_MIX * math.log2(max(2, len(comp))) / phi_floor**2


def _check_sound(n: int, is_edge, tris: np.ndarray) -> None:
    """Raise NotATriangle unless every row is 0 <= u < v < w < n and its three
    pairs pass is_edge, the input graph's `_edge_test`; a row out of range is
    rejected before any key is looked up, since its keys would alias."""
    u, v, w = tris.T
    ok = (0 <= u) & (u < v) & (v < w) & (w < n)
    if ok.all():
        ok = is_edge(u * n + v) & is_edge(v * n + w) & is_edge(u * n + w)
    if not ok.all():
        raise NotATriangle(f"reported {tuple(tris[ok.argmin()].tolist())} is not a triangle")


def _public(parts: list[ComponentEnumeration], n: int) -> set:
    """The report's triangle set: every component's rows, each triangle once.

    The tuples hold one shared int object per vertex label, taken from an
    object array (`tolist` of an int64 array makes a fresh object for every
    int > 256), and the set grows chunk by chunk.
    """
    labels = np.array(range(n), dtype=object)
    triangles = set()
    for part in parts:
        for lo in range(0, len(part.tris), TUPLE_CHUNK):
            triangles.update(zip(*labels[part.tris[lo : lo + TUPLE_CHUNK]].T.tolist()))
    return triangles


def triangle_enumeration(graph: Graph, epsilon: float = 1.0 / 6.0, k: int = 2,
                         rng: np.random.Generator | int = 0,
                         profile: Profile | None = None,
                         verify: bool = False) -> TriangleReport:
    """Enumerate every triangle of the graph, recursing on inter-component edges."""
    from .config import DESK

    profile = profile or DESK
    if epsilon > 1.0 / 6.0 + 1e-12:
        raise BadEpsilon(f"epsilon={epsilon} above 1/6")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else int(rng.integers(1 << 62))
    ledger = RoundLedger()
    levels: list[LevelReport] = []
    edges = graph.edges
    level = 0
    max_depth = math.log(max(2, graph.m), 6) + 2
    while len(edges):
        level += 1
        if level > max_depth:
            raise DepthExceeded(f"recursion depth {level} exceeds log6 bound")
        level_graph = Graph.from_edges(graph.n, edges)
        dec = expander_decomposition(level_graph, epsilon, k, [seed, level],
                                     profile, ledger=ledger)
        comp_reports = []
        for comp in dec.components:
            if len(comp) < 2:
                continue
            tau = component_mixing_time(level_graph, comp, dec.params.phi_k)
            comp_reports.append(enumerate_component(level_graph, comp, tau, graph.n))
        next_edges = np.array([e for es in dec.removed.values() for e in es],
                              dtype=np.int64).reshape(-1, 2)
        if len(next_edges) >= len(edges):
            raise StalledLevel(f"level {level} kept {len(next_edges)} of {len(edges)} edges")
        levels.append(LevelReport(level, len(edges), comp_reports, dec))
        edges = next_edges
    parts = [c for lvl in levels for c in lvl.components]
    n = graph.n
    # graph.edges is sorted, so are its keys
    is_edge = _edge_test(graph.edges[:, 0] * n + graph.edges[:, 1], n)
    for part in parts:
        _check_sound(n, is_edge, part.tris)
    triangles = _public(parts, n)
    report = TriangleReport(triangles, levels, ledger, epsilon, k)
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
