"""Exponential-shift clustering and the high-probability low-diameter decomposition.

The shift clustering is one multi-source `graph.level_sweep` from the shifted
start times, charged the protocol's full epoch count without a `Network`
round; it returns arrays over the view's local ids: each vertex's centre and
start, and a mask over the live edges of those between clusters.  The
dense/sparse split classifies vertices by comparing neighborhood edge-count
estimates at radius a against radius 100ab and grows the dense region in
a-ball merge rounds.  The final decomposition cuts the masked edges with an
end in the sparse side and takes its parts from the view's live edges less
those, all by local index; only its reported cut edges are host pairs.

Neighborhood edge sets follow the flooding semantics: the radius-d edge set of
v is every tracked edge with an endpoint within distance d-1 of v, which is
what d-1 phases of list-or-star flooding deliver (radius 1 = incident edges).
The pipeline needs only the edge counts, for size estimates: one exact
count answers an estimate's whole ladder of threshold tests, a sampled
rung's stream is drawn only where that count leaves the answer open, and
the tests are charged by the per-phase formula in one ledger entry.  The
flooding protocol, the exact edge sets it delivers and the rung-by-rung
tests are test references.  No hop distance in a view exceeds its size
minus one, so from radius len(view) on every ball is the vertex's whole
component: its edge count is one `bincount` of the (sampled) live edges over
the view's component roots, and an a-ball of a vertex set, like every
region the split grows from such balls, is a union of components, which
the roots group.  Only radii below that need the dense distance tables of
`NeighborhoodOracle`.  Inside the expander decomposition a exceeds the view
size, so the decomposition never builds one and, cutting nothing, returns
the view's components.  The roots, the distances (both cached on the view)
and every other component split come from the numpy traversal substrate of
`graph` run on the view's CSR adjacency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graph import adjacency_csr, components_of, edge_ends, group_by_root, level_sweep
from .simulator import KIND_BITS, Network
from .views import ActiveView


# -- neighborhood oracle ------------------------------------------------------


class NeighborhoodOracle:
    """Per vertex and edge of one view, the radius at which the edge enters
    the vertex's ball, from the view's all-pairs hop distances.  Both are
    dense (n x m and n x n int32), so the oracle suits views of a few
    thousand vertices.  It is needed only below radius len(view): from
    there on `ball_edge_counts` answers in closed form from the view's
    component roots."""

    def __init__(self, view: ActiveView):
        self.view = view
        d = view.distances
        # min endpoint distance: the edge joins v's radius-k edge set at k = min+1;
        # built in place so only one n x m temporary is alive
        self.edge_reach = d[:, view.edges_local[:, 0]]
        np.minimum(self.edge_reach, d[:, view.edges_local[:, 1]], out=self.edge_reach)

    def ball_edge_counts(self, d: int, edge_mask: np.ndarray | None = None) -> np.ndarray:
        """Per-vertex count of tracked edges with an endpoint within d-1."""
        reach = self.edge_reach if edge_mask is None else self.edge_reach[:, edge_mask]
        if reach.shape[1] == 0:
            return np.zeros(len(self.view.verts), dtype=np.int64)
        return (reach <= d - 1).sum(axis=1).astype(np.int64)


def ball_edge_counts(view: ActiveView, d: int, edge_mask: np.ndarray | None = None,
                     oracle: NeighborhoodOracle | None = None) -> np.ndarray:
    """Per-vertex count (indexed like view.verts) of tracked edges with an
    endpoint within d-1.  From d = len(view) on each ball is the vertex's
    component, so the count is its component's tracked-edge count; below,
    the oracle (built here when none is given) counts."""
    if d < len(view):
        return (oracle or NeighborhoodOracle(view)).ball_edge_counts(d, edge_mask)
    heads = view.roots[view.edges_local[:, 0]]
    if edge_mask is not None:
        heads = heads[edge_mask]
    return np.bincount(heads, minlength=len(view))[view.roots]


# -- neighborhood primitives ---------------------------------------------------


K_SAMPLE = 10  # a threshold test samples each edge at rate K_SAMPLE log n / (f^2 z)


def _samples(n: int, z: int, f: float) -> bool:
    """Whether a threshold test at z samples edges (else it counts them all)."""
    return K_SAMPLE * math.log2(max(2, n)) < f * f * z


@lru_cache(maxsize=64)
def _ladder(n: int, f: float, bandwidth_bits: int) -> tuple:
    """What a size estimate's ladder fixes for host size n: the rungs 1, 1+f,
    (1+f)^2, ... up to n(n-1)/2 (read-only), the thresholds (1+f)z of the
    low rungs, those whose test at z = ceil(rung) counts every edge
    (read-only), the top rungs' threshold on a sampled count and their
    sampling rates, and the flooding rounds per phase of all the rungs'
    tests together."""
    log_n = math.log2(max(2, n))
    ladder = [1.0]
    cap = n * (n - 1) / 2
    while ladder[-1] * (1 + f) <= cap:
        ladder.append(ladder[-1] * (1 + f))
    zs = [max(1, math.ceil(r)) for r in ladder]
    exact = [(1 + f) * z for z in zs if not _samples(n, z, f)]
    tau = (1 + f / 2) * K_SAMPLE * log_n / (f * f)
    rates = [K_SAMPLE * log_n / (f * f * z) for z in zs[len(exact):]]
    edge_bits = 2 * math.ceil(log_n)
    per_phase = sum(max(1, math.ceil((t + 1) * edge_bits / bandwidth_bits))
                    for t in exact + [tau] * len(rates))
    ladder, exact = np.array(ladder), np.array(exact)
    ladder.flags.writeable = exact.flags.writeable = False
    return ladder, exact, tau, rates, per_phase


def neighborhood_size_estimate(net: Network, view: ActiveView, d: int, f: float,
                               rng: np.random.Generator,
                               oracle: NeighborhoodOracle | None = None) -> np.ndarray:
    """Per-vertex m_v, indexed like view.verts, within a (1+f) factor of the
    radius-d edge count w.h.p.

    m_v is the lowest rung of the ladder 1, 1+f, (1+f)^2, ... whose threshold
    test at z = ceil(rung) accepts (every oversized rung accepts, so the first
    acceptance is the informative one).  A low rung counts every edge and
    accepts a count up to (1+f)z; a top rung samples each edge at rate
    K_SAMPLE log n / (f^2 z), from a stream keyed by its index so estimates
    are monotone in d for a fixed generator state, and accepts a sampled
    count up to a fixed tau.  The whole ladder is answered from one exact
    count: the low rungs' thresholds rise with the rung, so a vertex's first
    accepting one is a `searchsorted`, and a sampled count never exceeds the
    exact one, so a top rung's stream is built only while some vertex with
    an exact count above tau is still unsettled.  The ladder is charged as
    its rungs' tests, one flooding of d-1 phases each, in one ledger entry.
    """
    if oracle is None and d < len(view):
        oracle = NeighborhoodOracle(view)
    n = net.graph.n
    seed_key = int(rng.integers(1 << 62))
    ladder, exact, tau, rates, per_phase = _ladder(n, f, net.bandwidth_bits)
    top = len(ladder)
    counts = ball_edge_counts(view, d, None, oracle)
    rung = np.searchsorted(exact, counts)  # the first accepting low rung
    rung[(rung == len(exact)) & (counts > tau)] = top  # open at the top rungs
    for i, rate in enumerate(rates, start=len(exact)):
        open_ = rung == top
        if not open_.any():
            break
        mask = np.random.default_rng([seed_key, i]).random(view.m_live) < rate
        rung[open_ & (ball_edge_counts(view, d, mask, oracle) <= tau)] = i
    net.ledger.charge(net.phase, rounds=max(0, d - 1) * per_phase,
                      messages=2 * view.m_live * max(0, d - 1) * top,
                      edge_bits=net.bandwidth_bits)
    return ladder[np.minimum(rung, top - 1)]


# -- exponential-shift clustering ----------------------------------------------


@dataclass
class ShiftClustering:
    """The clusters of one view as arrays: per vertex, indexed like
    view.verts, the host id of its cluster's centre and its start epoch;
    per live edge, indexed like view.edges_local, whether its ends lie in
    different clusters."""

    centre: np.ndarray
    start: np.ndarray
    epochs: int
    inter: np.ndarray


def exponential_shift_clustering(net: Network, view: ActiveView, beta: float,
                                 rng: np.random.Generator) -> ShiftClustering:
    """Sample per-vertex Exponential(rate beta) shifts delta, one
    `rng.exponential` call over view.verts.  v is clustered at epoch T(v) =
    min_u start(u) + hop(u, v), start = max(1, horizon - floor(delta)): it
    is a centre iff start(v) = T(v), else it joins the smallest cluster id
    among its neighbours clustered at T(v) - 1.  Rounds charged equal the
    epoch count."""
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta={beta} outside (0, 1)")
    n = net.graph.n
    horizon = math.ceil(2 * math.log2(max(2, n)) / beta)
    verts = view.verts
    shifts = rng.exponential(scale=1.0 / beta, size=len(verts))
    start = np.maximum(1, horizon - np.floor(shifts).astype(np.int64))
    src, dst = edge_ends(view.adj_matrix)
    epoch = level_sweep(src, dst, start)
    centre = start == epoch
    joins = (epoch[dst] == epoch[src] - 1) & ~centre[src]
    src, dst = src[joins], dst[joins]
    # ids spread one epoch per pass; the least local id is the least host id
    cluster = np.where(centre, np.arange(len(verts)), len(verts))
    while True:
        settled = cluster.copy()
        np.minimum.at(cluster, src, cluster[dst])
        if np.array_equal(cluster, settled):
            break
    ends = cluster[view.edges_local]
    net.ledger.charge(net.phase, rounds=horizon, messages=2 * view.m_live,
                      edge_bits=KIND_BITS + 64)
    return ShiftClustering(verts[cluster], start, horizon, ends[:, 0] != ends[:, 1])


# -- dense/sparse split ----------------------------------------------------------


# Estimate precision of the split; (1 + SPLIT_F)^4 <= 2 keeps the
# classification one-sided.
SPLIT_F = 3.0 / 16.0


@dataclass
class DenseSparseSplit:
    v_dense: frozenset
    v_sparse: frozenset
    dense_prime: frozenset
    a: int
    b: int
    stages: list[list[frozenset]]  # components of each W_i, W_0 first


def build_dense_sparse_split(net: Network, view: ActiveView, beta: float, K: float,
                             rng: np.random.Generator) -> DenseSparseSplit:
    """Classify dense/sparse by radius-a vs radius-100ab edge-count estimates
    (each within a factor 1 + SPLIT_F), then grow the dense region by a-ball
    merges until components are pairwise further than a apart."""
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta={beta}")
    n = net.graph.n
    log_n = math.log2(max(2, n))
    a = max(1, math.ceil(5 * log_n / beta))
    b = max(1, math.ceil(K * log_n / beta))
    n_view = len(view.verts)
    oracle = NeighborhoodOracle(view) if a < n_view else None
    far_radius = min(100 * a * b, n_view + 1)
    est_near = neighborhood_size_estimate(net, view, a, SPLIT_F, rng, oracle=oracle)
    est_far = neighborhood_size_estimate(net, view, far_radius, SPLIT_F, rng, oracle=oracle)
    is_dense = est_near * 2 * b * (1 + SPLIT_F) ** 2 >= est_far
    dense_prime = frozenset(view.verts[is_dense].tolist())
    # a reaches n_view - 1, the largest possible distance: every a-ball, and
    # so every W below, is a union of whole components
    whole = a >= n_view - 1

    def ball(hosts) -> frozenset:
        """Vertices within a of hosts."""
        rows = np.flatnonzero(view.member_mask(hosts))
        if not len(rows):
            return frozenset()
        if whole:
            near = np.isin(view.roots, view.roots[rows])
        else:
            near = view.distances[rows].min(axis=0) <= a
        return frozenset(view.verts[near].tolist())

    def components_within(w: frozenset) -> list[frozenset]:
        rows = np.flatnonzero(view.member_mask(w))
        if whole:
            return group_by_root(view.roots[rows], view.verts[rows])
        return components_of(view.adj_matrix[rows][:, rows], view.verts[rows])

    def near_other(c: frozenset, w: frozenset) -> bool:
        """Another component of w lies within a of c."""
        return len(ball(c) & w) > len(c)

    w = ball(dense_prime)
    stages = [components_within(w)]
    for _ in range(2 * b):
        comps = stages[-1]
        if len(comps) <= 1:
            break
        merged = False
        new_w = set()
        for c in comps:
            if near_other(c, w):
                new_w |= ball(c)
                merged = True
            else:
                new_w |= c
        ecc = max((len(c) for c in comps), default=1)
        net.ledger.charge(net.phase, rounds=min(20 * a * b, ecc + a),
                          messages=2 * view.m_live, edge_bits=KIND_BITS + 64)
        if not merged or frozenset(new_w) == w:
            break
        w = frozenset(new_w)
        stages.append(components_within(w))
    if any(near_other(c, w) for c in stages[-1]):
        raise RuntimeError("dense-region merge loop left components within a")
    return DenseSparseSplit(w, view.active - w, dense_prime, a, b, stages)


# -- low-diameter decomposition ---------------------------------------------------


@dataclass
class LowDiamResult:
    components: list[frozenset]
    cut_edges: list[tuple[int, int]]
    split: DenseSparseSplit
    view: ActiveView
    beta: float
    diameter_bound: int

    @cached_property
    def diameters(self) -> list[int]:
        """Per component, the largest hop distance in the view between two of
        its members (computed on first access)."""
        dist = self.view.distances
        idx = self.view.index
        rows = [[idx[v] for v in comp] for comp in self.components]
        return [int(dist[np.ix_(r, r)].max()) for r in rows]

    @property
    def max_diameter(self) -> int:
        return max(self.diameters, default=0)


def low_diam_decomposition(net: Network, view: ActiveView, beta: float, K: int,
                           rng: np.random.Generator) -> LowDiamResult:
    """Partition into low-diameter connected parts w.h.p., cutting only
    inter-cluster edges with an endpoint in the sparse side.  The split and
    clustering run at beta/3 so the combined cut stays within the beta budget."""
    beta_inner = beta / 3.0
    split = build_dense_sparse_split(net, view, beta_inner, K, rng)
    clustering = exponential_shift_clustering(net, view, beta_inner, rng)
    el = view.edges_local
    sparse = view.member_mask(split.v_sparse)[el]
    cut = clustering.inter & (sparse[:, 0] | sparse[:, 1])
    # connected components of the live subgraph minus the cut edges
    if cut.any():
        comps = components_of(adjacency_csr(len(view), el[~cut]), view.verts)
    else:
        comps = view.components()
    n = net.graph.n
    d1 = 4 * math.log2(max(2, n)) / beta_inner
    d2 = 20 * split.a * split.b
    bound = math.ceil(2 * (d1 + 1) + d2)
    return LowDiamResult(comps, list(map(tuple, view.verts[el[cut]].tolist())), split, view,
                         beta, bound)
