"""Undirected graph with self loops, conductance arithmetic, and small-graph oracles.

Input graphs are simple; self loops arise only internally (edge removal and
contraction convert edges to loops so that degrees never change).  Each self
loop contributes exactly 1 to its vertex degree.  Conductance is computed in
exact rational arithmetic; float views are provided for the hot path.

The traversal substrate (`component_roots`, `components_of`, `hop_distances`,
`level_sweep`) works on a symmetric CSR adjacency with numpy array operations
only, so `Graph`, every view and every simulated tree or clustering share one
implementation of connectivity and hop distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateCut, Disconnected, FormatError, TooLarge

N_ORACLE_MAX = 16
MIXING_STEP_CAP = 500_000
INF = np.int32(1 << 30)  # hop distance to an unreachable vertex


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class Graph:
    """Immutable undirected graph: simple adjacency plus per-vertex loop counts."""

    __slots__ = ("n", "neighbors", "self_loops", "_edges", "_deg")

    def __init__(self, n: int, neighbors: Sequence[Iterable[int]], self_loops=None):
        if len(neighbors) != n:
            raise FormatError(f"adjacency has {len(neighbors)} rows for n={n}")
        self.n = n
        rows = [set(ns) for ns in neighbors]
        self.neighbors = tuple(tuple(sorted(r)) for r in rows)
        self.self_loops = tuple(self_loops) if self_loops is not None else (0,) * n
        if len(self.self_loops) != n or any(s < 0 for s in self.self_loops):
            raise FormatError("bad self-loop vector")
        for v, ns in enumerate(self.neighbors):
            for u in ns:
                if not 0 <= u < n or u == v:
                    raise FormatError(f"bad neighbor {u} of {v}")
                if v not in rows[u]:
                    raise FormatError(f"asymmetric adjacency at ({u}, {v})")
        self._edges = None
        self._deg = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], self_loops=None) -> "Graph":
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"endpoint out of range in edge ({u}, {v})")
            if u == v:
                raise FormatError(f"explicit self loop ({u}, {v}) not allowed in edge list")
            k = edge_key(u, v)
            if k in seen:
                raise FormatError(f"duplicate edge {k}")
            seen.add(k)
            adj[u].append(v)
            adj[v].append(u)
        return cls(n, adj, self_loops)

    # -- basic accessors -------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.neighbors[v]) + self.self_loops[v]

    @property
    def deg(self) -> np.ndarray:
        if self._deg is None:
            self._deg = np.array([self.degree(v) for v in range(self.n)], dtype=np.int64)
        return self._deg

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(
                (v, u) for v in range(self.n) for u in self.neighbors[v] if v < u
            )
        return self._edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def volume(self, s=None) -> int:
        if s is None:
            return int(self.deg.sum())
        return sum(self.degree(v) for v in s)

    def is_connected(self) -> bool:
        return len(components_of(adjacency_csr(self.n, self.edges), range(self.n))) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.neighbors == other.neighbors
            and self.self_loops == other.self_loops
        )

    def __hash__(self):
        return hash((self.n, self.neighbors, self.self_loops))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, loops={sum(self.self_loops)})"


# -- traversal substrate ----------------------------------------------------


def adjacency_csr(n: int, edges) -> sp.csr_matrix:
    """Symmetric 0/1 int64 adjacency matrix, column indices sorted in each row,
    of distinct undirected edges without self loops, in any order.  Built by
    counting rows and sorting the unique keys row * n + col: scipy's COO path
    would look for duplicates that cannot occur."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.ones(len(rows), dtype=np.int64), np.sort(rows * n + cols) % n,
                          indptr), shape=(n, n))


def edge_ends(adj: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every stored entry of a CSR adjacency: each undirected
    edge of a symmetric one appears once in each direction."""
    return np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr)), adj.indices


def component_roots(adj: sp.csr_matrix) -> np.ndarray:
    """Per-vertex component root of a symmetric CSR adjacency: the smallest
    index of the vertex's component.

    Min-label propagation with pointer jumping: every root hooks onto the
    smallest root across its edges, then parent pointers are followed to their
    roots.  Pointers only decrease, so each component ends on its min index.
    """
    src, dst = edge_ends(adj)
    root = np.arange(adj.shape[0])
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[src], root[dst])
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, root):
            return root
        root = hooked


def components_of(adj: sp.csr_matrix, labels) -> list[frozenset]:
    """Connected components of a symmetric CSR adjacency, as frozensets of
    labels[i] sorted by min label."""
    if adj.shape[0] == 0:
        return []
    root = component_roots(adj)
    order = np.argsort(root, kind="stable")
    bounds = np.flatnonzero(np.diff(root[order])) + 1
    parts = np.split(np.asarray(labels)[order], bounds)
    return sorted((frozenset(p.tolist()) for p in parts), key=min)


def hop_distances(adj: sp.csr_matrix) -> np.ndarray:
    """All-pairs hop distances (int32, INF where unreachable) of a symmetric CSR
    adjacency: level-synchronous BFS from every vertex at once."""
    n = adj.shape[0]
    dist = np.full((n, n), INF, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached
    level = 0
    while True:
        level += 1
        frontier = (adj @ frontier) > 0
        frontier &= ~reached
        if not frontier.any():
            return dist
        dist[frontier] = level
        reached |= frontier


def level_sweep(adj: sp.csr_matrix, start) -> np.ndarray:
    """T(v) = min over u of start[u] + hop(u, v) on a symmetric CSR adjacency.
    Sources are the u with start[u] < INF; T is int64, INF where none reaches.
    Levels settle in increasing order, skipping empty ones: once every lower
    level has offered its successor to its neighbours, the lowest open level
    is final."""
    src, dst = edge_ends(adj)
    t = np.array(start, dtype=np.int64)
    level = t.min(initial=INF)
    while level < INF:
        offered = dst[(t == level)[src]]
        t[offered] = np.minimum(t[offered], level + 1)
        level = t[t > level].min(initial=INF)
    return t


@dataclass(frozen=True)
class Cut:
    """A proper vertex subset with its exact cut statistics."""

    members: frozenset
    vol_s: int
    boundary: int
    conductance: Fraction
    balance: Fraction


def boundary_size(g: Graph, s) -> int:
    sset = set(s)
    return sum(1 for u, v in g.edges if (u in sset) != (v in sset))


def cut_stats(g: Graph, s) -> Cut:
    sset = frozenset(s)
    if not sset or len(sset) == g.n:
        raise DegenerateCut(f"|S|={len(sset)} of n={g.n}")
    vol_s = g.volume(sset)
    vol_rest = g.volume() - vol_s
    bnd = boundary_size(g, sset)
    small = min(vol_s, vol_rest)
    conductance = Fraction(0) if bnd == 0 else Fraction(bnd, small)
    balance = Fraction(small, g.volume()) if g.volume() else Fraction(0)
    return Cut(sset, vol_s, bnd, conductance, balance)


def contract(g: Graph, s) -> Graph:
    """Induced subgraph on sorted(s) with loops added to preserve every degree."""
    keep = sorted(set(s))
    index = {v: i for i, v in enumerate(keep)}
    adj = []
    loops = []
    for v in keep:
        live = [index[u] for u in g.neighbors[v] if u in index]
        adj.append(live)
        loops.append(g.degree(v) - len(live))
    return Graph(len(keep), adj, loops)


def min_conductance_oracle(g: Graph, n_max: int = N_ORACLE_MAX) -> tuple[Fraction, frozenset]:
    """Exact graph conductance by exhaustive enumeration of all proper cuts.

    Vertex 0 is pinned to one side; complements cover the rest.  Returns the
    minimum conductance and one witness cut.
    """
    n = g.n
    if n < 2:
        raise DegenerateCut("need at least 2 vertices")
    if n > n_max:
        raise TooLarge(f"n={n} exceeds oracle cap {n_max}")
    masks = np.arange(1, 1 << (n - 1), dtype=np.uint64) << np.uint64(1)  # vertex 0 stays out
    bnd = np.zeros(len(masks), dtype=np.int64)
    for u, v in g.edges:
        bnd += (((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & np.uint64(1)).astype(np.int64)
    vol = np.zeros(len(masks), dtype=np.int64)
    for v in range(n):
        vol += ((masks >> np.uint64(v)) & np.uint64(1)).astype(np.int64) * g.degree(v)
    total = g.volume()
    small = np.minimum(vol, total - vol)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(small > 0, bnd / np.maximum(small, 1), np.where(bnd > 0, np.inf, 0.0))
    order = np.argsort(phi)
    best_idx = order[0]
    best = _exact_phi(int(bnd[best_idx]), int(small[best_idx]))
    # Re-check near-ties of the float argmin exactly.
    for idx in order[1 : min(len(order), 64)]:
        if phi[idx] > phi[best_idx] + 1e-9:
            break
        cand = _exact_phi(int(bnd[idx]), int(small[idx]))
        if cand < best:
            best, best_idx = cand, idx
    mask = int(masks[best_idx])
    witness = frozenset(v for v in range(n) if (mask >> v) & 1)
    return best, witness


def _exact_phi(bnd: int, small: int) -> Fraction:
    if small == 0:
        return Fraction(0) if bnd == 0 else Fraction(10**9)
    return Fraction(bnd, small)


def lazy_walk_matrix(g: Graph) -> np.ndarray:
    """Dense lazy-walk matrix (column-stochastic); self loops keep mass in place."""
    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges:
        a[u, v] += 1.0
        a[v, u] += 1.0
    for v in range(n):
        a[v, v] += g.self_loops[v]
    d = np.maximum(g.deg, 1).astype(float)
    m = (a / d[None, :] + np.eye(n)) / 2.0
    for v in range(n):
        if g.degree(v) == 0:
            m[v, v] = 1.0  # an isolated vertex holds its mass
    return m


def mixing_time_estimate(g: Graph, tol: float, step_cap: int = MIXING_STEP_CAP) -> int:
    """Smallest t with max_v ||p_t^v - psi_V||_1 <= tol, by powering the lazy walk."""
    if not g.is_connected():
        raise Disconnected("mixing time undefined on a disconnected graph")
    n = g.n
    psi = g.deg.astype(float) / g.volume()
    p = np.eye(n)
    err = np.abs(p - psi[:, None]).sum(axis=0).max()
    if err <= tol:
        return 0
    m = lazy_walk_matrix(g)
    for t in range(1, step_cap + 1):
        p = m @ p
        err = np.abs(p - psi[:, None]).sum(axis=0).max()
        if err <= tol:
            return t
    raise TooLarge(f"no mixing within {step_cap} steps at tol={tol}")


# -- text format ---------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """Parse `p <n> <m>` followed by m undirected edge lines, strictly."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "p":
        raise FormatError(f"bad header {lines[0]!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_graph_text(g: Graph) -> str:
    if any(g.self_loops):
        raise FormatError("text format carries simple graphs only")
    out = [f"p {g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
