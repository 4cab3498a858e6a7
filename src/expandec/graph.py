"""Undirected graph with self loops, conductance arithmetic, and small-graph oracles.

Input graphs are simple; self loops arise only internally (edge removal and
contraction convert edges to loops so that degrees never change).  Each self
loop contributes exactly 1 to its vertex degree.  Conductance is computed in
exact rational arithmetic; float views are provided for the hot path.

A `Graph` is arrays only: the symmetric CSR adjacency (`indptr`, `indices`
sorted in each row), a loop count per vertex, and the edge array, degrees and
scipy matrix derived from them.  Contraction, cut statistics, the walk matrix
and the text format read those arrays directly.

The traversal substrate (`component_roots`, `components_of`, `hop_distances`,
`level_sweep`) works on a symmetric CSR adjacency, or for `level_sweep` the
ends of its entries, with numpy array operations only, so `Graph`, every view
and every simulated tree or clustering share one implementation of
connectivity and hop distance.  `group_by_root` turns per-vertex roots into
component sets, so a caller that holds the roots needs no adjacency.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateCut, Disconnected, FormatError, TooLarge

N_ORACLE_MAX = 16
MIXING_STEP_CAP = 500_000
INF = np.int32(1 << 30)  # hop distance to an unreachable vertex


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def row_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the entries of the given rows of a CSR index array, row
    after row."""
    lo = indptr[rows]
    cnt = indptr[rows + 1] - lo
    return np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)


class Graph:
    """Immutable undirected graph: a symmetric CSR adjacency without loops,
    each row strictly ascending, plus a loop count per vertex.  `edges` lists
    each edge once as (u, v) with u < v, in lexicographic order; `deg` counts
    neighbours plus loops."""

    __slots__ = ("n", "indptr", "indices", "loops", "edges", "deg")

    def __init__(self, n: int, indptr, indices, loops=None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        loops = np.zeros(n, dtype=np.int64) if loops is None else np.asarray(loops, dtype=np.int64)
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices)
                or (np.diff(indptr) < 0).any()):
            raise FormatError(f"row pointers do not describe {len(indices)} entries in {n} rows")
        if loops.shape != (n,) or (loops < 0).any():
            raise FormatError("bad self-loop vector")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        bad = (indices < 0) | (indices >= n) | (indices == rows)
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(f"bad neighbor {indices[i]} of {rows[i]}")
        keys = rows * n + indices
        late = np.flatnonzero(keys[1:] <= keys[:-1])
        if len(late):
            raise FormatError(f"neighbors of {rows[late[0] + 1]} not strictly ascending")
        mirrored = np.sort(indices * n + rows)
        if not np.array_equal(mirrored, keys):
            i = int(np.argmax(mirrored != keys))
            raise FormatError(f"asymmetric adjacency at ({keys[i] // n}, {keys[i] % n})")
        self.n = n
        self.indptr, self.indices, self.loops = indptr, indices, loops
        fwd = indices > rows
        self.edges = np.stack([rows[fwd], indices[fwd]], axis=1)
        self.deg = np.diff(indptr) + loops

    @classmethod
    def from_edges(cls, n: int, edges, loops=None) -> "Graph":
        """The graph of n vertices and the given distinct (u, v) pairs, u != v,
        in any order and orientation."""
        e = np.asarray(edges).reshape(-1, 2)
        if e.size and not (0 <= e.min() and e.max() < n):
            raise FormatError(f"edge endpoint outside 0..{n - 1}")
        adj = adjacency_csr(n, e)
        return cls(n, adj.indptr, adj.indices, loops)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> sp.csr_matrix:
        """The adjacency as a scipy 0/1 matrix (loops not included)."""
        return sp.csr_matrix((np.ones(len(self.indices), dtype=np.int64), self.indices,
                              self.indptr), shape=(self.n, self.n))

    def volume(self, s=None) -> int:
        if s is None:
            return int(self.deg.sum())
        return int(self.deg[np.fromiter(s, dtype=np.int64)].sum())

    def is_connected(self) -> bool:
        return not component_roots(self.adj).any()

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.loops, other.loops)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, loops={int(self.loops.sum())})"


# -- traversal substrate ----------------------------------------------------


def adjacency_csr(n: int, edges) -> sp.csr_matrix:
    """Symmetric 0/1 int64 adjacency matrix, column indices sorted in each row,
    of distinct undirected edges without self loops, in any order.  Built by
    counting rows and sorting the unique keys row * n + col: scipy's COO path
    would look for duplicates that cannot occur."""
    rows, cols = directed_ends(edges)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.ones(len(rows), dtype=np.int64), np.sort(rows * n + cols) % n,
                          indptr), shape=(n, n))


def directed_ends(edges) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) of every undirected (u, v) pair of edges in each
    direction: the ends `edge_ends` reads from their symmetric adjacency, in
    another order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.concatenate([edges[:, 0], edges[:, 1]]), np.concatenate([edges[:, 1], edges[:, 0]])


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
    return group_by_root(component_roots(adj), labels)


def group_by_root(root: np.ndarray, labels) -> list[frozenset]:
    """The labels[i] that share a root[i], as frozensets sorted by min label."""
    if len(root) == 0:
        return []
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


def level_sweep(src: np.ndarray, dst: np.ndarray, start) -> np.ndarray:
    """T(v) = min over u of start[u] + hop(u, v) on a symmetric adjacency
    given by the ends of its entries (`edge_ends` or `directed_ends`).
    Sources are the u with start[u] < INF; T is int64, INF where none reaches.
    Levels settle in increasing order, skipping empty ones: once every lower
    level has offered its successor to its neighbours, the lowest open level
    is final."""
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


def cut_stats(g: Graph, s) -> Cut:
    sset = frozenset(s)
    if not sset or len(sset) == g.n:
        raise DegenerateCut(f"|S|={len(sset)} of n={g.n}")
    inside = np.zeros(g.n, dtype=bool)
    inside[np.fromiter(sset, dtype=np.int64)] = True
    vol_s = int(g.deg[inside].sum())
    total = g.volume()
    bnd = int(np.count_nonzero(inside[g.edges[:, 0]] != inside[g.edges[:, 1]]))
    small = min(vol_s, total - vol_s)
    conductance = Fraction(0) if bnd == 0 else Fraction(bnd, small)
    balance = Fraction(small, total) if total else Fraction(0)
    return Cut(sset, vol_s, bnd, conductance, balance)


def contract(g: Graph, s) -> Graph:
    """Induced subgraph on sorted(s) with loops added to preserve every degree."""
    keep = np.unique(np.fromiter(s, dtype=np.int64))
    local = np.full(g.n, -1, dtype=np.int64)
    local[keep] = np.arange(len(keep))
    cols = local[g.indices[row_positions(g.indptr, keep)]]
    rows = np.repeat(np.arange(len(keep)), np.diff(g.indptr)[keep])
    live = cols >= 0
    indptr = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[live], minlength=len(keep)), out=indptr[1:])
    return Graph(len(keep), indptr, cols[live], g.deg[keep] - np.diff(indptr))


def min_conductance_oracle(g: Graph) -> tuple[Fraction, frozenset]:
    """Exact graph conductance by exhaustive enumeration of all proper cuts.

    Vertex 0 is pinned to one side; complements cover the rest.  Returns the
    minimum conductance and one witness cut.
    """
    n = g.n
    if n < 2:
        raise DegenerateCut("need at least 2 vertices")
    if n > N_ORACLE_MAX:
        raise TooLarge(f"n={n} exceeds oracle cap {N_ORACLE_MAX}")
    masks = np.arange(1, 1 << (n - 1), dtype=np.uint64) << np.uint64(1)  # vertex 0 stays out
    bnd = np.zeros(len(masks), dtype=np.int64)
    for u, v in g.edges.tolist():
        bnd += (((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & np.uint64(1)).astype(np.int64)
    vol = np.zeros(len(masks), dtype=np.int64)
    for v, d in enumerate(g.deg.tolist()):
        vol += ((masks >> np.uint64(v)) & np.uint64(1)).astype(np.int64) * d
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
    a = g.adj.toarray().astype(float) + np.diag(g.loops.astype(float))
    d = np.maximum(g.deg, 1).astype(float)
    m = (a / d[None, :] + np.eye(g.n)) / 2.0
    isolated = np.flatnonzero(g.deg == 0)
    m[isolated, isolated] = 1.0  # an isolated vertex holds its mass
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
    ends = []
    for ln in body:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        ends += (u, v)
    return Graph.from_edges(n, ends)


def format_graph_text(g: Graph) -> str:
    if g.loops.any():
        raise FormatError("text format carries simple graphs only")
    out = [f"p {g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(out) + "\n"
