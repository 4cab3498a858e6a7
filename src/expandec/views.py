"""Edge-removal bookkeeping and contracted-subgraph views.

The pipeline never mutates the host graph: removals convert edges to self
loops (a live flag and a channel per host edge id in `WorkingGraph`), and every
algorithm stage works on an `ActiveView`, the contraction of the host onto an
active vertex subset, cut out of that record by array indexing.
Degrees in a view always equal host degrees; loop counts are implicit.
Views snapshot live adjacency at construction, as a row-major local edge array
and as the CSR matrix that the walk kernel and the traversal substrate of
`graph` (components, hop distances) run on; the per-vertex component roots
and the all-pairs hop distances are computed on first use.  They also hold
the walk step's per-vertex constants (2 deg and 2 deg - live), so no walk
step recomputes them.
A view computes no cut statistics: a cut of it is a vertex set, and its
exact boundary, conductance and balance are `graph.cut_stats` of the
contracted graph (`materialize`).
An isolated vertex (deg 0) holds no walk mass, sends no message and is never
swept: its walk divisor and rho divisor count its degree as 1, so it needs no
branch in the walk step or the sweep.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import FormatError, MissingEdge
from .graph import (Graph, adjacency_csr, component_roots, group_by_root, hop_distances,
                    row_positions)


class WorkingGraph:
    """Host graph plus removed-edge channels; degrees are invariant.  `edges`
    (sorted keys, so ascending in `keys` = u * n + v), `live` and `channel`
    (None while live) are indexed by host edge id; ids first[u] .. first[u+1]-1
    are the edges whose smaller end is u."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edges = graph.edges
        self.keys = self.edges[:, 0] * graph.n + self.edges[:, 1]
        self.first = np.searchsorted(self.keys, np.arange(graph.n + 1) * graph.n)
        self.live = np.ones(len(self.edges), dtype=bool)
        self.channel = np.full(len(self.edges), None, dtype=object)

    def edge_ids(self, edges) -> np.ndarray:
        """Host edge ids of (u, v) pairs given in either orientation; raises
        MissingEdge on the first pair that is not an edge of the host."""
        e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
        key = e[:, 0] * self.graph.n + e[:, 1]  # no id has it when u < 0 or u == v
        ids = np.searchsorted(self.keys, key)
        ok = (e[:, 1] < self.graph.n) & (ids < len(self.keys))
        ok[ok] = self.keys[ids[ok]] == key[ok]
        if not ok.all():
            raise MissingEdge(str(tuple(e[np.argmin(ok)].tolist())))
        return ids

    def remove_edges(self, edges, channel: str):
        """Turn host edges into loops under channel.  A non-edge, an edge given
        twice or an edge already removed raises MissingEdge and removes nothing."""
        ids = self.edge_ids(edges)
        repeat = np.ones(len(ids), dtype=bool)
        repeat[np.unique(ids, return_index=True)[1]] = False
        bad = repeat | ~self.live[ids]
        if bad.any():
            i = int(ids[np.argmax(bad)])
            prior = channel if self.live[i] else self.channel[i]
            raise MissingEdge(f"{tuple(self.edges[i].tolist())} already removed ({prior})")
        self.live[ids] = False
        self.channel[ids] = channel

    def removed_by(self, channel: str) -> list[tuple[int, int]]:
        return list(map(tuple, self.edges[self.channel == channel].tolist()))


class ActiveView:
    """G{W}: the working graph contracted onto an active vertex subset W."""

    def __init__(self, working: WorkingGraph, active):
        self.working = working
        self.graph = working.graph
        self.verts = np.array(sorted(active), dtype=np.int64)
        if len(self.verts) and not (0 <= self.verts[0] and self.verts[-1] < self.graph.n):
            raise FormatError(f"active ids outside 0..{self.graph.n - 1}")
        self.index = dict(zip(self.verts.tolist(), range(len(self.verts))))
        self.active = frozenset(self.index)
        # ids of the edges whose smaller end is active, ascending: as verts and the
        # host keys are sorted, the kept rows are row-major (i < j)
        ids = row_positions(working.first, self.verts)
        local = np.full(self.graph.n, -1, dtype=np.int64)
        local[self.verts] = np.arange(len(self.verts))
        ends = local[working.edges[ids[working.live[ids]]]]
        self.edges_local = ends[ends[:, 1] >= 0]
        self.deg = self.graph.deg[self.verts]
        self.live_deg = np.bincount(self.edges_local.ravel(), minlength=len(self.verts))
        self.adj_matrix = adjacency_csr(len(self.verts), self.edges_local)
        self.deg_pos = np.maximum(self.deg, 1)  # divisor of rho = mass / deg
        self.two_deg = 2 * self.deg_pos
        self.keep_num = self.two_deg - self.live_deg

    @classmethod
    def whole(cls, graph: Graph) -> "ActiveView":
        return cls(WorkingGraph(graph), range(graph.n))

    # -- size and structure ----------------------------------------------

    def __len__(self):
        return len(self.verts)

    @property
    def m_live(self) -> int:
        return len(self.edges_local)

    def vol(self) -> int:
        return int(self.deg.sum())

    def subview(self, active) -> "ActiveView":
        return ActiveView(self.working, active)

    def components(self) -> list[frozenset]:
        return group_by_root(self.roots, self.verts)

    @cached_property
    def roots(self) -> np.ndarray:
        """Per local vertex, the local index of its component's first vertex."""
        return component_roots(self.adj_matrix)

    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs hop distances between local vertices (n x n), INF where
        no path joins them."""
        return hop_distances(self.adj_matrix)

    def member_mask(self, hosts) -> np.ndarray:
        """Per local vertex, whether its host id is among hosts."""
        return np.isin(self.verts, np.fromiter(hosts, dtype=np.int64))

    def materialize(self) -> Graph:
        """Contract to a standalone Graph on local ids (vertex i is verts[i])."""
        return Graph(len(self.verts), self.adj_matrix.indptr, self.adj_matrix.indices,
                     self.deg - self.live_deg)
