"""Edge-removal bookkeeping and contracted-subgraph views.

The pipeline never mutates the host graph: removals convert edges to self
loops (tracked per channel), and every algorithm stage works on an
`ActiveView`, the contraction of the host onto an active vertex subset.
Degrees in a view always equal host degrees; loop counts are implicit.
Views snapshot live adjacency at construction, as a local adjacency list and
as the CSR matrix that the walk kernel and the traversal substrate of
`graph` (components, hop distances) run on.  They also hold the walk step's
per-vertex constants (2 deg and 2 deg - live), so no walk step recomputes them.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DegenerateCut, MissingEdge
from .graph import Cut, Graph, adjacency_csr, components_of, edge_key


class WorkingGraph:
    """Host graph plus removed-edge channels; degrees are invariant."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.removed: dict[tuple[int, int], str] = {}

    def is_live(self, u: int, v: int) -> bool:
        return edge_key(u, v) not in self.removed

    def remove_edges(self, edges, channel: str):
        for e in edges:
            k = edge_key(*e)
            if not self.graph.has_edge(*k):
                raise MissingEdge(str(k))
            if k in self.removed:
                raise MissingEdge(f"{k} already removed ({self.removed[k]})")
            self.removed[k] = channel

    def removed_by(self, channel: str) -> list[tuple[int, int]]:
        return sorted(e for e, c in self.removed.items() if c == channel)

    def live_edges(self) -> list[tuple[int, int]]:
        return [e for e in self.graph.edges if e not in self.removed]


class ActiveView:
    """G{W}: the working graph contracted onto an active vertex subset W."""

    def __init__(self, working: WorkingGraph, active):
        self.working = working
        self.graph = working.graph
        self.verts = np.array(sorted(active), dtype=np.int64)
        self.active = frozenset(int(v) for v in self.verts)
        self.index = {int(v): i for i, v in enumerate(self.verts)}
        g = self.graph
        self.deg = np.array([g.degree(int(v)) for v in self.verts], dtype=np.int64)
        adj_local: list[list[int]] = []
        edges = []
        for i, v in enumerate(self.verts):
            v = int(v)
            row = [
                self.index[u]
                for u in g.neighbors[v]
                if u in self.index and working.is_live(u, v)
            ]
            adj_local.append(row)
            edges.extend((i, j) for j in row if i < j)
        self._adj_local = [tuple(r) for r in adj_local]
        self.edges_local = np.array(edges, dtype=np.int64).reshape(-1, 2)
        self.live_deg = np.array([len(r) for r in adj_local], dtype=np.int64)
        self.adj_matrix = adjacency_csr(len(self.verts), self.edges_local)
        self.two_deg = 2 * self.deg
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

    def vol_of(self, hosts) -> int:
        return sum(self.graph.degree(v) for v in hosts)

    def degree(self, host_v: int) -> int:
        return self.graph.degree(host_v)

    def live_neighbors(self, host_v: int) -> list[int]:
        i = self.index[host_v]
        return [int(self.verts[j]) for j in self._adj_local[i]]

    def loops(self, host_v: int) -> int:
        i = self.index[host_v]
        return int(self.deg[i] - self.live_deg[i])

    def live_edges_host(self) -> list[tuple[int, int]]:
        return [
            edge_key(int(self.verts[a]), int(self.verts[b])) for a, b in self.edges_local
        ]

    def subview(self, active) -> "ActiveView":
        return ActiveView(self.working, active)

    def components(self) -> list[frozenset]:
        return components_of(self.adj_matrix, self.verts)

    # -- cut arithmetic ----------------------------------------------------

    def boundary_size(self, members) -> int:
        mem = set(members)
        return sum(
            1
            for a, b in self.edges_local
            if (int(self.verts[a]) in mem) != (int(self.verts[b]) in mem)
        )

    def cut_stats(self, members) -> Cut:
        mem = frozenset(members)
        if not mem or mem == self.active:
            raise DegenerateCut(f"|S|={len(mem)} of {len(self.verts)}")
        vol_s = self.vol_of(mem)
        total = self.vol()
        bnd = self.boundary_size(mem)
        small = min(vol_s, total - vol_s)
        conductance = Fraction(0) if bnd == 0 else Fraction(bnd, small)
        balance = Fraction(small, total) if total else Fraction(0)
        return Cut(mem, vol_s, bnd, conductance, balance)

    def materialize(self) -> tuple[Graph, list[int]]:
        """Contract to a standalone Graph; labels map local ids back to host ids."""
        labels = [int(v) for v in self.verts]
        loops = [int(self.deg[i] - self.live_deg[i]) for i in range(len(labels))]
        return Graph(len(labels), self._adj_local, loops), labels
