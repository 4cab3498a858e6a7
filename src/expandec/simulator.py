"""Synchronous message-passing simulator with per-edge bandwidth budgets.

Vertices act only on their own state and inbox; all cross-vertex influence
flows through messages delivered simultaneously at the round barrier.  Message
payloads carry a documented fixed-width bit size; a single message larger than
the per-edge budget aborts the round (never silent truncation).  The ledger
tallies rounds, messages, and the worst per-edge per-round bit load, labelled
by algorithm phase.

The tree primitives compute their result directly and charge what their
message-level protocols would: `bfs_levels` (one `graph.level_sweep` over
the ends of an undirected edge list), and so the `bfs_tree` built on its
levels, and `subtree_degrees` (one bottom-up sum) depth rounds of one
72-bit message per edge.  None runs a `Network` round or checks the
bandwidth budget.  A `SpanningTree` is index arrays in (depth, host id)
order, as the level sweep gives them, so the subtree sums fold one level
per array operation; the sums and the sampling take weights indexed by
host id, and the sampling takes the sums folded by the caller.
The per-round protocols they are charged as, and the randomized tree search
whose round trips `cuts.scan_run` charges by formula, are test references
built on `run_round`; the dict-keyed trees they walk are test references
too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import BandwidthExceeded
from .graph import INF, Graph, directed_ends, level_sweep

DEFAULT_BANDWIDTH_FACTOR = 192
WORD_BITS = 64
KIND_BITS = 8


@dataclass(frozen=True)
class Msg:
    kind: str
    payload: object = None
    bits: int = KIND_BITS + WORD_BITS


@dataclass
class PhaseTotals:
    rounds: int = 0
    messages: int = 0
    max_bits: int = 0


class RoundLedger:
    """Phase-labelled counters of simulated rounds, messages, and edge bit load."""

    def __init__(self):
        self.phases: dict[str, PhaseTotals] = {}

    def charge(self, phase: str, rounds: int = 0, messages: int = 0, edge_bits: int = 0):
        if rounds < 0 or messages < 0 or edge_bits < 0:
            raise ValueError("ledger counters are monotone")
        t = self.phases.setdefault(phase, PhaseTotals())
        t.rounds += rounds
        t.messages += messages
        t.max_bits = max(t.max_bits, edge_bits)

    def totals(self) -> PhaseTotals:
        out = PhaseTotals()
        for t in self.phases.values():
            out.rounds += t.rounds
            out.messages += t.messages
            out.max_bits = max(out.max_bits, t.max_bits)
        return out

    def rows(self) -> list[dict]:
        return [
            {"phase": p, "rounds": t.rounds, "messages": t.messages, "max_bits": t.max_bits}
            for p, t in sorted(self.phases.items())
        ]

    def snapshot(self) -> dict:
        return {p: (t.rounds, t.messages, t.max_bits) for p, t in self.phases.items()}


def default_bandwidth(n: int) -> int:
    return DEFAULT_BANDWIDTH_FACTOR * max(1, math.ceil(math.log2(max(2, n))))


class Network:
    """One synchronous network over a host graph, with a shared ledger."""

    def __init__(self, graph: Graph, ledger: RoundLedger | None = None,
                 bandwidth_bits: int | None = None, phase: str = "main"):
        self.graph = graph
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.bandwidth_bits = bandwidth_bits or default_bandwidth(graph.n)
        self.phase = phase
        self.round_no = 0

    def set_phase(self, phase: str):
        self.phase = phase

    def run_round(self, states: dict, inboxes: dict, step: Callable,
                  adjacency: Callable[[int], Iterable[int]] | None = None):
        """One synchronous round.

        `step(v, state, inbox) -> (new_state, [(dst, Msg), ...])` must be pure in
        (state, inbox); destinations must be adjacent to v under `adjacency`
        (host adjacency by default).  Returns (new_states, new_inboxes).
        """
        g = self.graph
        adj = adjacency or (lambda v: g.indices[g.indptr[v]:g.indptr[v + 1]].tolist())
        new_states = {}
        new_inboxes: dict[int, list] = {}
        n_msgs = 0
        edge_bits: dict[tuple[int, int], int] = {}
        for v in sorted(states):
            new_states[v], outs = step(v, states[v], inboxes.get(v, ()))
            allowed = None
            for dst, msg in outs:
                if allowed is None:
                    allowed = set(adj(v))
                if dst not in allowed:
                    raise ValueError(f"vertex {v} addressed non-neighbor {dst}")
                if msg.bits > self.bandwidth_bits:
                    raise BandwidthExceeded((v, dst), msg.bits, self.bandwidth_bits)
                new_inboxes.setdefault(dst, []).append((v, msg))
                n_msgs += 1
                edge_bits[(v, dst)] = edge_bits.get((v, dst), 0) + msg.bits
        self.round_no += 1
        self.ledger.charge(self.phase, rounds=1, messages=n_msgs,
                           edge_bits=max(edge_bits.values(), default=0))
        return new_states, new_inboxes


# -- spanning tree primitives ---------------------------------------------


@dataclass(frozen=True)
class SpanningTree:
    """A BFS tree as index arrays in (depth, host id) order: position i holds
    host id hosts[i] at depth depth[i], under the vertex at position
    parent[i].  The root is position 0 and its own parent."""

    root: int
    hosts: np.ndarray
    parent: np.ndarray
    depth: np.ndarray

    @property
    def depth_max(self) -> int:
        return int(self.depth[-1])


def bfs_levels(net: Network, root: int, edges: np.ndarray,
               labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hop depth from root of each local index 0..len(labels)-1, which carry
    ascending host labels, in the graph of the distinct undirected (i, j)
    pairs of edges: int64, INF where root does not reach.  With it come the
    (lower, upper) ends of every edge between consecutive levels, the lower
    end one level deeper.  Charged as the message-level BFS: depth rounds,
    one claim per edge between consecutive levels."""
    start = np.full(len(labels), INF)
    start[np.searchsorted(labels, root)] = 0
    src, dst = directed_ends(edges)
    depth = level_sweep(src, dst, start)
    up = depth[dst] == depth[src] - 1  # dst is one level above src
    _charge_tree_rounds(net, int(depth.max(where=depth < INF, initial=0)), int(up.sum()))
    return depth, src[up], dst[up]


def bfs_tree(net: Network, root: int, edges: np.ndarray, labels: np.ndarray) -> SpanningTree:
    """BFS tree of root's component on the levels of `bfs_levels`, charged
    as they are: each vertex's parent is its smallest neighbour one level up."""
    n = len(labels)
    depth, lower, upper = bfs_levels(net, root, edges, labels)
    parent = np.where(depth == 0, np.arange(n), n)
    np.minimum.at(parent, lower, upper)
    order = np.argsort(depth, kind="stable")[: np.count_nonzero(depth < INF)]
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(len(order))
    return SpanningTree(root, labels[order], position[parent[order]], depth[order])


def _charge_tree_rounds(net: Network, rounds: int, messages: int):
    """Charge rounds of at most one KIND_BITS + WORD_BITS message per edge."""
    if rounds:
        net.ledger.charge(net.phase, rounds=rounds, messages=messages,
                          edge_bits=KIND_BITS + WORD_BITS)


def subtree_sums(tree: SpanningTree, weights: np.ndarray) -> np.ndarray:
    """s(v) at each tree position: the sum of weights (indexed by host id)
    over the subtree rooted there, folded level by level from the deepest."""
    sub = weights[tree.hosts].astype(np.int64)
    level = np.searchsorted(tree.depth, np.arange(tree.depth_max + 2)).tolist()
    for d in range(tree.depth_max, 0, -1):
        below = slice(level[d], level[d + 1])
        np.add.at(sub, tree.parent[below], sub[below])
    return sub


def subtree_degrees(net: Network, tree: SpanningTree, weights: np.ndarray) -> np.ndarray:
    """`subtree_sums`, charged as the aggregate that computes them: depth
    rounds, one partial sum per tree edge."""
    _charge_tree_rounds(net, tree.depth_max, len(tree.hosts) - 1)
    return subtree_sums(tree, weights)


def sample_by_degree(net: Network, tree: SpanningTree, counts: dict[int, int],
                     rng: np.random.Generator, weights: np.ndarray,
                     sub: np.ndarray) -> list[tuple[int, int]]:
    """Land `counts[b]` tokens of each tag b on tree vertices with probability
    weight/total, where weights is indexed by host id.

    sub holds the subtree sums s(v), `subtree_sums(tree, weights)`: a caller
    that draws again with the same weights folds them once, and every draw
    charges the aggregate that computes them.  Tokens then trickle down the
    tree: a token dies at v with probability w(v)/s(v), else moves to child
    u with probability s(u)/(s(v)-w(v)).  Draws are made per (host id, tag)
    in flight in ascending order, over children in ascending id.  Only token
    counts cross edges; tags are pipelined one per round, so the charged
    rounds are depth + number of tags.  Like the sums, every round is
    charged to the ledger without running a `Network` round.
    """
    _charge_tree_rounds(net, tree.depth_max, len(tree.hosts) - 1)  # the aggregate
    sub = sub.tolist()
    w, hosts = weights[tree.hosts].tolist(), tree.hosts.tolist()
    # children of each position, ascending id: a parent's children share a level
    kids = np.argsort(tree.parent[1:], kind="stable") + 1
    first = np.searchsorted(tree.parent[kids], np.arange(len(hosts) + 1)).tolist()
    kids = kids.tolist()
    tags = sorted(counts)
    landings: list[tuple[int, int]] = []
    # in_flight: (position, tag) -> count; batches released one tag per round.
    in_flight: dict[tuple[int, int], int] = {}
    released = 0
    while released < len(tags) or in_flight:
        if released < len(tags):
            tag = tags[released]
            if counts[tag] > 0:
                in_flight[(0, tag)] = in_flight.get((0, tag), 0) + counts[tag]
            released += 1
        moved: dict[tuple[int, int], int] = {}
        n_msgs = 0
        for (i, tag) in sorted(in_flight, key=lambda it: (hosts[it[0]], it[1])):
            cnt = in_flight[(i, tag)]
            stay = rng.binomial(cnt, w[i] / sub[i]) if sub[i] > w[i] else cnt
            landings.extend([(hosts[i], tag)] * stay)
            rest = cnt - stay
            if rest:
                below = kids[first[i]:first[i + 1]]
                probs = np.array([sub[u] for u in below], dtype=float)
                probs /= probs.sum()
                split = rng.multinomial(rest, probs)
                for u, c in zip(below, split):
                    if c:
                        moved[(u, tag)] = moved.get((u, tag), 0) + int(c)
                        n_msgs += 1
        in_flight = moved
        net.ledger.charge(net.phase, rounds=1, messages=n_msgs,
                          edge_bits=(KIND_BITS + 2 * WORD_BITS) if n_msgs else 0)
    landings.sort()
    return landings
