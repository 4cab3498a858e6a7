"""Test-side accessors of graphs, views, walks and results that the pipeline
does not read, brute-force certificates for the dense-region growth
invariant, the row-by-row reference for the working graph and its views,
walks traced through a sweep that records their states, per-step references
for the walk kernel, the sweep scan, the local cut that stops at its hit and
the falsifier, the local cut walked alone, the full-horizon walks and scans,
the centralized local cuts built on the per-step scan, one iteration of
cut accumulation drawn, walked and merged alone, the merges of a cut
accumulation recorded as they happen, the level draw
through `rng.choice`, float and exact-rational walk references with the
influence set, dict-keyed references for the BFS tree, the subtree sums and
the degree sampling, message-level references for the BFS tree, the tree
aggregate and broadcast, the randomized tree search and its round trip,
list-or-star flooding, the rung-by-rung neighborhood threshold tests and
size estimate, the shift clustering, and the per-triple reference for
triangle enumeration."""
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from expandec import cuts
from expandec.clustering import (K_SAMPLE, NeighborhoodOracle, ShiftClustering, _samples,
                                 ball_edge_counts)
from expandec.cuts import (K_PHI_PARTS, MultiInstanceParams, StartTree, SweepCandidate, SweepScan,
                           _check_algo_phi, _draw_landings, derive_instance_params,
                           distributed_local_cut, draw_b, scan_runs)
from expandec.errors import BadPhi, DegenerateCut, MissingEdge, TooLarge
from expandec.graph import INF, Cut, Graph, directed_ends, edge_key, lazy_walk_matrix, level_sweep
from expandec.simulator import KIND_BITS, WORD_BITS, Msg, SpanningTree, bfs_tree
from expandec.triangles import ComponentEnumeration
from expandec.views import ActiveView
from expandec.walks import (
    MASS_MSG_BITS,
    SCALE,
    WalkParams,
    WalkRun,
    _step_units,
    charge_walk,
    compute_walk,
    compute_walks,
    derive_walk_params,
)


# -- accessors the pipeline does not read ---------------------------------------


def graph_from_rows(rows, loops=None) -> Graph:
    """The Graph whose row i of the adjacency lists rows[i]."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return Graph(len(rows), indptr, np.array([u for r in rows for u in r], dtype=np.int64), loops)


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbours of v in g, ascending."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()


def has_edge(g: Graph, u: int, v: int) -> bool:
    """Whether (u, v) is a simple edge of g; ids outside 0..n-1 are not."""
    return 0 <= u < g.n and u != v and v in neighbors(g, u)


def remove_edge_to_loops(g: Graph, u: int, v: int) -> Graph:
    """Remove a simple edge, converting it to one self loop at each endpoint."""
    if not has_edge(g, u, v):
        raise MissingEdge(f"({u}, {v})")
    loops = g.loops.copy()
    loops[[u, v]] += 1
    return Graph.from_edges(g.n, g.edges[(g.edges != edge_key(u, v)).any(axis=1)], loops)


def is_live(working, u: int, v: int) -> bool:
    """The live flag of host edge (u, v) of a WorkingGraph; MissingEdge when
    (u, v) is not a host edge."""
    return bool(working.live[working.edge_ids([(u, v)])[0]])


def live_neighbors(view, host_v: int) -> list[int]:
    """Host ids of host_v's live neighbours in a view, ascending."""
    i = view.index[host_v]
    adj = view.adj_matrix
    return view.verts[adj.indices[adj.indptr[i]:adj.indptr[i + 1]]].tolist()


def loops(view, host_v: int) -> int:
    """Self loops of host_v in a view: its degree less its live degree."""
    i = view.index[host_v]
    return int(view.deg[i] - view.live_deg[i])


def edge_keys(view, rows) -> list[tuple[int, int]]:
    """Host keys of the rows of view.edges_local that rows selects, in row
    order (local edges have i < j and verts is sorted, so these are keys)."""
    return list(map(tuple, view.verts[view.edges_local[rows]].tolist()))


def live_edges(view) -> list[tuple[int, int]]:
    """Host keys of every live edge of a view, sorted."""
    return edge_keys(view, slice(None))


def pstar(run) -> frozenset:
    """Host edge keys of the edges a walk (a WalkRun) touched."""
    return frozenset(edge_keys(run.view, run.touched))


def cut_members(cand: SweepCandidate | None) -> frozenset | None:
    """The members of a local cut's hit, None without a hit."""
    return None if cand is None else cand.members


@dataclass
class WalkTrace(WalkRun):
    """A WalkRun with its states 0..t_last."""

    masses: list


class StateRecorder:
    """A sweep for `compute_walks` that keeps every state it is handed, per
    pair, after each pair's start state, and stops no walk."""

    def __init__(self, view, pairs):
        self.masses = []
        for v, _ in pairs:
            mass = np.zeros(len(view.verts), dtype=np.int64)
            mass[view.index[v]] = SCALE
            self.masses.append([mass])

    def __call__(self, masses, r_run, r_t):
        for row, i, t in zip(masses, r_run.tolist(), r_t.tolist()):
            assert t == len(self.masses[i]), "states must come in step order"
            self.masses[i].append(row.copy())
        return {}


def walk_traces(view, pairs, params) -> list[WalkTrace]:
    """`compute_walks` without a stop, each run with the states it streamed."""
    rec = StateRecorder(view, pairs)
    runs = compute_walks(view, pairs, params, rec)
    return [WalkTrace(**vars(run), masses=masses) for run, masses in zip(runs, rec.masses)]


def walk_trace(view, start, params, b, net=None) -> WalkTrace:
    """`compute_walk` from start at level b without a stop, with its states,
    charged to net by `charge_walk` when one is given."""
    rec = StateRecorder(view, [(start, b)])
    run = compute_walk(view, start, params, b, rec)
    if net is not None:
        charge_walk(net, run)
    return WalkTrace(**vars(run), masses=rec.masses[0])


def mass_at(run: WalkTrace, t: int) -> np.ndarray:
    """The walk's state at step t; past the freeze, the last stored one."""
    return run.masses[min(t, run.t_last)]


def walk_step_units(view, mass: np.ndarray) -> np.ndarray:
    """One fixed-point lazy step over a view: of one state (an int64 array
    indexed like view.verts), or of c states as the columns of an (n x c)
    block, through the kernel's step with its constants repeated per column."""
    two_d, keep_num = view.two_deg, view.keep_num
    if mass.ndim == 2:
        two_d, keep_num = (np.repeat(x[:, None], mass.shape[1], axis=1) for x in (two_d, keep_num))
    mass = np.ascontiguousarray(mass)
    return _step_units(view.adj_matrix, mass, two_d, keep_num, np.empty_like(mass))


def clusters(view, clustering: ShiftClustering) -> dict[int, list[int]]:
    """Members of each cluster of a view's clustering by centre, ascending."""
    out: dict[int, list[int]] = {}
    for v, c in zip(view.verts.tolist(), clustering.centre.tolist()):
        out.setdefault(c, []).append(v)
    return out


def reporters(enumeration) -> dict:
    """Triangle -> assigned vertex of a ComponentEnumeration."""
    return dict(zip(map(tuple, enumeration.tris.tolist()), enumeration.assignees.tolist()))


def view_tree(net, view) -> SpanningTree:
    """The BFS tree of a view from its least vertex, as cut accumulation builds."""
    return bfs_tree(net, int(view.verts[0]), view.edges_local, view.verts)


def view_starts(net, view) -> StartTree:
    """The start sampling of a view down its own BFS tree."""
    return StartTree.on(view, view_tree(net, view))


@dataclass
class Merge:
    """One call of `concurrent_local_cuts`: the view's instance parameters,
    each instance's walk and hit, in landing order, and the merged cut."""

    mi: MultiInstanceParams
    instances: list  # (run, hit or None) per landing
    members: frozenset | None
    aborted_overlap: bool

    @classmethod
    def of(cls, mi, landings, runs, res) -> "Merge":
        return cls(mi, [runs[pair][:2] for pair in landings], res.members, res.aborted_overlap)


class MergeLog(list):
    """The merges of one cut accumulation, one per iteration, in order."""

    @property
    def pieces(self) -> list[frozenset]:
        """The disjoint per-iteration cuts, in order."""
        return [m.members for m in self if m.members]

    @property
    def w(self) -> int:
        """The whole view's overlap budget, the first iteration's, the
        largest of any."""
        return self[0].mi.w

    def k_phi(self, n: int) -> float:
        """The recorded constant of Phi(C) <= k_phi * phi * log2(n) on a
        view of n vertices."""
        k_accum, k_concurrent, _ = K_PHI_PARTS
        return k_accum * k_concurrent * self.w / math.log2(max(2, n))


@contextmanager
def recorded_merges():
    """A MergeLog of every call of `cuts.concurrent_local_cuts` (as its
    module's callers look it up) while the context is open."""
    log, merge = MergeLog(), cuts.concurrent_local_cuts

    def recorded(net, view, mi, depth, rng, landings, runs):
        res = merge(net, view, mi, depth, rng, landings, runs)
        log.append(Merge.of(mi, landings, runs, res))
        return res

    cuts.concurrent_local_cuts = recorded
    try:
        yield log
    finally:
        cuts.concurrent_local_cuts = merge


def one_iteration(net, view, phi, walkp, profile, rng, starts, p) -> Merge:
    """One iteration of cut accumulation on view, drawn, walked and merged
    alone: the k landings drawn down starts, their distinct (start, b)
    pairs walked and scanned in one `scan_runs` call, and the instances
    merged by `concurrent_local_cuts` (both looked up on the module, so a
    test may wrap them).  phi is walkp's."""
    _check_algo_phi(phi)
    assert phi == walkp.phi
    mi = derive_instance_params(view.vol(), walkp, p, profile)
    landings = _draw_landings(net, mi.k, walkp.ell, rng, starts)
    pairs = sorted(set(landings))
    runs = dict(zip(pairs, cuts.scan_runs(view, pairs, walkp, profile)))
    res = cuts.concurrent_local_cuts(net, view, mi, starts.tree.depth_max, rng, landings, runs)
    return Merge.of(mi, landings, runs, res)


class WorkingGraphReference:
    """The removal record as a dict keyed by edge tuple, validated edge by edge."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.removed: dict[tuple[int, int], str] = {}

    def is_live(self, u: int, v: int) -> bool:
        return edge_key(u, v) not in self.removed

    def remove_edges(self, edges, channel: str):
        for e in edges:
            k = edge_key(*e)
            if not has_edge(self.graph, *k):
                raise MissingEdge(str(k))
            if k in self.removed:
                raise MissingEdge(f"{k} already removed ({self.removed[k]})")
            self.removed[k] = channel

    def removed_by(self, channel: str) -> list[tuple[int, int]]:
        return sorted(e for e, c in self.removed.items() if c == channel)


class ActiveViewReference:
    """G{W} built row by row: a local adjacency list from probing the removal
    record once per host neighbour, and every other table derived from it."""

    def __init__(self, working: WorkingGraphReference, active):
        self.graph = g = working.graph
        self.verts = np.array(sorted(active), dtype=np.int64)
        self.active = frozenset(int(v) for v in self.verts)
        self.index = {int(v): i for i, v in enumerate(self.verts)}
        self.deg = g.deg[self.verts]
        self.adj_local = []
        edges = []
        for i, v in enumerate(self.verts):
            v = int(v)
            row = [self.index[u] for u in neighbors(g, v)
                   if u in self.index and working.is_live(u, v)]
            self.adj_local.append(row)
            edges.extend((i, j) for j in row if i < j)
        self.edges_local = np.array(edges, dtype=np.int64).reshape(-1, 2)
        self.live_deg = np.array([len(r) for r in self.adj_local], dtype=np.int64)
        indptr = np.cumsum([0] + [len(r) for r in self.adj_local])
        indices = np.array([j for r in self.adj_local for j in r], dtype=np.int64)
        n = len(self.verts)
        self.adj_matrix = sp.csr_matrix(
            (np.ones(len(indices), dtype=np.int64), indices, indptr), shape=(n, n))

    def vol_of(self, hosts) -> int:
        return int(sum(self.graph.deg[v] for v in hosts))

    def live_neighbors(self, host_v: int) -> list[int]:
        return [int(self.verts[j]) for j in self.adj_local[self.index[host_v]]]

    def loops(self, host_v: int) -> int:
        i = self.index[host_v]
        return int(self.deg[i] - self.live_deg[i])

    def boundary_size(self, members) -> int:
        mem = set(members)
        return sum(1 for a, b in self.edges_local
                   if (int(self.verts[a]) in mem) != (int(self.verts[b]) in mem))

    def cut_stats(self, members) -> Cut:
        mem = frozenset(members)
        if not mem or mem == self.active:
            raise DegenerateCut(f"|S|={len(mem)} of {len(self.verts)}")
        vol_s = self.vol_of(mem)
        total = int(self.deg.sum())
        bnd = self.boundary_size(mem)
        small = min(vol_s, total - vol_s)
        conductance = Fraction(0) if bnd == 0 else Fraction(bnd, small)
        balance = Fraction(small, total) if total else Fraction(0)
        return Cut(mem, vol_s, bnd, conductance, balance)

    def materialize(self) -> Graph:
        return graph_from_rows(self.adj_local, self.deg - self.live_deg)


def mis_size(neigh, verts):
    """Exact maximum independent set size by include/exclude branching."""
    if not verts:
        return 0
    v = max(verts, key=lambda x: (len(neigh[x] & verts), -x))
    closed = neigh[v] & verts
    if not closed:
        return 1 + mis_size(neigh, verts - {v})
    return max(mis_size(neigh, verts - {v}),
               1 + mis_size(neigh, verts - {v} - closed))


def separated_count(view, dist, members, dense_prime, a):
    """Max size of a subset of members ∩ dense_prime with pairwise distance > 2a."""
    pool = sorted(members & dense_prime)
    idx = {v: view.index[v] for v in pool}
    neigh = {
        v: {u for u in pool if u != v and dist[idx[v], idx[u]] <= 2 * a}
        for v in pool
    }
    return mis_size(neigh, set(pool))


def induced_diameter(view, dist_unused, members):
    """Diameter of the induced live subgraph on members (BFS inside members)."""
    best = 0
    mem = set(members)
    for src in mem:
        d = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for u in live_neighbors(view, v):
                    if u in mem and u not in d:
                        d[u] = d[v] + 1
                        nxt.append(u)
            frontier = nxt
        assert set(d) == mem, "stage component not connected"
        best = max(best, max(d.values()))
    return best


def check_h_conditions(view, split):
    """Assert the three growth-invariant conditions for every stage component."""
    dist = view.distances
    a, b = split.a, split.b
    for stage in split.stages:
        for comp in stage:
            # (1) dense-prime balls never straddle the component boundary
            for u in sorted(split.dense_prime):
                ball = {
                    int(view.verts[i])
                    for i in np.nonzero(dist[view.index[u]] <= a)[0]
                }
                assert ball <= comp or not (ball & comp), (u, sorted(comp)[:5])
            n_s = separated_count(view, dist, comp, split.dense_prime, a)
            d_s = induced_diameter(view, dist, comp)
            assert d_s <= 10 * a * n_s - (4 * a + 1)
            assert n_s <= 2 * b


# -- per-step references for the walk kernel and the block sweep scan ----------


def prefix_boundary_counts(view, order_local):
    """|boundary(prefix_j)| for j = 1..len(order), adding one vertex at a time:
    its live edges to the prefix leave the boundary, the others join it."""
    nbrs = [[] for _ in range(len(view))]
    for a, b in view.edges_local.tolist():
        nbrs[a].append(b)
        nbrs[b].append(a)
    inside = set()
    bnd = 0
    out = []
    for u in order_local.tolist():
        linked = sum(1 for w in nbrs[u] if w in inside)
        bnd += len(nbrs[u]) - 2 * linked
        inside.add(u)
        out.append(bnd)
    return np.array(out, dtype=np.int64)


def compute_walk_per_step(view, start, params, b, net=None, scan=None) -> WalkTrace:
    """compute_walk checking for a freeze and counting senders after every
    step.  With scan(t, state) -> hit or None, each new state is scanned at
    once and the walk stops at its first hit: rounds, messages and touched
    edges then count the states up to the hit step only."""
    n = len(view.verts)
    two_d = 2 * view.deg
    floor_units = params.eps_units(b) * two_d
    mass = np.zeros(n, dtype=np.int64)
    mass[view.index[start]] = SCALE
    masses = [mass]
    support = mass > 0
    freeze_t = None
    msgs = 0
    hit = False
    if net is not None and MASS_MSG_BITS > net.bandwidth_bits:
        raise BadPhi(f"mass message ({MASS_MSG_BITS}b) exceeds bandwidth {net.bandwidth_bits}")
    for t in range(1, params.t0 + 1):
        cur = masses[-1]
        nxt = walk_step_units(view, cur)
        nxt[nxt < floor_units] = 0
        step_msgs = int(view.live_deg @ (cur >= two_d))
        msgs += step_msgs
        if (nxt == cur).all():
            freeze_t = t - 1
            msgs += (params.t0 - t) * step_msgs
            break
        masses.append(nxt)
        support |= nxt > 0
        if scan is not None and scan(t, nxt) is not None:
            hit = True
            break
    if net is not None:
        net.ledger.charge(net.phase, rounds=len(masses) - 1 if hit else params.t0,
                          messages=msgs, edge_bits=MASS_MSG_BITS if msgs else 0)
    ea, eb = view.edges_local.T
    return WalkTrace(view, start, b, params, len(masses) - 1, freeze_t, hit,
                     support[ea] | support[eb], msgs, masses)


Z_SET_N_MAX = 64


def lazy_step(g: Graph, p: np.ndarray) -> np.ndarray:
    """One exact lazy-walk step; self loops keep their mass share in place."""
    return lazy_walk_matrix(g) @ np.asarray(p, dtype=float)


def truncate(g: Graph, p: np.ndarray, eps: float) -> np.ndarray:
    """Zero every entry with p(x) < 2 * eps * deg(x)."""
    p = np.asarray(p, dtype=float).copy()
    p[p < 2.0 * eps * g.deg] = 0.0
    return p


@dataclass
class TruncatedWalkState:
    """Snapshot of the truncated walk at one step (host-vertex keyed)."""

    t: int
    view: ActiveView
    mass_units: np.ndarray
    eps: float
    participants: frozenset  # host edge keys touched up to this step

    def mass(self, host_v: int) -> float:
        return self.mass_units[self.view.index[host_v]] / SCALE

    def rho(self, host_v: int) -> float:
        i = self.view.index[host_v]
        return self.mass_units[i] / (SCALE * int(self.view.deg[i]))

    def support(self) -> list[int]:
        return [int(self.view.verts[i]) for i in np.nonzero(self.mass_units)[0]]


def state_at(run: WalkTrace, t: int) -> TruncatedWalkState:
    """The run's state at step t with the edges touched up to it."""
    mask = np.zeros(len(run.view.verts), dtype=bool)
    for s in range(min(t, run.t_last) + 1):
        mask |= run.masses[s] > 0
    touched = edge_keys(run.view, mask[run.view.edges_local].any(axis=1))
    return TruncatedWalkState(t, run.view, mass_at(run, t), run.params.eps_b(run.b),
                              frozenset(touched))


def sweep_order_local(view, mass: np.ndarray) -> np.ndarray:
    """Local indices of the support sorted by (rho desc, host id asc).

    rho values are exact integer ratios compared through correctly-rounded
    float division: equal ratios compare equal; ratios closer than one ulp
    fall back to the ID tie rule.
    """
    sup = np.nonzero(mass)[0]
    if len(sup) == 0:
        return sup
    rho = mass[sup] / view.deg_pos[sup]
    order = np.lexsort((view.verts[sup], -rho))
    return sup[order]


def sweep_order(state: TruncatedWalkState) -> tuple[list[int], list[int]]:
    """Support ordered by rho descending (IDs ascending on ties) with prefix volumes."""
    order_local = sweep_order_local(state.view, state.mass_units)
    hosts = [int(state.view.verts[i]) for i in order_local]
    prefix = np.cumsum(state.view.deg[order_local]).tolist() if len(order_local) else []
    return hosts, [int(x) for x in prefix]


def influence_set(g: Graph, u: int, params: WalkParams, b: int,
                  n_max: int = Z_SET_N_MAX) -> set[int]:
    """Start vertices whose untruncated walk pushes rho_t(u) over the truncation
    threshold 2*eps_b within the horizon.  Dense powering from every start."""
    if g.n > n_max:
        raise TooLarge(f"n={g.n} exceeds {n_max}")
    thr = 2.0 * params.eps_b(b)
    deg_u = max(1, g.deg[u])
    m = lazy_walk_matrix(g)
    p = np.eye(g.n)  # column v = walk from v
    hit = p[u, :] / deg_u >= thr
    for _ in range(params.t0):
        p = m @ p
        hit |= p[u, :] / deg_u >= thr
        if hit.all():
            break
    return {v for v in range(g.n) if hit[v]}


def exact_rho_table(g: Graph, start: int, t_max: int) -> list[dict[int, tuple[int, int]]]:
    """rho_t(v) as exact integer pairs (numerator, 2L-power denominator exponent).

    Integer-only evaluation of the exact walk: r_t = (2L)^t * p_t with
    L = lcm of degrees, so rho comparisons reduce to integer cross products.
    Returns per-t dicts v -> (r_t(v), t); rho = r / ((2L)^t * deg(v)).
    """
    degs, loops = g.deg.tolist(), g.loops.tolist()
    L = 1
    for d in degs:
        L = math.lcm(L, d)
    r = {start: 1}
    out = [{v: (val, 0) for v, val in r.items()}]
    for t in range(1, t_max + 1):
        nxt: dict[int, int] = {}
        for v, val in r.items():
            nxt[v] = nxt.get(v, 0) + val * L  # lazy half: val * (2L) / 2
            share = val * (L // degs[v])
            for u in neighbors(g, v):
                nxt[u] = nxt.get(u, 0) + share
            if loops[v]:
                nxt[v] = nxt.get(v, 0) + share * loops[v]
        r = nxt
        out.append({v: (val, t) for v, val in r.items()})
    return out


def walk_step_messages(view, run):
    """(messages, any sent) of the walk, one ledger entry per step: every vertex
    holding at least one share sends along each live edge, and the frozen
    state repeats its messages until t0."""
    per_step = [int(view.live_deg[m // (2 * view.deg) > 0].sum())
                for m in run.masses[: run.t0]]
    if run.freeze_t is not None:
        per_step += [per_step[-1]] * (run.t0 - len(per_step))
    return sum(per_step), any(per_step)


class StepCharger:
    """Per-step scan charges: one ledger entry per walk step."""

    def __init__(self, net, depth, size):
        self.net, self.depth, self.size = net, depth, max(1, size)
        self.t_rounds = self.t_msgs = 0

    def _charge(self, rounds, messages):
        self.net.ledger.charge(self.net.phase, rounds=rounds, messages=messages,
                               edge_bits=(KIND_BITS + 2 * WORD_BITS) if messages else 0)
        self.t_rounds += rounds
        self.t_msgs += messages

    def begin_t(self):
        self.t_rounds = self.t_msgs = 0

    def step_scan(self, n_checks, n_searches, jmax):
        iters = math.ceil(math.log2(max(2, jmax))) + 2
        self._charge(n_checks * 2 * self.depth + n_searches * iters * 4 * self.depth,
                     (n_checks * 2 + n_searches * iters * 4) * (self.size - 1))

    def frozen_tail(self, remaining_t):
        rounds, msgs = remaining_t * self.t_rounds, remaining_t * self.t_msgs
        self._charge(rounds, msgs)

    def membership_broadcast(self):
        self._charge(self.depth, self.size - 1)


def scan_state_per_step(view, mass, t, phi, b, profile, gamma, jx_only):
    """Sweep scan of the walk state mass at step t, every condition in exact
    arithmetic: (hit or None, checks, searches, support size).  With
    jx_only, the candidate subsequence of the distributed scan, else every
    prefix under the raw conditions (no checks or searches counted)."""
    vol_total = view.vol()
    phi_f = Fraction(phi)
    slack = Fraction(profile.starred_slack) * phi_f
    grow = 1 + phi_f
    g_num, g_den = Fraction(gamma).as_integer_ratio()
    deg = view.deg

    def ok(pv, bd, u, conductance, window):
        small = min(pv, vol_total - pv)
        return ((bd == 0 if small <= 0 else bd * conductance.denominator <= conductance.numerator * small)
                and int(mass[u]) * pv * g_den >= g_num * SCALE * int(deg[u])
                and pv * window.denominator <= window.numerator * vol_total
                and 14 * pv >= 5 * (1 << b))

    order = sweep_order_local(view, mass)
    jmax = len(order)
    if jmax == 0:
        return None, 0, 0, 0
    prefvol = np.cumsum(deg[order]).tolist()
    bnds = prefix_boundary_counts(view, order).tolist()

    def hit(j, starred):
        return SweepCandidate(t, starred, frozenset(view.verts[order[:j]].tolist()))

    if not jx_only:
        for j in range(1, jmax + 1):
            if ok(prefvol[j - 1], bnds[j - 1], order[j - 1], phi_f, Fraction(5, 6)):
                return hit(j, False), 0, 0, jmax
        return None, 0, 0, jmax
    n_checks = n_searches = 0
    j_prev, j = None, 1
    while True:
        n_checks += 1
        pv, bd = prefvol[j - 1], bnds[j - 1]
        if j_prev is None or j == j_prev + 1:
            if ok(pv, bd, order[j - 1], phi_f, Fraction(5, 6)):
                return hit(j, False), n_checks, n_searches, jmax
        elif ok(pv, bd, order[j_prev - 1], slack, Fraction(11, 12)):
            return hit(j, True), n_checks, n_searches, jmax
        if j >= jmax:
            return None, n_checks, n_searches, jmax
        j_prev = j
        n_searches += 1
        j_star = max(i for i in range(1, jmax + 1)
                     if prefvol[i - 1] * grow.denominator <= grow.numerator * pv)
        j = max(j_prev + 1, j_star)


def scan_run_per_step(view, run, phi, b, profile, jx_only, charger=None):
    """Sweep scan of a traced walk one step at a time (`scan_state_per_step`),
    charged per step to charger, the frozen tail included."""
    for t in range(1, run.t0 + 1):
        if t > run.t_last:
            if charger is not None:
                charger.frozen_tail(run.t0 - t + 1)
            break
        if charger is not None:
            charger.begin_t()
        found, n_checks, n_searches, jmax = scan_state_per_step(
            view, run.masses[t], t, phi, b, profile, run.params.gamma, jx_only)
        if charger is not None and jmax:
            charger.step_scan(n_checks, n_searches, jmax)
            if found is not None:
                charger.membership_broadcast()
        if found is not None:
            return found
    return None


def local_cut_per_step(net, view, v, phi, b, params, profile):
    """`distributed_local_cut` one step at a time: each new state of the walk
    is scanned at once (`scan_state_per_step`), the walk stops at its first
    hit and is charged through that step, the scan's tree spans the edges
    touched up to it, and the scan is charged per step on that tree, the
    frozen tail included.  Returns the walk and the hit."""
    _check_algo_phi(phi)
    steps = []  # per scanned step: (hit, checks, searches, support size)

    def scan(t, mass):
        steps.append(scan_state_per_step(view, mass, t, phi, b, profile, params.gamma, True))
        return steps[-1][0]

    run = compute_walk_per_step(view, v, params, b, net=net, scan=scan)
    tree = bfs_tree(net, v, view.edges_local[run.touched], view.verts)
    charger = StepCharger(net, tree.depth_max, len(tree.hosts))
    for _, n_checks, n_searches, jmax in steps:
        charger.begin_t()
        if jmax:
            charger.step_scan(n_checks, n_searches, jmax)
    found = steps[-1][0] if run.hit else None
    if found is not None:
        charger.membership_broadcast()
    elif run.t_last < run.t0:
        charger.frozen_tail(run.t0 - run.t_last)
    return run, found


def lone_local_cut(net, view, v, phi, b, params, profile):
    """`distributed_local_cut` of the walk from v at level b, walked and
    scanned alone, a `scan_runs` batch of one pair: the walk and the hit.
    phi is params'."""
    _check_algo_phi(phi)
    assert phi == params.phi
    (outcome,) = scan_runs(view, [(v, b)], params, profile)
    return outcome[0], distributed_local_cut(net, outcome)


def full_horizon_scan_runs(view, pairs, params, profile):
    """`scan_runs` as it ran before a walk stopped at its hit: each walk
    runs to t0 (or its freeze), so it is charged to there and its touched
    edges, which the scan's tree spans, are all it reached; its scan counts
    its trips up to its first hit."""
    scan = SweepScan(view, pairs, params, profile)

    def sweep(masses, r_run, r_t):  # scan each run up to its first hit, stop nothing
        open_ = np.array([scan.hits[i] is None for i in r_run.tolist()], dtype=bool)
        if open_.any():
            scan(masses[open_], r_run[open_], r_t[open_])
        return {}

    runs = compute_walks(view, pairs, params, sweep)
    return [(run, *scan.outcome(i, run)) for i, run in enumerate(runs)]


def local_cut(view, v, phi, b, params, profile):
    """Centralized reference: the walk's full sweep scan under the raw
    conditions, one step at a time, charging no rounds.  Returns the walk
    and the hit."""
    if not (0.0 < phi <= 1.0):
        raise BadPhi(f"phi={phi}")
    run = walk_trace(view, v, params, b)
    return run, scan_run_per_step(view, run, phi, b, profile, jx_only=False)


def approximate_local_cut_reference(view, v, phi, b, params, profile):
    """Centralized twin of the distributed scan: the same candidate
    subsequence and tie rule, one step at a time, charging no rounds.
    Returns the walk and the hit."""
    _check_algo_phi(phi)
    run = walk_trace(view, v, params, b)
    return run, scan_run_per_step(view, run, phi, b, profile, jx_only=True)


def draw_b_reference(ell, rng) -> int:
    """`draw_b` through `rng.choice` on the normalized probabilities."""
    probs = np.array([2.0 ** -i for i in range(1, ell + 1)])
    probs /= probs.sum()
    return 1 + int(rng.choice(ell, p=probs))


def randomized_local_cut(net, view, phi, params, profile, rng):
    """Distributed local cut from a geometric truncation level and a
    degree-distributed start, drawn down the view's BFS tree: the walk and
    the hit."""
    b = draw_b(params.ell, rng)
    v = view_starts(net, view).sample(net, {b: 1}, rng)[0][0]
    return lone_local_cut(net, view, v, phi, b, params, profile)


def sweep_falsifier_per_step(working, comp, phi_k, profile):
    """Min sweep-prefix conductance of the falsifier walk, one step at a time."""
    view = ActiveView(working, comp)
    params = derive_walk_params(max(1, view.m_live), phi_k, profile)
    run = walk_trace(view, min(comp), params, max(1, params.ell // 2))
    vol_total = view.vol()
    best = float("inf")
    for t in range(1, run.t_last + 1):
        order = sweep_order_local(view, run.masses[t])
        if len(order) < 2:
            continue
        prefvol = np.cumsum(view.deg[order])
        bnds = prefix_boundary_counts(view, order)
        small = np.minimum(prefvol, vol_total - prefvol)
        ok = small > 0
        if ok.any():
            best = min(best, float((bnds[ok] / small[ok]).min()))
    return best


# -- dict-keyed references for the tree primitives ------------------------------


@dataclass
class DictTree:
    """A spanning tree keyed by host id; the message-level references walk it."""

    root: int
    parent: dict[int, int]          # root maps to itself
    depth: dict[int, int]
    children: dict[int, list[int]]  # ascending ids

    @property
    def depth_max(self) -> int:
        return max(self.depth.values(), default=0)


def dict_tree(tree: SpanningTree) -> DictTree:
    """The index-array tree keyed by host id, children in ascending id."""
    hosts = tree.hosts.tolist()
    parents = tree.hosts[tree.parent].tolist()
    children = {v: [] for v in hosts}
    for v, p in zip(hosts[1:], parents[1:]):  # by (depth, id): children come sorted
        children[p].append(v)
    return DictTree(tree.root, dict(zip(hosts, parents)), dict(zip(hosts, tree.depth.tolist())),
                    children)


def host_tree(net, root: int) -> SpanningTree:
    """The BFS tree of root's component of the host graph."""
    return bfs_tree(net, root, net.graph.edges, np.arange(net.graph.n))


def bfs_tree_reference(net, root, edges, labels) -> DictTree:
    """bfs_tree building host-keyed dicts from the same level sweep, with a
    loop over the children."""
    n = len(labels)
    start = np.full(n, INF)
    start[np.searchsorted(labels, root)] = 0
    src, dst = directed_ends(edges)
    depth = level_sweep(src, dst, start)
    up = depth[dst] == depth[src] - 1
    parent = np.where(depth == 0, np.arange(n), n)
    np.minimum.at(parent, src[up], dst[up])
    order = np.argsort(depth, kind="stable")[: np.count_nonzero(depth < INF)]
    hosts, parents = labels[order].tolist(), labels[parent[order]].tolist()
    children = {v: [] for v in hosts}
    for v, p in zip(hosts[1:], parents[1:]):
        children[p].append(v)
    if depth[order[-1]]:
        net.ledger.charge(net.phase, rounds=int(depth[order[-1]]), messages=int(up.sum()),
                          edge_bits=KIND_BITS + WORD_BITS)
    return DictTree(root, dict(zip(hosts, parents)), dict(zip(hosts, depth[order].tolist())),
                    children)


def subtree_degrees_reference(net, tree: DictTree, deg) -> dict[int, int]:
    """s(v) by a dict fold in decreasing depth, deg a callable on host ids."""
    sub = {v: deg(v) for v in tree.parent}
    for v in sorted(tree.parent, key=tree.depth.__getitem__, reverse=True):
        if v != tree.root:
            sub[tree.parent[v]] += sub[v]
    if tree.depth_max:
        net.ledger.charge(net.phase, rounds=tree.depth_max, messages=len(sub) - 1,
                          edge_bits=KIND_BITS + WORD_BITS)
    return sub


def sample_by_degree_reference(net, tree: DictTree, counts, rng, deg) -> list[tuple[int, int]]:
    """sample_by_degree on a host-keyed tree with a deg callable: tokens in
    flight keyed by (host id, tag), drawn in ascending key order."""
    subtree = subtree_degrees_reference(net, tree, deg)
    tags = sorted(counts)
    landings = []
    in_flight = {}
    released = 0
    while released < len(tags) or in_flight:
        if released < len(tags):
            tag = tags[released]
            if counts[tag] > 0:
                in_flight[(tree.root, tag)] = in_flight.get((tree.root, tag), 0) + counts[tag]
            released += 1
        moved = {}
        n_msgs = 0
        for (v, tag) in sorted(in_flight):
            cnt = in_flight[(v, tag)]
            s_v = subtree[v]
            stay = rng.binomial(cnt, deg(v) / s_v) if s_v > deg(v) else cnt
            landings.extend([(v, tag)] * stay)
            rest = cnt - stay
            if rest:
                kids = tree.children[v]
                probs = np.array([subtree[u] for u in kids], dtype=float)
                probs /= probs.sum()
                split = rng.multinomial(rest, probs)
                for u, c in zip(kids, split):
                    if c:
                        moved[(u, tag)] = moved.get((u, tag), 0) + int(c)
                        n_msgs += 1
        in_flight = moved
        net.ledger.charge(net.phase, rounds=1, messages=n_msgs,
                          edge_bits=(KIND_BITS + 2 * WORD_BITS) if n_msgs else 0)
    landings.sort()
    return landings


# -- message-level references for the level-sweep primitives -------------------


def bfs_tree_per_round(net, root, edge_filter=None, vertices=None):
    """Message-level BFS over the host edges that pass edge_filter inside
    vertices: every frontier vertex claims its unclaimed neighbours in one
    round, and a claimed vertex takes the smallest claimant as its parent."""
    ok = edge_filter or (lambda u, v: True)
    inside = vertices if vertices is not None else set(range(net.graph.n))

    def adj(v):
        return [u for u in neighbors(net.graph, v) if u in inside and ok(*edge_key(u, v))]

    parent = {root: root}
    depth = {root: 0}
    states = {v: None for v in inside}
    inboxes = {}
    frontier = [root]
    while True:
        targets = {u for v in frontier for u in adj(v) if u not in parent}
        if not targets:
            break

        claimed = set(parent)

        def step(v, state, inbox, _frontier=frozenset(frontier)):
            outs = []
            if v in _frontier:
                outs = [(u, Msg("bfs-claim", v)) for u in adj(v) if u not in claimed]
            return state, outs

        states, inboxes = net.run_round(states, inboxes, step, adjacency=adj)
        frontier = []
        for v, arrivals in sorted(inboxes.items()):
            if v in parent or not arrivals:
                continue
            src = min(a for a, _ in arrivals)
            parent[v] = src
            depth[v] = depth[src] + 1
            frontier.append(v)
        inboxes = {}
    children = {v: [] for v in parent}
    for v, p in parent.items():
        if v != p:
            children[p].append(v)
    for c in children.values():
        c.sort()
    return DictTree(root, parent, depth, children)


def _tree_adj(tree, v):
    out = list(tree.children.get(v, ()))
    if tree.parent.get(v, v) != v:
        out.append(tree.parent[v])
    return out


def tree_aggregate_per_round(net, tree, values, combine):
    """Bottom-up fold over the tree, one round per level.  Returns
    (root_value, subtree_values) where subtree_values[v] combines v's value
    with all of its descendants'."""
    partial = dict(values)
    states = {v: None for v in tree.parent}
    for r in range(tree.depth_max, 0, -1):
        layer = frozenset(v for v, d in tree.depth.items() if d == r)

        def step(v, state, inbox, _layer=layer):
            return state, [(tree.parent[v], Msg("agg", partial[v]))] if v in _layer else []

        states, inboxes = net.run_round(states, {}, step,
                                        adjacency=lambda v: _tree_adj(tree, v))
        for v, arrivals in inboxes.items():
            for _, msg in sorted(arrivals, key=lambda a: a[0]):
                partial[v] = combine(partial[v], msg.payload)
    return partial[tree.root], partial


def tree_broadcast_per_round(net, tree, value):
    """Top-down broadcast, one round per level; every tree vertex ends with value."""
    have = {tree.root: value}
    states = {v: None for v in tree.parent}
    for r in range(tree.depth_max):
        layer = frozenset(v for v, d in tree.depth.items() if d == r and v in have)

        def step(v, state, inbox, _layer=layer):
            if v not in _layer:
                return state, []
            return state, [(c, Msg("bcast", have[v])) for c in tree.children[v]]

        states, inboxes = net.run_round(states, {}, step,
                                        adjacency=lambda v: _tree_adj(tree, v))
        for v, arrivals in inboxes.items():
            for _, msg in arrivals:
                have[v] = msg.payload
    return have


def subtree_degrees_per_round(net, tree, deg):
    """Subtree degree sums by a message-level aggregate, one round per level."""
    _, sub = tree_aggregate_per_round(net, tree, {v: deg(v) for v in tree.parent},
                                      lambda a, b: a + b)
    return sub


def search_round_trip_per_round(net, tree, marker):
    """One iteration of the randomized tree search: band broadcast, count
    aggregate, descent broadcast and prefix aggregate."""
    tree_broadcast_per_round(net, tree, ("band", marker))
    tree_aggregate_per_round(net, tree, {v: 1 for v in tree.parent}, lambda a, b: a + b)
    tree_broadcast_per_round(net, tree, ("descend", marker))
    tree_aggregate_per_round(net, tree, {v: 0 for v in tree.parent}, lambda a, b: a + b)


@dataclass
class SearchResult:
    rank: int                 # 1-based rank of the last true position; 0 if none
    vertex: int | None
    prefix_weight: int
    iterations: int


def random_binary_search(net, tree, keys, weights, predicate, rng) -> SearchResult:
    """Locate the last rank (in ascending key order) where a monotone predicate holds.

    `predicate(vertex, prefix_weight)` sees the cumulative weight of every
    universe member with key <= the candidate's.  Each iteration samples a
    uniform member of the live band; with probability 1/2 the band shrinks by a
    factor >= 3/4.  The band, counts and prefix weights are computed in
    memory; each iteration is charged as its tree round trip (band broadcast,
    count aggregate, descent broadcast, prefix aggregate): 4 * depth rounds
    and one 136-bit message per tree edge and pass (no bits on a one-vertex
    tree, which sends none).
    """
    universe = sorted(keys, key=lambda v: keys[v])
    if not universe:
        return SearchResult(0, None, 0, 0)
    w = np.array([weights[v] for v in universe], dtype=np.int64)
    cumw = np.cumsum(w)
    lo, hi = 0, len(universe) - 1
    best_rank, best_vertex, best_weight = 0, None, 0
    iterations = 0
    cap = max(64, 64 * int(math.log2(len(universe) + 1) + 1))
    depth = tree.depth_max
    messages = 4 * max(0, len(tree.parent) - 1)
    bits = KIND_BITS + 2 * WORD_BITS if messages else 0
    while lo <= hi:
        iterations += 1
        if iterations > cap:
            idx = (lo + hi) // 2  # deterministic fallback; statistically unreachable
        else:
            idx = lo + int(rng.integers(hi - lo + 1))
        v = universe[idx]
        pw = int(cumw[idx])
        net.ledger.charge(net.phase, rounds=4 * depth, messages=messages, edge_bits=bits)
        if predicate(v, pw):
            best_rank, best_vertex, best_weight = idx + 1, v, pw
            lo = idx + 1
        else:
            hi = idx - 1
    return SearchResult(best_rank, best_vertex, best_weight, iterations)


OVER = "over-threshold"


def neighborhood_edges_exact(net, view, estar, d, tau):
    """Each vertex's radius-d edge set within estar, or OVER when it holds more
    than tau edges, read from the oracle's reach table; the rounds are
    charged by the per-phase formula of the flooding."""
    estar = {edge_key(*e) for e in estar}
    oracle = NeighborhoodOracle(view)
    mask = np.array([e in estar for e in live_edges(view)], dtype=bool)
    counts = oracle.ball_edge_counts(d, mask)
    out = {}
    for i, v in enumerate(view.verts.tolist()):
        out[v] = OVER if counts[i] > tau else edge_keys(view, (oracle.edge_reach[i] <= d - 1) & mask)
    edge_bits = 2 * math.ceil(math.log2(max(2, net.graph.n)))
    per_phase = max(1, math.ceil((tau + 1) * edge_bits / net.bandwidth_bits))
    net.ledger.charge(net.phase, rounds=max(0, d - 1) * per_phase,
                      messages=2 * view.m_live * max(0, d - 1), edge_bits=net.bandwidth_bits)
    return out


def neighborhood_edges_per_round(net, view, estar, d, tau):
    """d-1 phases of list-or-star flooding over the view's live edges: a vertex
    streams the tracked edges it knows to its neighbours in bandwidth-sized
    chunks, or one star once it knows more than tau of them."""
    estar = {edge_key(*e) for e in estar}
    verts = [int(v) for v in view.verts]
    live = set(live_edges(view))
    known = {v: {e for e in estar if v in e and e in live} for v in verts}
    over = {v: len(known[v]) > tau for v in verts}
    edge_bits = 2 * math.ceil(math.log2(max(2, net.graph.n)))
    cap = net.bandwidth_bits // edge_bits
    for _phase in range(d - 1):
        queues = {v: OVER if over[v] else sorted(known[v]) for v in verts}
        # stream each list over as many rounds as the phase needs, all in lockstep
        phase_rounds = max([1] + [-(-len(q) // cap) for q in queues.values() if q != OVER])
        states = {v: None for v in verts}
        for r in range(phase_rounds):
            def step(v, s, inbox, _first=r == 0):
                q = queues[v]
                if q == OVER:
                    return s, [(u, Msg("star", OVER, bits=KIND_BITS))
                               for u in live_neighbors(view, v)] if _first else []
                chunk, queues[v] = q[:cap], q[cap:]
                if not chunk:
                    return s, []
                bits = KIND_BITS + edge_bits * len(chunk)
                return s, [(u, Msg("edges", tuple(chunk), bits=bits))
                           for u in live_neighbors(view, v)]

            states, inboxes = net.run_round(states, {}, step,
                                            adjacency=lambda v: live_neighbors(view, v))
            for v, arrivals in inboxes.items():
                for _, msg in arrivals:
                    if msg.kind == "star":
                        over[v] = True
                    else:
                        known[v].update(msg.payload)
        for v in verts:
            if len(known[v]) > tau:
                over[v] = True
    return {v: OVER if over[v] else sorted(known[v]) for v in verts}


def neighborhood_threshold_test(net, view, d, z, f, rng, oracle=None):
    """Per-vertex bit, indexed like view.verts: 1 when the radius-d edge count is
    below z (w.h.p. calibrated so counts <= z give 1 and counts >= (1+f)z give 0).
    rng is drawn from, and needed, only when the test samples; each test is
    charged as one flooding of d-1 phases."""
    n = net.graph.n
    log_n = math.log2(max(2, n))
    if _samples(n, z, f):
        mask = rng.random(view.m_live) < K_SAMPLE * log_n / (f * f * z)
        tau = (1 + f / 2) * K_SAMPLE * log_n / (f * f)
    else:
        mask, tau = None, (1 + f) * z
    bits = ball_edge_counts(view, d, mask, oracle) <= tau
    edge_bits = 2 * math.ceil(math.log2(max(2, n)))
    per_phase = max(1, math.ceil((tau + 1) * edge_bits / net.bandwidth_bits))
    net.ledger.charge(net.phase, rounds=max(0, d - 1) * per_phase,
                      messages=2 * view.m_live * max(0, d - 1), edge_bits=net.bandwidth_bits)
    return bits


def neighborhood_size_estimate_per_rung(net, view, d, f, rng, oracle=None):
    """`neighborhood_size_estimate` one threshold test per ladder rung, top
    rung first, each with its own count and charge: the lowest accepting
    rung wins, and a rung's stream default_rng([seed_key, i]) is built
    whenever it samples."""
    if oracle is None and d < len(view):
        oracle = NeighborhoodOracle(view)
    n = net.graph.n
    seed_key = int(rng.integers(1 << 62))
    ladder = [1.0]
    cap = n * (n - 1) / 2
    while ladder[-1] * (1 + f) <= cap:
        ladder.append(ladder[-1] * (1 + f))
    best = np.full(len(view), ladder[-1])
    for i in range(len(ladder) - 1, -1, -1):
        z = max(1, math.ceil(ladder[i]))
        level_rng = np.random.default_rng([seed_key, i]) if _samples(n, z, f) else None
        bits = neighborhood_threshold_test(net, view, d, z, f, level_rng, oracle=oracle)
        best[bits] = ladder[i]
    return best


def shift_assignment_per_epoch(view, n, beta, deltas) -> tuple[dict, dict, int]:
    """Exponential-shift clustering of a view in a host of n vertices,
    simulated epoch by epoch from the shifts deltas (by host id): at epoch t
    an unclustered vertex with start t becomes a centre, and any other one
    next to a cluster joins the smallest adjacent cluster id; idle epochs
    are skipped.  Returns (centre by vertex, start by vertex, epoch count)."""
    horizon = math.ceil(2 * math.log2(max(2, n)) / beta)
    verts = [int(v) for v in view.verts]
    start = {v: max(1, horizon - int(math.floor(deltas[v]))) for v in verts}
    assignment = {}
    unclustered = set(verts)
    start_buckets = {}
    for v in verts:
        start_buckets.setdefault(start[v], []).append(v)
    t = 1
    while t <= horizon and unclustered:
        growth_possible = any(
            u in assignment for v in unclustered for u in live_neighbors(view, v)
        )
        has_start = any(
            s >= t and any(v in unclustered for v in vs)
            for s, vs in start_buckets.items()
        )
        if not growth_possible and not has_start:
            break
        if not growth_possible:
            next_start = min(
                s for s, vs in start_buckets.items()
                if s >= t and any(v in unclustered for v in vs)
            )
            if next_start > t:
                t = next_start  # idle epochs: no centers, no adjacent clusters
        joins = {}
        for v in sorted(unclustered):
            if start[v] == t:
                continue
            adjacent = [assignment[u] for u in live_neighbors(view, v) if u in assignment]
            if adjacent:
                joins[v] = min(adjacent)
        for v in sorted(unclustered):
            if start[v] == t:
                assignment[v] = v
                unclustered.discard(v)
        for v, c in joins.items():
            assignment[v] = c
            unclustered.discard(v)
        t += 1
    return assignment, start, horizon


class GivenShifts:
    """A generator stub for `exponential_shift_clustering`: its
    `exponential(scale, size)` returns the given shifts, indexed like
    view.verts, whatever the scale."""

    def __init__(self, shifts):
        self.shifts = np.asarray(shifts, dtype=float)

    def exponential(self, scale, size):
        assert size == len(self.shifts)
        return self.shifts


def shift_clustering_per_epoch(net, view, beta, rng):
    """The ShiftClustering record of `shift_assignment_per_epoch`, the shifts
    drawn from rng as the kernel draws them, charged the epoch count."""
    draws = rng.exponential(scale=1.0 / beta, size=len(view))
    deltas = dict(zip(view.verts.tolist(), draws.tolist()))
    assignment, start, horizon = shift_assignment_per_epoch(view, net.graph.n, beta, deltas)
    verts = view.verts.tolist()
    net.ledger.charge(net.phase, rounds=horizon, messages=2 * view.m_live,
                      edge_bits=KIND_BITS + 64)
    return ShiftClustering(np.array([assignment[v] for v in verts], dtype=np.int64),
                           np.array([start[v] for v in verts], dtype=np.int64), horizon,
                           np.array([assignment[u] != assignment[v] for u, v in live_edges(view)],
                                    dtype=bool))


# -- per-triple reference for triangle enumeration ---------------------------


def enumerate_component_per_triple(level_graph, comp, tau_mix, n_global):
    """enumerate_component by Python sets: each assignee intersects the three
    bucket-pair edge lists of its bucket triple, and a triangle keeps the
    assignee of the first triple that lists it."""
    comp = sorted(comp)
    comp_set = set(comp)
    ext = sorted({
        u for v in comp for u in neighbors(level_graph, v) if u not in comp_set
    })
    universe = sorted(comp_set | set(ext))
    uni_set = set(universe)
    n_buckets = max(1, math.ceil(len(comp) ** (1.0 / 3.0)))
    chunk = math.ceil(len(universe) / n_buckets)
    bucket_of = {v: i // chunk for i, v in enumerate(universe)}
    pair_edges = {}
    adj_in = {v: (set(neighbors(level_graph, v)) & uni_set) for v in universe}
    for v in universe:
        for u in adj_in[v]:
            if v < u:
                key = tuple(sorted((bucket_of[v], bucket_of[u])))
                pair_edges.setdefault(key, []).append((v, u))
    triples = list(combinations_with_replacement(range(n_buckets), 3))
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
                reporters.setdefault(tuple(sorted((p, q, r))), assignee)
    batches = max(
        (math.ceil(load[v] / max(1, level_graph.deg[v])) for v in comp), default=0
    )
    rounds = batches * (tau_mix * math.log2(max(2, n_global)))
    rows = sorted(reporters)
    tris = np.array(rows, dtype=np.int64).reshape(-1, 3)
    assignees = np.array([reporters[t] for t in rows], dtype=np.int64)
    return ComponentEnumeration(tuple(comp), tris, assignees, n_buckets, len(triples),
                                batches, tau_mix, rounds)
