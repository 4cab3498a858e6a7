"""Sweep-cut search on truncated walks and the nearly-most-balanced sparse cut.

A local cut scans only a geometric candidate subsequence of the sweep
order, locating each candidate by randomized binary search on a spanning tree
of the participating edges and accepting jump candidates under a relaxed
conductance bound; every simulated round is charged.  The centralized scans
(every prefix, or the same subsequence without rounds), which the analysis
uses, are per-step test references in `tests/helpers_h.py`.

Spanning trees are BFS level sweeps over edge lists: the view's live edges
(the host tree, a `bfs_tree`) or the walk's touched live edges (each local
cut's tree, whose depth and size alone are read from `bfs_levels`).  Like
walks and scans, they are charged by formula, so a cut runs no `Network`
round.  The starts of a partition's instances are drawn down the host tree
with the view's subtree degree sums (`StartTree`), folded once per view;
every draw still charges the aggregate that computes them.

A local cut's walk streams into its scan (`SweepScan`, the sweep of
`walks.compute_walks`) one block of fresh states at a time, and stops at
the step where the scan hits, as Spielman-Teng's Nibble returns at the first
step whose sweep passes.  So the walk is charged for the rounds and messages
up to its hit only, and the cut's tree spans the edges touched up to there;
a walk without a hit runs to t0 or its freeze.  Consecutive steps of a run
with the same sweep order and support, as most are once a walk settles,
share their sweep tables, candidate chain and every test but the mass floor,
so those are built once per group; no Python loop runs once per walk step.
Each run's outcome is its earliest hit whatever the blocks and the other
runs.  `scan_runs` is the one place a local cut is walked and scanned: it
takes a batch of (start, b) pairs and the walk parameters, whose phi the
scan reads, and returns each one's (run, hit, trips), charging nothing.
That outcome is the one record of a local cut.  `distributed_local_cut`
charges it on its run's view: the walk (`charge_walk`), the BFS tree of its
touched edges, and the scan's tree round trips (`scan_run`), one ledger
entry of the per-step costs' sum; it returns the hit.

All conductance and volume threshold comparisons are exact: thresholds arrive
as binary floats and are compared through their integer ratios.

Cut accumulation draws and walks its iterations in batches.  An
iteration's levels and starts are drawn from the rng's bit generator before
its walks; its instance identifiers come from generators spawned off the
seed sequence, and it depends on earlier iterations only through the view,
which changes only when a cut is found.  So `sparse_cut_partition` draws the
next iterations on the current view one after another, each charging a
ledger of its own and followed by a copy of the bit-generator state, and
walks and scans their distinct (start, b) pairs as one `scan_runs` batch of
at most WALK_BATCH_CELLS walk states per step; the view's instance
parameters (k, w) are derived once per batch.  Each iteration then restores
its state, charges its draw and merges its instances
(`concurrent_local_cuts`, which neither draws nor walks); instances that
landed on the same pair share its run, each charged for it, and a found cut
drops the rest of the batch.  So the rng, the ledger and every outcome are
those of drawing, walking and scanning one iteration at a time.  The
partition returns the vertex set it accumulated, and the balanced cut that
set with its conductance bound.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import Profile
from .errors import BadPhi, Disconnected, TooLarge
from .graph import INF
from .simulator import (KIND_BITS, WORD_BITS, Network, RoundLedger, SpanningTree, bfs_levels,
                        bfs_tree, sample_by_degree, subtree_sums)
from .views import ActiveView
from .walks import (
    SCALE,
    WalkParams,
    WalkRun,
    charge_walk,
    compute_walks,
    derive_walk_params,
    prefix_tables,
    sweep_orders,
)

PHI_ALGO_MAX = 1.0 / 12.0
# Conductance chain of cut accumulation, Phi(C) <= 47 * 276 * w * phi with the
# overlap budget w = 10 * ceil(ln vol); recorded in the decomposition's JSON.
K_PHI_PARTS = (47, 276, 10)
_K_ACCUM, _K_CONCURRENT, _K_W = K_PHI_PARTS
# Walk states per step that a partition's batch of iterations may hold
# (columns times view vertices): as many as one walk on a 512-vertex view.
# Batching pays where numpy call overhead dominates a step; on larger views
# it does not.
WALK_BATCH_CELLS = 512


# -- parameters ---------------------------------------------------------------


@dataclass(frozen=True)
class MultiInstanceParams:
    """Instance count, overlap budget, and union-volume threshold for one graph."""

    vol: int
    k: int
    w: int
    s: int

    def union_small_enough(self, union_vol: int) -> bool:
        return 24 * union_vol <= 23 * self.vol


def participation_budget(walkp: WalkParams, profile: Profile) -> float:
    """Expected-participation volume divisor: c * ell * (t0+1) * t0 * ln(m e^4) / phi."""
    ln_e4 = math.log(walkp.m) + 4.0
    return (
        profile.c_parallel * walkp.ell * (walkp.t0 + 1) * walkp.t0 * ln_e4 / walkp.phi
    )


def overlap_budget(vol: int) -> int:
    """w = 10 * ceil(ln vol), at least 10: the most instances an edge may
    take part in before concurrent local cuts abort."""
    return _K_W * max(1, math.ceil(math.log(max(vol, 2))))


def derive_instance_params(vol: int, walkp: WalkParams, p: float,
                           profile: Profile) -> MultiInstanceParams:
    if not (0.0 < p < 1.0):
        raise ValueError(f"p={p} outside (0, 1)")
    q = participation_budget(walkp, profile)
    k = max(1, math.ceil(vol / q))
    w = overlap_budget(vol)
    g = math.ceil(10 * w * q)
    if profile.g_cap is not None:
        g = min(g, profile.g_cap)
    s = 4 * g * math.ceil(math.log(1.0 / p) / math.log(7.0 / 4.0))
    if profile.s_cap is not None:
        s = min(s, profile.s_cap)
    return MultiInstanceParams(vol, k, w, max(1, s))


def ladder_h(theta: float, n: int, c_h: float) -> float:
    """Quality function of the balanced cut: c * theta^(1/3) * log2(n)^(5/3)."""
    return c_h * theta ** (1.0 / 3.0) * math.log2(max(2, n)) ** (5.0 / 3.0)


def ladder_h_inv(theta: float, n: int, c_h: float) -> float:
    return (theta / (c_h * math.log2(max(2, n)) ** (5.0 / 3.0))) ** 3


# -- exact threshold helpers ---------------------------------------------------


def _ratio(x: float) -> tuple[int, int]:
    num, den = float(x).as_integer_ratio()
    return num, den


def _phi_at_most(bnd: int, pv: int, vol_total: int, num: int, den: int) -> bool:
    small = min(pv, vol_total - pv)
    if small <= 0:
        return bnd == 0
    return bnd * den <= num * small


def _mass_floor_ok(p_units: int, deg: int, pv: int, g_num: int, g_den: int) -> bool:
    # rho = p / (SCALE * deg) >= gamma / pv
    return p_units * pv * g_den >= g_num * SCALE * deg


def _vol_window_ok(pv: int, vol_total: int, b: int, up_num: int, up_den: int) -> bool:
    return up_den * pv <= up_num * vol_total and 14 * pv >= 5 * (1 << b)


def _mass_floor_prefilter(rho_units: np.ndarray, pv: np.ndarray, gamma: float) -> np.ndarray:
    """Float superset of _mass_floor_ok: rho in fixed-point units (mass / deg)
    times pv against gamma * SCALE, with a margin above the rounding error."""
    return rho_units * pv >= gamma * SCALE * (1 - 1e-9)


def _phi_prefilter(bnds: np.ndarray, pv: np.ndarray, vol_total: int,
                   ratio: float) -> np.ndarray:
    """Float superset of _phi_at_most: bnds against ratio * min(pv, total - pv),
    with a margin above the rounding error."""
    return bnds <= ratio * np.minimum(pv, vol_total - pv) * (1 + 1e-9) + 1e-9


def _jstar(prefvol: np.ndarray, cnt: np.ndarray, phi: float) -> np.ndarray:
    """j* of every cell of a (B x n) block of prefix volumes: the number of the
    row's first cnt prefix volumes at most (1 + phi) * pv, i.e. at most
    pv + floor(pv * phi), in int64 and exact.

    phi is num / 2^k with num < 2^53, so pv * phi is (pv * num) >> k.  With
    num = hi * 2^s + lo (s = min(k, 26), so hi < 2^27 and lo < 2^26), that is
    (pv * hi + ((pv * lo) >> s)) >> (k - s), and for pv < 2^35 no product or
    sum reaches 2^63; a larger volume raises TooLarge."""
    rows, n = prefvol.shape
    top = int(prefvol[:, -1].max(initial=0))  # rows are nondecreasing
    if top >= 1 << 35:
        raise TooLarge(f"prefix volume {top} beyond the exact j* range 2^35")
    num, den = _ratio(phi)
    k = den.bit_length() - 1
    s = min(k, 26)
    ext = prefvol * (num >> s)
    ext += (prefvol * (num & ((1 << s) - 1))) >> s
    ext >>= min(k - s, 63)
    # rows are offset past each other's largest threshold (2 * total volume),
    # so one searchsorted over the flat block counts within each row
    key = prefvol + np.arange(rows)[:, None] * (2 * top + 1)
    ext += key
    flat = np.searchsorted(key.ravel(), ext.ravel(), side="right").reshape(rows, n)
    flat -= np.arange(rows)[:, None] * n
    return np.minimum(flat, cnt[:, None], out=flat)


# -- round charging for the distributed scan -----------------------------------


def _trips(n_checks: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Tree round trips of each walk step's scan: two per candidate check,
    and n_checks - 1 tree searches that locate the jump candidates, charged
    deterministically at the with-high-probability iteration scale:
    ceil(log2 band) + 2 iterations per search, each four tree passes.  No
    search runs here; the randomized search, which charges the iterations
    its draws take, is a test reference."""
    iters = np.ceil(np.log2(np.maximum(2, band))).astype(np.int64) + 2
    return 2 * n_checks + np.maximum(n_checks - 1, 0) * iters * 4


# -- the scan -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCandidate:
    """The accepted sweep prefix: step, whether it passed as a jump
    candidate, and its members."""

    t: int
    starred: bool
    members: frozenset  # host ids of the prefix


class SweepScan:
    """The sweep scan of the walks from pairs on view at params.phi, each at
    its own level b: the sweep that `compute_walks` streams them into.

    Each call takes one block of fresh walk states, the rows of each run
    consecutive and in step order, and returns {run: step} of the runs that
    hit there.  Each row steps through the geometric candidate subsequence:
    a step to j_prev + 1 is tested under the raw conditions, a jump under
    the slack conditions against u_prev, and the next candidate is
    max(j + 1, j*), with j* the number of prefix volumes at most
    (1 + phi) * prefvol[j].

    Consecutive rows of one run with equal sweep order and support size form
    a group (`sweep_orders`), which shares prefix volumes, boundaries, j*,
    the candidate chain and every test but the mass floor.  So the tables
    are built and the chain is walked once per group, and per row only the
    mass floor is tested, at the chain cells that pass the group's tests.
    Candidates are prefiltered with float masks whose margins strictly
    dominate rounding error, then confirmed in exact integer arithmetic in
    (row, chain) order, so each run's hit is the earliest row's first hit,
    as in a fully exact scan of one step at a time, whatever the blocks.
    The walk stops at its hit, so no later row of that run comes.

    The trips of a run (`outcome`) are those of every step up to its hit
    (`_trips`, the hit's step counting its checks up to the hit), or,
    without a hit, of every step plus the frozen tail, whose t0 - t_last
    steps repeat the last step's scan.
    """

    def __init__(self, view: ActiveView, pairs, params: WalkParams, profile: Profile):
        self.view, self.phi, self.vol_total = view, params.phi, view.vol()
        self.slack = Fraction(profile.starred_slack) * Fraction(params.phi)
        self.gamma = params.gamma
        self.levels = np.array([b for _, b in pairs], dtype=np.int64)
        self.hits: list[SweepCandidate | None] = [None] * len(pairs)
        self.trips = np.zeros(len(pairs), dtype=np.int64)
        self.last = np.zeros(len(pairs), dtype=np.int64)  # trips of each run's latest step

    def __call__(self, masses: np.ndarray, r_run: np.ndarray, r_t: np.ndarray) -> dict:
        view, phi, vol_total, slackF, gamma = (self.view, self.phi, self.vol_total, self.slack,
                                               self.gamma)
        phi_q, gamma_q = _ratio(phi), _ratio(gamma)
        n, deg = len(view), view.deg
        tails = np.append(np.flatnonzero(np.diff(r_run)), len(r_run) - 1)  # each run's last row
        order, cnt = sweep_orders(view, masses)
        new = np.ones(len(cnt), dtype=bool)
        new[1:] = ((r_run[1:] != r_run[:-1]) | (cnt[1:] != cnt[:-1])
                   | (order[1:] != order[:-1]).any(axis=1))
        first = np.flatnonzero(new)  # the first row of each group
        grp = np.cumsum(new) - 1
        g_order, g_cnt = order[first], cnt[first]
        del order
        prefvol, bnds = prefix_tables(view, g_order)
        # The candidate chain of every group runs over flat cells
        # group * n + index; nxt is each cell's next candidate, max(j + 1, j*).
        g_start = np.arange(len(first))[:, None] * n
        nxt = np.maximum(np.arange(1, len(first) * n + 1),
                         (g_start + _jstar(prefvol, g_cnt, phi)).ravel() - 1)
        more = (np.arange(1, n + 1) < g_cnt[:, None]).ravel()  # a later candidate exists
        pos = np.flatnonzero(g_cnt) * n
        cells, prevs, ranks = [pos], [pos - 1], [np.zeros(len(pos), dtype=np.int64)]
        while len(pos):
            prev = pos[more[pos]]
            pos = nxt[prev]
            cells.append(pos)
            prevs.append(prev)
            ranks.append(np.full(len(pos), len(cells) - 1))
        cell, prev, rank = (np.concatenate(x) for x in (cells, prevs, ranks))
        cell_grp = cell // n
        row_trips = _trips(np.bincount(cell_grp, minlength=len(first)), g_cnt)[grp]
        # the group's tests at its chain cells: a step is raw, a jump starred
        raw = cell == prev + 1
        pv, bd = prefvol.ravel()[cell], bnds.ravel()[cell]
        b_cell = self.levels[r_run[first]][cell_grp]
        pre = (14 * pv >= (5 << b_cell)) & np.where(
            raw, _phi_prefilter(bd, pv, vol_total, phi) & (6 * pv <= 5 * vol_total),
            _phi_prefilter(bd, pv, vol_total, float(slackF)) & (12 * pv <= 11 * vol_total))
        tested = g_order.ravel()[np.where(raw, cell, prev)]  # the vertex of the mass floor
        cand = np.flatnonzero(pre)
        # every row of the group at each of these cells, in (row, chain) order
        size = np.diff(first, append=len(cnt))[cell_grp[cand]]
        pair_cell = np.repeat(cand, size)
        pair_row = (np.repeat(first[cell_grp[cand]] - np.cumsum(size) + size, size)
                    + np.arange(len(pair_cell)))
        u = tested[pair_cell]
        ok = _mass_floor_prefilter(masses[pair_row, u] / view.deg_pos[u], pv[pair_cell], gamma)
        pair_cell, pair_row = pair_cell[ok], pair_row[ok]
        by_row = np.lexsort((rank[pair_cell], pair_row))
        pair_cell, pair_row = pair_cell[by_row], pair_row[by_row]

        def confirm(c: int, r: int) -> SweepCandidate | None:
            """Exact test of chain cell c in row r."""
            b = int(self.levels[r_run[r]])
            k, p, bdc = int(cell[c] % n), int(pv[c]), int(bd[c])
            u_t = int(tested[c])
            if raw[c]:
                passed = (_phi_at_most(bdc, p, vol_total, *phi_q)
                          and _vol_window_ok(p, vol_total, b, 5, 6))
            else:
                passed = (_phi_at_most(bdc, p, vol_total, slackF.numerator, slackF.denominator)
                          and _vol_window_ok(p, vol_total, b, 11, 12))
            if not (passed and _mass_floor_ok(int(masses[r, u_t]), int(deg[u_t]), p, *gamma_q)):
                return None
            return SweepCandidate(int(r_t[r]), not raw[c],
                                  frozenset(view.verts[g_order[grp[r], :k + 1]].tolist()))

        found = {}
        # each run's first candidate, until it confirms or none is left
        while len(pair_row):
            runs_left = r_run[pair_row]
            drop = np.zeros(len(pair_row), dtype=bool)
            for i in np.flatnonzero(np.diff(runs_left, prepend=-1)).tolist():
                c, r = int(pair_cell[i]), int(pair_row[i])
                hit = confirm(c, r)
                if hit is None:
                    drop[i] = True
                    continue
                j = int(r_run[r])
                self.hits[j], found[j] = hit, hit.t
                drop |= runs_left == j
                row_trips[r] = _trips(rank[c] + 1, g_cnt[grp[r]])
                row_trips[r + 1:][r_run[r + 1:] == j] = 0
            pair_cell, pair_row = pair_cell[~drop], pair_row[~drop]
        np.add.at(self.trips, r_run, row_trips)
        self.last[r_run[tails]] = row_trips[tails]
        return found

    def outcome(self, i: int, run: WalkRun) -> tuple[SweepCandidate | None, int]:
        """The hit of the i-th run, walked as run, and the tree round trips of
        its scan, the frozen tail included."""
        hit = self.hits[i]
        tail = 0 if hit is not None else (run.t0 - run.t_last) * int(self.last[i])
        return hit, int(self.trips[i]) + tail


def scan_runs(view: ActiveView, pairs, params: WalkParams,
              profile: Profile) -> list[tuple[WalkRun, SweepCandidate | None, int]]:
    """Per (start, b) of pairs, its walk on view under params streamed into
    one `SweepScan` at params.phi and stopped at its hit: (run, hit or None,
    trips)."""
    scan = SweepScan(view, pairs, params, profile)
    runs = compute_walks(view, pairs, params, scan)
    return [(run, *scan.outcome(i, run)) for i, run in enumerate(runs)]


def scan_run(net: Network, run: WalkRun, depth: int, reached: int,
             hit: SweepCandidate | None, trips: int) -> SweepCandidate | None:
    """Charge the distributed scan of run, the walk whose `scan_runs`
    outcome is (hit, trips), as one ledger entry on a tree of the given
    depth that spans reached vertices, and return hit.  Every round trip
    costs the tree's depth in rounds and one message per tree edge, and a
    hit adds the broadcast of the accepted cut's membership."""
    passes = trips + (hit is not None)
    messages = passes * (max(1, reached) - 1)
    net.ledger.charge(net.phase, rounds=passes * depth, messages=messages,
                      edge_bits=(KIND_BITS + 2 * WORD_BITS) if messages else 0)
    return hit


# -- the local-cut family --------------------------------------------------------


def distributed_local_cut(net: Network, outcome: tuple) -> SweepCandidate | None:
    """Charge the distributed local cut of a `scan_runs` outcome (run, hit,
    trips) on run.view with full round accounting: the walk through its
    stop, the BFS tree of the edges it touched (`bfs_levels`: only its depth
    and size are read), and the scan's tree searches and checks on that
    tree.  Returns the hit."""
    run, hit, trips = outcome
    charge_walk(net, run)
    view = run.view
    depth = bfs_levels(net, run.start, view.edges_local[run.touched], view.verts)[0]
    reached = depth[depth < INF]
    return scan_run(net, run, int(reached.max()), len(reached), hit, trips)


def _check_algo_phi(phi: float):
    if not (0.0 < phi <= PHI_ALGO_MAX + 1e-12):
        raise BadPhi(f"phi={phi} outside (0, 1/12]")


@functools.cache
def _b_cdf(ell: int) -> np.ndarray:
    """The normalized cdf that `rng.choice(ell, p=probs)` searches, for probs
    proportional to 2^-1, ..., 2^-ell."""
    probs = np.array([2.0 ** -i for i in range(1, ell + 1)])
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_b(ell: int, rng: np.random.Generator) -> int:
    """A level b in 1..ell with probability proportional to 2^-b, drawn as
    `rng.choice` draws it: one `rng.random()` searched in the cdf."""
    return 1 + int(_b_cdf(ell).searchsorted(rng.random(), side="right"))


@dataclass(frozen=True)
class StartTree:
    """Degree-proportional starts in one view, drawn down a spanning tree of
    a view that contains it: the view's degrees by host id (vertices outside
    the view weigh 0) and their subtree sums, folded once for every draw."""

    tree: SpanningTree
    weights: np.ndarray
    sums: np.ndarray

    @classmethod
    def on(cls, view: ActiveView, tree: SpanningTree) -> "StartTree":
        """Raises Disconnected when the tree spans no vertex of the view
        (every token would stay at a root outside it)."""
        weights = np.zeros(view.graph.n, dtype=np.int64)
        weights[view.verts] = view.deg
        sums = subtree_sums(tree, weights)
        if sums[0] == 0 and tree.root not in view.active:
            raise Disconnected(f"start tree rooted at {tree.root} spans none of the "
                               f"{len(view)} vertices of the view")
        return cls(tree, weights, sums)

    def sample(self, net: Network, counts, rng: np.random.Generator) -> list[tuple[int, int]]:
        """The sorted (start, tag) landings of counts[tag] tokens per tag."""
        return sample_by_degree(net, self.tree, counts, rng, self.weights, self.sums)


def _draw_landings(net, k, ell, rng, starts: StartTree):
    """The (start, b) pairs of k instances, sorted: k levels b, then
    degree-proportional starts."""
    return starts.sample(net, Counter(draw_b(ell, rng) for _ in range(k)), rng)


@dataclass
class ConcurrentResult:
    members: frozenset | None
    aborted_overlap: bool


def concurrent_local_cuts(net: Network, view: ActiveView, mi: MultiInstanceParams,
                          depth: int, rng: np.random.Generator,
                          landings: list[tuple[int, int]], runs: dict) -> ConcurrentResult:
    """k concurrent randomized local cuts merged under the union-volume rule.

    mi holds the view's instance parameters; landings are the sorted (start,
    b) pairs of its k instances, drawn down a start tree of the given depth,
    which also prices the broadcasts; runs maps each pair to its `scan_runs`
    outcome on this view, whose run's touched edges and hit are the
    instance's.  Each instance draws its random 64-bit identifier from a
    generator spawned off rng.  Aborts to None when any edge participates in
    more than mi.w instances (the abort is broadcast over the host
    component).  Instances are ordered by their identifiers (ties by start
    id, then level), and the output is the largest prefix union within 23/24
    of the graph volume.  Round accounting is sequential-equivalent: an
    upper bound on any w-multiplexed schedule.
    """
    ids = [int(sub.integers(1 << 62)) for sub in rng.spawn(len(landings))]
    hits = [distributed_local_cut(net, runs[pair]) for pair in landings]
    participation = np.sum([runs[pair][0].touched for pair in landings], axis=0)  # per live edge
    if participation.max(initial=0) > mi.w:
        net.ledger.charge(net.phase, rounds=max(1, depth), messages=2 * view.m_live,
                          edge_bits=KIND_BITS)
        return ConcurrentResult(None, True)
    union: set[int] = set()
    union_vol = 0
    best: set[int] | None = None
    for _, _, hit in sorted(zip(ids, landings, hits), key=lambda inst: inst[:2]):
        if hit is not None:
            union_vol += view.graph.volume(hit.members - union)
            union |= hit.members
        if mi.union_small_enough(union_vol):
            best = set(union)
    net.ledger.charge(net.phase,
                      rounds=max(1, depth) * (2 + math.ceil(math.log2(max(2, mi.k)))),
                      messages=max(0, len(view) - 1), edge_bits=KIND_BITS + WORD_BITS)
    return ConcurrentResult(frozenset(best) if best else None, False)


def sparse_cut_partition(net: Network, view: ActiveView, phi: float, p: float,
                         profile: Profile, rng: np.random.Generator) -> frozenset:
    """Accumulate concurrent local cuts until 1/48 of the volume is captured,
    and return the accumulated vertex set, possibly empty.

    Hard guarantees checked downstream: the accumulated cut keeps volume at
    most 47/48 of the total, its per-iteration pieces are disjoint, and a
    non-empty result has conductance at most 47 * 276 * w * phi, with w the
    whole view's overlap budget (`overlap_budget`).

    Iterations are drawn, walked and scanned in batches on the current view
    (the whole view, then the view left after each removed piece): c =
    min(iterations left, WALK_BATCH_CELLS // (k * n)) iterations at a time,
    at least one.  Each draw charges a ledger of its own, and the
    bit-generator state after it is kept; the batch's distinct (start, b)
    pairs are walked in one `scan_runs` call.  Each iteration then restores
    its state, charges its draw to net and merges its instances, and a
    removed piece drops the rest of the batch.  Results, ledger and rng end
    equal to those of drawing and walking one iteration at a time.  The
    starts are drawn with the subtree sums of the current view, folded once
    per view.
    """
    _check_algo_phi(phi)
    vol0 = view.vol()
    m0 = max(1, view.m_live)
    walkp = derive_walk_params(m0, phi, profile)
    mi0 = derive_instance_params(vol0, walkp, p, profile)
    host_tree = bfs_tree(net, int(view.verts[0]), view.edges_local, view.verts)
    cur, starts = view, StartTree.on(view, host_tree)
    active = set(view.active)
    batch: list = []  # drawn iterations not yet merged: (landings, ledger, rng state)
    for it in range(1, mi0.s + 1):
        if len(cur) != len(active):  # the last iteration removed a piece
            cur, batch = view.subview(active), []
            starts = StartTree.on(cur, host_tree)
        if not batch:
            mi = derive_instance_params(cur.vol(), walkp, p, profile)
            for _ in range(max(1, min(mi0.s - it + 1, WALK_BATCH_CELLS // (mi.k * len(cur))))):
                scratch = Network(net.graph, RoundLedger(), net.bandwidth_bits, net.phase)
                landings = _draw_landings(scratch, mi.k, walkp.ell, rng, starts)
                batch.append((landings, scratch.ledger, rng.bit_generator.state))
            pairs = sorted({pair for landings, _, _ in batch for pair in landings})
            runs = dict(zip(pairs, scan_runs(cur, pairs, walkp, profile)))
        landings, drawn, state = batch.pop(0)
        rng.bit_generator.state = state  # as if the batch's later draws were not made
        for phase, t in drawn.phases.items():
            net.ledger.charge(phase, t.rounds, t.messages, t.max_bits)
        res = concurrent_local_cuts(net, cur, mi, host_tree.depth_max, rng, landings, runs)
        if res.members:
            active -= res.members
        if 48 * (vol0 - view.graph.volume(active)) >= vol0:
            break
    return view.active - active


@dataclass
class BalancedCutResult:
    """A proper, non-empty side of the view, the inner conductance its
    partition ran at, and the bound that certifies its conductance."""

    members: frozenset
    phi_inner: float
    h_bound: float  # certified conductance bound for this run


def balanced_sparse_cut(net: Network, view: ActiveView, phi_target: float,
                        profile: Profile, rng: np.random.Generator,
                        p: float | None = None) -> BalancedCutResult | None:
    """Nearly-most-balanced sparse cut: re-parameterized cut accumulation.

    The inner conductance solves f(phi') = phi_target (capped at 1/12); the
    recorded h bound certifies the output conductance.  Returns None when
    the accumulated cut is empty or the whole view.
    """
    n_view = len(view)
    if profile.enforce_phi_cap:
        cap = 1.0 / math.log2(max(4, n_view)) ** 5
        if phi_target > cap:
            raise BadPhi(f"phi={phi_target} above profile cap {cap}")
    if phi_target <= 0:
        raise BadPhi(f"phi={phi_target}")
    m_view = max(1, view.m_live)
    ln_e4 = math.log(m_view) + 4.0
    phi_inner = min((phi_target * profile.c_f * ln_e4**2) ** (1.0 / 3.0), PHI_ALGO_MAX)
    if p is None:
        p = 1.0 / max(2, n_view) ** 2
    members = sparse_cut_partition(net, view, phi_inner, p, profile, rng)
    if not members or members == view.active:
        return None
    h_bound = min(1.0, _K_ACCUM * _K_CONCURRENT * overlap_budget(view.vol()) * phi_inner)
    return BalancedCutResult(members, phi_inner, h_bound)
