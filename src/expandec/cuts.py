"""Sweep-cut search on truncated walks and the nearly-most-balanced sparse cut.

A local cut scans only a geometric candidate subsequence of the sweep
order, locating each candidate by randomized binary search on a spanning tree
of the participating edges and accepting jump candidates under a relaxed
conductance bound; every simulated round is charged.  The centralized scans
(every prefix, or the same subsequence without rounds), which the analysis
uses, are per-step test references in `tests/helpers_h.py`.

Spanning trees are `bfs_tree` sweeps over the view's adjacency (the host
tree) or the walk's touched live edges (each local cut's tree).  Like walks
and scans, they are charged by formula, so a cut runs no `Network` round.

The scan takes the stored walk steps in the blocks of `walks.sweep_blocks`:
the whole run in one block on a small view; on a dense view a first block
of few rows, so an early hit sweeps few rows past it, then blocks that double
up to a cap set by the vertex count.  One `walks.sweep_tables` call gives
every step of a block its sweep order, prefix volumes and prefix boundaries,
and the candidate tests run on whole blocks, so no Python loop runs once per
walk step.  The outcome is the earliest hit in step order
whatever the blocks.  The simulated cost is still the per-step cost, summed
into one ledger entry per scan.

All conductance and volume threshold comparisons are exact: thresholds arrive
as binary floats and are compared through their integer ratios.

Cut accumulation runs its later iterations' walks early.  An iteration's
levels and starts are drawn from the rng before its walks, and they depend on
earlier iterations only through the view, which changes only when a cut is
found.  So after iteration 1, while no cut has been found, the next
iterations' (start, b) pairs are drawn ahead on a copy of the rng and run as
one `walks.compute_walks` batch of at most WALK_BATCH_CELLS walk states per
step.  Each iteration still draws from the rng itself and charges the ledger;
it takes a prefetched walk only when its view, start and level are the
prefetched ones, so the outcome is that of running every walk alone.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap

import numpy as np

from .config import Profile
from .errors import BadPhi
from .graph import Cut, adjacency_csr
from .simulator import (KIND_BITS, WORD_BITS, Network, RoundLedger, SpanningTree, bfs_tree,
                        sample_by_degree)
from .views import ActiveView
from .walks import (
    SCALE,
    WalkParams,
    WalkRun,
    charge_walk,
    compute_walk,
    compute_walks,
    derive_walk_params,
    sweep_blocks,
    sweep_order_local,
)

PHI_ALGO_MAX = 1.0 / 12.0
# Conductance chain of cut accumulation, Phi(C) <= 47 * 276 * w * phi with the
# overlap budget w = 10 * ceil(ln vol); recorded in the decomposition's JSON.
K_PHI_PARTS = (47, 276, 10)
_K_ACCUM, _K_CONCURRENT, _K_W = K_PHI_PARTS
# Walk states per step that a partition's prefetched batch may hold (columns
# times view vertices): as many as one walk on a 512-vertex view.  Batching
# pays where numpy call overhead dominates a step; on larger views it does not.
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


def derive_instance_params(vol: int, walkp: WalkParams, p: float,
                           profile: Profile) -> MultiInstanceParams:
    if not (0.0 < p < 1.0):
        raise ValueError(f"p={p} outside (0, 1)")
    q = participation_budget(walkp, profile)
    k = max(1, math.ceil(vol / q))
    w = _K_W * max(1, math.ceil(math.log(max(vol, 2))))
    g = math.ceil(10 * w * q)
    if profile.g_cap is not None:
        g = min(g, profile.g_cap)
    s = 4 * g * math.ceil(math.log(1.0 / p) / math.log(7.0 / 4.0))
    if profile.s_cap is not None:
        s = min(s, profile.s_cap)
    return MultiInstanceParams(vol, k, max(_K_W, w), max(1, s))


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
    pv + floor(pv * phi).  The float floor is redone in integers where
    pv * phi lies within 2^-50 (relative) of an integer."""
    rows, n = prefvol.shape
    prod = prefvol * phi
    near = np.flatnonzero(abs(np.rint(prod) - prod) <= prod * 2.0**-50)
    ext = np.floor(prod, out=prod).astype(np.int64)
    del prod  # one (B x n) array less under the searchsorted below
    if len(near):
        phi_num, phi_den = _ratio(phi)
        vals, inv = np.unique(prefvol.ravel()[near], return_inverse=True)
        ext.ravel()[near] = np.array([(pv * phi_num) // phi_den for pv in vals.tolist()])[inv]
    # rows are offset past each other's largest threshold (2 * total volume),
    # so one searchsorted over the flat block counts within each row
    key = prefvol + np.arange(rows)[:, None] * (2 * int(prefvol[:, -1].max(initial=0)) + 1)
    ext += key
    flat = np.searchsorted(key.ravel(), ext.ravel(), side="right").reshape(rows, n)
    flat -= np.arange(rows)[:, None] * n
    return np.minimum(flat, cnt[:, None], out=flat)


# -- round charging for the distributed scan -----------------------------------


class ScanCharger:
    """Round/message cost of one distributed sweep scan, charged as a single
    ledger entry (the sum of the per-step costs).

    Each walk step's scan checks candidates in tree round trips and locates
    every jump candidate by a tree search, charged deterministically at the
    with-high-probability iteration scale: ceil(log2 band) + 2 iterations
    per search, each four tree passes.  No search runs here; the randomized
    search, which charges the iterations its draws take, is a test reference.
    """

    def __init__(self, net: Network, depth: int, size: int):
        self.net = net
        self.depth = depth
        self.size = max(1, size)

    def step_costs(self, n_checks: np.ndarray, band: np.ndarray):
        """(rounds, messages) of each step's scan; n_checks - 1 searches each."""
        iters = np.ceil(np.log2(np.maximum(2, band))).astype(np.int64) + 2
        searches = np.maximum(n_checks - 1, 0)
        trips = n_checks * 2 + searches * iters * 4
        return trips * self.depth, trips * (self.size - 1)

    def broadcast_costs(self):
        """(rounds, messages) of broadcasting the accepted cut's membership."""
        return self.depth, self.size - 1

    def charge(self, rounds: int, messages: int):
        self.net.ledger.charge(self.net.phase, rounds=rounds, messages=messages,
                               edge_bits=(KIND_BITS + 2 * WORD_BITS) if messages else 0)


# -- the scan -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCandidate:
    """The accepted sweep prefix: step, index, and its exact statistics."""

    t: int
    j: int
    starred: bool
    prefix_volume: int
    boundary: int
    conductance: Fraction
    rho_at_j: float


@dataclass
class LocalCutResult:
    members: frozenset | None
    cut: Cut | None
    start: int
    b: int
    view: ActiveView
    touched: np.ndarray  # the walk's WalkRun.touched


def scan_run(view: ActiveView, run: WalkRun, phi: float, b: int, profile: Profile,
             charger: ScanCharger) -> SweepCandidate | None:
    """First (t, j) hit of the sweep conditions, or None.

    The stored steps t = 1..min(t0, t_last) are scanned in the blocks of
    `sweep_blocks`, stopping after the first block with a hit.  Each row
    steps through the geometric candidate subsequence: a step to j_prev + 1
    is tested under the raw conditions, a jump under the slack conditions
    against u_prev, and the next candidate is max(j + 1, j*), with j* the
    number of prefix volumes at most (1 + phi) * prefvol[j].  All live rows
    of a block advance one candidate per numpy pass; the hit is the one in
    the earliest row.  Candidates are prefiltered with float masks whose
    margins strictly dominate rounding error, then confirmed in exact integer
    arithmetic, so the outcome equals a fully exact scan.

    The charger is charged once: the steps up to the hit plus the membership
    broadcast, or, without a hit, every step plus the frozen tail, whose
    t0 - t_last steps repeat the last stored step's scan.
    """
    vol_total = view.vol()
    n = len(view.verts)
    phi_num, phi_den = _ratio(phi)
    slackF = Fraction(profile.starred_slack) * Fraction(phi)
    slack_num, slack_den = slackF.numerator, slackF.denominator
    slack_f = float(slackF)
    gam = run.params.gamma
    g_num, g_den = _ratio(gam)
    deg = view.deg
    rounds = msgs = 0
    last_step = (0, 0)  # cost of the last stored step's scan

    def scan_block(t_first: int, masses: np.ndarray, tables) -> SweepCandidate | None:
        """The block's hit, or None; charges the block's steps up to the hit."""
        nonlocal rounds, msgs, last_step
        order, cnt, prefvol, bnds = tables
        rows = len(cnt)
        above_floor = 14 * prefvol >= 5 * (1 << b)
        rho_j = np.take_along_axis(masses, order, axis=1) / view.deg_pos[order]
        raw_mask = (_phi_prefilter(bnds, prefvol, vol_total, phi)
                    & (6 * prefvol <= 5 * vol_total) & above_floor
                    & _mass_floor_prefilter(rho_j, prefvol, gam))

        def confirm(r: int, k: int, k_prev: int | None) -> SweepCandidate | None:
            """Exact test of 0-based index k of row r (starred when k_prev is
            given: a jump from k_prev)."""
            pv, bd = int(prefvol[r, k]), int(bnds[r, k])
            u = order[r, k]
            if k_prev is None:
                ok = (_phi_at_most(bd, pv, vol_total, phi_num, phi_den)
                      and _mass_floor_ok(int(masses[r, u]), int(deg[u]), pv, g_num, g_den)
                      and _vol_window_ok(pv, vol_total, b, 5, 6))
            else:
                u_prev = order[r, k_prev]
                ok = (_phi_at_most(bd, pv, vol_total, slack_num, slack_den)
                      and _mass_floor_ok(int(masses[r, u_prev]), int(deg[u_prev]), pv,
                                         g_num, g_den)
                      and _vol_window_ok(pv, vol_total, b, 11, 12))
            if not ok:
                return None
            return SweepCandidate(
                t_first + r, k + 1, k_prev is not None, pv, bd,
                Fraction(0) if bd == 0 else Fraction(bd, min(pv, vol_total - pv)),
                int(masses[r, u]) / (SCALE * int(deg[u])),
            )

        star_mask = (_phi_prefilter(bnds, prefvol, vol_total, slack_f)
                     & (12 * prefvol <= 11 * vol_total) & above_floor)
        # The candidate walk runs over flat cells row * n + index; nxt is each
        # cell's next candidate, max(j + 1, j*).
        row_start = np.arange(rows)[:, None] * n
        nxt = np.maximum(np.arange(1, rows * n + 1),
                         (row_start + _jstar(prefvol, cnt, phi)).ravel() - 1)
        more = (np.arange(1, n + 1) < cnt[:, None]).ravel()  # a later candidate exists
        raw_flat, star_flat = raw_mask.ravel(), star_mask.ravel()

        found = None
        pos = np.flatnonzero(cnt) * n
        prev = pos - 1
        visited = [pos]
        while len(pos):
            raw = pos == prev + 1
            pre = np.where(raw, raw_flat[pos], star_flat[pos])
            if pre.any():
                for i in np.flatnonzero(pre).tolist():
                    r, k = divmod(int(pos[i]), n)
                    cand = confirm(r, k, None if raw[i] else int(prev[i]) - r * n)
                    if cand is not None:
                        found, hit_row = cand, r
                        break
            keep = more[pos]
            if found is not None:
                keep &= pos < hit_row * n
            prev = pos[keep]
            pos = nxt[prev]
            visited.append(pos)
        n_checks = np.bincount(np.concatenate(visited) // n, minlength=rows)
        step_rounds, step_msgs = charger.step_costs(n_checks, cnt)
        upto = rows if found is None else hit_row + 1
        rounds += int(step_rounds[:upto].sum())
        msgs += int(step_msgs[:upto].sum())
        last_step = (int(step_rounds[-1]), int(step_msgs[-1]))
        return found

    # starmap holds no block once scan_block returns, so a block's arrays are
    # freed before the next block's tables are built
    found = None
    for found in starmap(scan_block, sweep_blocks(view, run, min(run.t0, run.t_last))):
        if found is not None:
            break
    if found is not None:
        extra = charger.broadcast_costs()
    else:
        tail = run.t0 - run.t_last  # frozen steps repeat the last stored scan
        extra = (tail * last_step[0], tail * last_step[1])
    charger.charge(rounds + extra[0], msgs + extra[1])
    return found


# -- the local-cut family --------------------------------------------------------


def _result_from_candidate(view: ActiveView, run: WalkRun, cand: SweepCandidate | None,
                           start: int, b: int) -> LocalCutResult:
    if cand is None:
        return LocalCutResult(None, None, start, b, view, run.touched)
    order = sweep_order_local(view, run.masses[cand.t])
    members = frozenset(int(view.verts[i]) for i in order[: cand.j])
    cut = view.cut_stats(members)
    return LocalCutResult(members, cut, start, b, view, run.touched)


def distributed_local_cut(net: Network, view: ActiveView, v: int, phi: float, b: int,
                          params: WalkParams, profile: Profile,
                          run: WalkRun | None = None) -> LocalCutResult:
    """Distributed local cut: simulated walk, tree-search candidate location,
    slack conditions on jump candidates, full round accounting.

    A prefetched run stands in for the walk when it is the walk from v at
    level b on this very view; it is charged as the walk would be."""
    _check_algo_phi(phi)
    if run is None or run.view is not view or (run.start, run.b, run.params) != (v, b, params):
        run = compute_walk(view, v, params, b, net=net)
    else:
        charge_walk(net, run)
    tree = bfs_tree(net, v, adjacency_csr(len(view), view.edges_local[run.touched]),
                    view.verts)
    charger = ScanCharger(net, tree.depth_max, len(tree.hosts))
    cand = scan_run(view, run, phi, b, profile, charger)
    return _result_from_candidate(view, run, cand, v, b)


def _check_algo_phi(phi: float):
    if not (0.0 < phi <= PHI_ALGO_MAX + 1e-12):
        raise BadPhi(f"phi={phi} outside (0, 1/12]")


def draw_b(ell: int, rng: np.random.Generator) -> int:
    probs = np.array([2.0 ** -i for i in range(1, ell + 1)])
    probs /= probs.sum()
    return 1 + int(rng.choice(ell, p=probs))


def _draw_landings(net, view, k, ell, rng, host_tree):
    """The (start, b) pairs of k instances, sorted: k levels b, then
    degree-proportional starts."""
    return _sample_starts(net, view, Counter(draw_b(ell, rng) for _ in range(k)), rng, host_tree)


def _sample_starts(net, view, counts, rng, host_tree):
    """Degree-proportional starts in view, drawn down host_tree, a spanning
    tree of a view that contains it; vertices outside the view weigh 0."""
    weights = np.zeros(net.graph.n, dtype=np.int64)
    weights[view.verts] = view.deg
    return sample_by_degree(net, host_tree, counts, rng, weights)


@dataclass
class ConcurrentResult:
    members: frozenset | None
    cut: Cut | None
    aborted_overlap: bool
    params: MultiInstanceParams
    instances: list[LocalCutResult]


def concurrent_local_cuts(net: Network, view: ActiveView, phi: float,
                          walkp: WalkParams, profile: Profile,
                          rng: np.random.Generator, host_tree: SpanningTree, p: float,
                          runs: dict | None = None) -> ConcurrentResult:
    """k concurrent randomized local cuts merged under the union-volume rule.

    Starts are drawn down host_tree, a spanning tree of a view that contains
    this one, whose depth also prices the broadcasts.  Aborts to None when
    any edge participates in more than w instances (the abort is broadcast
    over the host component).  Instances are ordered by their random 64-bit
    identifiers (ties by start id, then level), and the output is the
    largest prefix union within 23/24 of the graph volume.
    Round accounting is sequential-equivalent: an upper bound on any
    w-multiplexed schedule.  `runs` maps (start, b) to prefetched walks
    (see `distributed_local_cut`).
    """
    _check_algo_phi(phi)
    mi = derive_instance_params(view.vol(), walkp, p, profile)
    landings = _draw_landings(net, view, mi.k, walkp.ell, rng, host_tree)
    sub_rngs = rng.spawn(len(landings))
    instances: list[LocalCutResult] = []
    ids: list[int] = []
    runs = runs or {}
    for (v, b), sub in zip(landings, sub_rngs):
        ids.append(int(sub.integers(1 << 62)))
        instances.append(distributed_local_cut(net, view, v, phi, b, walkp, profile,
                                               runs.get((v, b))))
    participation = np.sum([res.touched for res in instances], axis=0)  # per live edge
    depth = host_tree.depth_max
    if participation.max(initial=0) > mi.w:
        net.ledger.charge(net.phase, rounds=max(1, depth), messages=2 * view.m_live,
                          edge_bits=KIND_BITS)
        return ConcurrentResult(None, None, True, mi, instances)
    seq = sorted(range(len(instances)),
                 key=lambda i: (ids[i], instances[i].start, instances[i].b))
    union: set[int] = set()
    union_vol = 0
    best: set[int] | None = None
    for i in seq:
        mem = instances[i].members
        if mem:
            union_vol += view.vol_of(mem - union)
            union |= mem
        if mi.union_small_enough(union_vol):
            best = set(union)
    net.ledger.charge(net.phase,
                      rounds=max(1, depth) * (2 + math.ceil(math.log2(max(2, mi.k)))),
                      messages=max(0, len(view) - 1), edge_bits=KIND_BITS + WORD_BITS)
    if not best:
        return ConcurrentResult(None, None, False, mi, instances)
    members = frozenset(best)
    cut = view.cut_stats(members) if members != view.active else None
    return ConcurrentResult(members, cut, False, mi, instances)


@dataclass
class PartitionResult:
    members: frozenset          # possibly empty
    cut: Cut | None             # stats w.r.t. the graph the call started from
    pieces: list[frozenset]     # disjoint per-iteration cuts, in order
    iterations: int
    s_budget: int
    w_max: int
    phi: float
    k_phi: float                # recorded constant: Phi(C) <= k_phi * phi * log2(|V|)
    concurrent: list[ConcurrentResult]


def sparse_cut_partition(net: Network, view: ActiveView, phi: float, p: float,
                         profile: Profile, rng: np.random.Generator) -> PartitionResult:
    """Accumulate concurrent local cuts until 1/48 of the volume is captured.

    Hard guarantees checked downstream: the accumulated cut keeps volume at
    most 47/48 of the total, pieces are disjoint, and a non-empty result has
    conductance at most 47 * 276 * w * phi.

    Iteration 1 walks alone.  From iteration 2, while no piece has been
    removed, the walks of the next c = min(iterations left,
    WALK_BATCH_CELLS // (k * n)) iterations are prefetched as one batch
    (`_prefetch_walks`), refilled when those are used up; a batch of fewer
    than two walks is not run.  Results, ledger and rng end equal to those
    of walking every instance alone.
    """
    _check_algo_phi(phi)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p={p}")
    vol0 = view.vol()
    m0 = max(1, view.m_live)
    walkp = derive_walk_params(m0, phi, profile)
    mi0 = derive_instance_params(vol0, walkp, p, profile)
    host_tree = bfs_tree(net, int(view.verts[0]), view.adj_matrix, view.verts)
    active = set(view.active)
    pieces: list[frozenset] = []
    concurrent: list[ConcurrentResult] = []
    w_max = mi0.w
    runs: dict = {}  # prefetched walks on view, by (start, b)
    drawn = 1  # the last iteration whose walks were prefetched
    it = 0
    for it in range(1, mi0.s + 1):
        if pieces:
            cur, runs = view.subview(active), {}
        else:
            cur = view
            if it > drawn:
                cols = min(mi0.s - it + 1, WALK_BATCH_CELLS // (mi0.k * len(view)))
                if cols * mi0.k < 2:  # a batch of one walk gains nothing
                    drawn = mi0.s
                else:
                    runs = _prefetch_walks(net, view, walkp, mi0.k, cols, rng, host_tree)
                    drawn = it + cols - 1
        res = concurrent_local_cuts(net, cur, phi, walkp, profile, rng, host_tree, p, runs)
        concurrent.append(res)
        w_max = max(w_max, res.params.w)
        if res.members:
            pieces.append(res.members)
            active -= res.members
        removed_vol = vol0 - view.vol_of(active)
        if 48 * removed_vol >= vol0:
            break
    members = frozenset().union(*pieces) if pieces else frozenset()
    cut = view.cut_stats(members) if members and members != view.active else None
    n_view = max(2, len(view))
    k_phi = _K_ACCUM * _K_CONCURRENT * w_max / math.log2(n_view)
    return PartitionResult(members, cut, pieces, it, mi0.s, w_max, phi, k_phi, concurrent)


def _prefetch_walks(net: Network, view: ActiveView, walkp: WalkParams, k: int, iters: int,
                    rng: np.random.Generator, host_tree: SpanningTree) -> dict:
    """The walks of the next iters partition iterations on view, by (start, b),
    run as one `compute_walks` batch of the distinct pairs.

    The pairs are those the iterations draw if none of them finds a cut: on
    a generator whose bit generator copies rng's state, charging a throwaway
    ledger.  An iteration draws only through its bit generator (its sub-rngs
    are spawned from the seed sequence), so the prediction holds until a cut
    changes the view; rng itself and net's ledger are left untouched."""
    bits = type(rng.bit_generator)()
    bits.state = rng.bit_generator.state
    ahead = np.random.Generator(bits)
    scratch = Network(net.graph, RoundLedger(), net.bandwidth_bits, net.phase)
    pairs = sorted({pair for _ in range(iters)
                    for pair in _draw_landings(scratch, view, k, walkp.ell, ahead, host_tree)})
    return dict(zip(pairs, compute_walks(view, pairs, walkp)))


@dataclass
class BalancedCutResult:
    members: frozenset
    cut: Cut
    phi_inner: float
    h_bound: float  # certified conductance bound for this run


def balanced_sparse_cut(net: Network, view: ActiveView, phi_target: float,
                        profile: Profile, rng: np.random.Generator,
                        p: float | None = None) -> BalancedCutResult | None:
    """Nearly-most-balanced sparse cut: re-parameterized cut accumulation.

    The inner conductance solves f(phi') = phi_target (capped at 1/12); the
    recorded h bound certifies the output conductance.  Returns None for an
    empty result.
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
    part = sparse_cut_partition(net, view, phi_inner, p, profile, rng)
    if not part.members or part.cut is None:
        return None
    h_bound = min(1.0, _K_ACCUM * _K_CONCURRENT * part.w_max * phi_inner)
    return BalancedCutResult(part.members, part.cut, phi_inner, h_bound)
