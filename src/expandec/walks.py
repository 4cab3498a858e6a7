"""Truncated lazy random walk kernel, streamed into its sweep.

Mass is carried in fixed point: 48 fractional bits inside a 64-bit word, so a
probability value fits one O(log n)-bit message; the step arithmetic is exact
in int64 for every degree below 2^30.  The step uses floor rounding
everywhere, which makes it sub-stochastic and monotone: the truncated walk is
pointwise dominated by the untruncated walk, and the fixed-point walk is
pointwise dominated by the exact walk, with per-entry divergence below
t * 2^-40 on test-scale degrees.

The walk on a view G{W} keeps each vertex's loop share in place: a vertex with
mass p keeps floor(p * (2 deg - live) / (2 deg)) and sends floor(p / (2 deg))
along each live edge.  The sent shares go through scipy's compiled CSR product
(`csr_matvec`, where `csr_matrix.dot` ends, or `csr_matvecs` for a block of
columns) straight into the next state: on views of tens of vertices the
Python-level sparse dispatch costs more than the product.

`compute_walks` runs walks from several (start, b) pairs on one view side by
side, as the columns of one (n x c) block: one step is one divmod and one
product for every column, where on small views numpy's per-call overhead,
not the arithmetic, is what a step costs.  It advances in blocks of steps
that start at FREEZE_BLOCK and double up to SWEEP_BLOCK_CELLS cells, and
hands each block's fresh states to a sweep (the local cuts' scan, or the
falsifier's fold) before it drops them.  A column stops at the step where
its sweep hits, at its freeze or at t0, and keeps only its stop, its
charges and its touched edges: a walk never holds more than one block of
states.  Every local cut is walked in such a batch (`cuts.scan_runs`);
`compute_walk`, the one-column case, walks the falsifier.

The sweep tables of a block of states (sort by rho, prefix volumes and
boundaries) are built here too, for both sweeps.  The sort by rho has two
exact paths, chosen by row length alone: rows shorter than STABLE_SORT_MAX
= 128 take a stable argsort; longer rows take numpy's SIMD argsort and then
a pass that puts each run of equal keys in index order.  A row sorted by
key with every run of equal keys in index order is the stable order, so
both paths give the same order.  128 is where, in a synthetic
microbenchmark, the SIMD path starts to save more on a row with no tie
than it loses on a tied row (`sweep_orders` gives the figures).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .config import Profile
from .errors import BadPhi
from .simulator import KIND_BITS, WORD_BITS, Network
from .views import ActiveView

SCALE_BITS = 48
SCALE = 1 << SCALE_BITS
MASS_MSG_BITS = KIND_BITS + 2 * WORD_BITS  # kind + instance tag + fixed-point value
SWEEP_BLOCK_CELLS = 1 << 16  # cells per block of walk states, sweep table or edge chunk
FREEZE_BLOCK = 16  # steps of compute_walks' first block and between its freeze checks
STABLE_SORT_MAX = 128  # sweep rows shorter than this take the stable argsort


@dataclass(frozen=True)
class WalkParams:
    """Horizon, detectability, mass floor, and truncation schedule for one phi."""

    m: int
    phi: float
    ell: int
    t0: int
    f_phi: float
    gamma: float
    eps_base: float  # eps_b = eps_base / 2**b

    def eps_b(self, b: int) -> float:
        return self.eps_base / (1 << b)

    def eps_units(self, b: int) -> int:
        return int(round(self.eps_b(b) * SCALE))


def derive_walk_params(m: int, phi: float, profile: Profile) -> WalkParams:
    if not (0.0 < phi <= 1.0):
        raise BadPhi(f"phi={phi} outside (0, 1]")
    if m < 1:
        raise ValueError("need at least one edge")
    ln_e2 = math.log(m) + 2.0
    ln_e4 = math.log(m) + 4.0
    ell = max(1, math.ceil(math.log2(m)))
    t0 = max(1, math.ceil(profile.c_t0 * ln_e2 / phi**2))
    f_phi = phi**3 / (profile.c_f * ln_e4**2)
    gamma = 5.0 * phi / (profile.c_gamma * ln_e4)
    eps_base = phi / (profile.c_eps * ln_e4 * t0)
    return WalkParams(m, phi, ell, t0, f_phi, gamma, eps_base)


# -- fixed-point kernel -----------------------------------------------------


def _step_units(adj, mass: np.ndarray, two_d: np.ndarray, keep_num: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """One fixed-point lazy step over a view, written to out and returned: of
    one state (an int64 array indexed like view.verts), or of c states as
    the columns of a row-major (n x c) block; out is row-major and shaped
    like mass.

    two_d = 2 deg and keep_num = 2 deg - live are the view's step constants
    (an isolated vertex counts deg 1: it keeps its mass and sends none),
    shaped like mass: every operand is then contiguous, so no numpy loop
    runs over the c columns of one vertex at a time.  The compiled CSR
    product adds the shares sent along live edges into the kept array in
    place, one `csr_matvecs` call for every column."""
    shares, rem = np.divmod(mass, two_d)
    # floor(mass * keep_num / two_d) with mass = shares * two_d + rem, so no
    # int64 product exceeds max(SCALE, 4 deg^2); in place, as allocations
    # cost more than the arithmetic on small views
    rem *= keep_num
    rem //= two_d
    kept = np.multiply(shares, keep_num, out=out)
    kept += rem
    n = len(mass)
    if mass.ndim == 1:  # kept += adj @ shares
        csr_matvec(n, n, adj.indptr, adj.indices, adj.data, shares, kept)
    else:
        csr_matvecs(n, n, mass.shape[1], adj.indptr, adj.indices, adj.data,
                    shares.ravel(), kept.ravel())
    return kept


@dataclass
class WalkRun:
    """What a truncated walk leaves once its states have streamed through its
    sweep: where it stopped and what it charges.

    A walk stops at the step where its sweep hits (`hit`, at `t_last`), or
    runs to t0; once the fixed-point state repeats exactly it is frozen (all
    later steps are identical), and `t_last` is its last distinct step.  Its
    rounds and messages are those of the states before the stop: 0..t_last-1
    after a hit, else all t0 steps, the frozen tail included.  `touched`
    marks the live edges with an end that held mass in a state up to the
    stop.
    """

    view: ActiveView
    start: int
    b: int
    params: WalkParams
    t_last: int
    freeze_t: int | None
    hit: bool
    touched: np.ndarray  # bool per row of view.edges_local
    messages: int

    @property
    def t0(self) -> int:
        return self.params.t0

    @property
    def rounds(self) -> int:
        return self.t_last if self.hit else self.t0


def compute_walks(view: ActiveView, pairs, params: WalkParams, sweep) -> list[WalkRun]:
    """Run the truncated walks from each (start, b) of pairs side by side, as
    the columns of one (n x c) block, each streamed into sweep and stopped at
    its hit, its freeze or t0.

    Each step is one `_step_units` step on the block; column j's
    truncation floor is 2 eps_b deg for its own b.  Steps run in blocks: the
    first of min(FREEZE_BLOCK, SWEEP_BLOCK_CELLS // (c max(n, live edges)))
    steps (at least 1), each later one twice as long, up to
    SWEEP_BLOCK_CELLS // n rows of all columns' states; every
    FREEZE_BLOCK steps a block ends early once every column repeats its
    state.  In a block, a column's first pair of equal consecutive states is
    its freeze, since the step map is deterministic, and its states after it
    are left out.  Its fresh states then go, column after column, to
    sweep(masses, r_run, r_t): a (rows x n) array with the pair and the step
    of each row, which returns {pair: step} of the hits among them.  The
    same block gives every column's senders and support up to its stop; a
    column that hit, froze or reached t0 leaves the block, and the block is
    dropped.  So no more than one block of states is held at a time.

    Each step is one synchronous round: every vertex with mass at least
    2 deg sends its fixed-point share along each live edge; after a walk
    freezes, the remaining rounds up to t0 repeat its last messages.  The
    runs come back in the order of pairs; no pairs give no runs.
    """
    n, c, t0 = len(view.verts), len(pairs), params.t0
    if not c:
        return []
    mass = np.zeros((n, c), dtype=np.int64)
    mass[[view.index[v] for v, _ in pairs], np.arange(c)] = SCALE
    runs: list[WalkRun | None] = [None] * c
    ea, eb = view.edges_local.T
    adj, two_d = view.adj_matrix, view.two_deg[:, None]
    floor = two_d * np.array([params.eps_units(b) for _, b in pairs], dtype=np.int64)
    if c == 1:  # one walk steps a vector
        mass, floor, step_two_d, step_keep = mass[:, 0], floor[:, 0], view.two_deg, view.keep_num
    else:
        step_two_d, step_keep = (np.repeat(x[:, None], c, axis=1)
                                 for x in (view.two_deg, view.keep_num))
    support = mass.reshape(n, -1) != 0
    msgs = np.zeros(c, dtype=np.int64)
    live = np.arange(c)  # the pair of each column of the block
    done = 0  # every live column's states 0..done are swept and counted
    steps = min(FREEZE_BLOCK, max(1, SWEEP_BLOCK_CELLS // (max(n, view.m_live) * c)))
    while True:
        s = min(steps, t0 - done)
        blk = np.empty((s + 1, *mass.shape), dtype=np.int64)
        blk[0] = mass
        for i in range(s):
            nxt = _step_units(adj, blk[i], step_two_d, step_keep, blk[i + 1])
            nxt[nxt < floor] = 0
            if i % FREEZE_BLOCK == FREEZE_BLOCK - 1 and np.array_equal(nxt, blk[i]):
                s, blk = i + 1, blk[:i + 2]  # every column is frozen: the block ends
                break
        cube = blk.reshape(s + 1, n, -1)  # (states, n, columns)
        same = (cube[1:] == cube[:-1]).all(axis=1)
        frozen = same.any(axis=0)
        fresh = np.where(frozen, same.argmax(axis=0), s)  # each column's new distinct states
        rows = cube[1:].transpose(2, 0, 1)[np.arange(s) < fresh[:, None]]
        r_t = done + 1 + np.arange(len(rows)) - np.repeat(np.cumsum(fresh) - fresh, fresh)
        hits = sweep(rows, np.repeat(live, fresh), r_t) if len(rows) else {}
        del rows
        # each column counts the block's states up to its hit, or all of them
        upto, hit = np.full(len(live), s), np.zeros(len(live), dtype=bool)
        reached = cube.any(axis=0)
        for pair, t in hits.items():
            j = int(np.searchsorted(live, pair))
            upto[j], hit[j] = t - done, True
            reached[:, j] = cube[:t - done + 1, :, j].any(axis=0)
        support |= reached
        # state s sends in step s + 1; the block's last state sends in the next block
        senders = view.live_deg @ (cube >= two_d)
        msgs += np.cumsum(senders, axis=0)[upto - 1, np.arange(len(live))]
        done += s
        # every state after a freeze equals the last one, which sends in each
        # of the remaining steps up to t0
        msgs += np.where(frozen & ~hit, t0 - done, 0) * senders[-1]
        ended = hit | frozen | (done == t0)
        for j in np.flatnonzero(ended).tolist():
            i = int(live[j])
            t_last = done - s + int(upto[j] if hit[j] else fresh[j])
            freeze_t = t_last if frozen[j] and not hit[j] else None
            runs[i] = WalkRun(view, *pairs[i], params, t_last, freeze_t, bool(hit[j]),
                              support[ea, j] | support[eb, j], int(msgs[j]))
        if ended.all():
            return runs
        mass = blk[-1].copy()
        del blk, cube
        if ended.any():  # row-major blocks of the columns left
            keep = ~ended
            live, support, msgs = live[keep], support[:, keep], msgs[keep]
            mass, floor, step_two_d, step_keep = (np.ascontiguousarray(x[:, keep]) for x in (
                mass, floor, step_two_d, step_keep))
        steps = max(1, min(2 * steps, SWEEP_BLOCK_CELLS // (n * len(live))))


def charge_walk(net: Network, run: WalkRun):
    """Charge a walk's rounds and messages as one ledger entry; raises
    BadPhi when one mass message exceeds the network's bandwidth."""
    if MASS_MSG_BITS > net.bandwidth_bits:
        raise BadPhi(f"mass message ({MASS_MSG_BITS}b) exceeds bandwidth {net.bandwidth_bits}")
    net.ledger.charge(net.phase, rounds=run.rounds, messages=run.messages,
                      edge_bits=MASS_MSG_BITS if run.messages else 0)


def compute_walk(view: ActiveView, start: int, params: WalkParams, b: int, sweep) -> WalkRun:
    """The truncated walk from start at level b, streamed into sweep: the
    one-column case of `compute_walks`, charging nothing."""
    (run,) = compute_walks(view, [(start, b)], params, sweep)
    return run


# -- sweep machinery ---------------------------------------------------------


def sweep_tables(view: ActiveView, masses: np.ndarray):
    """Sweep tables for a (B x n) block of walk states, one row per state:
    the `sweep_orders` of the block and the `prefix_tables` of those orders,
    as (order, cnt, prefvol, bnds)."""
    order, cnt = sweep_orders(view, masses)
    return (order, cnt, *prefix_tables(view, order))


def sweep_orders(view: ActiveView, masses: np.ndarray):
    """(order, cnt) of a (B x n) block of walk states: `order` sorts local
    indices by rho = mass / deg descending (the correctly rounded float
    quotient, so equal ratios compare equal; ties go to the lower local
    index, i.e. the lower host id) and `cnt` is the support size.  Only the
    first cnt[r] entries of row r are meaningful: unsupported vertices sort
    last, by index.  So two states with equal rows of order and equal cnt
    sweep the same prefixes.  The whole row, the unsupported tail included,
    is the stable argsort of -rho, on either of two paths chosen by n alone.

    Rows shorter than STABLE_SORT_MAX take that stable argsort, in which an
    unsupported vertex's key -0.0 is above every supported key.  Longer rows
    key an unsupported vertex by its index instead, which is above every
    supported key and unique, take numpy's default (SIMD) argsort, and then
    `_ties_by_index` puts each run of equal keys in index order.  The
    stable order is the one order sorted by key with every run of equal keys
    in index order, so both paths give it.

    The crossover comes from a microbenchmark of the two paths on blocks of
    8,192 cells of synthetic rows (no tie; one rho; runs of 12 equal rho
    and a zero quarter), lengths 16-1024, on a 2-core AVX-512 Xeon with
    numpy 2.4: from 128 up the SIMD path saves more on a row with no tie
    (4.4 -> 1.5 us at 128) than it loses on a row of either tied kind
    (0.6 -> 2.9 us, 1.4 -> 3.1 us); at 64 it does not, and at 96 the two
    are within run-to-run noise.  Timsort is near linear on tied rows, so
    below the crossover no extra pass pays."""
    key = np.divide(masses, view.deg_pos)
    np.negative(key, out=key)  # in place: one (B x n) temporary, not two
    n = masses.shape[1]
    if n < STABLE_SORT_MAX:
        order = np.argsort(key, axis=1, kind="stable")
    else:
        np.copyto(key, np.arange(n, dtype=np.float64), where=masses == 0)
        order = np.argsort(key, axis=1)
        _ties_by_index(key, order)
    return order, np.count_nonzero(masses, axis=1)


def _ties_by_index(key: np.ndarray, order: np.ndarray):
    """Put each run of equal keys in the (B x n) argsort order of key in
    index order, in place; key is sorted in place on the way.  Where no two
    adjacent sorted keys are equal the sorted order is unique, and it is
    left as it is.  Otherwise each tied entry (one in a run of equal keys)
    gets the int64 key (run number << index bits) | index: one sort of
    these puts the runs in run order and each run in index order.  The tied
    positions list the runs in the same order, so writing the sorted
    indices back to them orders every run.  Past the sorted keys and one
    bool mask, only the tied entries are held."""
    n = key.shape[1]
    key.sort(axis=1)
    tie = np.zeros(key.shape, dtype=bool)  # entry j of a row equals entry j + 1
    np.equal(key[:, 1:], key[:, :-1], out=tie[:, :-1])
    left = np.flatnonzero(tie)  # flat positions in order; no run spans two rows
    if not len(left):
        return
    first = np.flatnonzero(np.diff(left, prepend=-2) != 1)  # the first pair of each run
    size = np.diff(first, append=len(left)) + 1  # entries per run
    end = np.cumsum(size)
    pos = np.repeat(left[first] - end + size, size)  # each run's entries, in order
    pos += np.arange(end[-1])
    bits = (n - 1).bit_length()
    flat = order.reshape(-1)
    tied = np.repeat(np.arange(len(size)) << bits, size)
    tied |= flat[pos]
    tied.sort()
    tied &= (1 << bits) - 1
    flat[pos] = tied


def prefix_tables(view: ActiveView, order: np.ndarray):
    """(prefvol, bnds) of a (B x n) block of sweep orders: the prefix
    volumes and the live-edge boundary of each prefix.

    The edge stage gathers end ranks in chunks of SWEEP_BLOCK_CELLS over
    live edges rows, so no (rows x edges) array exceeds that many cells.
    """
    rows, n = order.shape
    rank = np.empty_like(order)
    rank[np.arange(rows)[:, None], order] = np.arange(n)
    # an edge is inside exactly the prefixes that reach its later end, so a
    # prefix's boundary is its live volume less twice its inner edges
    bnds = view.live_deg[order]
    ea, eb = view.edges_local.T
    chunk = max(1, SWEEP_BLOCK_CELLS // max(1, view.m_live))
    for r in range(0, rows, chunk):
        rk = rank[r : r + chunk]
        later = np.take(rk, ea, axis=1)
        np.maximum(later, np.take(rk, eb, axis=1), out=later)
        later += np.arange(len(rk))[:, None] * n
        bnds[r : r + chunk] -= 2 * np.bincount(later.ravel(), minlength=rk.size).reshape(-1, n)
    np.cumsum(bnds, axis=1, out=bnds)
    prefvol = view.deg[order]
    np.cumsum(prefvol, axis=1, out=prefvol)
    return prefvol, bnds
