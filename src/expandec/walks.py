"""Truncated lazy random walk kernel.

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
columns) straight into the kept array: on views of tens of vertices the
Python-level sparse dispatch costs more than the product.

`compute_walks` runs walks from several (start, b) pairs on one view side by
side, as the columns of one (n x c) block: one step is one divmod and one
product for every column, where on small views numpy's per-call overhead,
not the arithmetic, is what a step costs.  It checks for each column's
freeze, counts messages and support, and drops frozen columns once per block
of FREEZE_BLOCK steps.  `compute_walk` is its one-column case.
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
SWEEP_BLOCK_CELLS = 1 << 16  # cells per sweep table or edge chunk (transient memory bound)
FREEZE_BLOCK = 16  # walk steps between freeze checks in compute_walks


@dataclass(frozen=True)
class WalkParams:
    """Horizon, detectability, mass floor, and truncation schedule for one phi."""

    m: int
    phi: float
    profile_name: str
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
    return WalkParams(m, phi, profile.name, ell, t0, f_phi, gamma, eps_base)


# -- fixed-point kernel -----------------------------------------------------


def _step_units(adj, mass: np.ndarray, two_d: np.ndarray, keep_num: np.ndarray) -> np.ndarray:
    """One fixed-point lazy step over a view: of one state (an int64 array
    indexed like view.verts), or of c states as the columns of a row-major
    (n x c) block.

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
    kept = shares * keep_num
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
    """Complete truncated-walk trajectory with freeze-aware storage.

    `masses[t]` holds the state at steps t = 0..t_last; once the fixed-point
    state repeats exactly it is frozen (all later steps are identical), so
    only the distinct prefix is stored.  `messages` counts the mass messages
    of all t0 steps, the frozen tail included.
    """

    view: ActiveView
    start: int
    b: int
    params: WalkParams
    masses: list[np.ndarray]
    freeze_t: int | None
    touched: np.ndarray  # bool per row of view.edges_local: an end ever held mass
    messages: int

    @property
    def t0(self) -> int:
        return self.params.t0

    @property
    def t_last(self) -> int:
        return len(self.masses) - 1


def compute_walks(view: ActiveView, pairs, params: WalkParams) -> list[WalkRun]:
    """Run the truncated walks from each (start, b) of pairs for t0 steps,
    side by side as the columns of one (n x c) block (freeze-aware).

    Each step is one `_step_units` step on the block; column j's
    truncation floor is 2 eps_b deg for its own b.  Steps run in blocks of
    FREEZE_BLOCK (the last block ends at t0).  Each block is stacked with the
    last state already checked; a column's first pair of equal consecutive
    states is its freeze, since the step map is deterministic, and its
    states computed after it are dropped.  The same stack gives every
    column's senders and support, and a frozen column leaves the block.

    Each step is one synchronous round: every vertex with mass at least
    2 deg sends its fixed-point share along each live edge; after a walk
    freezes, the remaining rounds up to t0 repeat its last messages.  The
    runs come back in the order of pairs.
    """
    n, c, t0 = len(view.verts), len(pairs), params.t0
    first = np.zeros((c, n), dtype=np.int64)
    first[np.arange(c), [view.index[v] for v, _ in pairs]] = SCALE
    stored = [[row] for row in first]  # per pair, its states so far
    runs: list[WalkRun | None] = [None] * c
    ea, eb = view.edges_local.T
    adj, two_d = view.adj_matrix, view.two_deg[:, None]
    floor = two_d * np.array([params.eps_units(b) for _, b in pairs], dtype=np.int64)
    if c == 1:  # one walk steps a vector
        mass, floor, step_two_d, step_keep = first[0], floor[:, 0], view.two_deg, view.keep_num
    else:
        mass = np.ascontiguousarray(first.T)
        step_two_d, step_keep = (np.repeat(x[:, None], c, axis=1)
                                 for x in (view.two_deg, view.keep_num))
    support = mass.reshape(n, -1) != 0
    msgs = np.zeros(c, dtype=np.int64)
    live = np.arange(c)  # the pair of each column of the block
    checked = 0  # states 0..checked of every live column hold no repeat
    while True:
        states = [mass]
        for _ in range(min(FREEZE_BLOCK, t0 - checked)):
            nxt = _step_units(adj, states[-1], step_two_d, step_keep)
            nxt[nxt < floor] = 0
            states.append(nxt)
        blk = np.array(states).reshape(len(states), n, -1)  # (steps + 1, n, columns)
        # state s sends in step s + 1; the block's last state sends in the next block
        senders = view.live_deg @ (blk >= two_d)
        msgs += senders[:-1].sum(axis=0)
        support |= blk.any(axis=0)
        same = (blk[1:] == blk[:-1]).all(axis=1)
        checked += len(states) - 1
        # per column, its new states: a vector walk's are the states themselves
        new = [states[1:]] if c == 1 else np.ascontiguousarray(blk[1:].transpose(2, 0, 1))
        frozen = same.any(axis=0).tolist()
        for j, i in enumerate(live.tolist()):
            freeze_t = None
            if frozen[j]:
                # every state after the freeze equals the last one, which
                # sends in each of the remaining steps up to t0
                f = int(same[:, j].argmax())
                freeze_t = checked - len(new[j]) + f
                msgs[j] += (t0 - checked) * senders[-1, j]
            stored[i].extend(new[j] if freeze_t is None else new[j][:f])
            if frozen[j] or checked == t0:
                runs[i] = WalkRun(view, *pairs[i], params, stored[i], freeze_t,
                                  support[ea, j] | support[eb, j], int(msgs[j]))
        if checked == t0 or all(frozen):
            return runs
        mass = states[-1]
        if any(frozen):  # row-major blocks of the columns left
            keep = ~np.array(frozen)
            live, support, msgs = live[keep], support[:, keep], msgs[keep]
            mass, floor, step_two_d, step_keep = (np.ascontiguousarray(x[:, keep]) for x in (
                mass, floor, step_two_d, step_keep))


def charge_walk(net: Network, run: WalkRun):
    """Charge a walk's t0 rounds and its messages as one ledger entry; raises
    BadPhi when one mass message exceeds the network's bandwidth."""
    if MASS_MSG_BITS > net.bandwidth_bits:
        raise BadPhi(f"mass message ({MASS_MSG_BITS}b) exceeds bandwidth {net.bandwidth_bits}")
    net.ledger.charge(net.phase, rounds=run.t0, messages=run.messages,
                      edge_bits=MASS_MSG_BITS if run.messages else 0)


def compute_walk(view: ActiveView, start: int, params: WalkParams, b: int,
                 net: Network | None = None) -> WalkRun:
    """The truncated walk from start at level b: the one-column case of
    `compute_walks`, charged to net by `charge_walk` when one is attached."""
    (run,) = compute_walks(view, [(start, b)], params)
    if net is not None:
        charge_walk(net, run)
    return run


# -- sweep machinery ---------------------------------------------------------


def sweep_order_local(view: ActiveView, mass: np.ndarray) -> np.ndarray:
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


def sweep_tables(view: ActiveView, masses: np.ndarray):
    """Sweep tables for a (B x n) block of walk states, one row per state:
    the `sweep_orders` of the block and the `prefix_tables` of those orders,
    as (order, cnt, prefvol, bnds)."""
    order, cnt = sweep_orders(view, masses)
    return (order, cnt, *prefix_tables(view, order))


def sweep_orders(view: ActiveView, masses: np.ndarray):
    """(order, cnt) of a (B x n) block of walk states: `order` sorts local
    indices by rho = mass / deg descending (the float rho of
    `sweep_order_local`; ties go to the lower local index, i.e. the lower
    host id) and `cnt` is the support size.  Only the first cnt[r] entries
    of row r are meaningful: unsupported vertices sort last, by index,
    because their key -0.0 is above every supported key.  So two states
    with equal rows of order and equal cnt sweep the same prefixes."""
    order = np.argsort(-(masses / view.deg_pos), axis=1, kind="stable")
    return order, np.count_nonzero(masses, axis=1)


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


def block_rows(view: ActiveView):
    """Row counts of the successive sweep blocks on view, without end.

    The first block has SWEEP_BLOCK_CELLS over max(n, live edges) rows (at
    least 1), so a scan that hits early sweeps few rows past its hit; on a
    small view it holds a whole run.  Each later block doubles, up to
    SWEEP_BLOCK_CELLS over n rows: most scans find no cut and sweep every
    stored step, and each block costs one pass of array calls.  Every
    (B x n) table stays within SWEEP_BLOCK_CELLS cells, as do
    `prefix_tables`' edge chunks.
    """
    n = max(1, len(view.verts))
    rows = max(1, SWEEP_BLOCK_CELLS // max(n, view.m_live))
    cap = max(1, SWEEP_BLOCK_CELLS // n)
    while True:
        yield rows
        rows = min(2 * rows, cap)


def sweep_blocks(view: ActiveView, run: WalkRun, t_stop: int):
    """Yield (t, masses, sweep_tables(view, masses)) for the stored steps
    t..t+B-1 of run, covering 1..t_stop in blocks of `block_rows` rows."""
    t = 1
    for rows in block_rows(view):
        if t > t_stop:
            return
        masses = np.array(run.masses[t : min(t + rows, t_stop + 1)])
        yield t, masses, sweep_tables(view, masses)
        t += rows
