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
(`csr_matvec`, where `csr_matrix.dot` ends) straight into the kept array: on
views of tens of vertices the Python-level sparse dispatch costs more than the
product.  `compute_walk` checks for the freeze, and counts messages and
support, once per block of FREEZE_BLOCK steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from .config import Profile
from .errors import BadPhi, TooLarge
from .graph import Graph, edge_key, lazy_walk_matrix
from .simulator import KIND_BITS, WORD_BITS, Network
from .views import ActiveView

SCALE_BITS = 48
SCALE = 1 << SCALE_BITS
MASS_MSG_BITS = KIND_BITS + 2 * WORD_BITS  # kind + instance tag + fixed-point value
Z_SET_N_MAX = 64
SWEEP_BLOCK_CELLS = 1 << 16  # cells per sweep_blocks block (transient memory bound)
FREEZE_BLOCK = 16  # walk steps between freeze checks in compute_walk


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


# -- float-vector operations (oracles and small examples) ------------------


def lazy_step(g: Graph, p: np.ndarray) -> np.ndarray:
    """One exact lazy-walk step; self loops keep their mass share in place."""
    return lazy_walk_matrix(g) @ np.asarray(p, dtype=float)


def truncate(g: Graph, p: np.ndarray, eps: float) -> np.ndarray:
    """Zero every entry with p(x) < 2 * eps * deg(x)."""
    p = np.asarray(p, dtype=float).copy()
    p[p < 2.0 * eps * g.deg] = 0.0
    return p


# -- fixed-point kernel -----------------------------------------------------


def walk_step_units(view: ActiveView, mass: np.ndarray) -> np.ndarray:
    """One fixed-point lazy step over a view (int64 array indexed like view.verts).

    Uses the view's step constants two_deg = 2 deg and keep_num = 2 deg - live;
    the compiled CSR product adds the shares sent along live edges into the
    kept array in place.
    """
    two_d, keep_num = view.two_deg, view.keep_num
    shares, rem = np.divmod(mass, two_d)
    # floor(mass * keep_num / two_d) with mass = shares * two_d + rem, so no
    # int64 product exceeds max(SCALE, 4 deg^2)
    kept = shares * keep_num + (rem * keep_num) // two_d
    adj, n = view.adj_matrix, len(mass)
    csr_matvec(n, n, adj.indptr, adj.indices, adj.data, shares, kept)  # kept += adj @ shares
    return kept


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

    def total_mass(self) -> float:
        return float(self.mass_units.sum()) / SCALE

    def support(self) -> list[int]:
        return [int(self.view.verts[i]) for i in np.nonzero(self.mass_units)[0]]


@dataclass
class WalkRun:
    """Complete truncated-walk trajectory with freeze-aware storage.

    `masses[t]` holds the state at steps t = 0..t_last; once the fixed-point
    state repeats exactly it is frozen (all later steps are identical), so
    only the distinct prefix is stored.
    """

    view: ActiveView
    start: int
    b: int
    params: WalkParams
    masses: list[np.ndarray]
    freeze_t: int | None
    pstar: frozenset  # host edge keys

    @property
    def t0(self) -> int:
        return self.params.t0

    @property
    def t_last(self) -> int:
        return len(self.masses) - 1

    def mass_at(self, t: int) -> np.ndarray:
        return self.masses[min(t, self.t_last)]

    def state_at(self, t: int) -> TruncatedWalkState:
        upto = min(t, self.t_last)
        touched = set()
        mask = np.zeros(len(self.view.verts), dtype=bool)
        for s in range(upto + 1):
            mask |= self.masses[s] > 0
        idx = set(np.nonzero(mask)[0].tolist())
        for a, b_ in self.view.edges_local:
            if a in idx or b_ in idx:
                touched.add(edge_key(int(self.view.verts[a]), int(self.view.verts[b_])))
        return TruncatedWalkState(
            t, self.view, self.mass_at(t), self.params.eps_b(self.b), frozenset(touched)
        )


def compute_walk(view: ActiveView, start: int, params: WalkParams, b: int,
                 net: Network | None = None) -> WalkRun:
    """Run the truncated walk for t0 steps (freeze-aware).

    Steps run in blocks of FREEZE_BLOCK (the last block ends at t0).  Each
    block is stacked with the last state already checked; the first pair of
    equal consecutive states is the freeze, since the step map is
    deterministic, and the states computed after it are dropped.  The same
    stack gives the block's senders and support.

    With a network attached, each step is one synchronous round: every vertex
    with mass at least 2 deg sends its fixed-point share along each live edge;
    after the state freezes, the remaining rounds repeat the identical
    messages.  The walk's t0 rounds are charged as one ledger entry.
    """
    t0 = params.t0
    floor_units = params.eps_units(b) * view.two_deg  # truncation floor 2 eps_b deg
    mass = np.zeros(len(view.verts), dtype=np.int64)
    mass[view.index[start]] = SCALE
    masses = [mass]
    support = mass > 0
    freeze_t = None
    msgs = 0
    if net is not None and MASS_MSG_BITS > net.bandwidth_bits:
        raise BadPhi(f"mass message ({MASS_MSG_BITS}b) exceeds bandwidth {net.bandwidth_bits}")
    checked = 0  # states 0..checked hold no repeat
    while checked < t0:
        for _ in range(min(FREEZE_BLOCK, t0 - checked)):
            nxt = walk_step_units(view, masses[-1])
            nxt[nxt < floor_units] = 0
            masses.append(nxt)
        blk = np.array(masses[checked:])
        # state s sends in step s + 1; the block's last state sends in the next block
        senders = (blk >= view.two_deg) @ view.live_deg
        msgs += int(senders[:-1].sum())
        support |= (blk > 0).any(axis=0)
        same = (blk[1:] == blk[:-1]).all(axis=1)
        if same.any():
            # every state after the freeze equals the last one, which sends
            # in each of the remaining steps up to t0
            freeze_t = checked + int(same.argmax())
            msgs += (t0 - len(masses) + 1) * int(senders[-1])
            del masses[freeze_t + 1 :]
            break
        checked = len(masses) - 1
    if net is not None:
        net.ledger.charge(net.phase, rounds=t0, messages=msgs,
                          edge_bits=MASS_MSG_BITS if msgs else 0)
    ea, eb = view.edges_local.T
    touched = support[ea] | support[eb]
    # local edges have a < b and view.verts is sorted, so these are edge keys
    pstar = frozenset(zip(view.verts[ea[touched]].tolist(), view.verts[eb[touched]].tolist()))
    return WalkRun(view, start, b, params, masses, freeze_t, pstar)


# -- sweep machinery ---------------------------------------------------------


def sweep_order(state: TruncatedWalkState) -> tuple[list[int], list[int]]:
    """Support ordered by rho descending (IDs ascending on ties) with prefix volumes."""
    order_local = sweep_order_local(state.view, state.mass_units)
    hosts = [int(state.view.verts[i]) for i in order_local]
    prefix = np.cumsum(state.view.deg[order_local]).tolist() if len(order_local) else []
    return hosts, [int(x) for x in prefix]


def sweep_order_local(view: ActiveView, mass: np.ndarray) -> np.ndarray:
    """Local indices of the support sorted by (rho desc, host id asc).

    rho values are exact integer ratios compared through correctly-rounded
    float division: equal ratios compare equal; ratios closer than one ulp
    fall back to the ID tie rule.
    """
    sup = np.nonzero(mass)[0]
    if len(sup) == 0:
        return sup
    rho = mass[sup] / view.deg[sup]
    order = np.lexsort((view.verts[sup], -rho))
    return sup[order]


def sweep_tables(view: ActiveView, masses: np.ndarray):
    """Sweep tables for a (B x n) block of walk states, one row per state.

    Returns (order, cnt, prefvol, bnds), each (B x n) except cnt (B,):
    `order` sorts local indices by rho = mass / deg descending (the float
    rho of `sweep_order_local`; ties go to the lower local index, i.e. the
    lower host id); `cnt` is the support size; `prefvol` the prefix volumes
    and `bnds` the live-edge boundary of each prefix.  Only the first cnt[r]
    entries of row r are meaningful: unsupported vertices sort last because
    their key -0.0 is above every supported key.
    """
    rows, n = masses.shape
    deg = view.deg
    order = np.argsort(-(masses / deg), axis=1, kind="stable")
    cnt = np.count_nonzero(masses, axis=1)
    prefvol = np.cumsum(deg[order], axis=1)
    rank = np.empty_like(order)
    rank[np.arange(rows)[:, None], order] = np.arange(n)
    ea, eb = view.edges_local.T
    ra, rb = rank[:, ea], rank[:, eb]
    # an edge crosses prefix positions lo..hi-1 of its row; a difference
    # array over flat (row, position) cells counts them exactly
    base = np.arange(rows)[:, None] * n
    lo = (np.minimum(ra, rb) + base).ravel()
    hi = (np.maximum(ra, rb) + base).ravel()
    diff = np.bincount(lo, minlength=rows * n) - np.bincount(hi, minlength=rows * n)
    bnds = np.cumsum(diff.reshape(rows, n), axis=1)
    return order, cnt, prefvol, bnds


def sweep_blocks(view: ActiveView, run: WalkRun, t_stop: int):
    """Yield (t, masses, sweep_tables(view, masses)) for the stored steps
    t..t+B-1 of run, covering 1..t_stop in blocks of B = 1, 2, 4, ... rows.

    Doubling keeps an early hit cheap on a long walk; a block holds at most
    SWEEP_BLOCK_CELLS cells of its widest table (B x max(n, live edges)),
    which bounds the transient memory on large views.
    """
    cap = max(1, SWEEP_BLOCK_CELLS // max(1, len(view.verts), view.m_live))
    t, rows = 1, 1
    while t <= t_stop:
        k = min(rows, cap, t_stop - t + 1)
        masses = np.array(run.masses[t : t + k])
        yield t, masses, sweep_tables(view, masses)
        t += k
        rows *= 2


# -- diagnostics --------------------------------------------------------------


def influence_set(g: Graph, u: int, params: WalkParams, b: int,
                  n_max: int = Z_SET_N_MAX) -> set[int]:
    """Start vertices whose untruncated walk pushes rho_t(u) over the truncation
    threshold 2*eps_b within the horizon.  Dense powering from every start."""
    if g.n > n_max:
        raise TooLarge(f"n={g.n} exceeds {n_max}")
    thr = 2.0 * params.eps_b(b)
    deg_u = max(1, g.degree(u))
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
    degs = [g.degree(v) for v in range(g.n)]
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
            for u in g.neighbors[v]:
                nxt[u] = nxt.get(u, 0) + share
            if g.self_loops[v]:
                nxt[v] = nxt.get(v, 0) + share * g.self_loops[v]
        r = nxt
        out.append({v: (val, t) for v, val in r.items()})
    return out
