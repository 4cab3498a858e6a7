"""Brute-force certificates for the dense-region growth invariant, and
per-step references for the walk kernel, the sweep scan and the falsifier."""
import math
from fractions import Fraction

import numpy as np

from expandec.clustering import INF
from expandec.cuts import SweepCandidate
from expandec.errors import BadPhi
from expandec.simulator import KIND_BITS, WORD_BITS
from expandec.views import ActiveView
from expandec.walks import (
    MASS_MSG_BITS,
    SCALE,
    WalkRun,
    compute_walk,
    derive_walk_params,
    sweep_order_local,
    walk_step_units,
)


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
                for u in view.live_neighbors(v):
                    if u in mem and u not in d:
                        d[u] = d[v] + 1
                        nxt.append(u)
            frontier = nxt
        assert set(d) == mem, "stage component not connected"
        best = max(best, max(d.values()))
    return best


def check_h_conditions(view, split):
    """Assert the three growth-invariant conditions for every stage component."""
    from expandec.clustering import NeighborhoodOracle

    dist = NeighborhoodOracle(view).dist
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


def compute_walk_per_step(view, start, params, b, net=None):
    """compute_walk checking for a freeze and counting senders after every step."""
    n = len(view.verts)
    two_d = 2 * view.deg
    floor_units = params.eps_units(b) * two_d
    mass = np.zeros(n, dtype=np.int64)
    mass[view.index[start]] = SCALE
    masses = [mass]
    support = mass > 0
    freeze_t = None
    msgs = 0
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
    if net is not None:
        net.ledger.charge(net.phase, rounds=params.t0, messages=msgs,
                          edge_bits=MASS_MSG_BITS if msgs else 0)
    ea, eb = view.edges_local.T
    touched = support[ea] | support[eb]
    pstar = frozenset(zip(view.verts[ea[touched]].tolist(), view.verts[eb[touched]].tolist()))
    return WalkRun(view, start, b, params, masses, freeze_t, pstar)


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


def scan_run_per_step(view, run, phi, b, profile, jx_only, charger=None):
    """Sweep scan one walk step at a time, every condition in exact arithmetic."""
    vol_total = view.vol()
    phi_f = Fraction(phi)
    slack = Fraction(profile.starred_slack) * phi_f
    grow = 1 + phi_f
    g_num, g_den = Fraction(run.params.gamma).as_integer_ratio()
    deg = view.deg

    def ok(pv, bd, u, mass, conductance, window):
        small = min(pv, vol_total - pv)
        return ((bd == 0 if small <= 0 else bd * conductance.denominator <= conductance.numerator * small)
                and int(mass[u]) * pv * g_den >= g_num * SCALE * int(deg[u])
                and pv * window.denominator <= window.numerator * vol_total
                and 14 * pv >= 5 * (1 << b))

    for t in range(1, run.t0 + 1):
        if t > run.t_last:
            if charger is not None:
                charger.frozen_tail(run.t0 - t + 1)
            break
        if charger is not None:
            charger.begin_t()
        mass = run.masses[t]
        order = sweep_order_local(view, mass)
        jmax = len(order)
        if jmax == 0:
            continue
        prefvol = np.cumsum(deg[order]).tolist()
        bnds = prefix_boundary_counts(view, order).tolist()

        def hit(j, starred):
            pv, bd = prefvol[j - 1], bnds[j - 1]
            u = order[j - 1]
            return SweepCandidate(t, j, starred, pv, bd,
                                  Fraction(0) if bd == 0 else Fraction(bd, min(pv, vol_total - pv)),
                                  int(mass[u]) / (SCALE * int(deg[u])))

        if not jx_only:
            for j in range(1, jmax + 1):
                if ok(prefvol[j - 1], bnds[j - 1], order[j - 1], mass, phi_f, Fraction(5, 6)):
                    return hit(j, False)
            continue
        n_checks = n_searches = 0
        found = None
        j_prev, j = None, 1
        while True:
            n_checks += 1
            pv, bd = prefvol[j - 1], bnds[j - 1]
            if j_prev is None or j == j_prev + 1:
                if ok(pv, bd, order[j - 1], mass, phi_f, Fraction(5, 6)):
                    found = hit(j, False)
                    break
            elif ok(pv, bd, order[j_prev - 1], mass, slack, Fraction(11, 12)):
                found = hit(j, True)
                break
            if j >= jmax:
                break
            j_prev = j
            n_searches += 1
            j_star = max(i for i in range(1, jmax + 1)
                         if prefvol[i - 1] * grow.denominator <= grow.numerator * pv)
            j = max(j_prev + 1, j_star)
        if charger is not None:
            charger.step_scan(n_checks, n_searches, jmax)
            if found is not None:
                charger.membership_broadcast()
        if found is not None:
            return found
    return None


def sweep_falsifier_per_step(working, comp, phi_k, profile):
    """Min sweep-prefix conductance of the falsifier walk, one step at a time."""
    view = ActiveView(working, comp)
    params = derive_walk_params(max(1, view.m_live), phi_k, profile)
    run = compute_walk(view, min(comp), params, b=max(1, params.ell // 2))
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
