"""Round semantics, bandwidth enforcement, and the tree primitives against
their message-level references."""
import math
from collections import Counter

import numpy as np
import pytest

from expandec import generators as gen
from expandec.cuts import StartTree
from expandec.errors import BandwidthExceeded, Disconnected
from expandec.graph import INF, Graph, edge_key
from expandec.simulator import (
    KIND_BITS,
    WORD_BITS,
    Msg,
    Network,
    PhaseTotals,
    RoundLedger,
    bfs_levels,
    bfs_tree,
    sample_by_degree,
    subtree_degrees,
    subtree_sums,
)
from expandec.views import ActiveView, WorkingGraph

from helpers_h import (
    bfs_tree_per_round,
    bfs_tree_reference,
    dict_tree,
    host_tree,
    is_live,
    live_edges,
    neighbors,
    random_binary_search,
    sample_by_degree_reference,
    search_round_trip_per_round,
    subtree_degrees_per_round,
    subtree_degrees_reference,
    tree_aggregate_per_round,
    tree_broadcast_per_round,
)


def flood_token(net, start):
    """Flood a single token; returns per-vertex arrival round."""
    n = net.graph.n
    states = {v: (v == start) for v in range(n)}
    inboxes = {}
    arrival = {start: 0}
    r = 0
    while len(arrival) < n:
        r += 1

        def step(v, has, inbox):
            if has:
                return has, [(u, Msg("tok")) for u in neighbors(net.graph, v)]
            return has, []

        states, inboxes = net.run_round(states, inboxes, step)
        for v, msgs in inboxes.items():
            if msgs and not states[v]:
                states[v] = True
                arrival[v] = r
    return arrival


def test_flood_path_p5():
    net = Network(gen.path(5))
    arrival = flood_token(net, 0)
    assert arrival[4] == 4
    assert net.ledger.totals().rounds == 4


def test_oversized_message_rejected():
    net = Network(gen.clique(2), bandwidth_bits=64)
    states = {0: None, 1: None}

    def step(v, s, inbox):
        return s, [(1 - v, Msg("big", None, bits=65))]

    with pytest.raises(BandwidthExceeded):
        net.run_round(states, {}, step)


def test_echo_on_k3():
    net = Network(gen.clique(3))
    states = {v: set() for v in range(3)}

    def send(v, s, inbox):
        return s, [(u, Msg("echo", v)) for u in neighbors(net.graph, v)]

    states, inboxes = net.run_round(states, {}, send)
    for v in range(3):
        heard = {src for src, _ in inboxes[v]}
        assert heard == set(range(3)) - {v}


def test_same_round_messages_invisible():
    # A probe vertex echoes what it has seen; sends this round must not appear.
    net = Network(gen.clique(2))
    seen = {0: [], 1: []}

    def step(v, s, inbox):
        seen[v].append([m.payload for _, m in inbox])
        return s, [(1 - v, Msg("probe", ("r", net.round_no)))]

    states = {0: None, 1: None}
    inboxes = {}
    states, inboxes = net.run_round(states, inboxes, step)
    states, inboxes = net.run_round(states, inboxes, step)
    assert seen[0][0] == []          # round 1: nothing delivered yet
    assert seen[0][1] == [("r", 0)]  # round 2 sees only round-1 sends


def test_ledger_phase_sums():
    led = RoundLedger()
    led.charge("a", rounds=2, messages=5, edge_bits=70)
    led.charge("b", rounds=3, messages=1, edge_bits=10)
    t = led.totals()
    assert (t.rounds, t.messages, t.max_bits) == (5, 6, 70)
    rows = led.rows()
    assert sum(r["rounds"] for r in rows) == 5
    assert {r["phase"] for r in rows} == {"a", "b"}


def test_bfs_path_depths():
    net = Network(gen.path(5))
    tree = host_tree(net, 0)
    assert tree.hosts.tolist() == [0, 1, 2, 3, 4]
    assert tree.depth.tolist() == [0, 1, 2, 3, 4]
    assert tree.parent.tolist() == [0, 0, 1, 2, 3]
    assert net.ledger.totals().rounds == 4


def test_bfs_star_one_round():
    net = Network(gen.star(8))
    tree = host_tree(net, 0)
    assert tree.depth.tolist() == [0] + [1] * 8
    assert net.ledger.totals().rounds == 1


def test_bfs_matches_sssp_oracle():
    g = gen.barbell(4, 1)
    net = Network(g)
    tree = host_tree(net, 1)
    # plain BFS oracle
    dist = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors(g, v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    assert dict_tree(tree).depth == dist


def test_bfs_edge_filter_unreachable():
    g = gen.path(4)
    net = Network(g)
    tree = bfs_tree(net, 0, np.array([(0, 1), (2, 3)]), np.arange(4))
    assert tree.hosts.tolist() == [0, 1]


def test_bfs_tree_and_subtree_sums_match_message_level():
    """Random views with removed edges, vertex subsets, edge subsets (as for a
    walk's touched edges) and the whole host, against the message-level BFS
    and aggregate: the same trees, sums and ledger."""
    rng = np.random.default_rng(0xBF5)
    kinds = {"view": 0, "edges": 0, "host": 0, "single": 0, "unreached": 0}
    for draw in range(240):
        n = int(rng.integers(1, 22))
        g = gen.erdos_renyi(n, float(rng.uniform(0.05, 0.5)), seed=draw)
        working = WorkingGraph(g)
        working.remove_edges([e for e in g.edges if rng.random() < 0.2], "x")
        view = ActiveView(working, [v for v in range(n) if rng.random() < 0.8] or [0])
        root = int(rng.choice(view.verts))
        net, ref_net = Network(g), Network(g)
        if draw % 3 == 0:
            kinds["view"] += 1
            tree = bfs_tree(net, root, view.edges_local, view.verts)
            ref = bfs_tree_per_round(ref_net, root, lambda a, c: is_live(working, a, c),
                                     view.active)
            reachable = len(view.active)
        elif draw % 3 == 1:
            kinds["edges"] += 1
            keep = [e for e in live_edges(view) if rng.random() < 0.7]
            local = np.searchsorted(view.verts, np.array(keep, dtype=np.int64))
            tree = bfs_tree(net, root, local, view.verts)
            ref = bfs_tree_per_round(ref_net, root, lambda a, c: edge_key(a, c) in keep,
                                     {root} | {u for e in keep for u in e})
            reachable = len(view.active)
        else:
            kinds["host"] += 1
            tree = host_tree(net, root)
            ref = bfs_tree_per_round(ref_net, root)
            reachable = n
        kinds["single"] += len(tree.hosts) == 1
        kinds["unreached"] += len(tree.hosts) < reachable
        got = dict_tree(tree)
        assert got.root == ref.root
        assert list(got.parent.items()) == list(ref.parent.items())
        assert list(got.depth.items()) == list(ref.depth.items())
        assert got.children == ref.children
        assert net.ledger.snapshot() == ref_net.ledger.snapshot()
        sums = subtree_degrees(net, tree, g.deg + np.arange(n) % 3)
        assert dict(zip(tree.hosts.tolist(), sums.tolist())) == subtree_degrees_per_round(
            ref_net, ref, lambda v: int(g.deg[v]) + v % 3)
        assert net.ledger.snapshot() == ref_net.ledger.snapshot()
    assert all(count >= 10 for count in kinds.values()), kinds


def test_tree_arrays_match_dict_reference():
    """bfs_tree, subtree_degrees and the start sampling of cut accumulation
    against the dict-keyed references, over many seeds and trees: the same
    trees, sums, landings, ledger and rng state.  Half the draws sample a
    subview of the tree's view, whose outside vertices weigh 0; a subview
    that leaves out the root and weighs 0 on the tree has no start to draw,
    and raises Disconnected."""
    rng = np.random.default_rng(0x7EE)
    kinds = {"view": 0, "subview": 0, "multinomial": 0}
    disconnected = 0
    for draw in range(200):
        n = int(rng.integers(1, 40))
        g = gen.erdos_renyi(n, float(rng.uniform(0.05, 0.4)), seed=draw)
        working = WorkingGraph(g)
        working.remove_edges([e for e in g.edges if rng.random() < 0.2], "x")
        view = ActiveView(working, [v for v in range(n) if rng.random() < 0.9] or [0])
        root = int(view.verts[0])
        net, ref_net = Network(g), Network(g)
        tree = bfs_tree(net, root, view.edges_local, view.verts)
        ref = bfs_tree_reference(ref_net, root, view.edges_local, view.verts)
        assert dict_tree(tree) == ref
        weights = rng.integers(0, 9, size=n)
        sums = subtree_degrees(net, tree, weights)
        assert dict(zip(tree.hosts.tolist(), sums.tolist())) == subtree_degrees_reference(
            ref_net, ref, lambda v: int(weights[v]))
        if draw % 2:
            kinds["subview"] += 1
            target = view.subview([v for v in view.verts.tolist() if rng.random() < 0.6]
                                  or [root])
        else:
            kinds["view"] += 1
            target = view
        counts = Counter(rng.integers(1, 6, size=int(rng.integers(1, 60))).tolist())
        got_rng, ref_rng = np.random.default_rng([draw, 1]), np.random.default_rng([draw, 1])
        spanned = target.active & set(tree.hosts.tolist())
        if root not in target.active and not any(g.deg[v] for v in spanned):
            disconnected += 1
            with pytest.raises(Disconnected, match=f"rooted at {root} "):
                StartTree.on(target, tree)
            continue
        lands = StartTree.on(target, tree).sample(net, counts, got_rng)
        ref_lands = sample_by_degree_reference(
            ref_net, ref, counts, ref_rng, lambda v: int(g.deg[v]) if v in target.active else 0)
        assert lands == ref_lands
        assert net.ledger.snapshot() == ref_net.ledger.snapshot()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        kinds["multinomial"] += tree.depth_max > 1 and len(set(v for v, _ in lands)) > 2
    assert all(count >= 40 for count in kinds.values()), kinds
    assert disconnected >= 1


def test_bfs_levels_charge_the_local_cut_tree_as_bfs_tree():
    """The local cut's tree read from one level sweep: on random views and
    random touched-edge masks, bfs_levels' depth and reached count are
    bfs_tree's depth_max and host count, with the same ledger, including a
    start with no touched edge (depth 0, no charge) and masks that leave part
    of the view unreached."""
    rng = np.random.default_rng(0x1E7)
    kinds = {"untouched": 0, "unreached": 0, "deep": 0}
    for draw in range(300):
        n = int(rng.integers(1, 30))
        g = gen.erdos_renyi(n, float(rng.uniform(0.05, 0.5)), seed=draw)
        working = WorkingGraph(g)
        working.remove_edges([e for e in g.edges if rng.random() < 0.2], "x")
        view = ActiveView(working, [v for v in range(n) if rng.random() < 0.8] or [0])
        root = int(rng.choice(view.verts))
        touched = rng.random(view.m_live) < float(rng.choice([0.0, 0.3, 0.7, 1.0]))
        edges = view.edges_local[touched]
        net, ref_net = Network(g), Network(g)
        depth, _, _ = bfs_levels(net, root, edges, view.verts)
        tree = bfs_tree(ref_net, root, edges, view.verts)
        reached = depth[depth < INF]
        assert (int(reached.max()), len(reached)) == (tree.depth_max, len(tree.hosts))
        assert net.ledger.snapshot() == ref_net.ledger.snapshot()
        if not touched.any():
            kinds["untouched"] += 1
            assert len(reached) == 1 and not net.ledger.snapshot()
        component = next(c for c in view.components() if root in c)
        kinds["unreached"] += len(reached) < len(component)
        kinds["deep"] += tree.depth_max > 1
    assert all(count >= 10 for count in kinds.values()), kinds


def test_tree_aggregate_degree_sum():
    g = gen.clique(4)
    net = Network(g)
    tree = dict_tree(host_tree(net, 0))
    total, _ = tree_aggregate_per_round(net, tree, {v: g.deg[v] for v in range(4)},
                                        lambda a, b: a + b)
    assert total == 12


def test_broadcast_reaches_everyone():
    g = gen.barbell(4, 1)
    net = Network(g)
    tree = dict_tree(host_tree(net, 2))
    values = tree_broadcast_per_round(net, tree, 7)
    assert all(values[v] == 7 for v in range(g.n))


def test_subtree_values_match_recursion():
    g = gen.path(6)
    net = Network(g)
    tree = host_tree(net, 0)
    sub = subtree_degrees(net, tree, g.deg)
    children = dict_tree(tree).children

    def rec(v):
        return g.deg[v] + sum(rec(c) for c in children[v])

    assert all(sub[i] == rec(v) for i, v in enumerate(tree.hosts.tolist()))


def test_sample_by_degree_single_vertex():
    g = Graph.from_edges(1, [])
    net = Network(g)
    tree = host_tree(net, 0)
    rng = np.random.default_rng(0)
    weights = np.ones(1, dtype=np.int64)
    lands = sample_by_degree(net, tree, {1: 5}, rng, weights, subtree_sums(tree, weights))
    assert lands == [(0, 1)] * 5


def test_sample_by_degree_k2_split():
    g = gen.clique(2)
    net = Network(g)
    tree = host_tree(net, 0)
    rng = np.random.default_rng(123)
    lands = sample_by_degree(net, tree, {1: 10_000}, rng, g.deg, subtree_sums(tree, g.deg))
    frac = sum(1 for v, _ in lands if v == 0) / 10_000
    sigma = math.sqrt(0.25 / 10_000)
    assert abs(frac - 0.5) <= 5 * sigma


def test_sample_by_degree_star_center_frequency():
    g = gen.star(4)  # center degree 4, four leaves of degree 1
    net = Network(g)
    tree = host_tree(net, 0)
    rng = np.random.default_rng(99)
    lands = sample_by_degree(net, tree, {1: 10_000}, rng, g.deg, subtree_sums(tree, g.deg))
    frac = sum(1 for v, _ in lands if v == 0) / 10_000
    sigma = math.sqrt(0.5 * 0.5 / 10_000)
    assert abs(frac - 0.5) <= 5 * sigma


def _search_setup(n, seed):
    g = gen.path(n)
    net = Network(g)
    tree = host_tree(net, 0)
    keys = {v: v for v in range(n)}
    weights = {v: 1 for v in range(n)}
    return net, tree, keys, weights


def test_search_singleton():
    net, tree, keys, weights = _search_setup(1, 0)
    res = random_binary_search(net, tree, {0: 0}, {0: 1}, lambda v, w: True,
                               np.random.default_rng(0))
    assert res.rank == 1 and res.iterations == 1


def test_search_on_one_vertex_tree_charges_nothing():
    # a one-vertex tree sends no message, so no bits are charged either
    net = Network(Graph.from_edges(1, []))
    res = random_binary_search(net, host_tree(net, 0), {0: 0}, {0: 1}, lambda v, w: True,
                               np.random.default_rng(0))
    assert res.iterations == 1
    assert net.ledger.totals() == PhaseTotals(0, 0, 0)


def test_search_all_true():
    net, tree, keys, weights = _search_setup(20, 0)
    res = random_binary_search(net, tree, keys, weights, lambda v, w: True,
                               np.random.default_rng(1))
    assert res.rank == 20


def test_search_matches_linear_scan_over_seeds():
    n = 100
    net, tree, keys, weights = _search_setup(n, 0)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        thr = int(rng.integers(0, n + 1))
        pred = lambda v, w: w <= thr
        res = random_binary_search(net, tree, keys, weights, pred, rng)
        expected = max((i + 1 for i in range(n) if i + 1 <= thr), default=0)
        assert res.rank == expected


def test_search_iteration_bound():
    # 1000 seeded trials over universes up to 10^4 elements (star tree: depth 1).
    sizes = [500] * 900 + [10_000] * 100
    nets = {}
    for trial, n in enumerate(sizes):
        if n not in nets:
            g = gen.star(n - 1)
            net = Network(g)
            nets[n] = (net, host_tree(net, 0), {v: v for v in range(n)},
                       {v: 1 for v in range(n)})
        net, tree, keys, weights = nets[n]
        rng = np.random.default_rng([trial, 5])
        thr = int(rng.integers(0, n + 1))
        res = random_binary_search(net, tree, keys, weights, lambda v, w: w <= thr, rng)
        assert res.iterations <= 40 * math.log2(n)


def test_search_message_level_equals_fast():
    """Each search iteration is charged as one message-level round trip on the
    tree: 4 * depth rounds and 4 * (|T| - 1) messages.  The round trip's
    messages carry one word (72 bits); the charge is 136 bits per edge."""
    graphs = [gen.path(30), gen.star(12), gen.barbell(6, 2), gen.grid(4, 5),
              gen.erdos_renyi(25, 0.2, seed=3), Graph.from_edges(1, [])]
    for i, g in enumerate(graphs):
        tree = dict_tree(host_tree(Network(g), i % g.n))
        keys = {v: (v * 7) % g.n for v in tree.parent}
        weights = {v: 1 + v % 3 for v in tree.parent}
        total = sum(weights.values())
        for seed in range(5):
            net, ref_net = Network(g), Network(g)
            thr = total * seed // 4
            res = random_binary_search(net, tree, keys, weights, lambda v, w: w <= thr,
                                       np.random.default_rng([i, seed]))
            for _ in range(res.iterations):
                search_round_trip_per_round(ref_net, tree, res.vertex)
            got, ref = net.ledger.totals(), ref_net.ledger.totals()
            assert res.iterations >= 1
            assert (got.rounds, got.messages) == (ref.rounds, ref.messages)
            assert got.rounds == 4 * tree.depth_max * res.iterations
            assert got.messages == 4 * (len(tree.parent) - 1) * res.iterations
            if ref.messages:
                assert ref.max_bits == KIND_BITS + WORD_BITS
                assert got.max_bits == KIND_BITS + 2 * WORD_BITS
