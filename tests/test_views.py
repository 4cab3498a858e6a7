"""Working-graph removal channels and contracted active views."""

import numpy as np
import pytest

from expandec import generators as gen
from expandec.errors import DegenerateCut, FormatError, MissingEdge
from expandec.graph import Graph, contract, cut_stats
from expandec.views import ActiveView, WorkingGraph
from helpers_h import ActiveViewReference, WorkingGraphReference, is_live, live_neighbors, loops


def test_view_degrees_are_host_degrees():
    g = gen.barbell(5, 1)
    working = WorkingGraph(g)
    working.remove_edges([(0, 5)], "r2")
    view = ActiveView(working, range(5))
    for v in range(5):
        assert view.deg[view.index[v]] == g.deg[v]
    assert loops(view, 0) == 1  # removed bridge became a loop
    assert view.vol() == sum(g.deg[v] for v in range(5))


def test_view_materialize_matches_contract():
    g = gen.erdos_renyi(12, 0.4, seed=3)
    view = ActiveView.whole(g).subview([1, 3, 4, 7, 9])
    assert view.materialize() == contract(g, [1, 3, 4, 7, 9])


def test_view_components_after_removal():
    g = gen.cliques_chain(2, 4, 1)
    working = WorkingGraph(g)
    bridge = [e for e in map(tuple, g.edges.tolist()) if (e[0] < 4) != (e[1] < 4)]
    working.remove_edges(bridge, "r1")
    view = ActiveView(working, range(8))
    comps = view.components()
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert working.removed_by("r1") == bridge


def test_double_removal_rejected():
    g = gen.clique(3)
    working = WorkingGraph(g)
    working.remove_edges([(0, 1)], "r1")
    with pytest.raises(MissingEdge):
        working.remove_edges([(1, 0)], "r2")


def test_removal_rejects_ids_outside_vertex_range():
    g = gen.cycle(6)
    working = WorkingGraph(g)
    for bad in [(-1, 4), (4, -1), (9, 2), (2, 6), (3, 3), (0, 3)]:
        with pytest.raises(MissingEdge):
            working.remove_edges([bad], "r1")
    assert working.removed_by("r1") == []
    assert is_live(working, 4, 5)
    with pytest.raises(MissingEdge):
        is_live(working, -1, 4)


@pytest.mark.parametrize("active", [[-3, 0], [0, 7], [-1, 0]])
def test_view_rejects_active_ids_outside_vertex_range(active):
    working = WorkingGraph(gen.cycle(6))
    with pytest.raises(FormatError, match=r"outside 0\.\.5"):
        ActiveView(working, active)
    assert ActiveView(working, [0, 5]).edges_local.tolist() == [[0, 1]]


def test_removal_errors_name_the_first_channel_and_remove_nothing():
    g = gen.clique(4)
    working = WorkingGraph(g)
    working.remove_edges(np.array([[1, 0], [2, 3]]), "r1")
    with pytest.raises(MissingEdge, match=r"\(0, 1\) already removed \(r1\)"):
        working.remove_edges([(0, 2), (0, 1)], "r2")
    with pytest.raises(MissingEdge, match=r"\(1, 2\) already removed \(r3\)"):
        working.remove_edges([(1, 2), (2, 1)], "r3")
    assert working.removed_by("r1") == [(0, 1), (2, 3)]
    assert working.removed_by("r2") == working.removed_by("r3") == []
    assert is_live(working, 0, 2) and not is_live(working, 3, 2)


def test_view_cut_stats_use_live_boundary():
    g = gen.barbell(4, 1)
    working = WorkingGraph(g)
    view = ActiveView(working, range(8))
    cut = cut_stats(view.materialize(), range(4))
    assert cut.boundary == 1
    working.remove_edges([(0, 4)], "r2")
    after = cut_stats(ActiveView(working, range(8)).materialize(), range(4))
    assert (after.boundary, after.vol_s) == (0, cut.vol_s)


def _draw_graph(rng):
    kind = int(rng.integers(5))
    seed = int(rng.integers(1 << 30))
    if kind == 0:  # sparse enough to leave isolated vertices
        return gen.erdos_renyi(int(rng.integers(1, 30)), float(rng.uniform(0.02, 0.5)), seed)
    if kind == 1:
        return gen.cliques_chain(int(rng.integers(2, 5)), int(rng.integers(3, 7)),
                                 int(rng.integers(1, 3)))
    if kind == 2:
        return gen.grid(int(rng.integers(1, 6)), int(rng.integers(1, 7)))
    if kind == 3:
        return gen.random_regular(2 * int(rng.integers(3, 12)), int(rng.integers(2, 5)), seed)
    core = gen.erdos_renyi(int(rng.integers(2, 12)), 0.5, seed)  # padded with isolated ids
    return Graph.from_edges(core.n + int(rng.integers(1, 6)), core.edges)


def _draw_active(rng, n):
    size = [0, 1, n, int(rng.integers(0, n + 1))][int(rng.integers(4))]
    return rng.choice(n, size=min(size, n), replace=False).tolist()


def test_view_matches_row_by_row_reference():
    """ActiveView and WorkingGraph against the dict-and-adjacency-list build, on
    random graphs, removals over several channels and active sets."""
    rng = np.random.default_rng(1212)
    for draw in range(120):
        g = _draw_graph(rng)
        working, ref_working = WorkingGraph(g), WorkingGraphReference(g)
        channels = ("r1", "r2", "r3")
        picked = [e for e in g.edges if rng.random() < 0.3]
        for e in picked:
            e = e if rng.random() < 0.5 else e[::-1]
            ch = channels[int(rng.integers(len(channels)))]
            working.remove_edges([e], ch)
            ref_working.remove_edges([e], ch)
        for bad in [(0, g.n), (-1, 0)] + picked[:1]:
            for w in (working, ref_working):
                with pytest.raises(MissingEdge):
                    w.remove_edges([bad], "r1")
        for ch in channels:
            assert working.removed_by(ch) == ref_working.removed_by(ch), draw
        assert [is_live(working, *e) for e in g.edges] == [ref_working.is_live(*e)
                                                           for e in g.edges]

        active = _draw_active(rng, g.n)
        view, ref = ActiveView(working, active), ActiveViewReference(ref_working, active)
        for name in ("verts", "deg", "edges_local", "live_deg"):
            got, want = getattr(view, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, (draw, name)
            assert np.array_equal(got, want), (draw, name)
        assert view.adj_matrix.shape == ref.adj_matrix.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(view.adj_matrix, name),
                                  getattr(ref.adj_matrix, name)), (draw, name)
        for v in active:
            assert live_neighbors(view, v) == ref.live_neighbors(v), draw
            assert loops(view, v) == ref.loops(v), draw
        assert view.materialize() == ref.materialize(), draw

        members = [v for v in active if rng.random() < 0.5]
        assert g.volume(members) == ref.vol_of(members), draw
        # a cut of a view is a vertex set: its statistics are those of the
        # contracted graph, on local ids
        local = np.flatnonzero(view.member_mask(members)).tolist()
        if members and set(members) != set(active):
            got, want = cut_stats(view.materialize(), local), ref.cut_stats(members)
            assert got == want, draw
        else:
            with pytest.raises(DegenerateCut):
                cut_stats(view.materialize(), local)
            with pytest.raises(DegenerateCut):
                ref.cut_stats(members)
