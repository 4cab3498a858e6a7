"""Seeded generator families and their determinism."""
import math

import numpy as np
import pytest

from expandec import generators as gen
from expandec.errors import Infeasible


def test_clique_edge_count():
    assert gen.clique(4).m == 6


def test_barbell_edge_count():
    assert gen.barbell(4, 1).m == 13


def test_cliques_chain_structure():
    g = gen.cliques_chain(3, 5, 2)
    assert g.n == 15
    assert g.m == 3 * 10 + 2 * 2


def test_grid_shape():
    g = gen.grid(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4


def test_erdos_renyi_edge_count_5_sigma():
    g = gen.erdos_renyi(100, 0.5, seed=42)
    mean = 4950 * 0.5
    sigma = math.sqrt(4950 * 0.25)
    assert abs(g.m - mean) <= 5 * sigma


def test_erdos_renyi_deterministic():
    a = gen.erdos_renyi(50, 0.3, seed=7)
    b = gen.erdos_renyi(50, 0.3, seed=7)
    assert a == b
    assert a != gen.erdos_renyi(50, 0.3, seed=8)


def _erdos_renyi_whole_draw(n, p, seed):
    """The edge list of one n x n uniform draw, upper triangle below p."""
    rng = np.random.default_rng([seed, 0xE4D05])
    us, vs = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
    return list(zip(us.tolist(), vs.tolist()))


@pytest.mark.parametrize("n, p, cells", [
    (37, 0.3, 5 * 37),     # blocks of 5 rows: 7 full blocks and one of 2
    (37, 0.3, 36),         # fewer cells than one row: blocks of 1 row
    (50, 0.1, 1 << 16),    # one block
    (1, 0.5, 7),
])
def test_erdos_renyi_row_blocks_equal_one_whole_draw(monkeypatch, n, p, cells):
    monkeypatch.setattr(gen, "ER_BLOCK_CELLS", cells)
    for seed in range(3):
        got = gen.erdos_renyi(n, p, seed).edges
        assert got.dtype == np.int64 and got.shape[1] == 2
        assert list(map(tuple, got.tolist())) == list(_erdos_renyi_whole_draw(n, p, seed))


def test_random_regular_degrees():
    g = gen.random_regular(16, 3, seed=1)
    assert all(g.deg[v] == 3 for v in range(16))


def test_random_regular_infeasible():
    with pytest.raises(Infeasible):
        gen.random_regular(5, 3, seed=0)


def test_parse_spec_roundtrip():
    g = gen.generate("barbell:4:1")
    assert g.m == 13
    g2 = gen.generate("erdos_renyi:30:0.2", seed=3)
    assert g2 == gen.erdos_renyi(30, 0.2, seed=3)


def test_star_degrees():
    g = gen.star(8)
    assert g.deg[0] == 8
    assert all(g.deg[v] == 1 for v in range(1, 9))
