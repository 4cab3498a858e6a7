"""Seeded graph generators and planted-structure instances for tests and benchmarks."""
from __future__ import annotations

import inspect

import numpy as np

from .errors import FormatError, Infeasible
from .graph import Graph, edge_key


def clique(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(n: int) -> Graph:
    """Star with n leaves (n+1 vertices, center 0)."""
    return Graph.from_edges(n + 1, [(0, v) for v in range(1, n + 1)])


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def barbell(c: int, bridges: int = 1) -> Graph:
    """Two c-cliques joined by `bridges` disjoint-endpoint edges."""
    if bridges > c:
        raise Infeasible(f"{bridges} bridges need {bridges} endpoints per side of {c}")
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges += [(c + u, c + v) for u in range(c) for v in range(u + 1, c)]
    edges += [(i, c + i) for i in range(bridges)]
    return Graph.from_edges(2 * c, edges)


def cliques_chain(count: int, size: int, bridges: int = 1) -> Graph:
    if bridges > size:
        raise Infeasible("more bridges than clique vertices")
    edges = []
    for i in range(count):
        base = i * size
        edges += [(base + u, base + v) for u in range(size) for v in range(u + 1, size)]
        if i + 1 < count:
            # Stagger junction endpoints so consecutive bridges stay disjoint.
            for j in range(bridges):
                edges.append((base + size - 1 - j, base + size + j))
    return Graph.from_edges(count * size, edges)


# Uniforms per erdos_renyi row block (8 MiB): the whole draw up to n = 1024.
# Freeing a block this large raises glibc's mmap and trim thresholds, so the
# sweep's ~0.5 MiB temporaries reuse heap pages afterwards; with blocks of
# 2^16 cells decomposing erdos_renyi:1000:0.01 took ~125,000 minor page
# faults more over five passes and ran ~10-17% slower.
ER_BLOCK_CELLS = 1 << 20


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): u < v are adjacent when cell (u, v) of an n x n uniform draw
    is below p.  The draw runs in blocks of ER_BLOCK_CELLS // n rows, which
    read the generator's stream in the order of one whole draw."""
    rng = np.random.default_rng([seed, 0xE4D05])
    rows = max(1, ER_BLOCK_CELLS // max(1, n))
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for r in range(0, n, rows):
        # row r + i keeps the columns above r + i
        us, vs = np.nonzero(np.triu(rng.random((min(rows, n - r), n)) < p, k=r + 1))
        blocks.append(np.stack([us + r, vs], axis=1))
    return Graph.from_edges(n, np.concatenate(blocks))


REGULAR_ATTEMPTS = 2000  # whole pairings drawn before random_regular gives up


def random_regular(n: int, r: int, seed: int = 0) -> Graph:
    """Configuration model with whole-sample rejection of loops and multi-edges."""
    if n * r % 2 == 1:
        raise Infeasible(f"n*r = {n * r} is odd")
    if r >= n:
        raise Infeasible(f"degree {r} needs at least {r + 1} vertices")
    rng = np.random.default_rng([seed, 0x4E9])
    stubs = np.repeat(np.arange(n), r)
    for _ in range(REGULAR_ATTEMPTS):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        seen = set()
        ok = True
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            k = edge_key(u, v)
            if k in seen:
                ok = False
                break
            seen.add(k)
        if ok:
            return Graph.from_edges(n, sorted(seen))
    raise Infeasible(f"no simple {r}-regular pairing found in {REGULAR_ATTEMPTS} attempts")


_FAMILIES = {
    "clique": clique,
    "cycle": cycle,
    "path": path,
    "star": star,
    "grid": grid,
    "barbell": barbell,
    "cliques_chain": cliques_chain,
}


def generate(spec: str, seed: int = 0) -> Graph:
    """Build the graph for a spec `family:arg1:arg2...`, e.g. `barbell:8:1` or
    `erdos_renyi:100:0.5`; deterministic for a given (spec, seed).  An
    unknown family, a bad argument or a wrong argument count raises
    FormatError."""
    family, *parts = spec.split(":")
    params = []
    for p in parts:
        try:
            params.append(int(p))
        except ValueError:
            try:
                params.append(float(p))
            except ValueError as exc:
                raise FormatError(f"bad spec argument {p!r}") from exc
    if family in _FAMILIES:
        build = _FAMILIES[family]
        try:
            inspect.signature(build).bind(*params)
        except TypeError:
            pass
        else:
            return build(*[int(a) for a in params])
    elif family in ("erdos_renyi", "random_regular"):
        if len(params) == 2:
            n, x = params
            if family == "erdos_renyi":
                return erdos_renyi(int(n), float(x), seed)
            return random_regular(int(n), int(x), seed)
    else:
        raise FormatError(f"unknown family {family!r}")
    raise FormatError(f"wrong parameter count {len(params)} for {family}")
