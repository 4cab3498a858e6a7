"""Workload definitions, operation execution, output digests and correctness checks.

A workload is a fixed list of operations derived from the workload seed.  Each
operation is one public library call on one generated graph:
`expander_decomposition` (desk profile, epsilon 0.5, k 2) or
`triangle_enumeration` (desk profile, epsilon 1/6, k 2, verify off).  Graph
generator seeds and algorithm seeds are drawn from the workload seed, so the
same seed always gives the same inputs.
"""
from __future__ import annotations

import hashlib
import json
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from expandec import DESK, RoundLedger, decomposition, triangles
from expandec.decomposition import Decomposition, verify_decomposition
from expandec.generators import generate
from expandec.triangles import TriangleReport

EPS_DEC = 0.5
EPS_TRI = 1.0 / 6.0
K = 2

SMALL_SPECS = (
    "cliques_chain:2:6:1", "cliques_chain:3:7:2", "cliques_chain:4:8:1",
    "random_regular:16:3", "random_regular:20:4", "random_regular:24:3",
    "random_regular:18:4", "grid:4:5", "grid:5:6", "grid:4:8",
)

# name -> ((kind, spec, instances), ...); each instance has its own seeds.
# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dec_small": tuple(("decompose", s, 6) for s in SMALL_SPECS),
    "dec_er1000": (("decompose", "erdos_renyi:1000:0.01", 1),),
    # cliques_chain:40:12:1 raises BudgetExceeded (ROADMAP item 2a); it stays
    # in and is counted as a failed operation.  Its work does not depend on the
    # seed, so one instance of it is enough.
    "dec_chain": (("decompose", "cliques_chain:20:12:1", 2),
                  ("decompose", "cliques_chain:40:12:1", 1)),
    "tri_dense": (("triangles", "erdos_renyi:300:0.5", 1),),
    # Harness self-test only; not listed in BENCHMARK.json.
    "smoke": (("decompose", "cliques_chain:3:7:2", 1), ("decompose", "random_regular:16:3", 1),
              ("triangles", "erdos_renyi:40:0.3", 1)),
}


@dataclass(frozen=True)
class Op:
    kind: str        # "decompose" | "triangles"
    spec: str        # generator spec, e.g. "grid:4:5"
    graph_seed: int
    algo_seed: int

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.spec}@{self.algo_seed}"


def make_ops(workload: str, seed: int) -> list[Op]:
    """Instance i of every spec gets the i-th (generator seed, algorithm seed) pair."""
    entries = WORKLOADS[workload]
    instances = max(n for _, _, n in entries)
    seq = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    state = seq.generate_state(2 * instances)
    pairs = [(int(state[2 * i]), int(state[2 * i + 1])) for i in range(instances)]
    return [Op(kind, spec, g, a) for i, (g, a) in enumerate(pairs)
            for kind, spec, n in entries if i < n]


def build_graphs(ops: list[Op]) -> dict:
    """Generate every distinct input graph of the workload (the set-up step)."""
    graphs = {}
    for op in ops:
        key = (op.spec, op.graph_seed)
        if key not in graphs:
            graphs[key] = generate(op.spec, seed=op.graph_seed)
    return graphs


def execute(op: Op, graph, ledger: RoundLedger):
    """The timed call.  Decompositions charge `ledger`; triangle runs keep their own.

    The entry points are looked up on their modules at call time, so a traced
    pass sees the wrapped versions.
    """
    if op.kind == "decompose":
        return decomposition.expander_decomposition(graph, EPS_DEC, K, op.algo_seed, DESK,
                                                    ledger=ledger)
    return triangles.triangle_enumeration(graph, EPS_TRI, K, op.algo_seed, DESK, verify=False)


@dataclass(frozen=True)
class OpResult:
    """What one execution produced, reduced to the values the benchmark reports."""

    error: str | None   # "<ExceptionType>: <message>" when the call raised
    digest: str         # sha256 over the output (or the error) and the ledger rows
    rounds: int
    messages: int
    max_bits: int
    removed: int        # removed edges over every successful decomposition
    m: int              # edges over the same decompositions

    @property
    def sim(self) -> tuple[int, int, int]:
        return (self.rounds, self.messages, self.max_bits)


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _decomposition_payload(dec: Decomposition) -> dict:
    return {
        "components": sorted(sorted(c) for c in dec.components),
        "removed": {ch: sorted(es) for ch, es in dec.removed.items()},
        "ledger": dec.ledger.rows(),
    }


def summarize(op: Op, out, ledger: RoundLedger) -> OpResult:
    if isinstance(out, BaseException):
        error = f"{type(out).__name__}: {out}"
        payload = {"error": error, "ledger": ledger.rows()}
        decs = []
    elif op.kind == "decompose":
        error = None
        ledger = out.ledger
        payload = _decomposition_payload(out)
        decs = [out]
    else:
        error = None
        ledger = out.ledger
        payload = {"triangles": sorted(out.triangles), "ledger": ledger.rows()}
        decs = [lvl.decomposition for lvl in out.levels]
    tot = ledger.totals()
    return OpResult(error, _sha(payload), tot.rounds, tot.messages, tot.max_bits,
                    sum(d.removed_total for d in decs), sum(d.graph.m for d in decs))


def _check_decomposition(dec: Decomposition, epsilon: float) -> list[str]:
    g = dec.graph
    removed = {e for es in dec.removed.values() for e in es}
    problems = []
    if dec.removed_total > epsilon * g.m:
        problems.append(f"removed {dec.removed_total} > epsilon*m = {epsilon * g.m:.1f}")
    report = verify_decomposition(g, dec.components, epsilon, dec.params.phi_k, DESK,
                                  reported_removed=removed)
    if not report.ok:
        problems.append(f"verify_decomposition: {report.summary()}")
    return problems


def _check_triangles(graph, report: TriangleReport) -> list[str]:
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from(graph.edges)
    expected = nx.triangles(nxg)
    problems = []
    per_vertex = Counter()
    for tri in report.triangles:
        u, v, w = tri
        if not (u < v < w and nxg.has_edge(u, v) and nxg.has_edge(v, w) and nxg.has_edge(u, w)):
            problems.append(f"reported {tri} is not a triangle")
            break
        per_vertex.update(tri)
    # Every reported triple is a distinct real triangle, so equal per-vertex
    # counts mean the reported set equals the true set.
    if any(per_vertex[v] != expected[v] for v in range(graph.n)):
        problems.append(f"reported {len(report.triangles)} triangles, networkx counts "
                        f"{sum(expected.values()) // 3}")
    return problems


def check(op: Op, graph, out) -> list[str]:
    """Independent re-checks of one output; an empty list means it passed."""
    if isinstance(out, BaseException):
        return []
    if op.kind == "decompose":
        return _check_decomposition(out, EPS_DEC)
    problems = []
    for lvl in out.levels:
        problems += [f"level {lvl.level}: {p}"
                     for p in _check_decomposition(lvl.decomposition, EPS_TRI)]
    return problems + _check_triangles(graph, out)
