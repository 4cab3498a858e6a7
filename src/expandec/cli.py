"""Command-line front end: generation, cuts, clustering, decomposition,
triangle enumeration, verification, and benchmarking.

Every run embeds its full effective config (including the seed) in the output
JSON so it can be reproduced exactly.  The EXPANDER_SEED environment variable
overrides --seed; with neither, the seed is the fixed default 0.  Exit codes:
0 success/PASS, 1 FAIL, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import generators
from .config import get_profile
from .cuts import balanced_sparse_cut
from .clustering import low_diam_decomposition
from .decomposition import expander_decomposition, verify_decomposition
from .errors import ExpandecError, FormatError
from .graph import Graph, cut_stats, format_graph_text, parse_graph_text
from .simulator import Network
from .triangles import router_cost_report, triangle_enumeration
from .views import ActiveView


def effective_seed(args) -> int:
    env = os.environ.get("EXPANDER_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise FormatError(f"EXPANDER_SEED={env!r} is not an integer") from None


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def load_graph(args) -> Graph:
    if args.graph:
        try:
            with open(args.graph) as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read graph file: {exc}") from None
        return parse_graph_text(text)
    if args.spec:
        return generators.generate(args.spec, seed=effective_seed(args))
    raise SystemExit(2)


def emit(args, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="desk", choices=["desk", "paper"])
    p.add_argument("--out", default=None)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file (p <n> <m> header)")
    src.add_argument("--spec", help="generator spec, e.g. barbell:8:1")


def cmd_gen(args) -> int:
    g = generators.generate(args.family, seed=effective_seed(args))
    text = format_graph_text(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sparse_cut(args) -> int:
    g = load_graph(args)
    profile = get_profile(args.profile)
    seed = effective_seed(args)
    net = Network(g)
    view = ActiveView.whole(g)
    res = balanced_sparse_cut(net, view, args.phi, profile,
                              np.random.default_rng([seed, 0x5C]), p=args.p)
    payload = {
        "config": {"phi": args.phi, "p": args.p, "profile": args.profile, "seed": seed},
        "rounds": net.ledger.rows(),
    }
    if res is None:
        payload["cut"] = None
    else:
        cut = cut_stats(g, res.members)  # the view is the whole graph
        payload["cut"] = {
            "members": sorted(res.members),
            "phi": float(cut.conductance),
            "vol": cut.vol_s,
            "bal": float(cut.balance),
            "phi_inner": res.phi_inner,
            "h_bound": res.h_bound,
        }
    emit(args, payload)
    return 0


def cmd_lowdiam(args) -> int:
    g = load_graph(args)
    seed = effective_seed(args)
    runs = []
    for trial in range(args.trials):
        net = Network(g)
        res = low_diam_decomposition(net, ActiveView.whole(g), args.beta, args.K,
                                     np.random.default_rng([seed, trial, 0x1D]))
        runs.append({
            "components": [sorted(c) for c in res.components],
            "cut_edges": len(res.cut_edges),
            "max_diameter": res.max_diameter,
            "diameter_bound": res.diameter_bound,
            "rounds": net.ledger.totals().rounds,
        })
    emit(args, {
        "config": {"beta": args.beta, "K": args.K, "seed": seed, "trials": args.trials},
        "runs": runs,
    })
    return 0


def cmd_decompose(args) -> int:
    g = load_graph(args)
    profile = get_profile(args.profile)
    seed = effective_seed(args)
    dec = expander_decomposition(g, args.epsilon, args.k, seed, profile)
    payload = json.loads(dec.to_json())
    payload["config"] = {
        "epsilon": args.epsilon, "k": args.k, "profile": args.profile, "seed": seed,
    }
    emit(args, payload)
    return 0


def cmd_triangles(args) -> int:
    g = load_graph(args)
    profile = get_profile(args.profile)
    seed = effective_seed(args)
    rep = triangle_enumeration(g, args.epsilon, args.k, seed, profile,
                               verify=args.verify)
    payload = {
        "config": {"epsilon": args.epsilon, "k": args.k, "profile": args.profile,
                   "seed": seed},
        "count": len(rep.triangles),
        "levels": len(rep.levels),
        "rounds_charged": rep.rounds_charged,
        "router": router_cost_report(rep),
        "verified": rep.verified,
    }
    emit(args, payload)
    if args.verify and not rep.verified:
        return 1
    return 0


def cmd_verify(args) -> int:
    g = load_graph(args)
    profile = get_profile(args.profile)
    try:
        with open(args.run) as fh:
            run = json.load(fh)
        components = [frozenset(c) for c in run["components"]]
        phi_k = run["phi_k"]
    except KeyError as exc:
        raise FormatError(f"run JSON lacks {exc}") from None
    except (OSError, ValueError, TypeError) as exc:  # unreadable, not JSON, wrong shape
        raise FormatError(f"bad run JSON {args.run}: {exc}") from None
    if not all(isinstance(v, int) for c in components for v in c):
        raise FormatError("run JSON components hold a non-integer vertex id")
    epsilon = run.get("epsilon", run.get("config", {}).get("epsilon"))
    if epsilon is None:
        raise FormatError("run JSON lacks epsilon and config.epsilon")
    reported = None
    if "removed_edges" in run:
        reported = {tuple(e) for es in run["removed_edges"].values() for e in es}
    rep = verify_decomposition(g, components, epsilon, phi_k, profile,
                               reported_removed=reported)
    emit(args, {
        "ok": rep.ok,
        "inter_edges": rep.inter_edges,
        "inter_fraction_ok": rep.inter_fraction_ok,
        "components": [
            {"members": list(c.members), "kind": c.kind, "ok": c.phi_lower_ok}
            for c in rep.component_results
        ],
    })
    print(rep.summary(), file=sys.stderr)
    return 0 if rep.ok else 1


def cmd_bench(args) -> int:
    g = load_graph(args)
    profile = get_profile(args.profile)
    seed = effective_seed(args)
    rows = []
    for trial in range(args.trials):
        start = time.perf_counter()
        dec = expander_decomposition(g, args.epsilon, args.k, seed, profile)
        wall = time.perf_counter() - start
        totals = dec.ledger.totals()
        rows.append({
            "trial": trial,
            "seed": seed,
            "rounds": totals.rounds,
            "messages": totals.messages,
            "max_bits": totals.max_bits,
            "removed": dec.removed_total,
            "components": len(dec.components),
            "wall_seconds": f"{wall:.4f}",
            "phases": json.dumps(dec.ledger.rows(), sort_keys=True),
        })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="expandec")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph in edge-list format")
    p.add_argument("--family", required=True, help="e.g. clique:8, barbell:8:1, erdos_renyi:60:0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("sparse-cut", help="nearly-most-balanced sparse cut")
    add_common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.set_defaults(fn=cmd_sparse_cut)

    p = sub.add_parser("lowdiam", help="low-diameter decomposition")
    add_common(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--K", type=float, default=10.0)
    p.add_argument("--trials", type=positive_int, default=1)
    p.set_defaults(fn=cmd_lowdiam)

    p = sub.add_parser("decompose", help="expander decomposition")
    add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("triangles", help="triangle enumeration")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=1.0 / 6.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_triangles)

    p = sub.add_parser("verify", help="re-verify a decomposition run output")
    add_common(p)
    p.add_argument("--run", required=True, help="JSON produced by decompose")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="repeat runs and emit metrics CSV")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=positive_int, default=1)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ExpandecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
