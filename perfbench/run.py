#!/usr/bin/env python3
"""Benchmark of the expandec library: one workload per process, tracing off or on.

    python3 perfbench/run.py --workload dec_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Run from the root of a checkout; the library is imported from `src/`.  A run
generates the workload's graphs (set-up), then repeats passes over the
workload's operations until `--seconds` of timed work have been spent.  Every
output of the first pass is re-checked independently, and every later pass must
reproduce the first pass's outputs and simulated costs exactly.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics (see spans.py).  The last line
of standard output is the result object; the line before it holds the
environment record and the output digests.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
SPEED_SHARE = 0.08   # speedometer time after each interpreter probe, as a share of its time
SPEED_LEAD_S = 0.1   # speedometer time at the start of set-up and of each pass
REF_KERNEL_S = 0.004  # speedometer kernel time at the reference speed
IMPORT_PROBE = "import expandec.decomposition, expandec.triangles, expandec.generators"

E2E_METRICS = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ok_frac", "ratio"),
    ("sim_rounds", "count"), ("sim_messages", "count"), ("sim_max_bits", "bits"),
    ("kept_frac", "ratio"),
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed work per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment record ------------------------------------------------------------


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(loadavg_1m: float) -> dict:
    import networkx
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "expandec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_1m": loadavg_1m,
    }


# -- measurement --------------------------------------------------------------------


def measure_setup(ops, build_graphs, speed):
    """Median interpreter start plus import, and median graph generation.

    Returns the raw sum, the sum at the reference speed, and the graphs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    starts, gens = [], []
    first_sample = len(speed.samples)
    speed.sample(SPEED_LEAD_S)
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                       check=True, timeout=120)
        starts.append(perf_counter() - t0)
        speed.sample(SPEED_SHARE * starts[-1])
    for _ in range(SETUP_REPS):
        t0 = speed.clock()
        with speed.ticking():
            graphs = build_graphs(ops)
        gens.append(speed.clock() - t0)
    raw = median(starts) + median(gens)
    return raw, raw * REF_KERNEL_S / speed.mean_since(first_sample), graphs


class Runner:
    """Runs passes over a workload's operations and keeps the first pass as reference."""

    def __init__(self, ops, graphs, speed):
        import workloads

        self.w = workloads
        self.ops = ops
        self.graphs = graphs
        self.reference = None      # OpResult per op, from the first pass
        self.op_failed = []        # per op: raised or failed a check in the first pass
        self.problems = []         # wrong outputs and irreproducible passes
        self.attempted = 0
        self.failed = 0
        self.op_walls = [[] for _ in ops]  # per op, its wall time in every untraced pass
        self.check_s = 0.0                 # time spent in the independent checks
        self.speed = speed

    def run_pass(self, label: str) -> tuple[float, float]:
        """One pass; returns the summed wall time of the timed calls (without
        the speedometer's ticks) and the mean speedometer kernel time."""
        from expandec import RoundLedger

        wall = 0.0
        results = []
        first_sample = len(self.speed.samples)
        self.speed.sample(SPEED_LEAD_S)
        for i, op in enumerate(self.ops):
            graph = self.graphs[(op.spec, op.graph_seed)]
            ledger = RoundLedger()
            t0 = self.speed.clock()
            with self.speed.ticking():
                try:
                    out = self.w.execute(op, graph, ledger)
                except Exception as exc:  # a raised error is a failed operation
                    out = exc
            dt = self.speed.clock() - t0
            wall += dt
            if label == "untraced":
                self.op_walls[i].append(dt)
            res = self.w.summarize(op, out, ledger)
            if self.reference is None:
                if res.error is not None:
                    print(f"{op.label} raised:", file=sys.stderr)
                    traceback.print_exception(out, file=sys.stderr)
                t0 = perf_counter()
                bad = self.w.check(op, graph, out)
                self.check_s += perf_counter() - t0
                self.problems += [f"{op.label}: {b}" for b in bad]
                self.op_failed.append(res.error is not None or bool(bad))
            elif res != self.reference[i]:
                self.problems.append(f"{op.label}: {label} pass differs from the first pass")
                self.op_failed[i] = True
            del out
            gc.collect()  # so this call's cycles are gone before the next call starts
            results.append(res)
            self.attempted += 1
            self.failed += self.op_failed[i]
        if self.reference is None:
            self.reference = results
        return wall, self.speed.mean_since(first_sample)


def measure(runner: Runner, seconds: float, tracing: bool):
    """Passes until `seconds` of timed work; with tracing, untraced and traced alternate.

    Returns (wall time, speedometer kernel time) of every untraced and traced
    pass, and the per-layer values of every traced pass.
    """
    from spans import Tracer

    untraced, traced, layers = [], [], []
    while (not untraced or (tracing and not traced)
           or sum(wall for wall, _ in untraced + traced) < seconds):
        if tracing and len(traced) < len(untraced):
            tracer = Tracer(clock=runner.speed.clock)
            with tracer.installed():
                wall, kernel = runner.run_pass("traced")
            traced.append((wall, kernel))
            layers.append(tracer.metrics(wall))
        else:
            untraced.append(runner.run_pass("untraced"))
    return untraced, traced, layers


def wall_s(passes) -> float:
    """Median pass wall time, rescaled to the speed at which the speedometer
    kernel takes REF_KERNEL_S."""
    return median(wall * REF_KERNEL_S / kernel for wall, kernel in passes)


def end_to_end(runner: Runner, untraced, setup_s: float) -> dict:
    ref = runner.reference
    m = sum(r.m for r in ref)
    return {
        "wall_s": wall_s(untraced),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "sim_rounds": sum(r.rounds for r in ref),
        "sim_messages": sum(r.messages for r in ref),
        "sim_max_bits": max(r.max_bits for r in ref),
        "kept_frac": 1.0 - sum(r.removed for r in ref) / m if m else 1.0,
    }


def per_layer(untraced, traced, layers) -> dict:
    out = {name: median(d[name] for d in layers) for name in layers[0]}
    out["trace.overhead_ratio"] = wall_s(traced) / wall_s(untraced)
    return out


def baseline_status(workload: str, seed: int, digest: str) -> str:
    known = json.loads((HERE / "baseline_digests.json").read_text()).get(workload, {})
    if str(seed) not in known:
        return "no baseline for this seed"
    return "match" if known[str(seed)] == digest else "MISMATCH"


def run_workload(args) -> int:
    from spans import LAYER_METRICS
    from workloads import WORKLOADS, build_graphs, make_ops

    loadavg = os.getloadavg()[0]
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed)
    speed = Speedometer()
    setup_raw_s, setup_s, graphs = measure_setup(ops, build_graphs, speed)
    runner = Runner(ops, graphs, speed)
    untraced, traced, layers = measure(runner, args.seconds, bool(args.trace))
    if args.trace:
        values = per_layer(untraced, traced, layers)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        values = end_to_end(runner, untraced, setup_s)
        units = dict(E2E_METRICS)
    op_digests = [r.digest for r in runner.reference]
    digest = hashlib.sha256("".join(op_digests).encode()).hexdigest()
    status = baseline_status(args.workload, args.seed, digest)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {len(untraced)} untraced + {len(traced)} traced passes, "
          f"{runner.failed} of {runner.attempted} executions failed "
          f"(fail_frac {runner.failed / runner.attempted:.4f})")
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    for problem in runner.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  digest {digest} (baseline: {status})")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(loadavg),
        "digest": digest, "baseline": status,
        "operations": [
            {"op": op.label, "digest": r.digest, "error": r.error,
             "sim": list(r.sim), "removed": r.removed, "m": r.m,
             "walls": walls}
            for op, r, walls in zip(ops, runner.reference, runner.op_walls)
        ],
        "pass_walls": {"untraced": untraced, "traced": traced},
        "raw_wall_s": median(wall for wall, _ in untraced),
        "raw_setup_s": setup_raw_s,
        "check_s": runner.check_s,
        "problems": runner.problems,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time; prints one table."""
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 3)[0] + "\n" if proc.stdout else "")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = list(results[names[0]]["metrics"])
    print(f"{'metric':34s}" + "".join(f"{n:>14s}" for n in names))
    for metric in metrics:
        unit = results[names[0]]["metrics"][metric]["unit"]
        row = "".join(f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        print(f"{metric + ' [' + unit + ']':34s}{row}")
    print(f"{'correct':34s}" + "".join(f"{str(results[n]['correct']):>14s}" for n in names))
    print(f"{'fail_frac':34s}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>14.4f}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expandec" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'expandec'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
