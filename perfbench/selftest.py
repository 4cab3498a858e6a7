#!/usr/bin/env python3
"""Self-test of the benchmark harness at smoke size.

    python3 perfbench/selftest.py

Runs the small `smoke` workload through the benchmark command, twice untraced
with the same seed and once traced, and checks that:
- BENCHMARK.json names exactly the metrics, with the units, that run.py and
  spans.py define;
- each result line has exactly the keys `correct`, `attempted`, `failed` and
  `metrics`, and its metrics are exactly those of BENCHMARK.json, with units;
- the sim_* metrics and the output digests of the two same-seed runs are
  identical, and the traced run reproduces the same digest;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  command exits non-zero without printing a result.
Exits 0 when every check holds; prints each failed check otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_METRICS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == dict(E2E_METRICS), "BENCHMARK.json end_to_end differs from run.E2E_METRICS")
    expect(layer == {name: unit for name, unit, *_ in LAYER_METRICS},
           "BENCHMARK.json per_layer differs from spans.LAYER_METRICS")

    runs = [run_bench(ROOT, 0), run_bench(ROOT, 0), run_bench(ROOT, 1)]
    for proc in runs:
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"FAIL: {proc.args} exited {proc.returncode}")
            return 1
    (d1, r1), (d2, r2), (dt, rt) = (parse(p) for p in runs)
    for result, wanted, label in ((r1, e2e, "untraced"), (rt, layer, "traced")):
        expect(set(result) == RESULT_KEYS, f"{label} result keys {sorted(result)}")
        expect(result["correct"] is True, f"{label} run not correct: {result}")
        expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
               and isinstance(result["failed"], int), f"{label} attempted/failed")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == wanted, f"{label} metrics/units differ from BENCHMARK.json: {got}")
    for name in ("sim_rounds", "sim_messages", "sim_max_bits"):
        expect(r1["metrics"][name]["value"] == r2["metrics"][name]["value"],
               f"{name} differs between two runs with seed {SEED}")
    expect(d1["digest"] == d2["digest"] == dt["digest"],
           "output digests differ between runs with the same seed")
    expect([o["digest"] for o in d1["operations"]] == [o["digest"] for o in d2["operations"]],
           "per-operation digests differ between runs with the same seed")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the library: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for what in failures:
        print(f"FAIL: {what}")
    if not failures:
        print(f"selftest passed: {len(e2e)} end-to-end and {len(layer)} per-layer metrics, "
              f"digest {d1['digest'][:16]} reproduced")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
