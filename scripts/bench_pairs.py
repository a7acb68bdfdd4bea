"""Alternating benchmark pairs of two checkouts, written to one BENCH_<n>.json.

Run as:
    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --out BENCH_<n>.json \
        --pairs rotated=10 catalog=5 flags=5 --trace rotated flags --seed 1101

PARENT_ROOT and CHANGE_ROOT are checkouts (each with `perfbench/` and
`src/`); the parent's can be had with `git archive HEAD | tar -x -C DIR`.
Pair i of a workload runs `perfbench/run.py --seed SEED+i --seconds 20
--trace 0` in both, the parent first when i is even and the change first
when it is odd.  For each end-to-end metric of BENCHMARK.json the output
holds every run's value, each side's median and quartiles, and the number
of pairs the change won (ties count for neither).  Each `--trace` workload
also runs TRACE_RUNS alternating pairs with `--trace 1` at SEED, SEED+1, ...,
and the output keeps each side's median of every per-cycle span metric
(`<span>.self_ms`, `<span>.calls`).  Only the standard library is used, and
neither checkout is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 20
TRACE_RUNS = 3


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in out["metrics"].items()} | {"correct": out["correct"]}


def alternate(sides: dict, workload: str, seed: int, n: int, trace: int) -> dict:
    """n runs per side, the parent first in even pairs; seed + i for pair i."""
    runs = {"parent": [], "change": []}
    for i in range(n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(sides[side], workload, seed + i, trace))
            print(workload, trace, i, side, runs[side][-1].get("latency_ms_p50"), file=sys.stderr, flush=True)
    return runs


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def machine() -> dict:
    cpu, info = platform.processor(), Path("/proc/cpuinfo")
    if info.exists():
        names = [line.split(":", 1)[1].strip() for line in info.read_text().splitlines() if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version()}


def write(path: Path, report: dict) -> None:
    """Written after every workload, so an interrupted run keeps what it measured."""
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", nargs="+", required=True, help="WORKLOAD=N")
    ap.add_argument("--trace", nargs="*", default=[])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    report = {"machine": machine(), "seconds": SECONDS, "seed": args.seed, "workloads": {}, "trace": {}}
    for spec in args.pairs:
        workload, n = spec.split("=")
        runs = alternate(sides, workload, args.seed, int(n), 0)
        summary = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            old, new = ([r[name] for r in runs[s]] for s in ("parent", "change"))
            wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
            summary[name] = {"parent": old, "change": new, "parent_quartiles": quartiles(old),
                             "change_quartiles": quartiles(new), "change_wins": wins, "pairs": len(old)}
        report["workloads"][workload] = {
            "seeds": [args.seed + i for i in range(int(n))],
            "correct": all(r["correct"] for side in runs.values() for r in side),
            "metrics": summary,
        }
        write(args.out, report)
    for workload in args.trace:
        runs = alternate(sides, workload, args.seed, TRACE_RUNS, 1)
        report["trace"][workload] = {"seeds": [args.seed + i for i in range(TRACE_RUNS)]} | {
            side: {k: statistics.median(r[k] for r in rs) for k in rs[0] if k.endswith((".self_ms", ".calls"))}
            for side, rs in runs.items()
        }
        write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
