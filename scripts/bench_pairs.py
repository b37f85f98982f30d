#!/usr/bin/env python3
"""Compare two skone checkouts on the benchmark, in alternating pairs.

Runs `perfbench/run.py` of each checkout on the same seeds, parent first on
even pairs and change first on odd ones, so slow drift of the host's speed
falls on both sides alike. For every end-to-end metric it records the
median and quartiles of either side and the wins k/n of the change (the
pairs where it is better, in the direction BENCHMARK.json gives), and the
wall time of each side's runs (`wall_s`: the whole subprocess, set-up and
untimed checks included). With --traced it adds one traced run per side and
copies the named per-layer metrics. The result is merged into --out under
the workload's name.

Usage:
    python3 scripts/bench_pairs.py --parent ../skone-parent --change . \\
        --workload kmrt-q --pairs 10 --first-seed 201 --seconds 40 \\
        --traced algebras.charpoly.self_ms --out BENCH.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout: str, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, float]:
    """The run's metrics and its wall time in seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}, wall


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=201)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--traced", action="append", default=[],
                    help="per-layer metric to copy from one traced run per side")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    walls = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, wall = run_once(sides[side], args.workload, seed, args.seconds, 0)
            runs[side].append(metrics)
            walls[side].append(wall)
            print(f"pair {i} seed {seed} {side}: ops_per_s "
                  f"{metrics['ops_per_s']:.3f} wall_s {wall:.1f}", flush=True)

    end_to_end = {}
    for name, direction in better.items():
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        wins = sum((c > p) if direction == "higher" else (c < p) for p, c in zip(par, chg))
        end_to_end[name] = {"better": direction, "parent": summary(par),
                            "change": summary(chg), "wins": f"{wins}/{len(par)}"}
    entry = {"pairs": args.pairs, "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
             "seconds": args.seconds, "end_to_end": end_to_end,
             "wall_s": {side: summary(walls[side]) for side in sides}}
    if args.traced:
        traced = {side: run_once(path, args.workload, args.first_seed, args.seconds, 1)[0]
                  for side, path in sides.items()}
        entry["traced"] = {name: {side: traced[side].get(name) for side in sides}
                           for name in args.traced}

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
