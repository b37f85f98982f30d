#!/usr/bin/env python3
"""Measure a baseline: two sets of runs of every workload, plus one traced run.

From the root of a skone checkout:
    python3 perfbench/baseline.py

Each set runs every workload on seeds 1-10. For each set, workload and
end-to-end metric it records the median, quartiles (statistics.quantiles,
n=4), the quartile distance as a share of the median, and n; then how far
the second set's median lies from the first's, as a share of the first, and
whether each spread and shift stays within the metric's bound. It also
records the per-layer metrics of one traced run per workload and the
machine (nproc, Python version). It writes perfbench/BASELINE.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
SETS = 2
OUT = os.path.join(HERE, "BASELINE.json")


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    notes = [ln for ln in lines[:-1]
             if ln.startswith(("op_ms.tail is", "error", "the sweep's",
                               "wall time", "mean speed scale", "setup_s samples"))]
    return json.loads(lines[-1]), notes


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / med}


def one_set(workload, seconds):
    values, runs = {}, []
    for seed in SEEDS:
        res, notes = bench(workload, seed, seconds, 0)
        runs.append({"seed": seed, "attempted": res["attempted"],
                     "failed": res["failed"], "correct": res["correct"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                     "notes": notes})
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(workload, seed, {k: round(v["value"], 4)
                               for k, v in res["metrics"].items()}, flush=True)
    return {"end_to_end": {k: stats(vs) for k, vs in values.items()},
            "runs": runs}


def compare(first, second, metrics):
    """Per metric: the second median's change against the first, as a share
    of the first (positive is worse), and whether spreads and change stay
    within the bound (setup_s's spread is not held to it)."""
    out = {}
    for m in metrics:
        a, b = first[m["name"]], second[m["name"]]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (b["median"] - a["median"]) / a["median"]
        spreads = [a["iqr_share"], b["iqr_share"]]
        within = worse <= m["bound"] and (
            m["name"] == "setup_s" or max(spreads) <= m["bound"])
        out[m["name"]] = {"second_worse_by": worse, "within_bound": within}
    return out


def main():
    with open("BENCHMARK.json") as fh:
        bench_spec = json.load(fh)
    seconds = bench_spec["run_seconds"]
    out = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "run_seconds": seconds, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
           "sets": [{} for _ in range(SETS)], "comparison": {}, "per_layer": {}}
    for s in range(SETS):
        for w in WORKLOADS:
            out["sets"][s][w] = one_set(w, seconds)
            save(out)
    for w in WORKLOADS:
        out["comparison"][w] = compare(out["sets"][0][w]["end_to_end"],
                                       out["sets"][1][w]["end_to_end"],
                                       bench_spec["end_to_end"])
        traced, notes = bench(w, SEEDS[0], seconds, 1)
        out["per_layer"][w] = {"metrics": {k: v["value"]
                                           for k, v in traced["metrics"].items()},
                               "notes": notes}
        save(out)


def save(out):
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
