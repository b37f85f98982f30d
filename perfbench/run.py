#!/usr/bin/env python3
"""skone benchmark: one command for every workload, metric and check.

From the root of a skone checkout (the program is run from src/, unbuilt):
    python3 perfbench/run.py --workload kmrt-q --seed 1 --seconds 40 --trace 0

Each workload runs in its own child process (perfbench/worker.py), pinned
to the CPU that ran a short calibration loop fastest just before. The
untraced run (--trace 0) starts that process SETUP_SAMPLES times; the last
start also runs the timed loop, and setup_s is the median of the starts.
Every end-to-end time is scaled to a nominal CPU speed by the probe in
speed.py, run before and after each op and each set-up; the raw wall-time
figures are printed as notes.
The traced run (--trace 1) reports the per-layer metrics. The last stdout
line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kmrt-q", "platonov-towers")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "ok_share": "share",
    "certified_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "share"
    return "count"


def _loop_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


def pin_to_fastest_cpu():
    """Pin this process, and so every child it starts, to the CPU that runs
    a short pure-Python loop fastest. On a shared VM one vCPU is often
    slower than another for minutes at a time (a busy sibling thread on the
    host), and which one a child lands on would otherwise vary run to run.
    Returns the CPU chosen, or None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    loop_ns = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        loop_ns[cpu] = min(_loop_ns() for _ in range(5))
    best = min(loop_ns, key=loop_ns.get)
    os.sched_setaffinity(0, {best})
    return best


def child(workload, seed, seconds, mode, budget_s):
    """Run one worker process to completion; returns its JSON result, with
    `setup_probes`: the parent's probe time just before the start and the
    child's just after its set-up."""
    before = speed.probe_median_s()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--launched-at", repr(time.time())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget_s)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} worker ({mode}) exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_probes"] = (before, res["probe_s"])
    return res


def tail(durations_ms):
    """The highest percentile with at least ten ops beyond it:
    (value, percentile, op count)."""
    d = sorted(durations_ms)
    n = len(d)
    idx = max(n - 11, 0)
    return d[idx], 100.0 * (idx + 1) / n, n


def end_to_end(setups, timed) -> tuple[dict, list[str]]:
    """The seven metrics from the timed run's op records and the set-ups'
    (wall seconds, (probe before, probe after)); times at nominal speed.
    All set-ups share one scale, from the median of their probe times: a
    set-up takes too short a time to average out a probe's jitter."""
    ops = timed["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[2])
    ms = [op[1] * 1000.0 for op in ops]
    timed_s = sum(op[1] for op in ops)
    tail_ms, pct, n = tail(ms)
    setup_scale = speed.NOMINAL_S / statistics.median(
        t for _, pair in setups for t in pair)
    values = {
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail_ms,
        "ops_per_s": (attempted - failed) / timed_s,
        "ok_share": (attempted - failed) / attempted,
        "certified_share": sum(1 for op in ops if op[3]) / attempted,
        "setup_s": statistics.median(s for s, _ in setups) * setup_scale,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    wall_ms = [op[4] * 1000.0 for op in ops]
    notes = [f"op_ms.tail is p{pct:.1f} over {n} ops",
             f"failed_share {failed / attempted:.4f} ({failed} of {attempted})",
             f"wall time: op_ms.p50 {statistics.median(wall_ms):.3f}, "
             f"op_ms.tail {tail(wall_ms)[0]:.3f}, "
             f"ops_per_s {(attempted - failed) / sum(wall_ms) * 1000.0:.4f}, "
             f"setup_s {statistics.median(s for s, _ in setups):.4f}",
             f"mean speed scale over ops {timed_s * 1000.0 / sum(wall_ms):.4f}",
             f"setup_s samples (wall s) {', '.join(f'{s:.3f}' for s, _ in setups)}, "
             f"scale {setup_scale:.4f}"]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "skone", "__init__.py")):
        print("perfbench: run from the root of a skone checkout "
              "(src/skone not found)", file=sys.stderr)
        return 2

    cpu = pin_to_fastest_cpu()
    if args.trace:
        res = child(args.workload, args.seed, args.seconds, "trace", CHILD_TIMEOUT_S)
        metrics = {k: (v, per_layer_unit(k)) for k, v in res["per_layer"].items()}
        notes = [f"traced self time {res['self_sum_s']:.3f} s, "
                 f"traced root wall {res['root_wall_s']:.3f} s",
                 f"the sweep's share of traced self time {res['sweep_share']:.3f}"]
    else:
        setups = [child(args.workload, args.seed, args.seconds, "setup", 120)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = child(args.workload, args.seed, args.seconds, "time", CHILD_TIMEOUT_S)
        values, notes = end_to_end(
            [(r["setup_s"], r["setup_probes"]) for r in setups + [res]], res)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    ops = res["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[2])
    for err in res["errors"]:
        print(f"error: {err}")
    print(f"pinned to cpu {cpu}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
