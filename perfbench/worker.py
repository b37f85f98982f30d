"""One workload in its own process: set up, then time ops or trace them.

Run by run.py, from the root of a skone checkout:
    python3 perfbench/worker.py --workload W --seed N --seconds S
        --mode setup|time|trace --launched-at T

It prints one JSON object on its last stdout line. `setup_s` runs from T
(the parent's clock just before it started this process) to the end of
set-up, and `probe_s` is the speed probe's time right after it (see
speed.py). The timing loop is a closed loop with one caller: each op
starts after the previous one returns. Only whole rounds run, so every
run holds the same op mix; their summed op wall time stays within about
--seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import speed  # noqa: E402
import workloads  # noqa: E402

WALL_CAP_FACTOR = 4     # stop a run whose checks take this many times --seconds


def run_ops(ops, records, errors):
    """Time each op, then check it outside the timed interval. The ops
    start after a full garbage collection, and each runs between two speed
    probes; a record is (kind, wall seconds, ok, certified, probe times)."""
    gc.collect()
    for kind, run, check in ops:
        before = speed.probe_s()
        t0 = time.perf_counter()
        try:
            res = run()
            err = None
        except Exception as exc:   # an op that raises is a failed op
            err = exc
        dt = time.perf_counter() - t0
        after = speed.probe_s()
        ok = cert = False
        if err is None:
            try:
                ok, cert = check(res)
            except Exception as exc:
                err = exc
        if err is not None and len(errors) < 5:
            errors.append(f"{kind}: {type(err).__name__}: {err}")
        records.append((kind, dt, bool(ok), bool(cert), (before, after)))


def time_loop(wl, seconds: float) -> dict:
    """Whole rounds: at least two, then more while the next round (costed
    as the last one) would end less than half a round past --seconds of
    summed op wall time. Each op record comes out as (kind, seconds at
    nominal speed, ok, certified, wall seconds)."""
    records, errors = [], []
    start = time.perf_counter()
    timed = last = 0.0
    k = 0
    while (k < 2 or timed + last / 2 < seconds) and \
            time.perf_counter() - start < WALL_CAP_FACTOR * seconds + 60:
        before = len(records)
        run_ops(wl.round(k), records, errors)
        last = sum(r[1] for r in records[before:])
        timed += last
        k += 1
    scales = speed.scales([r[4] for r in records])
    ops = [(kind, dt * f, ok, cert, dt)
           for (kind, dt, ok, cert, _), f in zip(records, scales)]
    return {"ops": ops, "rounds": k, "errors": errors}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

KINDS = ("q", "fq", "qp", "laurent", "zeta")
ENGINES = ("rational", "padic", "finite", "springer")
VERBS = ("bounds", "sk1", "residue", "form", "wittvec", "lift", "centre",
         "invariant", "selftest")
MICRO_PAIRS = 64
MICRO_REPS = 20


def _micro_us(calls) -> float:
    """Median us per call over the sampled operands."""
    per = []
    for fn in calls[:MICRO_PAIRS]:
        t0 = time.perf_counter_ns()
        for _ in range(MICRO_REPS):
            fn()
        per.append((time.perf_counter_ns() - t0) / MICRO_REPS / 1000.0)
    return statistics.median(per)


def field_micro(tracer) -> dict:
    """Median us per multiplication and per inverse, per tower kind, on
    operands sampled while tracing (the sweep reaches every kind)."""
    out = {}
    for kind in KINDS:
        pairs = tracer.samples["mul", kind]
        if not pairs:
            raise RuntimeError(f"the traced run never multiplied in a {kind} tower")
        # a kind that is never inverted is timed on its multiplication operands
        singles = tracer.samples["inv", kind] or [a for a, _ in pairs]
        singles = [x for x in singles if not x.is_zero()]
        out["fields.mul_us." + kind] = _micro_us(
            [lambda a=a, b=b: a * b for a, b in pairs])
        out["fields.inv_us." + kind] = _micro_us(
            [lambda x=x: x.inverse() for x in singles])
    return out


def import_times_ms(repeats: int = 3) -> dict:
    """Cumulative import times of skone (with sympy) and of sympy alone,
    from `python -X importtime -c 'import skone.cli'`; medians."""
    skone_ms, sympy_ms = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import skone.cli"],
            capture_output=True, text=True, env=workloads.cli_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr[-500:])
        tot_skone = tot_sympy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "sympy":
                tot_sympy += int(cumulative)
            if name.startswith(" skone") and name.strip().split(".")[0] == "skone":
                tot_skone += int(cumulative)   # top-level skone entries only
        skone_ms.append(tot_skone / 1000.0)
        sympy_ms.append(tot_sympy / 1000.0)
    return {"cli.import_ms.skone": statistics.median(skone_ms),
            "cli.import_ms.sympy": statistics.median(sympy_ms)}


def parse_ms() -> float:
    """Median ms to build the CLI parser and parse one README command."""
    from skone import cli
    per = []
    for argv, _ in workloads.cli_commands():
        t0 = time.perf_counter()
        cli.build_parser().parse_args(["--json"] + argv)
        per.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(per)


def traced_run(wl) -> dict:
    """Run a fixed set of the workload's ops, each untraced and then traced
    right after it, so that drifts in CPU speed cancel in the overhead; then
    run the README commands in-process, traced, so every layer and verb is
    measured. The sweep runs selftest with only the CLI verbs traced: its
    seconds of work would swamp the workload's own layer numbers. Checks
    run on the untraced answers and on the sweep's."""
    import tracer as tr

    ops = [op for k in range(wl.trace_rounds) for op in wl.round(k)]
    sweep = workloads.sweep_ops()
    verbs_only = [op for op in sweep if op[0] == "selftest"]
    sweep = [op for op in sweep if op[0] != "selftest"]
    tracer = tr.Tracer()
    tr.install(tracer, extra_modules=[workloads])
    tracer.disable()
    records, errors, swept = [], [], []
    untraced_s = 0.0
    try:
        for i, (kind, run, check) in enumerate(ops + sweep):
            if i < len(ops):
                run_ops([(kind, run, check)], records, errors)
                untraced_s += records[-1][1]
            gc.collect()
            tracer.enable()
            try:
                res = tracer.span("bench.op", run)
            except Exception as exc:
                records.append((kind, 0.0, False, False, ()))
                errors.append(f"traced {kind}: {type(exc).__name__}: {exc}")
            else:
                if i >= len(ops):
                    swept.append((kind, lambda res=res: res, check))
            finally:
                tracer.disable()
    finally:
        tracer.disable()
    verb_tracer = tr.install_verbs(tr.Tracer())
    try:
        for kind, run, check in verbs_only:
            res = run()
            swept.append((kind, lambda res=res: res, check))
    finally:
        verb_tracer.disable()
    run_ops(swept, records, errors)   # the sweep has no untraced replay
    summary = tracer.summary()
    verb_summary = {**verb_tracer.summary(), **summary}
    roots = [end - start for _, start, end, parent in tracer.spans if parent < 0]
    traced_s = sum(roots[:len(ops)]) / 1e9

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(workloads.OUT_DIR, f"spans-{wl.name}.jsonl"))

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def self_ms(*names):
        return sum(summary.get(n, {}).get("self_ns", 0) for n in names) / 1e6

    c = tracer.counts
    m = {}
    for kind in KINDS:
        m["fields.ops." + kind] = c["fields.ops." + kind]
    m.update(field_micro(tracer))
    m["poly.calls"] = c["poly.calls"] + calls("poly")
    m["poly.self_ms"] = self_ms("poly")
    for key in ("linalg.berkowitz", "linalg.elim", "algebras.build",
                "algebras.mul", "algebras.charpoly", "ktheory.residue",
                "ktheory.pairing", "wittvec.arith"):
        m[key + ".calls"] = calls(key)
        m[key + ".self_ms"] = self_ms(key)
    for key in ("algebras.involution", "algebras.division_test",
                "forms.diagonalize", "forms.level", "ktheory.relative_group",
                "wittvec.lift", "wittvec.universal_polys",
                "invariants.kmrt_eval", "invariants.hyperbolicity",
                "invariants.platonov"):
        m[key + ".self_ms"] = self_ms(key)
    for engine in ENGINES:
        m["forms.isotropy.calls." + engine] = calls("forms.isotropy." + engine)
        m["forms.isotropy.self_ms." + engine] = self_ms("forms.isotropy." + engine)
    wc_calls, wc_undecided = c["forms.witt_class.calls"], c["forms.witt_class.undecided"]
    m["forms.witt_class.calls"] = wc_calls
    m["forms.witt_class.undecided"] = wc_undecided
    m["forms.witt_class.reduced_ratio"] = (
        (wc_calls - wc_undecided) / wc_calls if wc_calls else 1.0)
    m["invariants.hyperbolicity.undecided"] = c["invariants.hyperbolicity.undecided"]
    m.update(import_times_ms())
    m["cli.parse_ms"] = parse_ms()
    for verb in VERBS:
        incl = verb_summary.get("cli.verb." + verb, {}).get("incl_ns", [0])
        m["cli.verb_ms." + verb] = statistics.median(incl) / 1e6
    m["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return {"ops": records, "errors": errors, "per_layer": m,
            "self_sum_s": sum(tracer.self_times()) / 1e9,
            "root_wall_s": tracer.root_wall_ns() / 1e9,
            "sweep_share": sum(roots[len(ops):]) / sum(roots)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "time", "trace"], required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    out = {"setup_s": time.time() - args.launched_at,
           "probe_s": speed.probe_median_s()}
    if args.mode == "time":
        out.update(time_loop(wl, args.seconds))
    elif args.mode == "trace":
        out.update(traced_run(wl))
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
