"""The benchmark's own tests. From the root of a skone checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_and_limits():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 2 <= len(bench["workloads"]) <= 8
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_tail_has_ten_ops_beyond_it():
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert sum(1 for x in range(100) if x > value) == 10
    assert pct == 90.0
    assert run.tail([5.0, 1.0])[0] == 1.0


def test_end_to_end_uses_scaled_times():
    # 20 ops, each 0.1 s of wall time that the probe scales to 0.05 s
    ops = [("op", 0.05, True, i % 2 == 0, 0.1) for i in range(20)]
    slow = (2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S)
    values, _ = run.end_to_end([(2.0, slow), (4.0, slow), (3.0, slow)],
                               {"ops": ops, "peak_rss_mb": 50.0})
    assert values["op_ms.p50"] == pytest.approx(50.0)
    assert values["ops_per_s"] == pytest.approx(20.0)
    assert values["setup_s"] == pytest.approx(1.5)
    assert values["certified_share"] == 0.5
    assert values["ok_share"] == 1.0
    assert speed.probe_s() > 0


def test_speed_scales_use_the_median_of_nearby_probes():
    nominal = speed.NOMINAL_S
    # a one-op burst of fast probes does not move its op's factor
    probes = [(nominal, nominal)] * 30
    probes[15] = (nominal / 2, nominal / 2)
    assert speed.scales(probes)[15] == pytest.approx(1.0)
    # a lasting slowdown does
    probes = [(nominal, nominal)] * 30 + [(2 * nominal, 2 * nominal)] * 30
    f = speed.scales(probes)
    assert f[0] == pytest.approx(1.0) and f[-1] == pytest.approx(0.5)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kmrt-q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each reference check rejects a wrong answer fed to it
# ---------------------------------------------------------------------------

def test_platonov_check_rejects_wrong_answers():
    out = workloads.platonov_pipeline(2, 17, 3)
    assert workloads.check_platonov(2, out) == (True, True)
    for corrupt in (lambda o: o.update(order=3),
                    lambda o: o["rel"].update({2: (2, 2, False)}),
                    lambda o: o["rel"].update({1: (2, 1, False)}),
                    lambda o: o.update(centre="computed zero"),
                    lambda o: o.update(witness=False)):
        wrong = copy.deepcopy(out)
        corrupt(wrong)
        assert not workloads.check_platonov(2, wrong)[0]


def test_kmrt_checks_reject_wrong_answers():
    wl = workloads.KmrtQ(4)
    wl.setup()
    ops = wl.round(0)
    results = []
    for kind, run_op, check in ops:
        res = run_op()
        assert check(res)[0], kind
        results.append(res)
    for (kind, _, check), res in zip(ops, results):
        if kind == "pfaffian":
            wrong = SimpleNamespace(prp=res.prp, nrp=res.nrp, trp=res.trp + 1)
        else:
            # one level below I^4: a nonzero invariant, impossible over Q
            wrong = SimpleNamespace(witt=res.witt, level=SimpleNamespace(level=3))
        assert not check(wrong)[0], kind
    # a class that differs mod I^4 from the first eval's: <1> has odd rank
    sk = workloads._skone()
    forms, Q = sk.forms, sk.fields.Rationals()
    odd = forms.witt_class(forms.QuadraticForm(Q, [1]))
    v_check = ops[3][2]
    assert not v_check(SimpleNamespace(witt=odd, level=results[3].level))[0]


def test_cli_checks_reject_wrong_answers():
    commands = workloads.cli_commands()
    for argv, payload_check in commands:
        if argv[0] == "selftest":
            continue
        rc, out = workloads.run_cli_inprocess(argv)
        assert workloads.check_cli(rc, out, payload_check)[0], argv
        assert not workloads.check_cli(2, out, payload_check)[0]
        doc = json.loads(out)
        assert not workloads.check_cli(0, json.dumps(dict(doc, schema=2)),
                                       payload_check)[0]
    wrong_payloads = {"bounds": {"nbar": 3, "torsion_m": 9},
                      "invariant": {"zero_mod_I4": False, "level": 3,
                                    "invariants": {}}}
    for argv, payload_check in commands:
        if argv[0] in wrong_payloads:
            assert not payload_check(wrong_payloads[argv[0]])


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def test_traced_run_yields_every_per_layer_metric(monkeypatch):
    monkeypatch.setattr(workloads.KmrtQ, "trace_rounds", 1)
    wl = workloads.KmrtQ(5)
    wl.setup()
    res = worker.traced_run(wl)
    assert not res["errors"]
    # self times partition the traced wall time of the root spans
    assert res["self_sum_s"] == pytest.approx(res["root_wall_s"], abs=1e-6)
    wanted = {m["name"] for m in _bench()["per_layer"]}
    assert wanted == set(res["per_layer"])
    for name in wanted:
        assert NAME_RE.match(name), name
    # selftest runs with only the verbs traced; the rest of the sweep is traced
    assert res["per_layer"]["cli.verb_ms.selftest"] > 0
    assert 0 < res["sweep_share"] < 1
