import os
import pathlib
import runpy
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


def test_kmrt_over_q_script(monkeypatch, capsys):
    script = str(SCRIPTS / "kmrt_over_q.py")
    monkeypatch.setattr(sys, "argv", [script, "--samples", "2"])
    try:
        runpy.run_path(script, run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr().out
    assert code == 0
    assert "unreduced" not in out
    assert out.count("commutator ") == 2
    independence = [line for line in out.splitlines() if "independence" in line]
    assert [line.split(":")[0] for line in independence] == [
        "v-independence (5*(1+w) vs 1+w)", "sigma-independence (y2)",
        "sigma-independence (x2*y2)"]
    assert all(line.endswith(": True") for line in independence), out


def test_platonov_demo_script(monkeypatch, capsys):
    script = str(SCRIPTS / "platonov_demo.py")
    monkeypatch.setattr(sys, "argv", [script, "--n", "2", "--p", "17", "--a", "3"])
    try:
        runpy.run_path(script, run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr().out
    assert code == 0
    assert "SK1(A) = Z/2 " in out
    assert "SK1 nontrivial witness: True" in out


def test_reachability_script_lists_uncalled_functions():
    # one small test file: linalg is called, the CLI entry point is not
    root = SCRIPTS.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reachability.py"),
         str(root / "tests" / "test_linalg_poly.py")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("uncalled: "))
    listed = {line.split(" (line ")[0] for line in lines[head + 1:]}
    assert int(lines[head].split()[1]) == len(listed)
    assert {"skone.cli:main", "skone.wittvec:lift_algebra"} <= listed
    assert not {"skone.linalg:rank", "skone.linalg:rref"} & listed
