import pathlib
import runpy
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
