import json
import pathlib
import shlex

import pytest

from skone.cli import (
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    run,
)


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bounds(capsys):
    code, doc = run_json(capsys, ["bounds", "--n", "4"])
    assert code == EXIT_OK
    assert doc["payload"]["nbar"] == 2
    assert doc["schema"] == 1
    code, doc = run_json(capsys, ["bounds", "--factors", "(3,9,3),(2,4,2)"])
    assert doc["payload"]["torsion_m"] == 18


def test_bounds_usage_errors(capsys):
    code = run(["bounds", "--n", "0"])
    assert code == EXIT_USAGE
    code = run(["nonsense"])
    assert code == EXIT_USAGE
    code = run(["bounds"])
    assert code == EXIT_USAGE


def test_residue_command(capsys):
    code, doc = run_json(capsys, [
        "residue", "--field", "Qp(5)((t1))((t2))",
        "--symbol", "{u,t1,p,t2}", "--mod", "2", "--at", "t2,t1"])
    assert code == EXIT_OK
    assert doc["payload"]["top_coordinate"]["value"]["value"] == "1/2"
    assert len(doc["payload"]["steps"]) == 2
    assert "residue" in doc["conventions"]


def test_residue_determinism(capsys):
    argv = ["residue", "--field", "Qp(5)((t1))((t2))",
            "--symbol", "{2,t1,5,t2}", "--mod", "2", "--at", "t2,t1"]
    _, doc1 = run_json(capsys, argv)
    _, doc2 = run_json(capsys, argv)
    doc1.pop("timing_ms")
    doc2.pop("timing_ms")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_sk1_command(capsys):
    code, doc = run_json(capsys, ["sk1", "--field", "Qp(17)", "--n", "2",
                                  "--a1", "u", "--a2", "p"])
    assert code == EXIT_OK
    assert doc["payload"]["group"] == "Z/2"
    assert doc["payload"]["division"] == "computed certificate"


def test_sk1_config_file(tmp_path, capsys):
    cfg = tmp_path / "platonov.json"
    cfg.write_text(json.dumps(
        {"field": "Qp(17)", "n": 2, "a1": "3", "a2": "17"}))
    code, doc = run_json(capsys, ["sk1", "--config", str(cfg)])
    assert code == EXIT_OK
    assert doc["payload"]["group"] == "Z/2"


def test_form_command(capsys):
    code, doc = run_json(capsys, ["form", "--field", "Q",
                                  "pfister(-1; -1; -1)", "--op", "level"])
    assert code == EXIT_OK
    assert doc["payload"]["i_level"]["level"] == 3
    # a definite form is not decided from its signature: its kernel is itself
    assert doc["payload"]["witt"] == {"anisotropic_kernel": "<1,1,1,1,1,1,1,1>",
                                      "hyperbolic_rank": 0,
                                      "provenance": "witness splitting"}
    assert doc["payload"]["i_level"]["detail"] == \
        "Clifford trivial everywhere; signature 8 != 0 mod 16"
    code, doc = run_json(capsys, ["form", "--field", "F(7)", "diag(1,1,1)"])
    assert doc["payload"]["isotropy"]["witness"] == ["1", "2", "3"]


def test_form_with_bindings(capsys):
    code, doc = run_json(capsys, [
        "form", "--field", "Qp(5)", "pfister(4*a+1; b; 4*c+1)",
        "--bind", "a=1", "--bind", "b=3", "--bind", "c=2", "--op", "level"])
    assert code == EXIT_OK
    assert doc["payload"]["i_level"]["level"] == 4


def test_wittvec_command(capsys):
    code, doc = run_json(capsys, ["wittvec", "--p", "2", "--l", "2",
                                  "--op", "add", "--lhs", "1,0", "--rhs", "1,1"])
    assert code == EXIT_OK
    assert doc["payload"]["result"] == "(0, 0)"
    code, doc = run_json(capsys, ["wittvec", "--p", "2", "--l", "2",
                                  "--op", "pi", "--lhs", "1,1"])
    assert doc["payload"]["result"] == "(1)"


def test_lift_command(capsys):
    code, doc = run_json(capsys, [
        "lift", "--algebra", "palg(1;1;2) (*) palg(0;1;2)", "--field", "F(2)",
        "--fraction-field", "Q"])
    assert code == EXIT_OK
    assert doc["payload"]["relations_verified"] is True
    assert doc["payload"]["structure_constants_match"] is True


def test_centre_commands(capsys):
    code, doc = run_json(capsys, [
        "centre", "--field", "Qp(5)[zeta_4]", "--values", "1,3,2,5"])
    assert code == EXIT_OK
    assert doc["payload"]["pfister_class"]["zero"] is True
    code, doc = run_json(capsys, [
        "centre", "--field", "Qp(17)[zeta_4]((t1))((t2))",
        "--algebra", "symbol(3; t1; 2) (*) symbol(17; t2; 2)"])
    assert code == EXIT_OK
    assert doc["payload"]["certificate"] == "computed nonzero"


def test_invariant_kmrt(capsys):
    code, doc = run_json(capsys, [
        "invariant", "kmrt", "--field", "Q",
        "--algebra", "symbol(-1; -1; 2) (*) symbol(-1; 3; 2)",
        "--element", "1"])
    assert code == EXIT_OK
    assert doc["payload"]["level"] >= 4
    # the README line: q_sigma is definite, so sigma is not hyperbolic
    code, doc = run_json(capsys, [
        "invariant", "kmrt", "--field", "Q",
        "--algebra", "symbol(-1;-1;2) (*) symbol(-1;3;2)", "--element", "x1"])
    assert code == EXIT_OK
    assert doc["payload"]["hyperbolic_sigma"] is False
    assert doc["payload"]["kernel"] == "<>" and doc["payload"]["zero_mod_I4"] is True
    code, doc = run_json(capsys, ["invariant", "list"])
    assert "KMRT" in doc["payload"]["invariants"]


def test_unsupported_tower_exit(capsys):
    code = run(["form", "--field", "Q[zeta_4]", "diag(1,2)"])
    assert code == EXIT_UNSUPPORTED


def test_selftest(capsys):
    code, doc = run_json(capsys, ["selftest"])
    assert code == EXIT_OK
    assert doc["payload"]["all_pass"] is True


def readme_cli_lines():
    """The command lines of the README's CLI section, in order."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example(line, tmp_path, monkeypatch, capsys):
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = list(lexer)
    assert argv[0] == "skone"
    # an unquoted ( ) ; & | < > is a shell operator, not part of an argument
    assert not any(set(tok) <= set("();&|<>") for tok in argv), argv
    monkeypatch.chdir(tmp_path)
    if "--config" in argv:
        # the line's comment shows the config file's contents
        config = argv[argv.index("--config") + 1]
        (tmp_path / config).write_text(line.split("#", 1)[1])
    assert run(argv[1:]) == EXIT_OK
