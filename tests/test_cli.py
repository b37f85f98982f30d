import json
import pathlib
import shlex
import time

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


def test_bounds_factor_large_inputs(capsys):
    t0 = time.perf_counter()
    code, doc = run_json(capsys, ["bounds", "--n", "998244366975420990913973297"])
    assert code == EXIT_OK
    assert doc["payload"]["nbar"] == 1000000007  # n = 1000000007^2 * 998244353
    code, doc = run_json(capsys, ["bounds", "--factors", "(998244359987710471,1,1)"])
    assert code == EXIT_USAGE
    assert doc["message"] == "998244359987710471 is not prime"
    assert time.perf_counter() - t0 < 5


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


def test_residue_with_a_wild_modulus_is_undecided(capsys):
    # 6 = 1 + 5 is not a 5th power in Q_5: no coordinate (0, 0) is claimed
    argv = ["residue", "--field", "Qp(5)((t))", "--symbol", "{t,6}",
            "--mod", "5", "--at", "t"]
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert doc["payload"]["top_coordinate"] == "undecided"
    code, doc = run_json(capsys, ["--require-certificate"] + argv)
    assert code == EXIT_UNDECIDED


def test_residue_reads_k2_of_qp_mod_a_modulus_without_its_roots_of_unity(capsys):
    # K_2(Q_7)/4 = mu(Q_7)/4 = Z/2 (Moore): {3, 7} is read by the tame symbol
    code, doc = run_json(capsys, ["--require-certificate", "residue", "--field",
                                  "Qp(7)((t1))((t2))", "--symbol", "{t1,t2,3,7}",
                                  "--mod", "4", "--at", "t2,t1"])
    assert code == EXIT_OK
    top = doc["payload"]["top_coordinate"]
    assert top["group"] == "Z/2" and top["value"] == 1


def test_residue_reads_k2_of_qp_mod_a_multiple_of_p(capsys):
    # K_2(Q_5)/10 = mu(Q_5)/10 = Z/2: mu(Q_5) has no 5-part
    code, doc = run_json(capsys, ["--require-certificate", "residue", "--field",
                                  "Qp(5)((t1))((t2))", "--symbol", "{t1,t2,2,5}",
                                  "--mod", "10", "--at", "t2,t1"])
    assert code == EXIT_OK
    top = doc["payload"]["top_coordinate"]
    assert top["group"] == "Z/2" and top["value"] == 1


def test_residue_over_q2_reads_the_square_class(capsys):
    # the class of 3 in Q_2^x/2: v = 0, eps = (3 - 1)/2 = 1, omega = (9 - 1)/8 = 1
    code, doc = run_json(capsys, ["residue", "--field", "Qp(2)((t))",
                                  "--symbol", "{t,3}", "--mod", "2", "--at", "t"])
    assert code == EXIT_OK
    top = doc["payload"]["top_coordinate"]
    assert top["group"] == "Z/2 x Z/2 x Z/2" and top["value"] == [0, 1, 1]


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


def test_form_over_q2_binds_no_u(capsys):
    code, doc = run_json(capsys, ["form", "--field", "Qp(2)", "diag(1, 1, 1)",
                                  "--op", "level"])
    assert code == EXIT_OK
    assert doc["payload"]["i_level"]["detail"] == "odd dimension"
    code, doc = run_json(capsys, ["form", "--field", "Qp(2)", "diag(1, u, 1)"])
    assert code == EXIT_USAGE
    assert doc["message"] == "unbound name 'u' in element expression"


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
    # hyperbolicity is undecided over Q[zeta_4], and so is the Witt class
    code = run(["invariant", "kmrt", "--field", "Q[zeta_4]", "--algebra",
                "symbol(-1;-1;2) (*) symbol(-1;3;2)", "--element", "x1"])
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
