"""The two workloads: seeded inputs, the ops, and each op's reference check.

A workload's `setup()` builds what every op shares and runs one warm-up op
of each kind, so the lru_caches are full before timing starts. `round(k)`
draws the inputs of round k (untimed) and returns its ops. An op is
(kind, run, check): `run()` is the timed call into skone's public API and
`check(result)` runs afterwards, untimed, and returns (correct, certified).

skone functions are looked up through their module at call time, so the
tracer's wrappers are the ones called in a traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from types import SimpleNamespace

import refs

OUT_DIR = ".perfbench-out"


def _skone():
    """skone's modules, imported on first use."""
    from skone import algebras, cli, fields, forms, invariants, ktheory, wittvec
    return SimpleNamespace(alg=algebras, cli=cli, fields=fields, forms=forms,
                           inv=invariants, kt=ktheory, wv=wittvec)


def _primes(residue_mod: int, limit: int) -> list[int]:
    return [p for p in range(3, limit) if refs.is_prime(p) and p % residue_mod == 1]


# ---------------------------------------------------------------------------
# kmrt-q
# ---------------------------------------------------------------------------

class KmrtQ:
    """kmrt_eval on seeded random commutators over Q.

    A round is six ops on fresh commutators c of (-1,-1)x(-1,3) and d, d' of
    (2,5)x(-1,-1): eval c, eval d, c again with v_override, c with another
    involution, eval d', and one pfaffian_data identity check. The evals of
    c take the full path, whose Witt class today always falls back to
    "unreduced". The other four ops are short: sigma is hyperbolic on the
    second algebra and for the other involutions, and the pfaffian check is
    one Prd. Sorted by cost a round runs pfaffian < sigma-independence <
    the two evals of d < the two long ops, so the median op lies among the
    evals on the second algebra and the tail among the long ops."""

    name = "kmrt-q"
    trace_rounds = 4

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        sk = _skone()
        alg, fields, inv = sk.alg, sk.fields, sk.inv
        Q = fields.Rationals()
        self.A = [alg.tensor(alg.symbol_algebra(Q, -1, -1, 2),
                             alg.symbol_algebra(Q, -1, 3, 2)),
                  alg.tensor(alg.symbol_algebra(Q, 2, 5, 2),
                             alg.symbol_algebra(Q, -1, -1, 2))]
        self.sigma = [inv.make_symplectic_involution(A) for A in self.A]
        right = self.A[0].tag.right
        self.sigma_alt = [
            inv.make_symplectic_involution(self.A[0], s) for s in
            (right.generator("y"), right.generator("x") * right.generator("y"))]
        for A, sigma in zip(self.A, self.sigma):
            inv.kmrt_eval(A, sigma, A.one())

    def _commutator(self, A):
        alg = _skone().alg
        return alg.commutator(A, alg.random_invertible(A, self.rng, span=2),
                              alg.random_invertible(A, self.rng, span=2))

    def round(self, k: int):
        sk = _skone()
        forms, inv = sk.forms, sk.inv
        (A1, A2), (s1, s2) = self.A, self.sigma
        c, d1, d2 = self._commutator(A1), self._commutator(A2), self._commutator(A2)
        v = (A1.one() - s1.apply(c) * c).scale(3 if k % 2 == 0 else 5)
        s_alt = self.sigma_alt[k % 2]
        B, sB = self.A[k % 2], self.sigma[k % 2]
        x = B.element([self.rng.randint(-3, 3) for _ in range(B.dim)])
        sym = x + sB.apply(x)
        base = {}

        def certified(res):
            return "unreduced" not in res.witt.provenance

        # SK1 of a number field is trivial: every commutator lands in I^4
        def check_level(res, keep=False):
            if keep:
                base["witt"] = res.witt
            return res.level.level >= 4, certified(res)

        def check_same_class(res):
            ok = (res.level.level >= 4 and "witt" in base
                  and forms.witt_equal_mod_i4(base["witt"], res.witt))
            return ok, certified(res)

        def check_pfaffian(pf):
            ok = (pf.prp * pf.prp == B.reduced_char_poly(sym)
                  and pf.nrp * pf.nrp == B.nrd(sym)
                  and pf.trp + pf.trp == B.trd(sym))
            return ok, True

        return [
            ("eval", lambda: inv.kmrt_eval(A1, s1, c),
             lambda r: check_level(r, keep=True)),
            ("eval", lambda: inv.kmrt_eval(A2, s2, d1), check_level),
            ("v-independence", lambda: inv.kmrt_eval(A1, s1, c, v_override=v),
             check_same_class),
            ("sigma-independence", lambda: inv.kmrt_eval(A1, s_alt, c),
             check_same_class),
            ("eval", lambda: inv.kmrt_eval(A2, s2, d2), check_level),
            ("pfaffian", lambda: inv.pfaffian_data(sB, sym), check_pfaffian),
        ]


# ---------------------------------------------------------------------------
# platonov-towers
# ---------------------------------------------------------------------------

def platonov_pipeline(n: int, p: int, a: int) -> dict:
    """scripts/platonov_demo.py's run_one without the printing."""
    sk = _skone()
    alg, fields, inv, kt = sk.alg, sk.fields, sk.inv, sk.kt
    k = fields.parse_field(f"Qp({p})")
    res = inv.sk1_platonov(inv.PlatonovConfig(k, n, k.elem(a), k.elem(p)))
    tower = (f"Qp({p})[zeta_{n * n}]((t1))((t2))" if n > 2
             else f"Qp({p})((t1))((t2))")
    T = fields.parse_field(tower)
    t1, t2 = kt.laurent_var_element(T, "t1"), kt.laurent_var_element(T, "t2")
    zeta, _ = fields.primitive_root_of_unity(T, n)
    A = alg.tensor(alg.symbol_algebra(T, a, t1, n, zeta),
                   alg.symbol_algebra(T, p, t2, n, zeta))
    out = {"order": res.group_order, "group": res.group,
           "division": res.division, "rel": {}}
    for r in (1, 2):
        rel = kt.relative_group(A, r, n * n)
        out["rel"][r] = (rel.order, inv.comparison_m_r(rel, 1),
                         inv.pi_tilde_surjective(rel))
    if n == 2:
        Tz = fields.parse_field(f"Qp({p})[zeta_4]((t1))((t2))")
        t1z, t2z = kt.laurent_var_element(Tz, "t1"), kt.laurent_var_element(Tz, "t2")
        Az = alg.tensor(alg.symbol_algebra(Tz, a, t1z, 2),
                        alg.symbol_algebra(Tz, p, t2z, 2))
        out["centre"] = inv.centre_symbol(Az).certificate
        out["witness"] = inv.sk1_nontrivial_witness(Az)
    return out


def check_platonov(n: int, out: dict):
    ok = out["order"] == n and out["group"] == f"Z/{n}"
    # relative groups: Z/n at r = 1; at r = 2, Z/n for odd n and Z/4 at n = 2
    for r, want in ((1, n), (2, 4 if n == 2 else n)):
        order, m_1, _ = out["rel"][r]
        # m_r embeds Z/order in Z/n^2, so it sends 1 to n^2 / order
        ok = ok and order == want and m_1 == n * n // want
    if n == 2:
        ok = ok and out["centre"] == "computed nonzero" and out["witness"] is True
    return ok, out["division"] == "computed certificate"


class PlatonovTowers:
    """The Platonov pipeline over Qp((t1))((t2)) towers.

    The first round opens with one n = 5 op; every round then runs n = 2, 2,
    3 with seeded primes p = 1 mod n^3. Each n walks its primes in a seeded
    order and reshuffles after the last, so every run meets each prime about
    equally often (an n = 3 op costs up to 1.5x more at one prime than at
    another). The median op lies in the n = 2 cluster."""

    name = "platonov-towers"
    trace_rounds = 2
    PRIMES = {2: _primes(8, 400), 3: _primes(27, 1000), 5: [251]}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.queue = {n: [] for n in self.PRIMES}

    def setup(self):
        platonov_pipeline(2, 17, 3)

    def _prime(self, n):
        if not self.queue[n]:
            self.queue[n] = self.rng.sample(self.PRIMES[n], len(self.PRIMES[n]))
        return self.queue[n].pop()

    def _op(self, n):
        p = self._prime(n)
        a = refs.primitive_root(p)
        return (f"n={n}", lambda: platonov_pipeline(n, p, a),
                lambda out: check_platonov(n, out))

    def round(self, k: int):
        ops = [self._op(n) for n in (2, 2, 3)]
        return [self._op(5)] + ops if k == 0 else ops


# ---------------------------------------------------------------------------
# the README commands, run in-process by the traced run's sweep
# ---------------------------------------------------------------------------

def cli_commands() -> list[tuple[list[str], object]]:
    """The README's commands as argv lists, each with its payload check."""
    os.makedirs(OUT_DIR, exist_ok=True)
    config = os.path.join(OUT_DIR, "platonov.json")
    with open(config, "w") as fh:
        json.dump({"field": "Qp(17)", "n": 2, "a1": "3", "a2": "17"}, fh)
    sk1 = (lambda pl: pl["group"] == "Z/2" and pl["group_order"] == 2)
    return [
        # 12 = 2^2 * 3, so nbar(12) = 2^1 * 3^0
        (["bounds", "--n", "12"], lambda pl: pl["nbar"] == 2),
        (["bounds", "--factors", "(3,9,3),(2,4,2)"],
         lambda pl: pl["torsion_m"] == 3 ** 2 * 2),
        (["sk1", "--field", "Qp(17)", "--n", "2", "--a1", "u", "--a2", "p"], sk1),
        (["sk1", "--config", config], sk1),
        # {2, 5} has order 2 mod 2: 2 generates F_5^x
        (["residue", "--field", "Qp(5)((t1))((t2))", "--symbol", "{u,t1,p,t2}",
          "--mod", "2", "--at", "t2,t1"],
         lambda pl: pl["top_coordinate"]["value"]["value"] == "1/2"),
        # <<-1,-1,-1>> is anisotropic over R, so over Q it is in I^3 \ I^4
        (["form", "--field", "Q", "pfister(-1; -1; -1)", "--op", "level"],
         lambda pl: pl["i_level"]["level"] == 3),
        # I^3 of Q_5 is 0: a 3-fold Pfister form is hyperbolic
        (["form", "--field", "Qp(5)", "pfister(4*a+1; b; 4*c+1)",
          "--bind", "a=1", "--bind", "b=3", "--bind", "c=2"],
         lambda pl: pl["isotropy"]["isotropic"] is True
         and pl["witt"]["anisotropic_kernel"] == "<>"),
        # W_2(F_2) = Z/4: 1 + 3 = 0
        (["wittvec", "--p", "2", "--l", "2", "--op", "add", "--lhs", "1,0",
          "--rhs", "1,1"], lambda pl: pl["result"] == "(0, 0)"),
        (["lift", "--algebra", "palg(1;1;2) (*) palg(0;1;2)", "--field", "F(2)",
          "--fraction-field", "Q"],
         lambda pl: pl["relations_verified"] and pl["structure_constants_match"]),
        (["centre", "--field", "Qp(5)[zeta_4]", "--values", "1,3,2,5"],
         lambda pl: pl["pfister_class"]["zero"] is True),
        (["centre", "--field", "Qp(17)[zeta_4]((t1))((t2))", "--algebra",
          "symbol(3; t1; 2) (*) symbol(17; t2; 2)"],
         lambda pl: pl["certificate"] == "computed nonzero"),
        # SK1 of Q is trivial: an SL1 element has invariant 0 mod I^4
        (["invariant", "kmrt", "--field", "Q", "--algebra",
          "symbol(-1;-1;2) (*) symbol(-1;3;2)", "--element", "x1"],
         lambda pl: pl["zero_mod_I4"] is True and pl["level"] >= 4),
        (["selftest"], lambda pl: pl["all_pass"] is True),
    ]


def check_cli(rc: int, stdout: str, payload_check):
    """Exit code 0, schema 1 and the payload fields; certified when every
    certificate is computed."""
    if rc != 0:
        return False, False
    try:
        doc = json.loads(stdout)
        ok = doc["schema"] == 1 and bool(payload_check(doc["payload"]))
    except (ValueError, KeyError, TypeError):
        return False, False
    return ok, ok and all(c["provenance"].startswith("computed")
                          for c in doc["certificates"])


def run_cli_inprocess(argv):
    """skone.cli.run in this process; returns (exit code, stdout)."""
    cli = _skone().cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(["--json"] + argv)
    return rc, buf.getvalue()


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


SPRINGER_FORM = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (3, 1, 1)]   # (u, e_s, e_t)


def sweep_ops():
    """The README commands run in-process, plus the two calls that reach
    the layers no README command reaches: a form over F_7((s))((t)) (the
    finite-field isotropy engine) and one Platonov op (relative_group)."""
    ops = [(argv[0], lambda argv=argv: run_cli_inprocess(argv),
            lambda out, check=check: check_cli(*out, check))
           for argv, check in cli_commands()]
    diag = ", ".join(f"{u}*s^{es}*t^{et}" for u, es, et in SPRINGER_FORM)
    want = refs.oracles.springer_brute_isotropy(SPRINGER_FORM, 7)
    ops.append(("form", lambda: run_cli_inprocess(
        ["form", "--field", "F(7)((s))((t))", f"diag({diag})", "--op", "isotropy"]),
        lambda out: check_cli(*out, lambda pl: pl["isotropy"]["isotropic"] == want)))
    ops.append(("n=2", lambda: platonov_pipeline(2, 17, 3),
                lambda out: check_platonov(2, out)))
    return ops


WORKLOADS = {cls.name: cls for cls in (KmrtQ, PlatonovTowers)}
