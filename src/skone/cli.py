"""Command-line front end.

Verbs: sk1, invariant, residue, form, wittvec, lift, bounds, centre, selftest.
Reports are deterministic: identical inputs give byte-identical JSON payloads
(the timing field is excluded from the canonical payload).

Exit codes: 0 success, 2 usage error, 3 unsupported tower, 4 precision
exhausted, 5 undecided while --require-certificate was passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    FieldSyntaxError,
    InconsistentConstruction,
    NonInvertibleElement,
    PrecisionExhausted,
    Undecided,
    UnsupportedTower,
)
from .exprs import (
    default_bindings,
    parse_algebra,
    parse_algebra_element,
    parse_element,
    parse_form,
    parse_symbol_entries,
)
from .fields import parse_field
from .forms import (
    HASSE_CONVENTION,
    PFISTER_CONVENTION,
    i_level,
    isotropy,
    witt_class,
)
from .ktheory import (
    RESIDUE_CONVENTION,
    BrauerCoordinate,
    symbol,
    tame_residue,
    top_coordinate,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_PRECISION = 4
EXIT_UNDECIDED = 5


def _conventions(extra=None):
    out = {
        "pfister": PFISTER_CONVENTION,
        "residue": RESIDUE_CONVENTION,
        "hasse": HASSE_CONVENTION,
    }
    if extra:
        out.update(extra)
    return out


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="skone",
        description="Exact-arithmetic SK1 invariants of central simple algebras")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument("--seed", type=int, default=0, help="seed for sampled suites")
    top.add_argument("--require-certificate", action="store_true",
                     help="treat undecided results as failures (exit 5)")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("bounds", help="Kahn bound nbar and torsion arithmetic")
    p.add_argument("--n", type=int, help="index: report nbar(n)")
    p.add_argument("--factors",
                   help="torsion rule input: \"(p,ind,per),(p,ind,per),...\"")

    p = sub.add_parser("sk1", help="Platonov SK1 via the Brauer quotient")
    p.add_argument("--config", help="JSON file with field/n/a1/a2")
    p.add_argument("--field", help="local field descriptor, e.g. Qp(17)")
    p.add_argument("--n", type=int)
    p.add_argument("--a1")
    p.add_argument("--a2")

    p = sub.add_parser("residue", help="iterated tame residues of a symbol")
    p.add_argument("--field", required=True)
    p.add_argument("--symbol", required=True, help="e.g. \"{u,t1,p,t2}\"")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--at", required=True,
                   help="comma-separated residue variables, outermost first")
    p.add_argument("--bind", action="append", default=[],
                   help="name=expr bindings for the symbol slots")

    p = sub.add_parser("form", help="isotropy / Witt class / I-level of a form")
    p.add_argument("--field", required=True)
    p.add_argument("expr", help="diag(...) or pfister(...)")
    p.add_argument("--op", choices=["isotropy", "witt", "level", "all"],
                   default="all")
    p.add_argument("--bind", action="append", default=[])

    p = sub.add_parser("wittvec", help="Witt vector arithmetic")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--field", default=None,
                   help="char-p tower (default: F(p))")
    p.add_argument("--op", choices=["add", "mul", "neg", "frobenius", "pi"],
                   required=True)
    p.add_argument("--lhs", required=True, help="comma-separated components")
    p.add_argument("--rhs", help="comma-separated components (binary ops)")

    p = sub.add_parser("lift", help="characteristic-2 algebra lift")
    p.add_argument("--algebra", required=True,
                   help="palg(a;b;2) (*) palg(c;d;2)")
    p.add_argument("--field", default="F(2)")
    p.add_argument("--fraction-field", default="Qp(2)")
    p.add_argument("--lift-binding", action="append", default=[],
                   help="residue=lift integer pairs, e.g. g=3")

    p = sub.add_parser("centre", help="centre formulas")
    p.add_argument("--field", required=True)
    p.add_argument("--algebra", help="symbol(a;b;n) (*) symbol(c;d;n)")
    p.add_argument("--values", help="a,b,c,d for the biquaternion Pfister value")
    p.add_argument("--zeta", default="auto")
    p.add_argument("--bind", action="append", default=[])

    p = sub.add_parser("invariant", help="evaluate a named invariant")
    p.add_argument("kind", choices=["kmrt", "list"])
    p.add_argument("--field", default="Q")
    p.add_argument("--algebra")
    p.add_argument("--element")
    p.add_argument("--bind", action="append", default=[])

    sub.add_parser("selftest", help="run the embedded oracle suites")
    return top


def _parse_bindings(pairs, tower):
    binds = {}
    for item in pairs:
        if "=" not in item:
            raise FieldSyntaxError(f"--bind expects name=expr, got {item!r}")
        name, expr = item.split("=", 1)
        binds[name.strip()] = parse_element(expr, tower, binds)
    return binds


def _brauer_value(val):
    if isinstance(val, BrauerCoordinate):
        return {"value": str(val.value), "provenance": val.provenance}
    if isinstance(val, tuple):
        return list(val)
    return val


# ---------------------------------------------------------------------------
# verb implementations (each returns the payload dict and certificates list)
# ---------------------------------------------------------------------------

def _run_bounds(args):
    from .invariants import kahn_bound, kahn_torsion
    payload = {}
    if args.n is not None:
        if args.n < 1:
            raise FieldSyntaxError("n must be >= 1")
        payload["n"] = args.n
        payload["nbar"] = kahn_bound(args.n)
    if args.factors:
        import re as _re
        triples = _re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)",
                              args.factors)
        if not triples:
            raise FieldSyntaxError("--factors expects \"(p,ind,per),...\"")
        factors = [(int(a), int(b), int(c)) for a, b, c in triples]
        payload["factors"] = factors
        payload["torsion_m"] = kahn_torsion(factors)
    if not payload:
        raise FieldSyntaxError("bounds needs --n or --factors")
    return payload, [("bounds", "computed", "factorisation arithmetic")]


def _run_sk1(args):
    from .invariants import PlatonovConfig, sk1_platonov
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        field, n = doc["field"], int(doc["n"])
        a1_text, a2_text = str(doc["a1"]), str(doc["a2"])
    else:
        if not (args.field and args.n and args.a1 and args.a2):
            raise FieldSyntaxError("sk1 needs --config or --field/--n/--a1/--a2")
        field, n, a1_text, a2_text = args.field, args.n, args.a1, args.a2
    tower = parse_field(field)
    a1 = parse_element(a1_text, tower)
    a2 = parse_element(a2_text, tower)
    cfg = PlatonovConfig(tower, n, a1, a2)
    res = sk1_platonov(cfg)
    payload = {
        "inputs": {"field": str(tower), "n": n, "a1": str(a1), "a2": str(a2)},
        "group": res.group,
        "group_order": res.group_order,
        "br_K": _brauer_value(res.br_K),
        "br_K1": _brauer_value(res.br_K1),
        "br_K2": _brauer_value(res.br_K2),
        "division": res.division,
    }
    certs = [("SK1 group", "computed", "Brauer-quotient arithmetic in Q/Z"),
             ("division", res.division, res.division_detail)]
    return payload, certs


def _run_residue(args):
    tower = parse_field(args.field)
    binds = _parse_bindings(args.bind, tower)
    entries = parse_symbol_entries(args.symbol, tower, binds)
    cls = symbol(tower, entries, args.mod)
    steps = []
    cur = cls
    for var in [v.strip() for v in args.at.split(",") if v.strip()]:
        cur = tame_residue(cur, var)
        steps.append({"at": var, "class": repr(cur)})
    payload = {
        "inputs": {"field": str(tower), "symbol": repr(cls), "mod": args.mod,
                   "at": args.at,
                   "bindings": {k: str(v) for k, v in
                                default_bindings(tower).items()}},
        "steps": steps,
        "final": repr(cur),
    }
    try:
        rec = top_coordinate(cls)
        payload["top_coordinate"] = {"subset": list(rec.subset),
                                     "group": rec.group,
                                     "value": _brauer_value(rec.value)}
        certs = [("top coordinate", "computed", rec.group)]
    except (UnsupportedTower, Undecided) as exc:
        payload["top_coordinate"] = "undecided"
        certs = [("top coordinate", "undecided", str(exc))]
    return payload, certs


def _run_form(args):
    tower = parse_field(args.field)
    binds = _parse_bindings(args.bind, tower)
    q = parse_form(args.expr, tower, binds)
    payload = {"inputs": {"field": str(tower), "form": repr(q)},
               "dimension": q.dim}
    certs = []
    if args.op in ("isotropy", "all"):
        res = isotropy(q)
        payload["isotropy"] = {
            "isotropic": res.isotropic,
            "witness": [str(w) for w in res.witness] if res.witness else None,
            "certificate": res.certificate,
        }
        certs.append(("isotropy", "computed", res.certificate))
    if args.op in ("witt", "level", "all"):
        try:
            wc = witt_class(q)
        except UnsupportedTower as exc:
            if args.op != "all":
                raise
            payload["witt"] = "unsupported"  # the isotropy answer stands
            return payload, certs + [("witt", "undecided", str(exc))]
        payload["witt"] = {"anisotropic_kernel": repr(wc.kernel),
                           "hyperbolic_rank": wc.hyperbolic_rank,
                           "provenance": wc.provenance}
        lvl = i_level(wc)
        payload["i_level"] = {"level": lvl.level, "certified": lvl.certified,
                              "detail": lvl.detail}
        certs.append(("i_level", "computed" if lvl.certified else "undecided",
                      lvl.detail))
    return payload, certs


def _run_wittvec(args):
    from .fields import FiniteField
    from .wittvec import WittVector, pi_projection
    tower = parse_field(args.field) if args.field else FiniteField(args.p)
    if tower.characteristic != args.p:
        raise InconsistentConstruction("--field characteristic does not match --p")

    def vec(text):
        comps = [int(c) for c in text.split(",")]
        if len(comps) != args.l:
            raise FieldSyntaxError(f"expected {args.l} components")
        return WittVector(tower, comps)

    lhs = vec(args.lhs)
    if args.op in ("add", "mul") and not args.rhs:
        raise FieldSyntaxError(f"--op {args.op} needs --rhs")
    if args.op == "add":
        out = lhs + vec(args.rhs)
    elif args.op == "mul":
        out = lhs * vec(args.rhs)
    elif args.op == "neg":
        out = -lhs
    elif args.op == "frobenius":
        out = lhs.frobenius()
    else:
        out = pi_projection(lhs)
    payload = {"inputs": {"p": args.p, "l": args.l, "op": args.op,
                          "lhs": args.lhs, "rhs": args.rhs,
                          "tower": str(tower)},
               "result": repr(out)}
    return payload, [("witt arithmetic", "computed",
                      "universal ghost-component polynomials")]


def _run_lift(args):
    from .wittvec import LiftDatum, lift_algebra
    residue_tower = parse_field(args.field)
    fraction_tower = parse_field(args.fraction_field)
    A = parse_algebra(args.algebra, residue_tower)
    datum = LiftDatum(residue_tower, fraction_tower)
    for item in args.lift_binding:
        name, val = item.split("=", 1)
        binds = default_bindings(residue_tower)
        res = parse_element(name, residue_tower, binds)
        datum.declare(res, parse_element(val, fraction_tower))
    res = lift_algebra(A, datum)
    payload = {
        "inputs": {"algebra": args.algebra, "residue_field": str(residue_tower),
                   "fraction_field": str(fraction_tower)},
        "lifted_presentation": {
            "tags": "(4a+1, b) (x) (4c+1, d) symbol form",
            "generator_map": {k: repr(v) for k, v in res.generator_map.items()},
        },
        "relations_verified": True,
        "structure_constants_match": True,
    }
    certs = [("lift relations", "computed",
              "i = 2u+1, j = v hold the symbol relations by construction: "
              "i^2 = 4(u^2+u)+1 = 4a+1, ij + ji = 2(uv+vu+v) = 0"),
             ("structure constants", "computed",
              "generator map extends to a basis isomorphism by construction: "
              "a unital map out of a central simple algebra is injective")]
    return payload, certs


def _run_centre(args):
    tower = parse_field(args.field)
    binds = _parse_bindings(args.bind, tower)
    payload = {"inputs": {"field": str(tower)}}
    certs = []
    if args.values:
        from .invariants import centre_value_biquat
        vals = [parse_element(v, tower, binds) for v in args.values.split(",")]
        if len(vals) != 4:
            raise FieldSyntaxError("--values expects a,b,c,d")
        cv = centre_value_biquat(tower, *vals)
        payload["inputs"]["values"] = [str(v) for v in vals]
        payload["pfister_class"] = {
            "zero": cv.is_zero(),
            "kernel": repr(cv.witt.kernel),
            "level": cv.level.level,
            "detail": cv.level.detail,
        }
        certs.append(("pfister value", "computed", cv.level.detail))
    elif args.algebra:
        from .invariants import centre_symbol
        A = parse_algebra(args.algebra, tower)
        zeta = None
        if args.zeta != "auto":
            zeta = parse_element(args.zeta, tower, binds)
        cs = centre_symbol(A, zeta)
        payload["inputs"]["algebra"] = args.algebra
        payload["scalar"] = repr(cs.scalar)
        payload["symbol"] = repr(cs.symbol_class)
        payload["certificate"] = cs.certificate
        if cs.lam is not None:
            payload["lambda"] = repr(cs.lam)
        provenance = ("computed" if cs.certificate.startswith("computed")
                      else "undecided")
        certs.append(("centre symbol", provenance, cs.certificate))
        if cs.certificate == "undecided" and args.require_certificate:
            raise Undecided("centre symbol certificate unavailable")
    else:
        raise FieldSyntaxError("centre needs --algebra or --values")
    return payload, certs


def _run_invariant(args):
    payload = {}
    certs = []
    if args.kind == "list":
        from .invariants import INVARIANT_REGISTRY
        payload["invariants"] = {
            k: {"value_group": d.value_group, "torsion_bound": d.torsion_bound,
                "relations": list(d.relations)}
            for k, d in INVARIANT_REGISTRY.items()}
        return payload, certs
    from .invariants import kmrt_eval, make_symplectic_involution
    if not (args.algebra and args.element):
        raise FieldSyntaxError("invariant kmrt needs --algebra and --element")
    tower = parse_field(args.field)
    binds = _parse_bindings(args.bind, tower)
    A = parse_algebra(args.algebra, tower, binds)
    a = parse_algebra_element(args.element, A, binds)
    sigma = make_symplectic_involution(A)
    res = kmrt_eval(A, sigma, a)
    payload["inputs"] = {"field": str(tower), "algebra": args.algebra,
                         "element": args.element}
    payload["level"] = res.level.level
    payload["level_detail"] = res.level.detail
    payload["zero_mod_I4"] = res.is_zero_mod_i4()
    payload["kernel"] = repr(res.witt.kernel)
    payload["hyperbolic_sigma"] = res.hyperbolic.hyperbolic
    certs.extend(res.certificates)
    return payload, certs


def _run_selftest(args):
    from .selftest import run_selftest
    results = run_selftest(args.seed)
    payload = {"suites": results, "all_pass": all(r["pass"] for r in results)}
    certs = [(r["suite"], "computed" if r["pass"] else "FAILED", r["detail"])
             for r in results]
    return payload, certs


_VERBS = {
    "bounds": _run_bounds,
    "sk1": _run_sk1,
    "residue": _run_residue,
    "form": _run_form,
    "wittvec": _run_wittvec,
    "lift": _run_lift,
    "centre": _run_centre,
    "invariant": _run_invariant,
    "selftest": _run_selftest,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = time.time()
    try:
        payload, certs = _VERBS[args.verb](args)
    except (FieldSyntaxError, InconsistentConstruction, NonInvertibleElement,
            ValueError) as exc:
        _emit_error(args, "usage", str(exc))
        return EXIT_USAGE
    except UnsupportedTower as exc:
        _emit_error(args, "unsupported tower", str(exc))
        return EXIT_UNSUPPORTED
    except PrecisionExhausted as exc:
        _emit_error(args, "precision exhausted", str(exc))
        return EXIT_PRECISION
    except Undecided as exc:
        _emit_error(args, "undecided", str(exc))
        return EXIT_UNDECIDED if args.require_certificate else EXIT_OK
    report = {
        "schema": SCHEMA,
        "verb": args.verb,
        "payload": payload,
        "certificates": [{"claim": c, "provenance": p, "detail": d}
                         for (c, p, d) in certs],
        "conventions": _conventions(),
    }
    if args.require_certificate and any(
            c["provenance"] == "undecided" for c in report["certificates"]):
        _emit_error(args, "undecided", "a certificate was requested but unavailable")
        return EXIT_UNDECIDED
    if args.json:
        out = dict(report)
        out["timing_ms"] = round((time.time() - t0) * 1000, 3)
        print(json.dumps(out, indent=2, sort_keys=True, default=str))
    else:
        _print_human(report)
    if args.verb == "selftest" and not payload["all_pass"]:
        return 1
    return EXIT_OK


def _emit_error(args, kind, message):
    if getattr(args, "json", False):
        print(json.dumps({"schema": SCHEMA, "error": kind, "message": message},
                         indent=2, sort_keys=True))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)


def _print_human(report):
    print(f"skone {report['verb']}")
    print(json.dumps(report["payload"], indent=2, sort_keys=True, default=str))
    if report["certificates"]:
        print("certificates:")
        for c in report["certificates"]:
            print(f"  - {c['claim']} [{c['provenance']}] {c['detail']}")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
