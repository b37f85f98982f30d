"""Span tracer for the traced benchmark run.

It wraps skone's public functions from outside: nothing under src/ changes.
Callers import functions by name, so every wrapped function is replaced at
every binding site (each skone module and each dict that holds it).

Spans (name, start, end, parent) stay in memory and are written out once at
the end. A span's self time is its duration minus the time its child spans
cover. Hot element arithmetic (FieldElement +, -, x, inverse) is only
counted, never timed: a span per field operation would cost more than the
operation itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

_now = time.perf_counter_ns


@functools.cache
def _kind_table() -> dict:
    from skone import fields
    return {
        fields.Rationals: "q",
        fields.FiniteField: "fq",
        fields.PAdicDescriptor: "qp",
        fields.LaurentExt: "laurent",
        fields.RootAdjunction: "zeta",
    }


def tower_kind(tower) -> str:
    """Short name of the outermost tower kind: q, fq, qp, laurent or zeta."""
    return _kind_table().get(type(tower), "other")


class Tracer:
    """Collects spans and counters while enabled; disable() restores every
    binding it patched."""

    SAMPLE_EVERY = 32
    SAMPLE_CAP = 256

    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples = defaultdict(list)  # ("mul"|"inv", kind) -> operands
        self._patches: list = []   # (owner, attr, original, wrapper)

    # --- spans -------------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, _now(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = _now()

    def timed(self, name, fn):
        """fn wrapped in a span called name (a string or a callable that
        derives the name from the call's arguments)."""
        tracer = self
        if callable(name):
            def wrapper(*args, **kwargs):
                return tracer.span(name(*args, **kwargs), fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    # --- patching ----------------------------------------------------------
    @staticmethod
    def _assign(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        self._patches.append((owner, attr, old, value))
        self._assign(owner, attr, value)

    def patch_function(self, fn, wrapper, extra_modules=()):
        """Replace fn by wrapper wherever a skone module (or a dict global
        of one) binds it."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "skone" or n.startswith("skone."))]
        hits = 0
        for mod in list(mods) + list(extra_modules):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)
                    hits += 1
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is fn:
                            self._set(val, k, wrapper)
                            hits += 1
        if not hits:
            raise RuntimeError(f"no binding site found for {fn!r}")

    def patch_method(self, cls, attr, wrapper):
        self._set(cls, attr, wrapper)

    def enable(self):
        for owner, attr, _, new in self._patches:
            self._assign(owner, attr, new)

    def disable(self):
        """Restore every patched binding; enable() puts the wrappers back."""
        for owner, attr, old, _ in reversed(self._patches):
            self._assign(owner, attr, old)

    # --- results -----------------------------------------------------------
    def self_times(self) -> list[int]:
        """Self time (ns) of each span: duration minus children's durations."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self ns and inclusive durations."""
        out: dict[str, dict] = {}
        for (name, start, end, _), self_ns in zip(self.spans, self.self_times()):
            rec = out.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": []})
            rec["calls"] += 1
            rec["self_ns"] += self_ns
            rec["incl_ns"].append(end - start)
        return out

    def root_wall_ns(self) -> int:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def write(self, path):
        """Write every span as one JSON line: [name, start, end, parent]."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped, per layer
# ---------------------------------------------------------------------------

def _count_field_ops(tracer: Tracer):
    """Count FieldElement +, -, x and inverse by outermost tower kind, and
    keep a thin sample of operands (the first call of each kind, then every
    SAMPLE_EVERY-th) for the per-kind micro-timings."""
    from skone.fields import FieldElement
    counts = tracer.counts
    samples = tracer.samples
    seen = Counter()
    every, cap = Tracer.SAMPLE_EVERY, Tracer.SAMPLE_CAP

    def counting(attr, sample_op=None):
        orig = FieldElement.__dict__[attr]

        def wrapper(self, *args):
            kind = tower_kind(self.tower)
            counts["fields.ops." + kind] += 1
            if sample_op is not None:
                key = (sample_op, kind)
                seen[key] += 1
                if seen[key] % every == 1 and len(samples[key]) < cap:
                    if sample_op == "inv":
                        samples[key].append(self)
                    elif isinstance(args[0], FieldElement):
                        samples[key].append((self, args[0]))
            return orig(self, *args)
        tracer.patch_method(FieldElement, attr, wrapper)

    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__rmul__"):
        counting(attr)
    counting("__mul__", "mul")
    counting("inverse", "inv")


def _count_only(tracer: Tracer, cls, attr, key):
    orig = cls.__dict__[attr]
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return orig(*args, **kwargs)
    tracer.patch_method(cls, attr, wrapper)


def install(tracer: Tracer, extra_modules=()):
    """Wrap every layer's public functions; returns the tracer."""
    import skone.algebras as alg
    import skone.forms as forms
    from skone.errors import Undecided
    import skone.invariants as inv
    import skone.ktheory as kt
    import skone.linalg as linalg
    import skone.poly as poly
    import skone.wittvec as wv

    def fn(f, name):
        tracer.patch_function(f, tracer.timed(name, f), extra_modules)

    def meth(cls, attr, name):
        tracer.patch_method(cls, attr, tracer.timed(name, cls.__dict__[attr]))

    _count_field_ops(tracer)

    # poly: the multiplication dunder is counted only
    _count_only(tracer, poly.Poly, "__mul__", "poly.calls")
    meth(poly.Poly, "divmod", "poly")
    meth(poly.QuotientRing, "_mul", "poly")

    fn(linalg.berkowitz_charpoly, "linalg.berkowitz")
    for f in (linalg.rref, linalg.solve, linalg.nullspace, linalg.invert,
              linalg.rank):
        fn(f, "linalg.elim")

    # algebras: constructors, tensor, lazy table build and its checks
    for f in (alg.symbol_algebra, alg.p_algebra, alg.cyclic_kummer,
              alg.cyclic_artin_schreier, alg.twisted_lift_quaternion,
              alg.tensor):
        fn(f, "algebras.build")
    init = alg.AlgebraPresentation.__dict__["__init__"]

    def init_wrapper(self, *args, **kwargs):
        tracer.span("algebras.build", init, self, *args, **kwargs)
        if self._table_factory is not None:
            self._table_factory = tracer.timed("algebras.build",
                                               self._table_factory)
    tracer.patch_method(alg.AlgebraPresentation, "__init__", init_wrapper)
    meth(alg.AlgebraPresentation, "_check_unital_associative", "algebras.build")
    meth(alg.AlgebraPresentation, "mul", "algebras.mul")
    for attr in ("reduced_char_poly", "nrd", "trd", "inverse"):
        meth(alg.AlgebraPresentation, attr, "algebras.charpoly")
    meth(alg.Involution, "apply", "algebras.involution")
    fn(alg.pfaffian_data, "algebras.involution")
    fn(alg.trp, "algebras.involution")
    fn(alg.is_division_biquaternion, "algebras.division_test")

    # forms: isotropy keyed by the effective tower
    iso_kind = {"q": "rational", "qp": "padic", "fq": "finite",
                "laurent": "springer"}

    def iso_name(q, *args, **kwargs):
        return "forms.isotropy." + iso_kind.get(
            tower_kind(forms.effective_tower(q.tower)), "other")
    fn(forms.isotropy, iso_name)
    witt = forms.witt_class

    def witt_wrapper(*args, **kwargs):
        tracer.counts["forms.witt_class.calls"] += 1
        try:
            return tracer.span("forms.witt_class", witt, *args, **kwargs)
        except Undecided:
            tracer.counts["forms.witt_class.undecided"] += 1
            raise
    tracer.patch_function(witt, witt_wrapper, extra_modules)
    fn(forms.diagonalize_gram, "forms.diagonalize")
    fn(forms.i_level, "forms.level")

    fn(kt.tame_residue, "ktheory.residue")
    fn(kt.top_coordinate, "ktheory.residue")
    fn(kt.hilbert_pairing, "ktheory.pairing")
    fn(kt.relative_group, "ktheory.relative_group")

    for attr in ("__add__", "__sub__", "__mul__", "__neg__"):
        meth(wv.WittVector, attr, "wittvec.arith")
    for f in (wv.i_star, wv.kato_phi, wv.r_coh, wv.lift_algebra):
        fn(f, "wittvec.lift")
    fn(wv.universal_witt_polynomials, "wittvec.universal_polys")

    fn(inv.kmrt_eval, "invariants.kmrt_eval")
    hyp = inv.hyperbolicity_check

    def hyp_wrapper(*args, **kwargs):
        rep = tracer.span("invariants.hyperbolicity", hyp, *args, **kwargs)
        if rep.hyperbolic is None:
            tracer.counts["invariants.hyperbolicity.undecided"] += 1
        return rep
    tracer.patch_function(hyp, hyp_wrapper, extra_modules)
    fn(inv.sk1_platonov, "invariants.platonov")
    return install_verbs(tracer, extra_modules)


def install_verbs(tracer: Tracer, extra_modules=()):
    """Wrap the CLI verbs, each in a span cli.verb.<verb>; returns the tracer."""
    import skone.cli as cli

    for verb, f in list(cli._VERBS.items()):
        tracer.patch_function(f, tracer.timed("cli.verb." + verb, f),
                              extra_modules)
    return tracer
