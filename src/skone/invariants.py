"""Headline computations: Platonov SK1, Kahn's bounds and torsion rules, the
KMRT invariant evaluated as an explicit Witt class, comparison maps between
value groups, centre formulas, and SK1 non-triviality witnesses.

Formal scalars (d_A, i(p,m), j(p,n), lambda) are never numerically guessed:
only constraints actually proved in the source results are attached, and
every certificate carries its provenance ("computed" vs "paper-cited").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    AlgebraPresentation,
    AlgElement,
    Involution,
    SymbolTag,
    TensorTag,
    is_division_biquaternion,
    make_symplectic_involution,  # re-exported: pairs with kmrt_eval
    pfaffian_data,
    tensor,
    trp,
)
from .errors import InconsistentConstruction, Undecided, UnsupportedTower
from .fields import (
    FieldElement,
    FieldTower,
    LaurentExt,
    PAdicDescriptor,
    factorize,
    is_nth_power,
    primitive_root_of_unity,
)
from .forms import (
    LevelCertificate,
    QuadraticForm,
    WittClass,
    content_normalized,
    diagonalize_gram,
    effective_tower,
    i_level,
    isotropy,
    pfister,
    witt_class,
)
from .ktheory import (
    BrauerCoordinate,
    KClass,
    RelativeGroup,
    kclass_is_zero,
    symbol,
)
from .linalg import nullspace


# ---------------------------------------------------------------------------
# formal scalars and invariant descriptors
# ---------------------------------------------------------------------------

@dataclass
class FormalScalar:
    """A scalar the source results prove to exist but never pin down."""
    name: str
    modulus: str
    constraints: tuple[str, ...] = ()

    def tightened(self, constraint: str) -> "FormalScalar":
        if constraint in self.constraints:
            return self
        return FormalScalar(self.name, self.modulus,
                            self.constraints + (constraint,))

    def __repr__(self):
        cons = "; ".join(self.constraints) if self.constraints else "undetermined"
        return f"{self.name} in Z/{self.modulus} [{cons}]"


@dataclass
class InvariantDescriptor:
    name: str
    value_group: str
    torsion_bound: str
    relations: tuple[str, ...] = ()


INVARIANT_REGISTRY = {
    "S91": InvariantDescriptor(
        "S91", "H4_{n, A x A}", "m (torsion rule of the f_i table)",
        ("whether S91 equals rho_2 is open (recorded, never assumed)",)),
    "S06": InvariantDescriptor(
        "S06", "H4_{n, A}", "m (torsion rule of the f_i table)",
        ("whether the motivating diagram commutes for S06 is open",)),
    "Rost": InvariantDescriptor("Rost", "H4_2", "2", ()),
    "Kahn": InvariantDescriptor("Kahn", "H4_n", "nbar (Lemma bound)", ()),
    "KMRT": InvariantDescriptor("KMRT", "I3 W'_q / I4 W'_q", "2", ()),
}


# ---------------------------------------------------------------------------
# Kahn bound and torsion arithmetic
# ---------------------------------------------------------------------------

def kahn_bound(n: int) -> int:
    """nbar = prod p^(e-1) over the prime factorisation of n."""
    if n < 1:
        raise InconsistentConstruction("n must be >= 1")
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1)
    return out


def kahn_torsion(factors: list[tuple[int, int, int]]) -> int:
    """m = prod p_i^(f_i) with f_i = 1 if p_i = 2 or ind = per = p_i > 2,
    and f_i = 2 if ind > per = p_i > 2."""
    m = 1
    seen = set()
    for p, ind, per in factors:
        if p in seen:
            raise InconsistentConstruction(f"repeated prime {p}")
        seen.add(p)
        if list(factorize(p).items()) != [(p, 1)]:
            raise InconsistentConstruction(f"{p} is not prime")
        if ind % per or _not_power_of(ind, p) or _not_power_of(per, p):
            raise InconsistentConstruction(
                f"inconsistent (per, ind) = ({per}, {ind}) at p = {p}")
        if p == 2:
            f = 1
        elif per == p:
            f = 1 if ind == per else 2
        else:
            raise InconsistentConstruction(
                f"torsion rule needs per = p at odd p; got per = {per}")
        m *= p ** f
    return m


def _not_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n != 1


# ---------------------------------------------------------------------------
# Platonov SK1
# ---------------------------------------------------------------------------

@dataclass
class PlatonovConfig:
    """Local tame base k, degree n, two Kummer classes a1, a2 in k^x."""
    base: FieldTower            # p-adic descriptor (possibly with adjoined roots)
    n: int
    a1: FieldElement
    a2: FieldElement

    def __post_init__(self):
        K = effective_tower(self.base)
        if not isinstance(K, PAdicDescriptor):
            raise UnsupportedTower("Platonov configurations need a p-adic base")
        self.p = K.p
        if self.n > 1 and (self.p - 1) % self.n != 0:
            raise InconsistentConstruction(
                f"tameness requires n | p-1; got n={self.n}, p={self.p}")
        self.a1 = self.base.elem(self.a1)
        self.a2 = self.base.elem(self.a2)

    def kummer_coordinates(self, x: FieldElement) -> tuple[int, int]:
        """Class of x in k^x/(k^x)^n as (valuation mod n, unit dlog mod n)."""
        K = effective_tower(self.base)
        v, u, _ = K.val_unit(x.payload)
        from .ktheory import _dlog_mod_p, _primitive_root
        g = _primitive_root(self.p)
        return v % self.n, _dlog_mod_p(u % self.p, g, self.p) % self.n

    def class_order(self, x: FieldElement) -> int:
        cv, cu = self.kummer_coordinates(x)
        for e in range(1, self.n + 1):
            if self.n % e == 0 and (e * cv) % self.n == 0 and (e * cu) % self.n == 0:
                return e
        return self.n

    def subgroup_order(self) -> int:
        c1, c2 = self.kummer_coordinates(self.a1), self.kummer_coordinates(self.a2)
        seen = set()
        for i in range(self.n):
            for j in range(self.n):
                seen.add(((i * c1[0] + j * c2[0]) % self.n,
                          (i * c1[1] + j * c2[1]) % self.n))
        return len(seen)

    def validate(self):
        if self.class_order(self.a1) != self.n:
            raise InconsistentConstruction("[k(a1^(1/n)) : k] != n")
        if self.class_order(self.a2) != self.n:
            raise InconsistentConstruction("[k(a2^(1/n)) : k] != n")
        if self.subgroup_order() != self.n ** 2:
            raise InconsistentConstruction(
                "K1 and K2 are not linearly disjoint (subgroup of k^x/(k^x)^n "
                f"has order {self.subgroup_order()} != n^2)")


@dataclass
class Sk1Result:
    group_order: int
    group: str
    br_K: BrauerCoordinate
    br_K1: BrauerCoordinate
    br_K2: BrauerCoordinate
    division: str               # "computed certificate" | "paper-cited certificate"
    division_detail: str

    def describe(self) -> str:
        return self.group


def sk1_platonov(cfg: PlatonovConfig) -> Sk1Result:
    """SK1 of the Platonov algebra over k((t1))((t2)) as the Brauer quotient
    Br(K/k) / (Br(K1/k) Br(K2/k)); subgroups of Q/Z via local-field degrees."""
    cfg.validate()
    n = cfg.n
    deg_K = cfg.subgroup_order()          # = n^2 after validation
    br_K = BrauerCoordinate(Fraction(1, deg_K), "generator of Br(K/k) = (1/[K:k])Z/Z")
    br_K1 = BrauerCoordinate(Fraction(1, n), "generator of Br(K1/k)")
    br_K2 = BrauerCoordinate(Fraction(1, n), "generator of Br(K2/k)")
    # quotient of (1/n^2)Z/Z by (1/n)Z/Z + (1/n)Z/Z is cyclic of order n
    prod_subgroup = Fraction(1, n)
    order = (Fraction(1, 1) / br_K.value).numerator // \
        ((Fraction(1, 1) / prod_subgroup).numerator)
    if n == 2:
        division, detail = _division_certificate_n2(cfg)
    else:
        division = "paper-cited certificate"
        detail = ("division follows from the source theorem for linearly "
                  "disjoint cyclic extensions; not re-derived at n > 2")
    return Sk1Result(order, f"Z/{order}", br_K, br_K1, br_K2, division, detail)


def _division_certificate_n2(cfg: PlatonovConfig):
    from .algebras import symbol_algebra
    T = LaurentExt(LaurentExt(cfg.base, "t1"), "t2")
    t1 = T.elem(T.base.monomial(1))
    t2 = T.monomial(1)
    A = tensor(symbol_algebra(T, T.elem(cfg.a1), t1, 2),
               symbol_algebra(T, T.elem(cfg.a2), t2, 2))
    res = is_division_biquaternion(A)
    if res.division:
        return "computed certificate", ("Albert form anisotropic: "
                                        + res.isotropy.certificate)
    return "computed certificate", "NOT division: " + res.isotropy.certificate


# ---------------------------------------------------------------------------
# hyperbolicity of a symplectic involution
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    hyperbolic: bool | None       # None = the idempotent search found no witness
    provenance: str
    witness: AlgElement | None = None


def hyperbolicity_check(sigma: Involution,
                        division: bool | None = None) -> HyperbolicityReport:
    """Decide whether sigma is hyperbolic.

    Division algebras are certified non-hyperbolic (no nontrivial
    idempotents).  For a symplectic involution on a central simple algebra
    of degree 4 the decision is the criterion of Knus-Merkurjev-Rost-Tignol,
    The Book of Involutions, section 16: sigma is hyperbolic if and only if
    the 5-dimensional quadratic form q_sigma(x) = x^2 on
    Symd(A, sigma)^0 = {x in Symd(A, sigma) : Trp(x) = 0} is isotropic.
    (Every x in Symd^0 satisfies x^2 = -Nrp(x) in F.  If x != 0 and x^2 = 0,
    then x has reduced rank 2, since x^2 = 0 caps it at 2 and a symmetric
    element of a symplectic involution has even rank; so I = xA is a right
    ideal of reduced dimension 2 with sigma(I) I = A x x A = 0, and sigma
    is hyperbolic.
    Conversely an idempotent e with sigma(e) = 1 - e gives the nonzero
    x = e s sigma(e), s symmetric, with x^2 = e s (1 - e) e s sigma(e) = 0.)
    The witness is None on this path.

    Where isotropy is not supported over the tower, or sigma is not a
    symplectic involution of degree 4, a bounded search for such an
    idempotent runs instead; its failure is a search outcome (None), not a
    proof.
    """
    A = sigma.algebra
    if division:
        return HyperbolicityReport(False, "division algebra has no nontrivial idempotents")
    if A.base.characteristic == 2:
        raise UnsupportedTower("hyperbolicity search implemented away from char 2")
    if A.degree == 4 and sigma.kind() == "symplectic":
        try:
            res = isotropy(_q_sigma(sigma))
        except UnsupportedTower:
            pass
        else:
            state = "isotropic" if res.isotropic else "anisotropic"
            return HyperbolicityReport(
                res.isotropic, f"q_sigma on Symd(A, sigma)^0 is {state} "
                f"({res.certificate}); KMRT section 16 criterion")
    return _idempotent_search(sigma)


def _q_sigma(sigma: Involution) -> QuadraticForm:
    """q_sigma(x) = x^2 on Symd(A, sigma)^0, diagonalised; degree 4 symplectic.

    The polar form is b(x, y) = (xy + yx)/2, a scalar on Symd^0."""
    A = sigma.algebra
    half = Fraction(1, 2)
    basis = []
    for coords in sigma.symd_basis():
        x = A.element(coords)
        basis.append(x - A.one().scale(trp(sigma, x) * half))
    gram = [[None] * len(basis) for _ in basis]
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            y = basis[j]
            gram[i][j] = gram[j][i] = (x * y + y * x).coords[0] * half
    entries = diagonalize_gram(gram, A.base)
    if len(entries) != 5:
        raise InconsistentConstruction(
            f"q_sigma has rank {len(entries)}, not 5; sigma is not symplectic")
    return QuadraticForm(A.base, entries)


def _idempotent_search(sigma: Involution) -> HyperbolicityReport:
    """Bounded search over sigma-skew z with z^2 a nonzero square lambda:
    e = (1 + z/sqrt(lambda))/2 is then an idempotent with sigma(e) = 1 - e."""
    A = sigma.algebra
    # skew space: sigma(z) = -z
    rows = []
    for j in range(A.dim):
        ej = A.basis_element(j)
        rows.append((sigma.apply(ej) + ej).coords)
    mat = [[rows[j][i] for j in range(A.dim)] for i in range(A.dim)]
    skew = nullspace(mat, A.base)
    candidates = []
    for z in skew:
        candidates.append(A.element(z))
    for zi in range(len(candidates)):
        for zj in range(zi, len(candidates)):
            for ci, cj in ((1, 1), (1, -1), (1, 2), (2, 1), (1, 0)):
                z = candidates[zi].scale(ci) + candidates[zj].scale(cj) \
                    if zi != zj else candidates[zi].scale(ci)
                zz = z * z
                lam = zz.coords[0]
                if not (zz - A.one().scale(lam)).is_zero() or lam.is_zero():
                    continue
                root = is_nth_power(lam, 2)
                if root.is_power and root.witness is not None:
                    znorm = z.scale(root.witness.inverse())
                    e = (A.one() + znorm).scale(Fraction(1, 2))
                    if (e * e) == e and sigma.apply(e) == (A.one() - e):
                        return HyperbolicityReport(True, "idempotent witness found", e)
    return HyperbolicityReport(None, "no idempotent witness in the search space")


# ---------------------------------------------------------------------------
# the KMRT invariant
# ---------------------------------------------------------------------------

@dataclass
class KmrtResult:
    witt: WittClass
    level: LevelCertificate
    form: QuadraticForm | None
    v: AlgElement | None
    hyperbolic: HyperbolicityReport
    certificates: list

    def is_zero_mod_i4(self) -> bool:
        return self.level.level >= 4


def kmrt_eval(A: AlgebraPresentation, sigma: Involution, a: AlgElement,
              division: bool | None = None,
              v_override: AlgElement | None = None) -> KmrtResult:
    """Evaluate the Witt-class invariant at an SL1 element a.

    Returns Phi_v (16-dimensional) with v solving v (Trp(v) - v)^{-1} =
    -sigma(a) a, its Witt class, and the certified I-level (always >= 3).
    v_override supplies an alternative admissible v (verified before use),
    which the well-definedness tests exercise."""
    if A.degree != 4:
        raise UnsupportedTower("the invariant is defined for biquaternions")
    if A.base.characteristic == 2:
        raise UnsupportedTower(
            "characteristic-2 evaluation goes through the characteristic-0 lift")
    if not A.nrd(a).is_one():
        raise InconsistentConstruction("a is not in SL1 (Nrd != 1)")
    certs = []
    if division is None:
        try:
            division = bool(is_division_biquaternion(A))
            certs.append(("division test", "computed",
                          "Albert-form isotropy decision"))
        except UnsupportedTower:
            division = None
    hyp = hyperbolicity_check(sigma, division)
    if hyp.hyperbolic:
        zero = witt_class(QuadraticForm(A.base, ()))
        lvl = i_level(zero)
        certs.append(("sigma hyperbolic", "computed", "invariant is 0 by the case split"))
        return KmrtResult(zero, lvl, None, None, hyp, certs)
    w = -(sigma.apply(a) * a)
    pf = pfaffian_data(sigma, w)
    if not pf.nrp.is_one():
        raise InconsistentConstruction(
            "Nrp(-sigma(a)a) != 1; the element is outside the supported locus")
    t = pf.trp
    two_plus_t = A.base.elem(2) + t
    v = None
    if v_override is not None:
        v = A.coerce(v_override)
        certs.append(("v-solver", "computed", "caller-supplied admissible v"))
    elif not two_plus_t.is_zero():
        v = A.one() + w
        certs.append(("v-solver", "computed", "closed form v = 1 + w (2 + Trp(w) != 0)"))
    elif (w + A.one()).is_zero():
        v = _trace_zero_invertible(sigma)
        certs.append(("v-solver", "computed",
                      "w = -1: any invertible v in Symd with Trp(v) = 0"))
    else:
        v = _v_linear_fallback(sigma, w)
        certs.append(("v-solver", "computed", "exact linear algebra over Symd"))
    if v is None:
        raise Undecided("no valid v found; this contradicts the cited existence lemma")
    _verify_v(sigma, v, w)
    form = _phi_form(sigma, v)
    normalized, scale = content_normalized(form)
    if scale != 1:
        certs.append(("normalisation", "computed",
                      f"class evaluated on {scale} * Phi_v; I-level decisions "
                      "are invariant under global scaling"))
    # certified before any splitting: a class in I^3 is never left undecided
    lvl = i_level(WittClass(normalized.tower, normalized))
    if lvl.level < 3:
        raise InconsistentConstruction(
            f"Phi_v landed at level {lvl.level} < 3; inconsistent with the value group")
    wc = witt_class(normalized)
    lvl = i_level(wc)
    certs.append(("I-level", "computed", lvl.detail))
    return KmrtResult(wc, lvl, form, v, hyp, certs)


def _trace_zero_invertible(sigma: Involution) -> AlgElement | None:
    A = sigma.algebra
    basis = [A.element(v) for v in sigma.symd_basis()]
    half = Fraction(1, 2)
    for z in basis:
        z0 = z - A.one().scale(trp(sigma, z) * half)
        if not z0.is_zero() and not A.nrd(z0).is_zero():
            return z0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            z = basis[i] + basis[j]
            z0 = z - A.one().scale(trp(sigma, z) * half)
            if not z0.is_zero() and not A.nrd(z0).is_zero():
                return z0
    return None


def _v_linear_fallback(sigma: Involution, w: AlgElement) -> AlgElement | None:
    """Solve v + w v - Trp(v) w = 0 for v in Symd, invertible."""
    A = sigma.algebra
    basis = [A.element(x) for x in sigma.symd_basis()]
    cols = []
    for b in basis:
        expr = b + w * b - w.scale(trp(sigma, b))
        cols.append(list(expr.coords))
    mat = [[cols[j][i] for j in range(len(basis))] for i in range(A.dim)]
    null = nullspace(mat, A.base)

    def from_coeffs(coeffs):
        cand = A.zero()
        for c, b in zip(coeffs, basis):
            cand = cand + b.scale(c)
        return cand

    for coeffs in null:
        cand = from_coeffs(coeffs)
        if not cand.is_zero() and not A.nrd(cand).is_zero():
            return cand
    import itertools as _it
    for i, j in _it.combinations(range(len(null)), 2):
        for ci, cj in ((1, 1), (1, -1), (2, 1), (1, 2)):
            cand = from_coeffs(null[i]).scale(ci) + from_coeffs(null[j]).scale(cj)
            if not cand.is_zero() and not A.nrd(cand).is_zero():
                return cand
    return None


def _verify_v(sigma: Involution, v: AlgElement, w: AlgElement):
    A = sigma.algebra
    if not sigma.symd_contains(v):
        raise InconsistentConstruction("v is not in Symd")
    tv = trp(sigma, v)
    denom = A.one().scale(tv) - v
    if A.nrd(denom).is_zero() or A.nrd(v).is_zero():
        raise InconsistentConstruction("v or Trp(v) - v is not invertible")
    if v * A.inverse(denom) != w:
        raise InconsistentConstruction("v does not satisfy the defining relation")


def _phi_form(sigma: Involution, v: AlgElement) -> QuadraticForm:
    """Phi_v(x) = Trp(sigma(x) v x) as an exact diagonal form."""
    A = sigma.algebra
    base = A.base
    half = Fraction(1, 2)
    sig_basis = [sigma.apply(A.basis_element(i)) for i in range(A.dim)]
    w_cols = [v * A.basis_element(j) for j in range(A.dim)]
    m = [[trp(sigma, sig_basis[i] * w_cols[j]) for j in range(A.dim)]
         for i in range(A.dim)]
    gram = [[(m[i][j] + m[j][i]) * half for j in range(A.dim)] for i in range(A.dim)]
    entries = diagonalize_gram(gram, base)
    if len(entries) != A.dim:
        raise InconsistentConstruction("Phi_v is singular; sigma data inconsistent")
    return QuadraticForm(base, entries)


# ---------------------------------------------------------------------------
# centre formulas
# ---------------------------------------------------------------------------

@dataclass
class CentreValue:
    witt: WittClass
    level: LevelCertificate
    convention: str

    def is_zero(self) -> bool:
        return self.witt.is_zero()


def centre_value_biquat(tower: FieldTower, a, b, c, d) -> CentreValue:
    """The 4-fold Pfister class <<4a+1, b, 4c+1, d>> modulo I^4."""
    zeta, reason = primitive_root_of_unity(tower, 4)
    if zeta is None:
        raise InconsistentConstruction(
            f"base tower has no primitive 4th root of unity: {reason}")
    a, b = tower.elem(a), tower.elem(b)
    c, d = tower.elem(c), tower.elem(d)
    four = tower.elem(4)
    one = tower.elem(1)
    form = pfister(tower, [four * a + one, b, four * c + one, d])
    wc = witt_class(form)
    from .forms import PFISTER_CONVENTION
    return CentreValue(wc, i_level(wc), PFISTER_CONVENTION)


@dataclass
class CentreSymbol:
    scalar: FormalScalar
    symbol_class: KClass
    certificate: str            # "computed nonzero" | "computed zero" | "undecided"
    lam: FormalScalar | None = None


def centre_symbol(A: AlgebraPresentation, zeta=None) -> CentreSymbol:
    """The value on the centre for A = (a,b)_n (x) (c,d)_n: the formal scalar
    j(p,n) paired with the symbol {a,b,c,d} modulo m = bar(n^2)."""
    if not isinstance(A.tag, TensorTag) or \
            not isinstance(A.tag.left.tag, SymbolTag) or \
            not isinstance(A.tag.right.tag, SymbolTag):
        raise InconsistentConstruction("centre formula needs a tensor of two symbols")
    lt, rt = A.tag.left.tag, A.tag.right.tag
    if lt.n != rt.n:
        raise InconsistentConstruction("factors must share the symbol degree")
    n = lt.n
    if zeta is None:
        zeta, reason = primitive_root_of_unity(A.base, n * n)
        if zeta is None:
            raise InconsistentConstruction(
                f"no primitive {n*n}-th root of unity in the base: {reason}")
    m = kahn_bound(n * n)
    p = A.base.characteristic
    scalar = FormalScalar(f"j({p},{n})", f"bar({n}^2) = {m}")
    if p == 0:
        scalar = scalar.tightened(
            "nonzero mod bar(n^2) [paper-cited: non-vanishing on Platonov configs]")
    cls = symbol(A.base, [lt.a, lt.b, rt.a, rt.b], m)
    certificate = "undecided"
    try:
        if kclass_is_zero(cls):
            certificate = "computed zero"
        else:
            certificate = "computed nonzero"
    except (Undecided, UnsupportedTower):
        certificate = "undecided"
    lam = None
    if certificate == "computed nonzero":
        lam = FormalScalar("lambda", f"bar({n}^2) = {m}",
                           ("nonzero mod bar(n^2) [Platonov configuration]",))
    return CentreSymbol(scalar, cls, certificate, lam)


def sk1_nontrivial_witness(A: AlgebraPresentation):
    """True when {a,b,c,d} mod l is certified nonzero (l the prime symbol
    degree, with an l^2-th primitive root present); else "no conclusion"
    or "undecided".  Never returns False as a claim about SK1."""
    if not isinstance(A.tag, TensorTag) or \
            not isinstance(A.tag.left.tag, SymbolTag) or \
            not isinstance(A.tag.right.tag, SymbolTag):
        raise InconsistentConstruction("witness needs a tensor of two symbol algebras")
    lt, rt = A.tag.left.tag, A.tag.right.tag
    l = lt.n
    if l != rt.n:
        raise InconsistentConstruction("factors must share the symbol degree")
    fac = factorize(l)
    if len(fac) != 1 or fac[l] != 1:
        raise InconsistentConstruction("the witness criterion needs a prime degree")
    zeta, reason = primitive_root_of_unity(A.base, l * l)
    if zeta is None:
        raise InconsistentConstruction(
            f"hypothesis violated: no primitive {l*l}-th root of unity ({reason})")
    cls = symbol(A.base, [lt.a, lt.b, rt.a, rt.b], l)
    try:
        if not kclass_is_zero(cls):
            return True
        return "no conclusion"
    except (Undecided, UnsupportedTower):
        return "undecided"


# ---------------------------------------------------------------------------
# comparison maps m_r and pi_r in coordinates
# ---------------------------------------------------------------------------

def comparison_m_r(rel: RelativeGroup, x: int) -> int:
    """m_r on the top coordinate: multiply by per(A^(x r)) then include."""
    if x % rel.order:
        x %= rel.order
    return (rel.per_r * x) % rel.modulus


def comparison_pi_r(rel: RelativeGroup, y: int) -> int:
    """pi_r: reduce modulo the residue subgroup <subgroup_gcd>."""
    if rel.subgroup_gcd == 0:
        return y % rel.modulus
    return y % rel.subgroup_gcd


def pi_m_composition_is_multiplication(rel: RelativeGroup) -> bool:
    """pi_r o m_r = multiplication by per on the relative group."""
    for x in range(rel.order):
        if comparison_pi_r(rel, comparison_m_r(rel, x)) != (rel.per_r * x) % rel.order:
            return False
    return True


def pi_tilde_surjective(rel: RelativeGroup) -> bool:
    """Whether the identity on the relative group factors through Z/modulus."""
    target = 1 % rel.order
    for y in range(rel.modulus):
        if (rel.order * y) % rel.modulus == 0 and \
                comparison_pi_r(rel, y) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# convenience constructors for the Platonov tower
# ---------------------------------------------------------------------------

def platonov_algebra(cfg: PlatonovConfig):
    """(a1, t1)_n (x) (a2, t2)_n over base((t1))((t2)), with the chosen root."""
    from .algebras import symbol_algebra
    T = LaurentExt(LaurentExt(cfg.base, "t1"), "t2")
    t1 = T.elem(T.base.monomial(1))
    t2 = T.monomial(1)
    zeta, reason = primitive_root_of_unity(T, cfg.n)
    if zeta is None:
        raise InconsistentConstruction(reason)
    return tensor(symbol_algebra(T, T.elem(cfg.a1), t1, cfg.n, zeta),
                  symbol_algebra(T, T.elem(cfg.a2), t2, cfg.n, zeta)), T
