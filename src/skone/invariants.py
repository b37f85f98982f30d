"""Headline computations: Platonov SK1, Kahn's bounds and torsion rules, the
KMRT invariant evaluated as an explicit Witt class, comparison maps between
value groups, centre formulas, and SK1 non-triviality witnesses.

Formal scalars (d_A, i(p,m), j(p,n), lambda) are never numerically guessed:
only constraints actually proved in the source results are attached, and
every certificate carries its provenance ("computed" vs "paper-cited").
"""

from __future__ import annotations

import math
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
    pfaffian_data,  # re-exported
    tensor,
    trp,
)
from .errors import InconsistentConstruction, Undecided, UnsupportedTower
from .fields import (
    FieldElement,
    FieldTower,
    LaurentExt,
    PAdicDescriptor,
    _is_prime,
    factorize,
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
    top_coordinate,
)


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
        if not _is_prime(p):
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
        return top_coordinate(symbol(self.base, [x], self.n)).value

    def validate(self):
        """[k(a_i^(1/n)) : k] = n for both classes and [K : k] = n^2, read
        from one Kummer coordinate per class."""
        n = self.n
        c1, c2 = self.kummer_coordinates(self.a1), self.kummer_coordinates(self.a2)
        for i, c in ((1, c1), (2, c2)):
            if math.gcd(n, *c) != 1:
                raise InconsistentConstruction(f"[k(a{i}^(1/n)) : k] != n")
        subgroup = len({((i * c1[0] + j * c2[0]) % n, (i * c1[1] + j * c2[1]) % n)
                        for i in range(n) for j in range(n)})
        if subgroup != n ** 2:
            raise InconsistentConstruction(
                "K1 and K2 are not linearly disjoint (subgroup of k^x/(k^x)^n "
                f"has order {subgroup} != n^2)")


@dataclass
class Sk1Result:
    group_order: int
    group: str
    br_K: BrauerCoordinate
    br_K1: BrauerCoordinate
    br_K2: BrauerCoordinate
    division: str               # "computed certificate" | "paper-cited certificate"
    division_detail: str


def sk1_platonov(cfg: PlatonovConfig) -> Sk1Result:
    """SK1 of the Platonov algebra over k((t1))((t2)) as the Brauer quotient
    Br(K/k) / (Br(K1/k) Br(K2/k)); subgroups of Q/Z via local-field degrees."""
    cfg.validate()
    n = cfg.n
    deg_K = n * n                         # [K : k], proved by validate()
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
    res = is_division_biquaternion(platonov_algebra(cfg)[0])
    if res.division:
        return "computed certificate", ("Albert form anisotropic: "
                                        + res.isotropy.certificate)
    return "computed certificate", "NOT division: " + res.isotropy.certificate


# ---------------------------------------------------------------------------
# hyperbolicity of a symplectic involution
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    hyperbolic: bool | None       # None = outside the decided domain (see provenance)
    provenance: str
    witness: AlgElement | None = None   # square-zero x in Symd^0


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

    Outside that domain -- sigma not symplectic of degree 4, or isotropy
    not supported over the tower -- the report is hyperbolic=None, with the
    reason as its provenance.
    """
    A = sigma.algebra
    if division:
        return HyperbolicityReport(False, "division algebra has no nontrivial idempotents")
    if A.base.characteristic == 2:
        raise UnsupportedTower("hyperbolicity is decided away from char 2")
    if A.degree != 4 or sigma.kind() != "symplectic":
        return HyperbolicityReport(
            None, "KMRT section 16 criterion needs a symplectic involution of degree 4")
    try:
        res = isotropy(_q_sigma(sigma))
    except UnsupportedTower as exc:
        return HyperbolicityReport(None, f"isotropy of q_sigma is not decided: {exc}")
    state = "isotropic" if res.isotropic else "anisotropic"
    return HyperbolicityReport(
        res.isotropic, f"q_sigma on Symd(A, sigma)^0 is {state} "
        f"({res.certificate}); KMRT section 16 criterion")


def _q_sigma(sigma: Involution) -> QuadraticForm:
    """q_sigma(x) = x^2 on Symd(A, sigma)^0, diagonalised; degree 4 symplectic.

    The polar form b(x, y) = (xy + yx)/2 is a scalar on Symd^0, so it equals
    Trd(xy + yx)/8 = Trd(xy)/4; its Gram matrix is read off the cached trace
    form of A (``AlgebraPresentation.trace_pairing``), with no algebra
    product."""
    A = sigma.algebra
    basis = _symd0_parts(sigma)
    gram = [[None] * len(basis) for _ in basis]
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            gram[i][j] = gram[j][i] = A.trace_pairing(x, basis[j]) * Fraction(1, 4)
    return QuadraticForm(A.base, diagonalize_gram(gram, A.base))


def _symd0_parts(sigma: Involution) -> list[AlgElement]:
    """x - Trp(x)/2 for the basis vectors x of Symd(A, sigma): they span
    Symd^0, the complement of the scalars (one of them may be 0)."""
    A = sigma.algebra
    return [x - A.one().scale(trp(sigma, x) * Fraction(1, 2))
            for x in map(A.element, sigma.symd_basis())]


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

    w = -sigma(a) a lies in Symd(A, sigma) with Nrp(w) = Nrd(a) = 1, so it
    satisfies w^2 - Trp(w) w + 1 = 0 (KMRT, sections 2 and 16), and v is
    admissible by construction on every computed branch:
      - 2 + Trp(w) != 0: v = 1 + w has Nrp(v) = 2 + Trp(w) != 0 and
        v (Trp(v) - v) = Nrp(v), so v (Trp(v) - v)^{-1} = w;
      - w = -1: any invertible v in Symd with Trp(v) = 0;
      - otherwise x = w + 1 is a nonzero element of Symd^0 with x^2 = 0, so
        sigma is hyperbolic (see ``hyperbolicity_check``) and the invariant is
        the zero class, certified by that x.
    Only a caller-supplied v_override (an alternative admissible v, which
    the well-definedness tests exercise) is verified before use."""
    if A.degree != 4:
        raise UnsupportedTower("the invariant is defined for biquaternions")
    if A.base.characteristic == 2:
        raise UnsupportedTower(
            "characteristic-2 evaluation goes through the characteristic-0 lift")
    if not A.nrd(a).is_one():
        raise InconsistentConstruction("a is not in SL1 (Nrd != 1)")
    if sigma.kind() != "symplectic":
        raise InconsistentConstruction("the invariant needs a symplectic involution")
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
        return _zero_invariant(A, hyp, certs, "invariant is 0 by the case split")
    w = -(sigma.apply(a) * a)
    v = None
    if v_override is not None:
        v = A.coerce(v_override)
        _verify_v(sigma, v, w)
        certs.append(("v-solver", "computed", "caller-supplied admissible v"))
    elif not (A.base.elem(2) + trp(sigma, w)).is_zero():
        v = A.one() + w
        certs.append(("v-solver", "computed", "closed form v = 1 + w (2 + Trp(w) != 0)"))
    else:
        # x = w + 1 lies in Symd^0 with Prp_w = (X + 1)^2, so x^2 = 0.  For
        # w = -1 any invertible v in Symd^0 will do; a nonzero x in Symd^0
        # that is not invertible has Nrp(x) = 0, so again x^2 = -Nrp(x) = 0
        x = w + A.one()
        if x.is_zero():
            x = next(z for z in _symd0_parts(sigma) if not z.is_zero())
            if not A.nrd(x).is_zero():
                v = x
                certs.append(("v-solver", "computed",
                              "w = -1: any invertible v in Symd with Trp(v) = 0"))
        if v is None:
            hyp = HyperbolicityReport(
                True, f"x = {x!r} is a nonzero element of Symd(A, sigma)^0 with "
                "x^2 = 0; KMRT section 16 criterion", x)
            return _zero_invariant(A, hyp, certs,
                                   f"square-zero x = {x!r} in Symd(A, sigma)^0; "
                                   "invariant is 0 by the case split")
    form = _phi_form(sigma, v)
    normalized, scale = content_normalized(form)
    if scale != 1:
        certs.append(("normalisation", "computed",
                      f"class evaluated on {scale} * Phi_v; I-level decisions "
                      "are invariant under global scaling"))
    wc = witt_class(normalized)
    lvl = i_level(wc)
    certs.append(("I-level", "computed", lvl.detail))
    return KmrtResult(wc, lvl, form, v, hyp, certs)


def _zero_invariant(A: AlgebraPresentation, hyp: HyperbolicityReport, certs,
                    detail: str) -> KmrtResult:
    """The zero class, returned when sigma is hyperbolic."""
    zero = witt_class(QuadraticForm(A.base, ()))
    certs.append(("sigma hyperbolic", "computed", detail))
    return KmrtResult(zero, i_level(zero), None, None, hyp, certs)


def _verify_v(sigma: Involution, v: AlgElement, w: AlgElement):
    """Check a caller-supplied v: v in Symd, v and Trp(v) - v invertible,
    and v (Trp(v) - v)^{-1} = w."""
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
    """Phi_v(x) = Trp(sigma(x) v x) as an exact diagonal form.

    Its polar Gram matrix is (t + t^T)/4 with t = S L W^T, read off the
    cached trace form L of A: t_ij = T(sigma(e_i), v e_j) = 2 Trp(sigma(e_i)
    v e_j), where the rows of S are sigma's stored images and the columns
    of W are the products v e_j.  That is dim products by a basis vector and
    no Trp call; 2 is invertible on kmrt_eval's domain."""
    A = sigma.algebra
    base = A.base
    w_cols = [v * A.basis_element(j) for j in range(A.dim)]
    t = [[A.trace_pairing(s, w) for w in w_cols] for s in sigma.images]
    quarter = Fraction(1, 4)
    gram = [[(t[i][j] + t[j][i]) * quarter for j in range(A.dim)] for i in range(A.dim)]
    return QuadraticForm(base, diagonalize_gram(gram, base))


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
