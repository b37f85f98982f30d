"""Witt vectors of length <= 3, logarithmic-differential classes, and the
concrete characteristic-2 lift maps: the projection W_2 -> W_1 and its induced
map r, Kato's phi, the Artin-Schreier-Witt component i*, and the algebra lift
[a,b) (x) [c,d)  ->  (4a+1,b) (x) (4c+1,d).

The universal addition/multiplication/negation polynomials are generated once
from ghost components by an integer recursion over dict polynomials (no
computer algebra system) and cached; evaluating them modulo p is both the
implementation and, on integral lifts, the test oracle's reference point.

Over F_q, q = p^e, the class of w in W_l(F_q)/(F - 1)W_l(F_q) = Z/p^l is
its trace sum_{j<e} F^j(w), read in W_l(F_p) = Z/p^l (additive Hilbert 90
for the unramified extension; Serre, Local Fields, II 6 and X 1).  That
trace decides the (F - 1) relator, the order of a character and the degree
of the extension over which v^(p) - v = w is solved; no decision enumerates
W_l(F_q).  The solution v itself is found one component at a time, each an
Artin-Schreier equation x^p - x = c solved in closed form by the same
additive Hilbert 90 (`fields._artin_schreier_root`); only `_embed_ff` still
searches F_(q^e), for a root of the F_q modulus.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InconsistentConstruction, UnsupportedTower
from .fields import (FieldElement, FieldTower, FiniteField, _artin_schreier_root,
                     _teichmueller)
from .forms import effective_tower
from .ktheory import CohClass, KClass, symbol
from .poly import Poly

MAX_LENGTH = 3


# ---------------------------------------------------------------------------
# universal polynomials from ghost components
# ---------------------------------------------------------------------------
# An integer polynomial in x_0..x_{l-1}, y_0..y_{l-1} is a Counter from
# exponent tuples (x exponents, then y exponents) to int coefficients.

def _poly_mul(a: dict, b: dict) -> Counter:
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(i + j for i, j in zip(ea, eb))] += ca * cb
    return out


@lru_cache(maxsize=None)
def universal_witt_polynomials(p: int, l: int, op: str):
    """Coefficient lists for the op in {"add","mul","neg"}: for each output
    component a list of (int coefficient, x-exponents, y-exponents), in
    descending lex order of the exponents.

    Component n solves ghost_n(S) = ghost_n(x) op ghost_n(y), where
    ghost_n(z) = sum_{i <= n} p^i z_i^(p^(n-i)):
    S_n = (ghost_n(x) op ghost_n(y) - sum_{i < n} p^i S_i^(p^(n-i))) / p^n,
    and the division is exact over the integers (Witt's theorem)."""
    if l > MAX_LENGTH:
        raise UnsupportedTower(f"universal polynomials precomputed for l <= {MAX_LENGTH}")

    def ghost(offset: int, n: int) -> dict:
        return {tuple(p ** (n - i) if k == offset + i else 0 for k in range(2 * l)): p ** i
                for i in range(n + 1)}

    results = []
    solved = []
    for n in range(l):
        if op == "add":
            expr = Counter(ghost(0, n))
            expr.update(ghost(l, n))
        elif op == "mul":
            expr = _poly_mul(ghost(0, n), ghost(l, n))
        elif op == "neg":
            expr = Counter({e: -c for e, c in ghost(0, n).items()})
        else:
            raise ValueError(op)
        for i in range(n):
            power = {(0,) * (2 * l): 1}
            for _ in range(p ** (n - i)):
                power = _poly_mul(power, solved[i])
            expr.subtract({e: p ** i * c for e, c in power.items()})
        solved.append({e: c // p ** n for e, c in expr.items() if c})
        results.append([(c, e[:l], e[l:]) for e, c in sorted(solved[-1].items(), reverse=True)])
    return tuple(results)


def _eval_universal(terms, u_comps, v_comps, tower: FieldTower):
    acc = tower.zero()
    for coeff, xe, ye in terms:
        c = coeff % tower.characteristic
        if c == 0:
            continue
        term = tower.elem(c)
        for comp, e in zip(u_comps, xe):
            if e:
                term = term * comp ** e
        for comp, e in zip(v_comps, ye):
            if e:
                term = term * comp ** e
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# Witt vectors
# ---------------------------------------------------------------------------

class WittVector:
    """Length-l Witt vector over a characteristic-p tower."""

    __slots__ = ("tower", "p", "length", "components")

    def __init__(self, tower: FieldTower, components):
        p = tower.characteristic
        if p == 0:
            raise InconsistentConstruction("Witt vectors live over characteristic p")
        self.tower = tower
        self.p = p
        self.components = tuple(tower.elem(c) for c in components)
        self.length = len(self.components)
        if self.length > MAX_LENGTH:
            raise UnsupportedTower(f"length > {MAX_LENGTH} not supported")

    def _match(self, other: "WittVector"):
        if self.tower != other.tower or self.length != other.length:
            raise InconsistentConstruction("Witt vectors from different rings")

    def __add__(self, other: "WittVector") -> "WittVector":
        self._match(other)
        polys = universal_witt_polynomials(self.p, self.length, "add")
        return WittVector(self.tower,
                          [_eval_universal(polys[n], self.components,
                                           other.components, self.tower)
                           for n in range(self.length)])

    def __neg__(self) -> "WittVector":
        polys = universal_witt_polynomials(self.p, self.length, "neg")
        zero = [self.tower.zero()] * self.length
        return WittVector(self.tower,
                          [_eval_universal(polys[n], self.components, zero,
                                           self.tower)
                           for n in range(self.length)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._match(other)
        polys = universal_witt_polynomials(self.p, self.length, "mul")
        return WittVector(self.tower,
                          [_eval_universal(polys[n], self.components,
                                           other.components, self.tower)
                           for n in range(self.length)])

    def frobenius(self) -> "WittVector":
        return WittVector(self.tower, [c ** self.p for c in self.components])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (self.tower == other.tower and self.length == other.length
                and all(a == b for a, b in zip(self.components, other.components)))

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def witt_zero(tower: FieldTower, l: int) -> WittVector:
    return WittVector(tower, [tower.zero()] * l)


def pi_projection(w: WittVector) -> WittVector:
    """W_2(k) -> W_1(k): (a0, a1) -> (a0) (p = 2)."""
    if w.p != 2 or w.length != 2:
        raise InconsistentConstruction("pi projection is the p=2, l=2 map")
    return WittVector(w.tower, [w.components[0]])


def truncate(w: WittVector, l: int) -> WittVector:
    if not 1 <= l <= w.length:
        raise InconsistentConstruction("bad truncation length")
    return WittVector(w.tower, w.components[:l])


def witt_trace(w: WittVector) -> int:
    """The trace sum_{j<e} F^j(w) of w in W_l(F_q), q = p^e, as an integer
    mod p^l.  It lies in W_l(F_p) = Z/p^l, where (a_0, ..., a_{l-1}) is
    sum p^i T(a_i) with T the Teichmueller lift; its kernel is (F - 1)W_l."""
    F = effective_tower(w.tower)
    if not isinstance(F, FiniteField):
        raise UnsupportedTower("the Witt trace needs a finite field")
    acc, conj = w, w
    for _ in range(F.e - 1):
        conj = conj.frobenius()
        acc = acc + conj
    pl = w.p ** w.length
    return sum(w.p ** i * _teichmueller(c.payload[0], w.p, w.length)
               for i, c in enumerate(acc.components)) % pl


# ---------------------------------------------------------------------------
# logarithmic differential classes
# ---------------------------------------------------------------------------

class LogDiffClass:
    """Formal sum of generators w (x) b_1 (x) ... (x) b_q modulo the relator
    families (repeated slots; single-component a matching a slot; image of
    Frobenius minus identity)."""

    def __init__(self, tower: FieldTower, length: int, q: int, terms=(),
                 normalized: bool = False):
        self.tower = tower
        self.p = tower.characteristic
        self.length = length
        self.q = q
        self.modulus = self.p ** length
        self.terms = list(terms)  # (WittVector, slots tuple)
        if not normalized:
            self.terms = self._normalize(self.terms)

    def _normalize(self, terms):
        finite = isinstance(effective_tower(self.tower), FiniteField)
        # combine like slot tuples first
        combined: list[tuple[WittVector, tuple]] = []
        for w, slots in terms:
            if len(slots) != self.q:
                raise InconsistentConstruction("wrong slot count")
            for k, (w0, s0) in enumerate(combined):
                if len(s0) == len(slots) and all(a == b for a, b in zip(s0, slots)):
                    combined[k] = (w0 + w, s0)
                    break
            else:
                combined.append((w, tuple(slots)))
        out = []
        one = self.tower.one()
        for w, slots in combined:
            if w.is_zero():
                continue
            if any(s == one for s in slots):
                continue
            if any(slots[i] == slots[j] for i in range(self.q)
                   for j in range(i + 1, self.q)):
                continue  # relator (i)
            nonzero = [i for i, c in enumerate(w.components) if not c.is_zero()]
            if len(nonzero) == 1:
                a = w.components[nonzero[0]]
                if any(s == a for s in slots):
                    continue  # relator (ii)
            if finite and witt_trace(w) == 0:
                continue  # relator (iii): w lies in (F - 1)W_l
            out.append((w, slots))
        return out

    def is_syntactically_zero(self) -> bool:
        return not self.terms

    def project(self, normalize: bool = True) -> "LogDiffClass":
        """The map r: truncate every Witt part (modulus p^l -> p^(l-1)).

        normalize=False keeps the image as formal generators, which is how
        the compatibility identity r_B o i* = i* o r_A is stated."""
        if self.length < 2:
            raise InconsistentConstruction("cannot project length-1 classes")
        return LogDiffClass(self.tower, self.length - 1, self.q,
                            [(truncate(w, self.length - 1), s)
                             for w, s in self.terms],
                            normalized=not normalize)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{w}(x)" + "(x)".join(str(s) for s in slots)
                          for w, slots in self.terms) + f" (mod {self.modulus})"


# ---------------------------------------------------------------------------
# the 2-ring lift datum
# ---------------------------------------------------------------------------

@dataclass
class LiftDatum:
    """Bookkeeping for a p-ring: residue tower, fraction tower, and the
    finitely many declared integral lifts actually used by the maps."""
    residue_tower: FieldTower
    fraction_tower: FieldTower
    lifts: list = field(default_factory=list)   # (residue elt, lift elt) pairs

    def __post_init__(self):
        self.p = self.residue_tower.characteristic
        if self.p == 0:
            raise InconsistentConstruction("residue tower must have char p > 0")
        if self.fraction_tower.characteristic != 0:
            raise InconsistentConstruction("fraction tower must have char 0")

    def declare(self, residue_elt, lift_elt):
        self.lifts.append((self.residue_tower.elem(residue_elt),
                           self.fraction_tower.elem(lift_elt)))

    def lift(self, x) -> FieldElement:
        x = self.residue_tower.elem(x)
        for r, l in self.lifts:
            if r == x:
                return l
        # canonical lift for prime-field residues
        F = effective_tower(self.residue_tower)
        if isinstance(F, FiniteField) and F.e == 1:
            return self.fraction_tower.elem(x.payload[0])
        raise InconsistentConstruction(f"no declared lift for {x}")


# ---------------------------------------------------------------------------
# Kato's phi and the Artin-Schreier-Witt component
# ---------------------------------------------------------------------------

def kato_phi(datum: LiftDatum, b, a1, a2, a3) -> KClass:
    """{1 + 4b, a1, a2, a3} mod 2 over the fraction tower (slots are lifts)."""
    if datum.p != 2:
        raise UnsupportedTower("Kato's phi is the 2-ring map")
    K = datum.fraction_tower
    bl = datum.lift(b) if not isinstance(b, FieldElement) or \
        b.tower.characteristic != 0 else K.elem(b)
    slots = []
    for a in (a1, a2, a3):
        al = datum.lift(a) if not isinstance(a, FieldElement) or \
            a.tower.characteristic != 0 else K.elem(a)
        if al.is_zero():
            raise InconsistentConstruction("phi needs unit slots")
        slots.append(al)
    return symbol(K, [K.elem(1) + K.elem(4) * bl] + slots, 2)


@dataclass
class CharacterDatum:
    """The class i(w): an order-d character datum given by the Witt vector w,
    a canonical Artin-Schreier-Witt solution v over a small extension, and
    the order d of w modulo (F-1)W_l."""
    w: WittVector
    solution: WittVector
    solution_field: FieldTower
    order: int
    modulus: int

    def __eq__(self, other):
        return (isinstance(other, CharacterDatum)
                and self.modulus == other.modulus
                and self.order == other.order
                and self.w == other.w
                and self.solution == other.solution)

    def __repr__(self):
        return (f"i({self.w}) of order {self.order} "
                f"(v = {self.solution} over {self.solution_field})")


def _canonical_as_solution(w: WittVector):
    """Deterministic smallest solution of v^(p) - v = w over F_(q^e), with e
    the order of w: over F_(q^e) the trace of w is e times its trace over
    F_q, so a solution exists there exactly when the order divides e."""
    e = character_order(w)
    F = effective_tower(w.tower)
    Fe = F if e == 1 else FiniteField(F.q ** e)
    wl = WittVector(Fe, [_embed_ff(c, Fe) for c in w.components])
    return _as_solve_componentwise(Fe, wl), Fe


def _as_solve_componentwise(Fe: FiniteField, wl: WittVector) -> WittVector:
    """Componentwise solve of F(v) - v = wl, for wl of trace 0.  Component
    i of F(v) - v is v_i^p - v_i plus a polynomial in v_0 .. v_(i-1), so
    each v_i solves one Artin-Schreier equation x^p - x = c in closed form;
    each takes the first root in elements() order."""
    comps = []
    for i in range(wl.length):
        cand = WittVector(Fe, comps + [Fe.zero()] * (wl.length - i))
        lower = (cand.frobenius() - cand).components[i]
        comps.append(_artin_schreier_root(wl.components[i] - lower))
    return WittVector(Fe, comps)


def _embed_ff(c: FieldElement, Fe: FiniteField) -> FieldElement:
    """Embed F_p-coefficient elements into an extension with the same prime field."""
    F = effective_tower(c.tower)
    if F == Fe:
        return FieldElement(Fe, c.payload)
    if F.e == 1:
        return Fe.elem(c.payload[0])
    # embed F_q into F_(q^e): map the generator to a root of its minimal polynomial
    modulus = Poly(Fe, F.modulus)
    for cand in Fe.elements():
        if modulus.eval(cand).is_zero():
            # c = sum c_i g^i maps to sum c_i cand^i
            return Poly(Fe, c.payload).eval(cand)
    raise InconsistentConstruction("no embedding found")


def character_order(w: WittVector) -> int:
    """Order of w in W_l(F_q)/(F-1)W_l(F_q) = Z/p^l: p^l / gcd(trace, p^l)."""
    pl = w.p ** w.length
    return pl // math.gcd(witt_trace(w), pl)


def i_star(c: LogDiffClass, datum: LiftDatum,
           drop_trivial: bool = True) -> list[CohClass]:
    """The lift map on generators: w (x) b1 (x) ... (x) bq maps to
    i(w) cup h^q({lifted slots}); one symbol-backed CohClass per generator.

    drop_trivial=False keeps syntactically trivial images (generator-level
    comparisons need them)."""
    if datum.p != c.p:
        raise InconsistentConstruction("datum and class primes differ")
    out = []
    K = datum.fraction_tower
    modulus = c.modulus
    for w, slots in c.terms:
        v, Fe = _canonical_as_solution(w)
        order = character_order(w)
        char = CharacterDatum(w, v, Fe, order, modulus)
        lifted = [datum.lift(s) for s in slots]
        sym = symbol(K, lifted, modulus) if lifted else KClass(K, 0, modulus, [(1, ())])
        cc = CohClass(sym, char)
        if drop_trivial and _lift_class_is_trivial(cc):
            continue
        out.append(cc)
    return out


def _lift_class_is_trivial(cc: CohClass) -> bool:
    if cc.character is not None and cc.character.order == 1:
        return True
    return cc.kclass.degree > 0 and cc.kclass.is_syntactically_zero()


def r_coh(cc: CohClass, drop_trivial: bool = True) -> CohClass | None:
    """The map r on a lifted class: halve the modulus, truncate the character.
    Returns None when the image is the zero class and drop_trivial is set."""
    char = cc.character
    if char is None or char.w.length < 2:
        raise InconsistentConstruction("r needs a length >= 2 character datum")
    w2 = truncate(char.w, char.w.length - 1)
    v2, Fe = _canonical_as_solution(w2)
    char2 = CharacterDatum(w2, v2, Fe, character_order(w2), char.modulus // 2)
    sym = cc.kclass
    sym2 = KClass(sym.tower, sym.degree, sym.modulus // 2, sym.terms)
    out = CohClass(sym2, char2)
    if drop_trivial and _lift_class_is_trivial(out):
        return None
    return out


def r_coh_list(classes: list[CohClass], drop_trivial: bool = True) -> list[CohClass]:
    out = []
    for cc in classes:
        r = r_coh(cc, drop_trivial)
        if r is not None:
            out.append(r)
    return out


def coh_lift_equal(l1: list[CohClass], l2: list[CohClass]) -> bool:
    """Syntactic equality of lifted generator images (canonical characters)."""
    if len(l1) != len(l2):
        return False
    for c1, c2 in zip(l1, l2):
        if c1.character != c2.character:
            return False
        s1, s2 = c1.kclass, c2.kclass
        if s1.modulus != s2.modulus or len(s1.terms) != len(s2.terms):
            return False
        for (a1, t1), (a2, t2) in zip(s1.terms, s2.terms):
            if a1 % s1.modulus != a2 % s2.modulus or len(t1) != len(t2):
                return False
            if not all(x == y for x, y in zip(t1, t2)):
                return False
    return True


# ---------------------------------------------------------------------------
# the algebra lift
# ---------------------------------------------------------------------------

@dataclass
class AlgebraLift:
    twisted: object                  # tensor of twisted quaternions over K
    symbol_form: object              # (4a+1, b) (x) (4c+1, d) over K
    generator_map: dict              # symbol generator -> element of twisted


def lift_algebra(A, datum: LiftDatum) -> AlgebraLift:
    """Lift [a,b) (x) [c,d) over a char-2 field to (4a+1,b) (x) (4c+1,d).

    In each twisted factor u^2 + u = a, v^2 = b, u v = -v (u+1), the images
    x -> 2u + 1, y -> v of the symbol generators hold the symbol relations
    by construction:
      (2u+1)^2 = 4(u^2 + u) + 1 = 4a + 1,
      v^2 = b,
      (2u+1) v + v (2u+1) = 2(u v + v u + v) = 0,
    and the two factors commute inside the tensor product.  So the generator
    map extends to a unital homomorphism from the symbol form to the
    twisted form; it is injective because the symbol form is central
    simple, and the two have the same dimension, so it is an isomorphism.
    Nothing of this is re-checked here: the checks of the relations and of
    the structure constants are test oracles (tests/oracles.py)."""
    from .algebras import (PAlgebraTag, TensorTag, symbol_algebra, tensor,
                           twisted_lift_quaternion)
    if datum.p != 2:
        raise UnsupportedTower("the algebra lift is the 2-ring construction")
    if not isinstance(A.tag, TensorTag) or \
            not isinstance(A.tag.left.tag, PAlgebraTag) or \
            not isinstance(A.tag.right.tag, PAlgebraTag):
        raise InconsistentConstruction("expected a tensor of two p-algebras")
    a = datum.lift(A.tag.left.tag.a)
    b = datum.lift(A.tag.left.tag.b)
    c = datum.lift(A.tag.right.tag.a)
    d = datum.lift(A.tag.right.tag.b)
    K = datum.fraction_tower
    four = K.elem(4)
    one = K.elem(1)
    twisted = tensor(twisted_lift_quaternion(K, a, b),
                     twisted_lift_quaternion(K, c, d))
    symbol_form = tensor(symbol_algebra(K, four * a + one, b, 2),
                         symbol_algebra(K, four * c + one, d, 2))
    two = K.elem(2)
    images = {
        "x1": twisted.generator("u1").scale(two) + twisted.one(),
        "y1": twisted.generator("v1"),
        "x2": twisted.generator("u2").scale(two) + twisted.one(),
        "y2": twisted.generator("v2"),
    }
    return AlgebraLift(twisted, symbol_form, images)
