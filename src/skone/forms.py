"""Quadratic forms, isotropy engines, Witt classes and I^n-level certificates.

Characteristic != 2 forms are diagonal; characteristic-2 forms are sums of
binary blocks [a,b] (a x^2 + x y + b y^2) plus a diagonal remainder.

Isotropy dispatch:
  Q          Hasse-Minkowski local conditions + meet-in-the-middle witness search
  F_q        closed form: dimension, one square class or the Arf trace
  Q_p        the local conditions alone
  k((t))...  Springer residue decomposition (residue characteristic != 2)

Q and Q_p share one local layer on (valuation, unit) pairs; over Q it runs
at infinity, at 2 and at the primes dividing an entry (fields.factorize).

Witt classes over Q: an indefinite form in I^3 is Witt-equivalent to
sig*<1> (Hasse principle, I^3(Q_p) = 0); other forms split off hyperbolic
planes along isotropic witnesses.

I^n certificates are only claimed over towers where the claimed criteria are
complete: Q (torsion-free I^3), p-adic (I^3 = 0), finite fields (I^2 = 0) and
Laurent towers over these via the residue rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentConstruction, Undecided, UnsupportedTower
from .fields import (
    FieldElement,
    FieldTower,
    FiniteField,
    LaurentExt,
    PAdicDescriptor,
    Rationals,
    RootAdjunction,
    _artin_schreier_root,
    _field_trace,
    _jacobi,
    _trace_one,
    factorize,
    is_nth_power,
    laurent_split,
)

PFISTER_CONVENTION = "pfister <<a1,...,an>> = <1,-a1> x ... x <1,-an>"
HASSE_CONVENTION = "hasse = prod_{i<j} (a_i, a_j)_v"


# ---------------------------------------------------------------------------
# effective tower kind
# ---------------------------------------------------------------------------

def effective_tower(tower: FieldTower) -> FieldTower:
    """Strip root adjunctions that do not change the underlying field."""
    while isinstance(tower, RootAdjunction) and tower._passthrough:
        tower = tower.base
    return tower


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class QuadraticForm:
    """Nonsingular quadratic form over a tower.

    diag: tuple of nonzero diagonal entries (char != 2).
    blocks/diag: char 2, blocks are (a, b) for a x^2 + xy + b y^2.
    """

    def __init__(self, tower: FieldTower, diag=(), blocks=()):
        self.tower = tower
        self.char2 = tower.characteristic == 2
        self.diag = tuple(tower.elem(d) for d in diag)
        self.blocks = tuple((tower.elem(a), tower.elem(b)) for a, b in blocks)
        if self.blocks and not self.char2:
            raise InconsistentConstruction("binary blocks are a char-2 presentation")
        if any(d.is_zero() for d in self.diag):
            raise InconsistentConstruction("diagonal entries must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.diag) + 2 * len(self.blocks)

    def eval(self, vec) -> FieldElement:
        vec = [self.tower.elem(v) for v in vec]
        acc = self.tower.zero()
        idx = 0
        for (a, b) in self.blocks:
            x, y = vec[idx], vec[idx + 1]
            acc = acc + a * x * x + x * y + b * y * y
            idx += 2
        for d in self.diag:
            acc = acc + d * vec[idx] * vec[idx]
            idx += 1
        return acc

    def perp(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.tower != self.tower:
            raise InconsistentConstruction("orthogonal sum over different towers")
        return QuadraticForm(self.tower, self.diag + other.diag,
                             self.blocks + other.blocks)

    def neg(self) -> "QuadraticForm":
        if self.char2:
            # -q = q in characteristic 2
            return self
        return QuadraticForm(self.tower, tuple(-d for d in self.diag))

    def scale(self, c) -> "QuadraticForm":
        c = self.tower.elem(c)
        if c.is_zero():
            raise InconsistentConstruction("scaling by zero")
        if self.char2:
            cinv = c.inverse()
            return QuadraticForm(self.tower, tuple(c * d for d in self.diag),
                                 tuple((c * a, b * cinv) for a, b in self.blocks))
        return QuadraticForm(self.tower, tuple(c * d for d in self.diag))

    def __repr__(self):
        bits = [f"[{a},{b}]" for a, b in self.blocks]
        if self.diag:
            bits.append("<" + ",".join(str(d) for d in self.diag) + ">")
        return " + ".join(bits) if bits else "<>"

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.tower == other.tower
                and self.diag == other.diag and self.blocks == other.blocks)


def pfister(tower: FieldTower, entries) -> QuadraticForm:
    """n-fold Pfister form <<a_1, ..., a_n>> (convention: tensor of <1, -a_i>;
    in characteristic 2 the last slot becomes the binary block [1, a_n])."""
    entries = [tower.elem(a) for a in entries]
    if any(a.is_zero() for a in entries):
        raise InconsistentConstruction("Pfister slots must be nonzero")
    if not entries:
        return QuadraticForm(tower, (tower.one(),))
    if tower.characteristic != 2:
        diag = [tower.one()]
        for a in entries:
            diag = diag + [-(a * d) for d in diag]
        return QuadraticForm(tower, diag)
    bilinear = [tower.one()]
    for a in entries[:-1]:
        bilinear = bilinear + [a * d for d in bilinear]  # -a = a in char 2
    a_n = entries[-1]
    blocks = [(d, a_n * d.inverse()) for d in bilinear]
    return QuadraticForm(tower, (), blocks)


# ---------------------------------------------------------------------------
# the local layer: square classes at a place of Q, or over Q_p
# ---------------------------------------------------------------------------
#
# At a prime p a nonzero x is the pair (v, u) of integers with x = p^v * u up
# to squares and u a p-adic unit; only u mod 8 (p = 2) or u mod p is read.
# At "inf" the pair is (0, u) and only the sign of u is read (Serre, A
# Course in Arithmetic, III-IV).

_M1 = (0, -1)  # -1 at every place


def _val_unit_int(x, place) -> tuple[int, int]:
    """The (v, u) pair of a nonzero rational or integer x at place."""
    num, den = x.numerator, x.denominator
    if place == "inf":
        return 0, num * den
    v = 0
    while num % place == 0:
        num //= place
        v += 1
    while den % place == 0:
        den //= place
        v -= 1
    return v, num * den  # num/den times den^2


def _padic_val_unit(x: FieldElement) -> tuple[int, int]:
    """The (v, u) pair of a nonzero element of its Q_p; refuses a 2-adic
    unit that is not certified modulo 8."""
    K = effective_tower(x.tower)
    digits = 3 if K.p == 2 else 1
    v, u, k = K.val_unit(x.payload, digits)
    if k < digits:
        raise Undecided("2-adic square classes need units modulo 8")
    return v, u


def _hilbert(a, b, p) -> int:
    """(a, b)_p additively (0 for +1, 1 for -1), by Serre's formula (III.1.2)."""
    (va, ua), (vb, ub) = a, b
    if p == "inf":
        return int(ua < 0 and ub < 0)
    if p == 2:  # eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2
        omega_a, omega_b = ua % 8 in (3, 5), ub % 8 in (3, 5)
        return ((ua % 4 == 3) * (ub % 4 == 3) + va * omega_b + vb * omega_a) % 2
    s = va * vb * ((p - 1) // 2)
    if vb % 2 and _jacobi(ua, p) < 0:
        s += 1
    if va % 2 and _jacobi(ub, p) < 0:
        s += 1
    return s % 2


def _is_local_square(a, p) -> bool:
    v, u = a
    if p == "inf":
        return u > 0
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else _jacobi(u, p) == 1


def _product(data) -> tuple[int, int]:
    v, u = 0, 1
    for dv, du in data:
        v, u = v + dv, u * du
    return v, u


def _hasse(data, p) -> int:
    """prod_{i<j} (a_i, a_j)_p additively, as sum_j (a_1 ... a_{j-1}, a_j)_p."""
    eps, prefix = 0, (0, 1)
    for a in data:
        eps ^= _hilbert(prefix, a, p)
        prefix = (prefix[0] + a[0], prefix[1] * a[1])
    return eps


def _hyperbolic_hasse(n: int, p) -> int:
    """Hasse invariant of the hyperbolic form of even dimension n = 2m:
    (-1, -1)_p^(m(m-1)/2)."""
    m = n // 2
    return m * (m - 1) // 2 * _hilbert(_M1, _M1, p) % 2


def _signed_disc_pair(data) -> tuple[int, int]:
    """(-1)^(n(n-1)/2) times the product of the n entries."""
    v, u = _product(data)
    return v, -u if len(data) * (len(data) - 1) // 2 % 2 else u


def _hyperbolic_at(data, p) -> bool:
    """Whether <data> is hyperbolic over Q_p: even dimension, square signed
    discriminant and the hyperbolic form's Hasse invariant (these classify)."""
    return (len(data) % 2 == 0 and _is_local_square(_signed_disc_pair(data), p)
            and _hasse(data, p) == _hyperbolic_hasse(len(data), p))


def _local_isotropic(data, p) -> bool:
    """Isotropy of <data> over Q_p, p prime (Serre IV.2.2, Theorem 6)."""
    n = len(data)
    if n <= 1:
        return False
    if n >= 5:
        return True
    v, u = _product(data)
    if n == 2:
        return _is_local_square((v, -u), p)
    if n == 3:
        return _hilbert(_M1, (v, -u), p) == _hasse(data, p)
    return not _is_local_square((v, u), p) or _hasse(data, p) == _hilbert(_M1, _M1, p)


def hilbert_symbol_rational(a: Fraction, b: Fraction, place) -> int:
    """(a, b)_v over Q; place is a prime or the string "inf". Returns +-1."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise InconsistentConstruction("Hilbert symbol needs nonzero entries")
    return -1 if _hilbert(_val_unit_int(a, place), _val_unit_int(b, place), place) else 1


def _bad_primes(ints: list[int]) -> list[int]:
    """2 and the primes dividing an entry: the only primes where a form with
    these entries can be anisotropic in dimension 3 or 4, or non-hyperbolic
    in I^2.  Entries share large primes, so the primes found so far are
    divided out before an entry is factored."""
    primes = {2}
    for n in ints:
        for p in primes:
            while n % p == 0:
                n //= p
        primes.update(factorize(abs(n)))
    return sorted(primes)


def rational_of(elem: FieldElement) -> Fraction:
    tower = effective_tower(elem.tower)
    if isinstance(tower, Rationals):
        return elem.payload
    if isinstance(tower, PAdicDescriptor):
        pay = elem.payload
        if pay.exact:
            return pay.rat
        raise Undecided("element is only known approximately")
    raise UnsupportedTower("no rational content in this tower")


# ---------------------------------------------------------------------------
# isotropy results
# ---------------------------------------------------------------------------

@dataclass
class IsotropyResult:
    isotropic: bool
    witness: tuple | None
    certificate: str

    def __bool__(self):
        return self.isotropic


def isotropy(q: QuadraticForm) -> IsotropyResult:
    """Decide isotropy with a witness (where the tower permits) or a certificate."""
    if q.dim == 0:
        return IsotropyResult(False, None, "empty form")
    tower = effective_tower(q.tower)
    if isinstance(tower, Rationals):
        return _isotropy_rational(q)
    if isinstance(tower, FiniteField):
        return _isotropy_finite(q)
    if isinstance(tower, PAdicDescriptor):
        return _isotropy_padic(q)
    if isinstance(tower, LaurentExt):
        return _isotropy_laurent(q)
    raise UnsupportedTower(f"isotropy not supported over {q.tower}")


# --- Q ----------------------------------------------------------------------

def _int_diag(entries) -> list[int]:
    """Scale each diagonal entry into an integer of the same square class."""
    out = []
    for d in entries:
        r = rational_of(d)
        out.append(r.numerator * r.denominator)
    return out


def _isotropy_rational(q: QuadraticForm) -> IsotropyResult:
    diag = _int_diag(q.diag)
    if len(diag) == 1:
        return IsotropyResult(False, None, "one-dimensional form")
    if len(diag) == 2:
        if _rational_is_square(Fraction(-diag[0] * diag[1])):
            w = _witness_search(diag)
            return IsotropyResult(True, w, "binary: -a1 a2 is a square")
        return IsotropyResult(False, None, "binary: -a1 a2 is not a square")
    if not (any(d > 0 for d in diag) and any(d < 0 for d in diag)):
        return IsotropyResult(False, None, "definite at the real place")
    if len(diag) >= 5:
        w = _witness_search(diag)
        return IsotropyResult(True, w,
                              "dim >= 5 and indefinite at the real place (Hasse-Minkowski)")
    failures = [p for p in _bad_primes(diag)
                if not _local_isotropic([_val_unit_int(d, p) for d in diag], p)]
    if failures:
        return IsotropyResult(False, None,
                              f"anisotropic over Q_p for p in {failures}")
    w = _witness_search(diag)
    return IsotropyResult(True, w, "isotropic at every place (Hasse-Minkowski)")


def _rational_is_square(x: Fraction) -> bool:
    if x <= 0:
        return x == 0
    from .fields import integer_nth_root
    return (integer_nth_root(x.numerator, 2) is not None
            and integer_nth_root(x.denominator, 2) is not None)


def _witness_search(diag: list[int]):
    """Small-support-first integer witness search, exact verification.

    Pairs are checked by exact square tests; larger supports use a
    meet-in-the-middle enumeration with a box expanding up to 64.  Returns a
    tuple witness over the full index set, or None within the budget.
    """
    n = len(diag)
    from .fields import integer_nth_root

    def embed(sub_idx, sub_vec):
        out = [0] * n
        for i, x in zip(sub_idx, sub_vec):
            out[i] = x
        return tuple(out)

    # support 2: d_i x^2 + d_j y^2 = 0 with y = 1 needs -d_j/d_i square
    for i in range(n):
        for j in range(i + 1, n):
            num = -diag[i] * diag[j]
            if num <= 0:
                continue
            r = integer_nth_root(num, 2)
            if r is not None:
                # r^2 = -d_i d_j, so d_i r^2 + d_j d_i^2 = 0
                return embed((i, j), (r, diag[i]))
    # larger supports: meet-in-the-middle over an expanding box ladder,
    # skipping combinations whose enumeration cost would dominate
    from math import comb
    for b in (4, 8, 16, 32, 64):
        for size in range(3, min(n, 6) + 1):
            half = size // 2
            cost = comb(n, size) * ((b + 1) ** half + (2 * b + 1) ** (size - half))
            if cost > 3_000_000:
                continue
            for sub_idx in itertools.combinations(range(n), size):
                sub = [diag[i] for i in sub_idx]
                left, right = sub[:half], sub[half:]
                table: dict[int, tuple] = {}
                for vec in itertools.product(range(0, b + 1), repeat=len(left)):
                    val = sum(c * x * x for c, x in zip(left, vec))
                    if val not in table:
                        table[val] = vec
                for vec in itertools.product(range(-b, b + 1), repeat=len(right)):
                    val = sum(c * x * x for c, x in zip(right, vec))
                    hit = table.get(-val)
                    if hit is not None and (any(hit) or any(vec)):
                        return embed(sub_idx, hit + vec)
    return None


# --- F_q ---------------------------------------------------------------------

def _isotropy_finite(q: QuadraticForm) -> IsotropyResult:
    """Decided by _represents; the witness is what enumerating F_q^n would
    meet first (_first_zero)."""
    F: FiniteField = effective_tower(q.tower)
    pieces = [tuple(FieldElement(F, x.payload) for x in ab) for ab in q.blocks]
    pieces += [FieldElement(F, d.payload) for d in q.diag]
    iso = _represents(pieces, F.zero(), True)
    if q.dim != 2:
        cert = "dim >= 3 over F_q (Chevalley-Warning)" if iso else "one-dimensional form"
    elif q.blocks:
        cert = f"Arf: Tr(ab) = {0 if iso else 1}"
    else:
        cert = f"binary: -a1 a2 is {'a' if iso else 'not a'} square"
    return IsotropyResult(iso, _first_zero(F, pieces) if iso else None, cert)


def _represents(pieces, t: FieldElement, nonzero: bool) -> bool:
    """Whether the form with these pieces (char-2 blocks (a, b), diagonal
    entries d) takes the value t, at a nonzero vector if nonzero is set.
    Over F_q every form of dimension >= 2 takes every nonzero value and one
    of dimension >= 3 is isotropic (Chevalley-Warning; Serre, A Course in
    Arithmetic, I 2 and IV 1.7); <d> takes t iff t/d is a square, <d1, d2>
    is isotropic iff -d1 d2 is a square and [a, b] iff Tr(ab) = 0 (Arf)."""
    n = sum(2 if isinstance(p, tuple) else 1 for p in pieces)
    if not t.is_zero():
        return n > 1 or (n == 1 and is_nth_power(t / pieces[0], 2).is_power)
    if not nonzero or n != 2:
        return not nonzero or n > 2
    if len(pieces) == 1:
        return _field_trace(pieces[0][0] * pieces[0][1]).is_zero()
    return is_nth_power(-(pieces[0] * pieces[1]), 2).is_power


def _first_zero(F: FiniteField, pieces) -> tuple:
    """The first nonzero zero in elements() order, one coordinate at a time:
    the first value after which the rest can still reach zero, and last the
    least root of b y^2 + x y = t (a diagonal entry b has x = 0)."""
    vec, t, fresh = [], F.zero(), True  # t: what the open coordinates must take
    for i, piece in enumerate(pieces):
        rest = pieces[i + 1:]
        a, b = piece if isinstance(piece, tuple) else (None, piece)
        x = F.zero()
        if a is not None:
            # x = 0 fails only when nothing follows and either b = 0, t != 0
            # or the block itself must be isotropic (Tr(ab) = 0): x = 1 serves
            if not _represents(([b] if not b.is_zero() else []) + rest, t,
                               fresh and not b.is_zero()):
                x = F.one()
            vec.append(x)
            t, fresh = t - a * x * x, fresh and x.is_zero()
        if rest:
            y = next(y for y in F.elements()
                     if _represents(rest, t - (b * y + x) * y, fresh and y.is_zero()))
        else:
            y = _least_root(b, x, t, fresh)
        vec.append(y)
        t, fresh = t - (b * y + x) * y, fresh and y.is_zero()
    return tuple(vec)


def _least_root(b, x, t, nonzero: bool):
    """The first y in elements() order with b y^2 + x y = t (nonzero if asked)."""
    if b.is_zero():
        return t / x if not x.is_zero() else t.tower.elem(int(nonzero))
    if x.is_zero():
        return t if t.is_zero() else is_nth_power(t / b, 2).witness
    s = x / b  # y = s z turns the equation into z^2 + z = b t / x^2
    y = s * _artin_schreier_root(b * t / (x * x))
    return min(y, y + s, key=lambda e: e.payload[::-1])


# --- Q_p ----------------------------------------------------------------------

_PADIC_CERTIFICATES = {
    (2, True): "binary: -a1 a2 is a square",
    (2, False): "binary: -a1 a2 is a nonsquare (valuation/unit analysis)",
    (3, True): "ternary Hilbert criterion",
    (3, False): "ternary Hilbert criterion (anisotropic)",
    (4, True): "dim 4, trivial disc, Hasse matches (-1,-1)",
    (4, False): "dim 4 anisotropic: the unique norm-form class",
}


def _isotropy_padic(q: QuadraticForm) -> IsotropyResult:
    n = q.dim
    if n == 1:
        return IsotropyResult(False, None, "one-dimensional form")
    if n >= 5:
        return IsotropyResult(True, None, "dim >= 5 over a p-adic field")
    p = effective_tower(q.tower).p
    data = [_padic_val_unit(d) for d in q.diag]
    iso = _local_isotropic(data, p)
    if n == 4 and iso and not _is_local_square(_product(data), p):
        return IsotropyResult(True, None, "dim 4 with nontrivial discriminant")
    return IsotropyResult(iso, None, _PADIC_CERTIFICATES[n, iso])


# --- Laurent towers -----------------------------------------------------------

def laurent_residue_split(q: QuadraticForm) -> tuple[QuadraticForm, QuadraticForm]:
    """q ~ q0 _|_ t*q1 with unit residues over the base (exact square classes)."""
    L: LaurentExt = effective_tower(q.tower)
    if L.characteristic == 2 or (isinstance(L.base, FiniteField) and L.base.p == 2):
        raise UnsupportedTower("Springer decomposition needs residue char != 2")
    unit_part, t_part = [], []
    for d in q.diag:
        sp = laurent_split(L.elem(d))
        # t^v u (1+w): (1+w) is a square by Hensel, so class is t^(v mod 2) * u
        if sp.valuation % 2 == 0:
            unit_part.append(sp.unit)
        else:
            t_part.append(sp.unit)
    return (QuadraticForm(L.base, unit_part) if unit_part else QuadraticForm(L.base),
            QuadraticForm(L.base, t_part) if t_part else QuadraticForm(L.base))


def _isotropy_laurent(q: QuadraticForm) -> IsotropyResult:
    L: LaurentExt = effective_tower(q.tower)
    q0, q1 = laurent_residue_split(q)
    r0 = isotropy(q0) if q0.dim else IsotropyResult(False, None, "empty residue")
    r1 = isotropy(q1) if q1.dim else IsotropyResult(False, None, "empty residue")
    if r0.isotropic or r1.isotropic:
        part = "unit" if r0.isotropic else f"{L.var}-part"
        wit = _lift_laurent_witness(q, q0, q1, r0 if r0.isotropic else r1,
                                    use_unit_part=r0.isotropic)
        return IsotropyResult(True, wit,
                              f"Springer: residue form ({part}) isotropic over {L.base}")
    return IsotropyResult(
        False, None,
        f"Springer: residue forms <{q0}> and <{q1}> both anisotropic over {L.base}")


def _lift_laurent_witness(q, q0, q1, res: IsotropyResult, use_unit_part: bool):
    """Lift a residue witness when all entries are exact monomials."""
    if res.witness is None:
        return None
    L: LaurentExt = effective_tower(q.tower)
    wit = []
    k = 0
    target = 0 if use_unit_part else 1
    for d in q.diag:
        terms, order = L.elem(d).payload
        if len(terms) != 1 or order is not None:
            return None  # entry has a genuine tail; report certificate only
        v = min(terms)
        if v % 2 == target:
            w = res.witness[k]
            k += 1
            wit.append(L.elem(w) * L.monomial(-(v - (v % 2)) // 2))
        else:
            wit.append(L.zero())
    probe = q.eval(wit)
    if probe.is_zero() and any(not w.is_zero() for w in wit):
        return tuple(wit)
    return None


# ---------------------------------------------------------------------------
# Witt classes
# ---------------------------------------------------------------------------

class WittClass:
    """Witt class with an explicit anisotropic kernel presentation."""

    def __init__(self, tower: FieldTower, kernel: QuadraticForm,
                 hyperbolic_rank: int = 0, provenance: str = "direct"):
        self.tower = tower
        self.kernel = kernel
        self.hyperbolic_rank = hyperbolic_rank
        self.provenance = provenance

    def is_zero(self) -> bool:
        return self.kernel.dim == 0

    def __repr__(self):
        return (f"WittClass(kernel={self.kernel}, hyperbolic_rank="
                f"{self.hyperbolic_rank})")


def witt_class(q: QuadraticForm) -> WittClass:
    """Witt decomposition: strip hyperbolic planes, keep the anisotropic kernel.

    Over Q an indefinite form in I^3 is decided from its signature (see
    _witt_by_splitting); every other form splits off hyperbolic planes along
    isotropic witnesses until the rest is anisotropic."""
    tower = effective_tower(q.tower)
    if isinstance(tower, (Rationals, FiniteField)) and not q.char2:
        return _witt_by_splitting(q)
    if isinstance(tower, PAdicDescriptor):
        return _witt_padic(q)
    if isinstance(tower, LaurentExt):
        return _witt_laurent(q)
    if q.char2 and isinstance(tower, FiniteField):
        return _witt_char2_finite(q)
    raise UnsupportedTower(f"witt_class not supported over {q.tower}")


SIGNATURE_CLASS = ("I^3 over Q: Witt class sig*<1> (Hasse principle for Witt "
                   "classes; I^3(Q_p) = 0)")


def _witt_by_splitting(q: QuadraticForm) -> WittClass:
    """Free hyperbolic pairs go first.  Over Q, what remains is then decided
    when it lies in I^3 and is indefinite: W(Q) embeds in the product of the
    W(Q_v), I^3(Q_p) = 0 for every prime p and I^3(R) is generated by 8<1>,
    so the form is Witt-equivalent to sig*<1>, whose kernel is |sig| copies
    of <+-1>.  Otherwise hyperbolic planes are split off along witnesses."""
    tower = q.tower
    diag, rank = _strip_hyperbolic_pairs(list(q.diag), tower)
    if isinstance(effective_tower(tower), Rationals):
        ints = _int_diag(diag)
        if (any(d > 0 for d in ints) and any(d < 0 for d in ints)
                and _rational_below_i3(ints) is None):
            sig = sum(1 if d > 0 else -1 for d in ints)
            kernel = QuadraticForm(tower, [1 if sig > 0 else -1] * abs(sig))
            return WittClass(q.tower, kernel, rank + (len(diag) - abs(sig)) // 2,
                             SIGNATURE_CLASS)
    while len(diag) >= 2:
        res = isotropy(QuadraticForm(tower, diag))
        if not res.isotropic:
            break
        if res.witness is None:
            raise Undecided("isotropic but no explicit witness found in the box")
        diag, split = _strip_hyperbolic_pairs(
            _split_hyperbolic(tower, diag, res.witness), tower)
        rank += 1 + split
    return WittClass(q.tower, QuadraticForm(tower, diag), rank, "witness splitting")


def _strip_hyperbolic_pairs(diag, tower) -> tuple[list, int]:
    """Remove pairs <d_i, d_j> with -d_i d_j a square; returns (rest, pairs)."""
    pairs = 0
    while (pair := _find_hyperbolic_pair(diag, tower)) is not None:
        diag = [d for k, d in enumerate(diag) if k not in pair]
        pairs += 1
    return diag, pairs


def _find_hyperbolic_pair(diag, tower):
    if isinstance(effective_tower(tower), Rationals):
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if _rational_is_square(-(rational_of(diag[i]) * rational_of(diag[j]))):
                    return i, j
        return None
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            try:
                if is_nth_power(-(diag[i] * diag[j]), 2).is_power:
                    return i, j
            except (UnsupportedTower, Undecided):
                return None
    return None


def content_normalized(q: QuadraticForm) -> tuple[QuadraticForm, Fraction]:
    """Scale a rational diagonal form by a single global factor so entries are
    integers with trivial common content.  Global scaling preserves every
    I^n-level decision (for q of even dimension the class changes by
    <<lambda>> x q, which lies one filtration step deeper)."""
    if q.char2 or not isinstance(effective_tower(q.tower), Rationals):
        return q, Fraction(1)
    vals = [rational_of(d) for d in q.diag]
    den = 1
    for v in vals:
        den = den * v.denominator // math.gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    content = 0
    for x in ints:
        content = math.gcd(content, abs(x))
    if content > 1:
        ints = [x // content for x in ints]
    scale = Fraction(den, max(content, 1))
    return QuadraticForm(q.tower,
                         [_strip_small_squares(q.tower.elem(x), q.tower)
                          for x in ints]), scale


def _split_hyperbolic(tower, diag, witness):
    """Remove the hyperbolic plane spanned by an isotropic witness."""
    n = len(diag)
    d = [tower.elem(x) for x in diag]
    v = [tower.elem(x) for x in witness]

    def bilin(x, y):
        acc = tower.zero()
        for c, xi, yi in zip(d, x, y):
            acc = acc + c * xi * yi
        return acc

    w = None
    for k in range(n):
        e = [tower.one() if i == k else tower.zero() for i in range(n)]
        if not bilin(v, e).is_zero():
            w = e
            break
    assert w is not None, "witness is in the radical of a nonsingular form"
    basis = []
    for k in range(n):
        e = [tower.one() if i == k else tower.zero() for i in range(n)]
        bv, bw = bilin(e, v), bilin(e, w)
        # project e onto the orthogonal complement of span(v, w)
        mvv, mvw, mww = bilin(v, v), bilin(v, w), bilin(w, w)
        # solve e' = e - s v - t w with B(e', v) = B(e', w) = 0;
        # v isotropic makes det = -mvw^2 != 0
        det = mvv * mww - mvw * mvw
        assert not det.is_zero()
        s = (bv * mww - bw * mvw) * det.inverse()
        t = (bw * mvv - bv * mvw) * det.inverse()
        basis.append([ei - s * vi - t * wi for ei, vi, wi in zip(e, v, w)])
    # Gram matrix of the projected vectors, then congruence-diagonalise
    gram = [[bilin(x, y) for y in basis] for x in basis]
    entries = diagonalize_gram(gram, tower)
    assert len(entries) == n - 2, "hyperbolic split changed rank unexpectedly"
    return entries


def diagonalize_gram(gram, tower) -> list:
    """Exact symmetric congruence diagonalisation; returns nonzero entries.

    Over Q it runs ``_diagonalize_gram_rational``: integer elimination on
    primitive working vectors, O(n^3).  Over every other tower it runs
    ``_diagonalize_gram_generic``, plain symmetric Gauss elimination.  The
    congruence is exact, so the quadratic-space class is preserved.
    """
    if isinstance(effective_tower(tower), Rationals):
        return _diagonalize_gram_rational(gram, tower)
    return _diagonalize_gram_generic(gram, tower)


def _diagonalize_gram_generic(gram, tower) -> list:
    g = [row[:] for row in gram]
    n = len(g)
    entries = []
    idx = list(range(n))
    while idx:
        piv = None
        for i in idx:
            if not g[i][i].is_zero():
                piv = i
                break
        if piv is None:
            found = False
            for i in idx:
                for j in idx:
                    if i != j and not g[i][j].is_zero():
                        for k in idx:
                            g[i][k] = g[i][k] + g[j][k]
                        for k in idx:
                            g[k][i] = g[k][i] + g[k][j]
                        found = True
                        break
                if found:
                    break
            if not found:
                break  # remaining block is zero (degenerate part)
            continue
        d = g[piv][piv]
        entries.append(d)
        others = [i for i in idx if i != piv]
        dinv = d.inverse()
        for i in others:
            f = g[i][piv] * dinv
            if not f.is_zero():
                for k in idx:
                    g[i][k] = g[i][k] - f * g[piv][k]
                for k in idx:
                    g[k][i] = g[k][i] - f * g[k][piv]
        idx = others
    return entries


def _diagonalize_gram_rational(gram, tower) -> list:
    """Pivot on the working vector of smallest nonzero |q(b, b)|, project
    the others off it as d b - B(b, p) p and make them primitive integer
    vectors; with no nonzero q(b, b) left, replace b_i by the primitive part
    of b_i + b_j for the first pair with B(b_i, b_j) != 0.

    q is scaled by the common denominator D of its entries, and the integer
    Gram matrix M of the working vectors under D q is carried along: a
    projection by the pivot p with d = M_pp, c_i = M_ip and contents g_i
    gives M'_ij = (d^2 M_ij - d c_i c_j) / (g_i g_j), exactly.  That is
    O(n^2) per pivot instead of re-evaluating the form on every vector."""
    q = [[rational_of(x) if isinstance(x, FieldElement) else Fraction(x)
          for x in row] for row in gram]
    D = math.lcm(1, *(x.denominator for row in q for x in row))
    M = [[x.numerator * (D // x.denominator) for x in row] for row in q]
    vecs = [[int(i == j) for j in range(len(q))] for i in range(len(q))]
    entries = []
    while vecs:
        m = len(vecs)
        piv = None
        for i in range(m):
            if M[i][i] and (piv is None or abs(M[i][i]) < abs(M[piv][piv])):
                piv = i
        if piv is None:
            pair = next(((i, j) for i in range(m) for j in range(m)
                         if i != j and M[i][j]), None)
            if pair is None:
                break  # zero block
            i, j = pair
            s = [a + b for a, b in zip(vecs[i], vecs[j])]
            g = math.gcd(*s)
            vecs[i] = [x // g for x in s]
            row = [(a + b) // g for a, b in zip(M[i], M[j])]
            row[i] = 2 * M[i][j] // (g * g)  # M_ii = M_jj = 0 here
            for k in range(m):
                M[i][k] = M[k][i] = row[k]
            continue
        d = M[piv][piv]
        entries.append(_strip_small_squares(tower.elem(Fraction(d, D)), tower))
        keep = [i for i in range(m) if i != piv]
        p = vecs[piv]
        c, g, new_vecs = [], [], []
        for i in keep:
            ci = M[i][piv]
            nb = [d * x - ci * y for x, y in zip(vecs[i], p)]
            gi = math.gcd(*nb) or 1
            c.append(ci)
            g.append(gi)
            new_vecs.append([x // gi for x in nb])
        M = [[(d * d * M[i][j] - d * c[a] * c[b]) // (g[a] * g[b])
              for b, j in enumerate(keep)] for a, i in enumerate(keep)]
        vecs = new_vecs
    return entries


def _strip_small_squares(d: FieldElement, tower) -> FieldElement:
    """Divide out squares of small primes to keep rational entries small."""
    if not isinstance(effective_tower(tower), Rationals):
        return d
    x: Fraction = d.payload
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % (p * p) == 0:
            n //= p * p
    # perfect-square residue check for the remainder
    from .fields import integer_nth_root
    r = integer_nth_root(n, 2)
    if r is not None:
        n = 1
    return tower.elem(sign * n)


def _witt_padic(q: QuadraticForm) -> WittClass:
    tower = effective_tower(q.tower)
    p, n = tower.p, q.dim
    data = [_padic_val_unit(d) for d in q.diag]
    # candidate anisotropic kernels over Q_p have dim <= 4
    reps = _padic_square_class_reps(tower)
    for r in range(n % 2, min(n, 4) + 1, 2):
        for cand in itertools.combinations_with_replacement(reps, r):
            cdata = [_val_unit_int(c, p) for c in cand]
            if _local_isotropic(cdata, p):
                continue
            # [q] = [cand] iff q _|_ -cand is hyperbolic
            if _hyperbolic_at(data + [(v, -u) for v, u in cdata], p):
                return WittClass(q.tower, QuadraticForm(q.tower, cand), (n - r) // 2,
                                 "invariant classification")
    raise Undecided("no p-adic kernel matched (internal error)")


def _padic_square_class_reps(tower: PAdicDescriptor) -> list[int]:
    p = tower.p
    if p == 2:
        return [1, 3, 5, 7, 2, 6, 10, 14]
    u = next(u for u in range(2, p) if _jacobi(u, p) < 0)
    return [1, u, p, u * p]


def _signed_disc(q: QuadraticForm) -> FieldElement:
    n = q.dim
    det = q.tower.one()
    for d in q.diag:
        det = det * d
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return det * q.tower.elem(sign)


def _witt_laurent(q: QuadraticForm) -> WittClass:
    L: LaurentExt = effective_tower(q.tower)
    q0, q1 = laurent_residue_split(q)
    c0 = witt_class(q0) if q0.dim else WittClass(L.base, QuadraticForm(L.base))
    c1 = witt_class(q1) if q1.dim else WittClass(L.base, QuadraticForm(L.base))
    Lt = q.tower
    kernel_diag = [Lt.elem(d) for d in c0.kernel.diag] + \
        [Lt.elem(d) * effective_tower(Lt).monomial(1) for d in c1.kernel.diag]
    rank = c0.hyperbolic_rank + c1.hyperbolic_rank
    return WittClass(q.tower, QuadraticForm(Lt, kernel_diag), rank,
                     "Springer residue decomposition")


def _witt_char2_finite(q: QuadraticForm) -> WittClass:
    if q.diag:
        raise UnsupportedTower("odd-dimensional char-2 parts are out of scope")
    tower = q.tower
    a = arf_invariant(q)
    if a.is_trivial:
        return WittClass(tower, QuadraticForm(tower), q.dim // 2, "Arf classification")
    # the unique nonzero class: [1, c] with x^2 + x + c irreducible, i.e.
    # Tr(c) = 1; c is the first such element in elements() order
    c = _trace_one(effective_tower(tower))
    probe = QuadraticForm(tower, (), [(tower.one(), c)])
    return WittClass(tower, probe, (q.dim - 2) // 2, "Arf classification")


def witt_add(c1: WittClass, c2: WittClass) -> WittClass:
    if c1.tower != c2.tower:
        raise InconsistentConstruction("Witt addition over different towers")
    return witt_class(c1.kernel.perp(c2.kernel))


def witt_neg(c: WittClass) -> WittClass:
    return WittClass(c.tower, c.kernel.neg(), c.hyperbolic_rank, c.provenance)


def bilinear_mult(bilinear_diag, c: WittClass) -> WittClass:
    """Multiply by the diagonal symmetric bilinear form <b_1, ..., b_r>."""
    tower = c.tower
    entries = [tower.elem(b) for b in bilinear_diag]
    if any(e.is_zero() for e in entries):
        raise InconsistentConstruction("bilinear factor must be nonsingular")
    if not c.kernel.char2:
        diag = [b * d for b in entries for d in c.kernel.diag]
        return witt_class(QuadraticForm(tower, diag))
    blocks = []
    for b in entries:
        binv = b.inverse()
        for (x, y) in c.kernel.blocks:
            blocks.append((b * x, y * binv))
    return witt_class(QuadraticForm(tower, (), blocks))


# ---------------------------------------------------------------------------
# Arf invariant (characteristic 2)
# ---------------------------------------------------------------------------

@dataclass
class ArfInvariant:
    value: FieldElement
    is_trivial: bool

    def __repr__(self):
        return f"Arf({self.value}, trivial={self.is_trivial})"


def arf_invariant(q: QuadraticForm) -> ArfInvariant:
    """Arf(q) = sum a_i b_i in k / {x^2 + x}; over F_q, q = 2^e, it is
    trivial iff Tr_{F_q/F_2}(sum a_i b_i) = 0 (additive Hilbert 90)."""
    if not q.char2:
        raise UnsupportedTower("Arf invariant lives in characteristic 2")
    if q.diag:
        raise InconsistentConstruction("Arf needs an even-dimensional block form")
    tower = q.tower
    acc = tower.zero()
    for a, b in q.blocks:
        acc = acc + a * b
    F = effective_tower(tower)
    if isinstance(F, FiniteField):
        return ArfInvariant(acc, _field_trace(acc).is_zero())
    raise UnsupportedTower("Arf triviality is certified over finite fields only")


# ---------------------------------------------------------------------------
# I^n-level certification
# ---------------------------------------------------------------------------

@dataclass
class LevelCertificate:
    level: int
    certified: bool
    detail: str

    def __repr__(self):
        tag = "" if self.certified else " (unverified above)"
        return f"I-level {self.level}{tag}: {self.detail}"


def i_level(c: WittClass) -> LevelCertificate:
    """Certified I^n-filtration level of a Witt class (capped at 4)."""
    tower = effective_tower(c.tower)
    if c.kernel.char2:
        if c.is_zero():
            return LevelCertificate(4, True, "zero class (hyperbolic)")
        if isinstance(tower, FiniteField):
            return LevelCertificate(1, True, "nonzero class (W_q(F_q) = Z/2, so I^2_q = 0)")
        return LevelCertificate(1, False,
                                "even-dimensional; higher char-2 levels unverified")
    if c.is_zero():
        return LevelCertificate(4, True, "zero class (hyperbolic)")
    if isinstance(tower, Rationals):
        return _i_level_rational(c)
    if isinstance(tower, FiniteField):
        if c.kernel.dim % 2:
            return LevelCertificate(0, True, "odd dimension")
        if is_nth_power(_signed_disc(c.kernel), 2).is_power:
            return LevelCertificate(4, True, "even dim, trivial disc: zero in W(F_q)")
        return LevelCertificate(1, True, "even dim, nontrivial disc (I^2(F_q) = 0)")
    if isinstance(tower, PAdicDescriptor):
        if c.kernel.dim % 2:
            return LevelCertificate(0, True, "odd dimension")
        data = [_padic_val_unit(d) for d in c.kernel.diag]
        if not _is_local_square(_signed_disc_pair(data), tower.p):
            return LevelCertificate(1, True, "nontrivial signed discriminant")
        if _hyperbolic_at(data, tower.p):
            return LevelCertificate(4, True, "zero class (I^3 of a p-adic field vanishes)")
        return LevelCertificate(2, True,
                                "nonzero class with trivial disc; I^3(Q_p) = 0 caps the level")
    if isinstance(tower, LaurentExt):
        lvl, detail = _i_level_laurent(c.kernel)
        return LevelCertificate(lvl, True, detail)
    raise UnsupportedTower(f"i_level not certified over {c.tower}")


def _i_level_rational(c: WittClass) -> LevelCertificate:
    ints = _int_diag(c.kernel.diag)
    below = _rational_below_i3(ints)
    if below is not None:
        return below
    sig = sum(1 if d > 0 else -1 for d in ints)
    if sig % 16 == 0:
        return LevelCertificate(4, True,
                                "level 3 criteria and all real signatures = 0 mod 16")
    return LevelCertificate(3, True,
                            f"Clifford trivial everywhere; signature {sig} != 0 mod 16")


def _rational_below_i3(ints: list[int]) -> LevelCertificate | None:
    """The level-0, 1 or 2 certificate of <ints> over Q, or None in I^3.

    ints are integers in the square classes of the entries.  The form is in
    I^3 iff its dimension is even, its signed discriminant is a square and
    its Hasse invariants equal the hyperbolic form's at every place; only
    infinity, 2 and the primes dividing an entry can differ."""
    n = len(ints)
    if n % 2:
        return LevelCertificate(0, True, "odd dimension")
    disc = -1 if (n * (n - 1) // 2) % 2 else 1
    for d in ints:
        disc *= d
    if not _rational_is_square(Fraction(disc)):
        return LevelCertificate(1, True, "nontrivial signed discriminant")
    for v in ["inf"] + _bad_primes(ints):
        if _hasse([_val_unit_int(d, v) for d in ints], v) != _hyperbolic_hasse(n, v):
            return LevelCertificate(2, True,
                                    f"Clifford/Hasse data nontrivial at place {v}")
    return None


def _i_level_laurent(q: QuadraticForm) -> tuple[int, str]:
    """Highest n <= 4 with q in I^n, by the residue rule
    q in I^n(k((t))) iff q1 in I^(n-1)(k) and q0 + q1 in I^n(k)."""
    q0, q1 = laurent_residue_split(q)

    def level_of(form: QuadraticForm) -> int:
        base = effective_tower(form.tower)
        if form.dim == 0:
            return 4
        if isinstance(base, LaurentExt):
            return _i_level_laurent(form)[0]
        return i_level(witt_class(form)).level

    l1 = level_of(q1)
    lsum = level_of(q0.perp(q1))
    lvl = min(l1 + 1, lsum, 4)
    return lvl, (f"residue rule: t-part level {l1}, unit+t sum level {lsum}")


def witt_equal_mod_i4(c1: WittClass, c2: WittClass) -> bool:
    """c1 = c2 in W / I^4 (used for v- and sigma-independence checks).

    The I-level criteria are Witt-class invariants, so they run on the raw
    orthogonal difference without any decomposition work."""
    diff_form = c1.kernel.perp(c2.kernel.neg())
    if diff_form.dim == 0:
        return True
    if isinstance(effective_tower(c1.tower), Rationals) and not diff_form.char2:
        normalized, _ = content_normalized(diff_form)
        probe = WittClass(c1.tower, normalized, 0, "unreduced difference")
        return i_level(probe).level >= 4
    diff = witt_add(c1, witt_neg(c2))
    if diff.is_zero():
        return True
    return i_level(diff).level >= 4
