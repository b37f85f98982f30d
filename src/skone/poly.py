"""The polynomial kernel, polynomials over a tower, and monic quotient rings.

The kernel at the top of this module is skone's only polynomial arithmetic.
It works on plain coefficient lists, low degree first, over any commutative
coefficient type; each call is given the coefficient ring's zero and zero
test, and division is also given a coefficient inverse:

  poly_mul(a, b, zero, is_zero)                         a * b
  poly_divmod(a, b, zero, is_zero, inv=None, norm=...)  (a // b, a % b)
  poly_inverse_mod(a, m, zero, is_zero, inv, norm=...)  a^-1 mod m, by
                                                        extended Euclid
  power(x, n, one, mul=operator.mul)                    x**n in any ring

Modulus convention: a divisor or modulus is always the full coefficient
list, leading coefficient included; inv=None says that it is monic.  Results
are not trimmed: a product has len(a) + len(b) - 1 entries and a remainder
len(b) - 1 (or len(a) if a is shorter).  ``norm`` maps a coefficient to its
normal form.  It is the identity except over F_p, where integer coefficients
are reduced mod p so that Euclid's coefficients do not grow.

The kernel's users:

  fields.FiniteField     F_p[x]/(f) on integer lists reduced mod p
  fields.RootAdjunction  Q[x]/(Phi_m) on Fraction lists; cyclotomic_polynomial
  Poly                   dense polynomials over a tower (FieldElements)
  QuotientRing           R[T]/(f) for monic f over a tower or another
                         QuotientRing; nesting gives the etale subalgebras
                         used to split symbol and p-algebras

Nothing here needs fields.py at import time, so fields.py imports the kernel.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING

from .errors import NonInvertibleElement, UnsupportedTower

if TYPE_CHECKING:
    from .fields import FieldElement, FieldTower


# ---------------------------------------------------------------------------
# the kernel: dense coefficient lists, low degree first
# ---------------------------------------------------------------------------

def _same(x):
    return x


def _trim(c: list, is_zero) -> list:
    while c and is_zero(c[-1]):
        c.pop()
    return c


def power(x, n: int, one, mul=operator.mul):
    """x**n for n >= 0 by square-and-multiply, in any ring with unit one."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def poly_mul(a: list, b: list, zero, is_zero) -> list:
    """The product a * b (len(a) + len(b) - 1 entries, or [] if one is empty)."""
    if not a or not b:
        return []
    b_terms = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in b_terms:
            out[i + j] = out[i + j] + x * y
    return out


def poly_divmod(a: list, b: list, zero, is_zero, inv=None, norm=_same):
    """(quotient, remainder) of a by b, whose last coefficient is nonzero.

    inv=None means b is monic; otherwise inv inverts b's leading coefficient.
    """
    db = len(b) - 1
    if len(a) <= db:
        return [], [norm(x) for x in a]
    lead_inv = None if inv is None else inv(b[-1])
    low = [(i, y) for i, y in enumerate(b[:db]) if not is_zero(y)]
    rem = list(a)
    quo = [zero] * (len(a) - db)
    for shift in range(len(a) - db - 1, -1, -1):
        c = rem[shift + db]
        c = norm(c if lead_inv is None else c * lead_inv)
        quo[shift] = c
        if is_zero(c):
            continue
        for i, y in low:
            rem[shift + i] = rem[shift + i] - c * y
    return quo, [norm(x) for x in rem[:db]]


def poly_inverse_mod(a: list, m: list, zero, is_zero, inv, norm=_same) -> list:
    """a^-1 modulo m by extended Euclid; m's last coefficient is nonzero.

    Raises NonInvertibleElement unless gcd(a, m) is a nonzero constant.
    """
    r1 = _trim([norm(x) for x in a], is_zero)
    if not r1:
        raise NonInvertibleElement("zero has no inverse")
    u = inv(r1[-1])
    # invariant: t_i * a = r_i (mod m)
    r0, r1 = list(m), [norm(x * u) for x in r1]
    t0, t1 = [], [u]
    while r1:
        q, r = poly_divmod(r0, r1, zero, is_zero, inv, norm)
        t = [norm(x - y) for x, y in
             zip_longest(t0, poly_mul(t1, q, zero, is_zero), fillvalue=zero)]
        r0, r1, t0, t1 = r1, _trim(r, is_zero), t1, _trim(t, is_zero)
    if len(r0) != 1:
        raise NonInvertibleElement("element not invertible modulo the modulus")
    c = inv(r0[0])
    return [norm(x * c) for x in t0]


# ---------------------------------------------------------------------------
# polynomials over a tower
# ---------------------------------------------------------------------------

_is_zero = operator.methodcaller("is_zero")
_inverse = operator.methodcaller("inverse")


class Poly:
    """Dense univariate polynomial over a tower."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs):
        cs = [tower.elem(c) if isinstance(c, (int, Fraction)) else c for c in coeffs]
        self.tower = tower
        self.coeffs = _trim(cs, _is_zero)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.tower.zero()

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.tower, [self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.tower, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.tower, [c * other for c in self.coeffs])
        return Poly(self.tower, poly_mul(self.coeffs, other.coeffs,
                                         self.tower.zero(), _is_zero))

    def __pow__(self, n: int):
        return power(self, n, Poly(self.tower, [self.tower.one()]))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = poly_divmod(self.coeffs, other.coeffs, self.tower.zero(),
                               _is_zero, _inverse)
        return Poly(self.tower, quo), Poly(self.tower, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(self.tower, [c * inv for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, x: FieldElement) -> FieldElement:
        acc = self.tower.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            if any(ch in cs for ch in "+- ") and not (cs.startswith("-") and cs[1:].isdigit()):
                cs = f"({cs})"
            if i == 0:
                bits.append(cs)
            else:
                mono = "X" if i == 1 else f"X^{i}"
                bits.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(bits)


def monic_sqrt_char2(p: Poly) -> Poly:
    """Square root of a monic perfect square over a perfect field of char 2."""
    tower = p.tower
    if tower.characteristic != 2:
        raise ValueError("char-2 square root called in wrong characteristic")
    if p.degree % 2:
        raise ValueError("odd degree cannot be a square")
    coeffs = []
    for i in range(0, p.degree + 1, 2):
        if not p[i + 1].is_zero() if i + 1 <= p.degree else False:
            raise ValueError("odd-degree coefficient nonzero; not a square")
        coeffs.append(_sqrt_perfect(p[i]))
    q = Poly(tower, coeffs)
    if q * q == p:
        return q
    raise ValueError("polynomial is not a perfect square")


def _sqrt_perfect(x: FieldElement) -> FieldElement:
    from .fields import FiniteField
    tower = x.tower
    if isinstance(tower, FiniteField) and tower.p == 2:
        return x ** (tower.q // 2)
    raise UnsupportedTower("char-2 square roots only over finite fields")


class QuotElt:
    """Element of a QuotientRing; coefficient vector over the base domain."""

    __slots__ = ("ring", "vec")

    def __init__(self, ring: "QuotientRing", vec):
        self.ring = ring
        self.vec = tuple(vec)

    def __add__(self, other):
        o = self.ring.coerce(other)
        return QuotElt(self.ring, [a + b for a, b in zip(self.vec, o.vec)])

    __radd__ = __add__

    def __neg__(self):
        return QuotElt(self.ring, [-a for a in self.vec])

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        o = self.ring.coerce(other)
        return self.ring._mul(self, o)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, self.ring.one())

    def __eq__(self, other):
        o = self.ring.coerce(other)
        return all(a == b for a, b in zip(self.vec, o.vec))

    def is_zero(self):
        return all(a.is_zero() for a in self.vec)

    def scalar_part(self):
        """The constant coefficient if all higher ones vanish, else None."""
        if all(a.is_zero() for a in self.vec[1:]):
            return self.vec[0]
        return None

    def __repr__(self):
        return "QuotElt(" + ", ".join(map(str, self.vec)) + ")"


class QuotientRing:
    """R[T]/(f) for monic f; R is a tower or another QuotientRing."""

    def __init__(self, base, modulus_coeffs):
        # modulus given WITHOUT the leading 1: f = T^d + sum modulus[i] T^i
        self.base = base
        self.modulus = list(modulus_coeffs)
        self.deg = len(self.modulus)
        self.coeff_zero = base.zero()
        self.coeff_one = base.one()
        self._f = self.modulus + [self.coeff_one]  # f in full, for the kernel

    def zero(self):
        return QuotElt(self, [self.coeff_zero] * self.deg)

    def one(self):
        return QuotElt(self, [self.coeff_one] + [self.coeff_zero] * (self.deg - 1))

    def gen(self):
        if self.deg == 1:
            # T = -modulus[0]
            return QuotElt(self, [-self.modulus[0]])
        return QuotElt(self, [self.coeff_zero, self.coeff_one]
                       + [self.coeff_zero] * (self.deg - 2))

    def coerce(self, x):
        if isinstance(x, QuotElt) and x.ring is self:
            return x
        if isinstance(self.base, QuotientRing):
            val = self.base.coerce(x)
        elif isinstance(x, int):
            val = self.base.elem(x)
        else:
            val = x
        return QuotElt(self, [val] + [self.coeff_zero] * (self.deg - 1))

    def _mul(self, a: QuotElt, b: QuotElt) -> QuotElt:
        prod = poly_mul(a.vec, b.vec, self.coeff_zero, _is_zero)
        return QuotElt(self, poly_divmod(prod, self._f, self.coeff_zero, _is_zero)[1])


def scalar_of(x):
    """Peel nested QuotElt layers; return the underlying FieldElement or None."""
    while isinstance(x, QuotElt):
        s = x.scalar_part()
        if s is None:
            return None
        x = s
    return x
