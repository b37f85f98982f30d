"""Exact field towers and element arithmetic.

Towers are built inductively from five constructors:

  Rationals()                 exact Q (fractions.Fraction payloads)
  FiniteField(q)              F_q for a prime power q, polynomial basis
  PAdicDescriptor(p, prec)    symbolic Q_p; rational elements are exact,
                              irrational witnesses carry a unit mod p^prec
  LaurentExt(base, var)       base((var)), finite Laurent expansions with a
                              declared precision order (None = exact)
  RootAdjunction(base, m)     adjoin a primitive m-th root of unity where it
                              can be tracked exactly (cyclotomic over Q, tame
                              Teichmueller over Q_p, existing root over F_q)

All values are immutable and all operations are pure, so towers and elements
can be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, partial
from operator import not_

from .errors import (
    FieldSyntaxError,
    InconsistentConstruction,
    NonInvertibleElement,
    PrecisionExhausted,
    UnsupportedTower,
)
from .poly import poly_divmod, poly_inverse_mod, poly_mul, power

DEFAULT_PADIC_PRECISION = 8
DEFAULT_LAURENT_TERMS = 16


# ---------------------------------------------------------------------------
# small integer helpers
# ---------------------------------------------------------------------------

# Miller-Rabin on the primes <= 41 is proven correct below this bound
# (Sorenson-Webster 2015); above it a strong Lucas test completes BPSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981
_TRIAL_LIMIT = 1000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor below 43
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BELOW or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (odd n, no factor <= 41)."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2  # half = 1/2 mod n
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # U_k, V_k and Q^k mod n by the binary expansion of d (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, no factor <= 41 (Brent, BIT 1980)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: step back one iterate at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError("unreachable: some c splits a composite")


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation: trial division by 2 and odd f while f < 1000 and
    f^2 <= n, then Pollard-Brent splitting of what remains, with BPSW
    primality."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    f = 2
    while f < _TRIAL_LIMIT and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if f * f > m or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack += [d, m // d]
    return out


def _prime_power(q: int) -> tuple[int, int]:
    fac = factorize(q)
    if len(fac) != 1:
        raise InconsistentConstruction(f"{q} is not a prime power")
    [(p, e)] = fac.items()
    return p, e


def integer_nth_root(x: int, n: int) -> int | None:
    """Exact n-th root of a nonnegative integer, or None."""
    if x < 0:
        raise ValueError("negative input")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        r = math.isqrt(x)
        return r if r * r == x else None
    # integer Newton iteration from an upper bound
    r = 1 << (-(-x.bit_length() // n))
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    for cand in (r - 1, r, r + 1):
        if cand > 0 and cand ** n == x:
            return cand
    return None


# ---------------------------------------------------------------------------
# F_q moduli: F_p[x] on integer lists reduced mod p, through the poly kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _find_irreducible(p: int, e: int) -> list[int]:
    """Deterministic smallest monic irreducible of degree e over F_p."""
    if e == 1:
        return [0, 1]
    # iterate coefficient vectors lexicographically
    for idx in range(p ** e):
        poly = [(idx // p ** i) % p for i in range(e)] + [1]
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError("unreachable: irreducible polynomial exists")


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test: f of degree e >= 2 is irreducible over F_p iff
    x^(p^k) - x is prime to f for k = 1 .. e // 2."""
    norm, inv = p.__rmod__, partial(pow, exp=-1, mod=p)

    def mulmod(a, b):
        return poly_divmod(poly_mul(a, b, 0, not_), f, 0, not_, None, norm)[1]

    xk = [0, 1]  # x^(p^k) mod f
    for _ in range((len(f) - 1) // 2):
        xk = power(xk, p, [1], mulmod)
        try:
            poly_inverse_mod([xk[0], (xk[1] - 1) % p] + xk[2:], f, 0, not_, inv, norm)
        except NonInvertibleElement:
            return False
    return True


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

class FieldTower:
    """Abstract base: a field in the supported inductive family.

    Each subclass implements the payload API that FieldElement calls:
    _payload_from_rational, _add, _neg, _mul, _inv, _eq, _is_zero and
    _repr_payload."""

    characteristic: int

    # --- construction of elements ------------------------------------
    def elem(self, value) -> "FieldElement":
        """Coerce an int / Fraction / FieldElement into this tower."""
        if isinstance(value, FieldElement):
            if value.tower is self or value.tower == self:
                return value
            lifted = self._lift(value)
            if lifted is not None:
                return lifted
            raise InconsistentConstruction(
                f"cannot coerce element of {value.tower} into {self}")
        if isinstance(value, (int, Fraction)):
            return FieldElement(self, self._payload_from_rational(Fraction(value)))
        raise InconsistentConstruction(f"cannot coerce {value!r} into {self}")

    def _lift(self, elt: "FieldElement"):
        return None

    def zero(self) -> "FieldElement":
        return self.elem(0)

    def one(self) -> "FieldElement":
        return self.elem(1)

    # --- derived descriptors ------------------------------------------
    def residue_chain(self) -> list[tuple[str, "FieldTower"]]:
        """(variable, residue field) pairs, outermost Laurent variable first."""
        return []

    def laurent_vars(self) -> list[str]:
        return [v for v, _ in self.residue_chain()]

    # --- cleared payload vectors ------------------------------------------
    def _clear(self, payloads):
        """(payloads', d) with every payload = payload' / d, for kernels that
        run on many payloads with this tower's _add, _mul and _is_zero and
        divide by d once at the end (``_from_cleared``).  Default: the
        payloads themselves, d = 1."""
        return payloads, 1

    def _from_cleared(self, a, d):
        """The payload a / d, for a payload a of ``_clear``'s kind."""
        return a

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class Rationals(FieldTower):
    characteristic = 0

    def __str__(self):
        return "Q"

    __repr__ = __str__

    def _payload_from_rational(self, q):
        return q

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise NonInvertibleElement("1/0 in Q")
        return 1 / a

    def _eq(self, a, b):
        return a == b

    def _is_zero(self, a):
        return a == 0

    def _repr_payload(self, a):
        return str(a)

    def _clear(self, payloads):
        """Integer numerators over the lcm d of the denominators: _add and
        _mul then run on Python ints."""
        d = math.lcm(*[q.denominator for q in payloads])
        return [q.numerator * (d // q.denominator) for q in payloads], d

    def _from_cleared(self, a, d):
        return Fraction(a, d)


class FiniteField(FieldTower):
    """F_q with q = p^e; elements are coefficient tuples in the polynomial basis.

    The modulus is the lexicographically smallest monic irreducible of
    degree e over F_p, so equal q always means equal field.
    """

    def __init__(self, q: int):
        p, e = _prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.characteristic = p
        self.modulus = _find_irreducible(p, e)
        self._norm = p.__rmod__  # x -> x % p
        self._coeff_inv = partial(pow, exp=-1, mod=p)

    def _key(self):
        return (self.q,)

    def __str__(self):
        return f"F({self.q})"

    __repr__ = __str__

    def _payload_from_rational(self, q: Fraction):
        num = q.numerator % self.p
        den = q.denominator % self.p
        if den == 0:
            raise NonInvertibleElement(f"denominator divisible by {self.p}")
        val = (num * pow(den, -1, self.p)) % self.p
        return (val,) + (0,) * (self.e - 1)

    def _pad(self, a):
        return list(a) + [0] * (self.e - len(a))

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(self._pad(a), self._pad(b)))

    def _neg(self, a):
        return tuple((-x) % self.p for x in self._pad(a))

    def _mul(self, a, b):
        prod = poly_mul(a, b, 0, not_)
        return tuple(self._pad(
            poly_divmod(prod, self.modulus, 0, not_, None, self._norm)[1]))

    def _inv(self, a):
        if self._is_zero(a):
            raise NonInvertibleElement("1/0 in finite field")
        inv = poly_inverse_mod(a, self.modulus, 0, not_, self._coeff_inv, self._norm)
        return tuple(self._pad(inv))

    def _eq(self, a, b):
        return self._pad(a) == self._pad(b)

    def _is_zero(self, a):
        return all(x == 0 for x in a)

    def _repr_payload(self, a):
        if self.e == 1:
            return str(a[0])
        terms = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}g" + (f"^{i}" if i > 1 else ""))
        return " + ".join(terms) if terms else "0"

    def elements(self):
        """Iterate over the q elements by reversed payload (0, 1, ..., g, ...):
        test oracles walk all of it, the library's scans stop at a first hit."""
        def rec(i):
            if i == self.e:
                yield ()
                return
            for rest in rec(i + 1):
                for c in range(self.p):
                    yield (c,) + rest
        for tup in rec(0):
            yield FieldElement(self, tup)

    def generator(self) -> "FieldElement":
        """The polynomial-basis generator g of F_q over F_p (for e > 1)."""
        if self.e == 1:
            raise InconsistentConstruction("prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.e - 2))

    def multiplicative_generator(self) -> "FieldElement":
        """Deterministic smallest generator of F_q^* (by payload order)."""
        return FieldElement(self, _first_generator(self))


@lru_cache(maxsize=None)
def _first_generator(F: FiniteField) -> tuple:
    """Payload of the first generator of F_q^* in elements() order, scanned
    once per q (generators are dense, so the scan stops early)."""
    order = F.q - 1
    primes = factorize(order)
    return next(x.payload for x in F.elements() if not x.is_zero()
                and all(not (x ** (order // r)).is_one() for r in primes))


class PadicPayload:
    """Either an exact rational, or a certified approximation p^v * (unit mod p^prec)."""

    __slots__ = ("rat", "v", "unit", "prec")

    def __init__(self, rat=None, v=0, unit=0, prec=0):
        self.rat = rat
        self.v = v
        self.unit = unit
        self.prec = prec

    @property
    def exact(self):
        return self.rat is not None


class PAdicDescriptor(FieldTower):
    """Symbolic Q_p.

    Elements constructed from rationals stay exact rationals and all their
    arithmetic is exact.  Irrational values (Hensel witnesses, Teichmueller
    roots of unity) are approximations p^v * u with the unit u known modulo
    p^prec; any arithmetic that would destroy certified digits raises
    PrecisionExhausted instead of guessing.
    """

    characteristic = 0

    def __init__(self, p: int, precision: int = DEFAULT_PADIC_PRECISION):
        if not _is_prime(p):
            raise InconsistentConstruction(f"{p} is not prime")
        self.p = p
        self.precision = precision

    def _key(self):
        return (self.p, self.precision)

    def __str__(self):
        return f"Qp({self.p})"

    __repr__ = __str__

    def _payload_from_rational(self, q):
        return PadicPayload(rat=q)

    # --- valuation/unit normal form ------------------------------------
    def val_unit(self, pay: PadicPayload, prec: int | None = None) -> tuple[int, int, int]:
        """(v, unit mod p^k, k): normal form at precision k. Errors on zero."""
        k = prec if prec is not None else self.precision
        if pay.exact:
            q = pay.rat
            if q == 0:
                raise NonInvertibleElement("zero has no valuation/unit form")
            v = 0
            num, den = q.numerator, q.denominator
            while num % self.p == 0:
                num //= self.p
                v += 1
            while den % self.p == 0:
                den //= self.p
                v -= 1
            unit = (num * pow(den, -1, self.p ** k)) % self.p ** k
            return v, unit, k
        k = min(k, pay.prec)
        if k <= 0:
            raise PrecisionExhausted("p-adic unit has no certified digits left")
        return pay.v, pay.unit % self.p ** k, k

    def valuation(self, pay: PadicPayload) -> int:
        return self.val_unit(pay)[0]

    def approx(self, v: int, unit: int, prec: int) -> "FieldElement":
        if unit % self.p == 0:
            raise InconsistentConstruction("approximate unit is divisible by p")
        return FieldElement(self, PadicPayload(v=v, unit=unit % self.p ** prec, prec=prec))

    # --- ring ops --------------------------------------------------------
    def _add(self, a: PadicPayload, b: PadicPayload):
        if a.exact and b.exact:
            return PadicPayload(rat=a.rat + b.rat)
        if a.exact and a.rat == 0:
            return b
        if b.exact and b.rat == 0:
            return a
        va, ua, ka = self.val_unit(a)
        vb, ub, kb = self.val_unit(b)
        k = min(ka, kb)
        if va > vb:
            (va, ua), (vb, ub) = (vb, ub), (va, ua)
        pk = self.p ** k
        acc = (ua + ub * self.p ** (vb - va)) % pk if vb - va < k else ua % pk
        if acc == 0:
            raise PrecisionExhausted(
                "sum is indistinguishable from 0 at the working precision")
        s = 0
        while acc % self.p == 0:
            acc //= self.p
            s += 1
        if k - s <= 0:
            raise PrecisionExhausted("all certified digits cancelled in addition")
        return PadicPayload(v=va + s, unit=acc % self.p ** (k - s), prec=k - s)

    def _neg(self, a: PadicPayload):
        if a.exact:
            return PadicPayload(rat=-a.rat)
        return PadicPayload(v=a.v, unit=(-a.unit) % self.p ** a.prec, prec=a.prec)

    def _mul(self, a: PadicPayload, b: PadicPayload):
        if a.exact and b.exact:
            return PadicPayload(rat=a.rat * b.rat)
        if (a.exact and a.rat == 0) or (b.exact and b.rat == 0):
            return PadicPayload(rat=Fraction(0))
        va, ua, ka = self.val_unit(a)
        vb, ub, kb = self.val_unit(b)
        k = min(ka, kb)
        return PadicPayload(v=va + vb, unit=(ua * ub) % self.p ** k, prec=k)

    def _inv(self, a: PadicPayload):
        if a.exact:
            if a.rat == 0:
                raise NonInvertibleElement("1/0 in Qp")
            return PadicPayload(rat=1 / a.rat)
        pk = self.p ** a.prec
        return PadicPayload(v=-a.v, unit=pow(a.unit, -1, pk), prec=a.prec)

    def _eq(self, a: PadicPayload, b: PadicPayload):
        if a.exact and b.exact:
            return a.rat == b.rat
        if (a.exact and a.rat == 0) or (b.exact and b.rat == 0):
            return False  # approximations always carry a nonzero unit
        va, ua, ka = self.val_unit(a)
        vb, ub, kb = self.val_unit(b)
        k = min(ka, kb)
        return va == vb and (ua - ub) % self.p ** k == 0

    def _is_zero(self, a: PadicPayload):
        return a.exact and a.rat == 0

    def _repr_payload(self, a: PadicPayload):
        if a.exact:
            return str(a.rat)
        return f"{self.p}^{a.v}*({a.unit} + O({self.p}^{a.prec}))"


class LaurentExt(FieldTower):
    """base((var)): finite Laurent expansions over an arbitrary supported base.

    Payload: (terms, order) where terms maps exponent -> base payload wrapped
    as FieldElement, and order is the absolute precision (exponents >= order
    are unknown); order None marks an exact finite expansion.
    """

    def __init__(self, base: FieldTower, var: str):
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", var):
            raise FieldSyntaxError(f"bad Laurent variable name {var!r}")
        if var in base.laurent_vars():
            raise InconsistentConstruction(f"variable {var!r} already used in tower")
        self.base = base
        self.var = var
        self.characteristic = base.characteristic

    def _key(self):
        return (self.base, self.var)

    def __str__(self):
        return f"{self.base}(({self.var}))"

    __repr__ = __str__

    def residue_chain(self):
        return [(self.var, self.base)] + self.base.residue_chain()

    def _lift(self, elt: "FieldElement"):
        try:
            inner = self.base.elem(elt)
        except InconsistentConstruction:
            return None
        return FieldElement(self, ({0: inner} if not inner.is_zero() else {}, None))

    def _payload_from_rational(self, q):
        c = self.base.elem(q)
        return ({0: c} if not c.is_zero() else {}, None)

    def monomial(self, exp: int, coeff=1) -> "FieldElement":
        c = self.base.elem(coeff)
        if c.is_zero():
            return self.zero()
        return FieldElement(self, ({exp: c}, None))

    def from_terms(self, terms: dict[int, "FieldElement"], order=None) -> "FieldElement":
        clean = {e: c for e, c in terms.items()
                 if not c.is_zero() and (order is None or e < order)}
        return FieldElement(self, (clean, order))

    @staticmethod
    def _min_order(o1, o2):
        if o1 is None:
            return o2
        if o2 is None:
            return o1
        return min(o1, o2)

    def _add(self, a, b):
        ta, oa = a
        tb, ob = b
        order = self._min_order(oa, ob)
        out = dict(ta)
        for e, c in tb.items():
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
        out = {e: c for e, c in out.items()
               if not c.is_zero() and (order is None or e < order)}
        return (out, order)

    def _neg(self, a):
        ta, oa = a
        return ({e: -c for e, c in ta.items()}, oa)

    def _mul(self, a, b):
        ta, oa = a
        tb, ob = b
        if not ta or not tb:
            # product with (certified or exact) zero term set
            return ({}, self._min_order(
                None if oa is None else oa + (min(tb) if tb else 0),
                None if ob is None else ob + (min(ta) if ta else 0)))
        va, vb = min(ta), min(tb)
        order = self._min_order(None if oa is None else oa + vb,
                                None if ob is None else ob + va)
        out: dict[int, FieldElement] = {}
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                e = e1 + e2
                if order is not None and e >= order:
                    continue
                prod = c1 * c2
                acc = out.get(e)
                out[e] = prod if acc is None else acc + prod
        out = {e: c for e, c in out.items() if not c.is_zero()}
        return (out, order)

    def _inv(self, a):
        ta, oa = a
        if not ta:
            raise NonInvertibleElement("1/0 in Laurent extension")
        v = min(ta)
        lead = ta[v]
        if len(ta) == 1:
            # monomial inverse is exact
            return ({-v: lead.inverse()}, None if oa is None else oa - 2 * v)
        # x = t^v * lead * (1 + w); invert the principal part by geometric series
        rel = (oa - v) if oa is not None else DEFAULT_LAURENT_TERMS
        if rel <= 0:
            raise PrecisionExhausted("no certified terms available for inversion")
        inv_lead = lead.inverse()
        w_terms = {e - v: c * inv_lead for e, c in ta.items() if e != v}
        # sum_{k} (-w)^k truncated below t^rel
        one = self.base.one()
        acc = ({0: one}, rel)
        pw = ({0: one}, rel)
        negw = self._neg((w_terms, rel))
        min_w = min(w_terms) if w_terms else rel
        k = 0
        while k * max(1, min_w) < rel and k <= rel:
            pw = self._mul(pw, negw)
            if not pw[0]:
                break
            acc = self._add(acc, pw)
            k += 1
        shifted = {e - v: c * inv_lead for e, c in acc[0].items()}
        return (shifted, acc[1] - v if acc[1] is not None else None)

    def _eq(self, a, b):
        # termwise comparison (subtraction would destroy approximate
        # p-adic coefficients that agree at the working precision)
        ta, oa = a
        tb, ob = b
        order = self._min_order(oa, ob)
        for e in set(ta) | set(tb):
            if order is not None and e >= order:
                continue
            ca, cb = ta.get(e), tb.get(e)
            if ca is None:
                if not cb.is_zero():
                    return False
            elif cb is None:
                if not ca.is_zero():
                    return False
            elif not (ca == cb):
                return False
        return True

    def _is_zero(self, a):
        return not a[0]

    def _repr_payload(self, a):
        ta, oa = a
        if not ta:
            return "0" if oa is None else f"O({self.var}^{oa})"
        bits = []
        for e in sorted(ta):
            c = ta[e]
            cs = str(c)
            if "+" in cs or "-" in cs[1:] or " " in cs:
                cs = f"({cs})"
            if e == 0:
                bits.append(cs)
            else:
                mono = self.var if e == 1 else f"{self.var}^{e}"
                bits.append(mono if cs == "1" else f"{cs}*{mono}")
        s = " + ".join(bits)
        if oa is not None:
            s += f" + O({self.var}^{oa})"
        return s


class RootAdjunction(FieldTower):
    """base[zeta_m]: track a primitive m-th root of unity.

    Over Q:   exact cyclotomic field Q(zeta_m), payload = coefficient tuple
              modulo the m-th cyclotomic polynomial.
    Over F_q: requires m | q - 1 (no silent extension); the field is F_q
              itself with a distinguished root.
    Over Q_p: tame case m | p - 1; the root is the Teichmueller lift, an
              approximate unit at the descriptor precision.
    """

    def __init__(self, base: FieldTower, m: int):
        if m < 1:
            raise InconsistentConstruction("root order must be >= 1")
        self.base = base
        self.m = m
        self.characteristic = base.characteristic
        if isinstance(base, Rationals):
            self._cyclo = cyclotomic_polynomial(m)
            self._deg = len(self._cyclo) - 1
        elif isinstance(base, FiniteField):
            if (base.q - 1) % m != 0:
                raise InconsistentConstruction(
                    f"mu_{m} does not live in F({base.q}); extend the field "
                    f"explicitly (need m | q - 1)")
        elif isinstance(base, PAdicDescriptor):
            if m > 2 and (base.p - 1) % m != 0:
                if base.p == 2:
                    raise InconsistentConstruction(
                        f"mu_{m} over Q2 is not supported (only the tame case is)")
                raise InconsistentConstruction(
                    f"mu_{m} over Qp({base.p}) is wild; the tame implementation "
                    f"needs m | p - 1")
        else:
            raise UnsupportedTower(
                "root adjunction is only supported over Q, F(q) and Qp(p); "
                "adjoin before taking Laurent extensions")

    def _key(self):
        return (self.base, self.m)

    def __str__(self):
        return f"{self.base}[zeta_{self.m}]"

    __repr__ = __str__

    # Payload conventions: over Q a tuple of Fractions (length _deg);
    # over F_q / Q_p the base payload itself.
    @property
    def _passthrough(self):
        return not isinstance(self.base, Rationals)

    def _lift(self, elt: "FieldElement"):
        if elt.tower == self.base:
            if self._passthrough:
                return FieldElement(self, elt.payload)
            return FieldElement(self, (elt.payload,) + (Fraction(0),) * (self._deg - 1))
        return None

    def _payload_from_rational(self, q):
        if self._passthrough:
            return self.base._payload_from_rational(q)
        return (q,) + (Fraction(0),) * (self._deg - 1)

    def zeta(self) -> "FieldElement":
        """The distinguished primitive m-th root of unity."""
        if isinstance(self.base, Rationals):
            if self._deg == 1:
                # phi_1 = x - 1, phi_2 = x + 1: zeta is rational
                return self.elem(1 if self.m == 1 else -1)
            return FieldElement(self, (Fraction(0), Fraction(1)) +
                                (Fraction(0),) * (self._deg - 2))
        # over F_q and Q_p the base's own root (the constructor checked m)
        return FieldElement(self, primitive_root_of_unity(self.base, self.m)[0].payload)

    def _add(self, a, b):
        if self._passthrough:
            return self.base._add(a, b)
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        if self._passthrough:
            return self.base._neg(a)
        return tuple(-x for x in a)

    def _mul(self, a, b):
        if self._passthrough:
            return self.base._mul(a, b)
        prod = poly_mul(a, b, _Q0, not_)
        return tuple(poly_divmod(prod, self._cyclo, _Q0, not_)[1])

    def _inv(self, a):
        if self._passthrough:
            return self.base._inv(a)
        if all(x == 0 for x in a):
            raise NonInvertibleElement("1/0 in cyclotomic field")
        inv = poly_inverse_mod(a, self._cyclo, _Q0, not_, _q_inverse)
        return tuple(inv + [_Q0] * (self._deg - len(inv)))

    def _eq(self, a, b):
        if self._passthrough:
            return self.base._eq(a, b)
        return a == b

    def _is_zero(self, a):
        if self._passthrough:
            return self.base._is_zero(a)
        return all(x == 0 for x in a)

    def _repr_payload(self, a):
        if self._passthrough:
            return self.base._repr_payload(a)
        bits = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                mono = "zeta" if i == 1 else f"zeta^{i}"
                bits.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(bits) if bits else "0"


@lru_cache(maxsize=None)
def _residue_of_exact_order(p: int, m: int) -> int:
    """Smallest residue mod p of multiplicative order exactly m (m | p-1,
    m > 1).  For m^2 <= p - 1 it is the least g^(k (p-1)/m) with
    gcd(k, m) = 1, g the least primitive root; for larger m, whose residues
    of order m have density phi(m)/(p-1), the first one a scan from 2 meets.
    Either way about sqrt(p) steps, never a walk to p - 1 for small m."""
    if m == 1 or (p - 1) % m:
        raise InconsistentConstruction(f"no residue of order {m} mod {p}")
    if m * m > p - 1:
        return next(r for r in range(2, p) if pow(r, m, p) == 1
                    and all(pow(r, m // q, p) != 1 for q in factorize(m)))
    h = pow(_residue_of_exact_order(p, p - 1), (p - 1) // m, p)
    return min(pow(h, k, p) for k in range(1, m) if math.gcd(k, m) == 1)


def _teichmueller(r: int, p: int, prec: int) -> int:
    """Teichmueller lift of r mod p^prec: the unique root of unity over r."""
    x = r % p
    pk = p ** prec
    for _ in range(prec + 1):
        x = pow(x, p, pk)
    return x


# --- Q[x] on Fraction lists, through the poly kernel -----------------------

_Q0 = Fraction(0)


def _q_inverse(c: Fraction) -> Fraction:
    return 1 / c


def cyclotomic_polynomial(m: int) -> list[Fraction]:
    """Coefficients of Phi_m, low degree first (monic, exact)."""
    # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d
    poly = [Fraction(-1)] + [_Q0] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = poly_divmod(poly, cyclotomic_polynomial(d), _Q0, not_)
            assert not any(rem), "inexact polynomial division"
    return poly


def _contains_padic(tower: FieldTower) -> bool:
    """Whether Q_p lies at the bottom of the tower."""
    while not isinstance(tower, PAdicDescriptor):
        tower = getattr(tower, "base", None)
        if tower is None:
            return False
    return True


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    __slots__ = ("tower", "payload")

    def __init__(self, tower: FieldTower, payload):
        self.tower = tower
        self.payload = payload

    # --- arithmetic -----------------------------------------------------
    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement) and (other.tower is self.tower
                                                or other.tower == self.tower):
            return other
        return self.tower.elem(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.tower, self.tower._add(self.payload, o.payload))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, self.tower._neg(self.payload))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.tower, self.tower._mul(self.payload, o.payload))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, self.tower._inv(self.payload))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int):
        return power(self if n >= 0 else self.inverse(), abs(n), self.tower.one())

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (InconsistentConstruction, NonInvertibleElement):
            return NotImplemented
        return self.tower._eq(self.payload, o.payload)

    def __hash__(self):
        # Over Q_p (and towers above it) == compares approximations at their
        # common precision, so equal elements can print differently: only the
        # tower is hashed there.  Exact towers hash the canonical string.
        if _contains_padic(self.tower):
            return hash(self.tower)
        return hash(str(self))

    def is_zero(self) -> bool:
        return self.tower._is_zero(self.payload)

    def is_one(self) -> bool:
        return self == self.tower.one()

    def __repr__(self):
        return self.tower._repr_payload(self.payload)

    __str__ = __repr__


# ---------------------------------------------------------------------------
# parsing of field descriptors
# ---------------------------------------------------------------------------

_BASE_RE = re.compile(r"^(Q(?!p)|F\(\s*\d+(\s*\^\s*\d+)?\s*\)|Qp\(\s*\d+\s*\))")
_SUFFIX_RE = re.compile(r"^(\(\(\s*[A-Za-z][A-Za-z0-9_]*\s*\)\)|\[\s*zeta_\d+\s*\])")


def parse_field(descriptor: str) -> FieldTower:
    """Parse the field grammar: Q | F(q) | Qp(p) | <field>((name)) | <field>[zeta_m].

    Parsing the printed form of any tower reproduces the tower.
    """
    s = descriptor.strip()
    m = _BASE_RE.match(s)
    if not m:
        raise FieldSyntaxError(f"cannot parse field descriptor {descriptor!r}")
    head = m.group(0)
    rest = s[len(head):]
    if head == "Q":
        tower: FieldTower = Rationals()
    elif head.startswith("Qp"):
        p = int(head[3:-1])
        if not _is_prime(p):
            raise FieldSyntaxError(f"Qp({p}): {p} is not prime")
        tower = PAdicDescriptor(p)
    else:
        body = head[2:-1].replace(" ", "")
        if "^" in body:
            b, e = body.split("^")
            q = int(b) ** int(e)
        else:
            q = int(body)
        try:
            tower = FiniteField(q)
        except InconsistentConstruction as exc:
            raise FieldSyntaxError(str(exc)) from exc
    while rest:
        m = _SUFFIX_RE.match(rest)
        if not m:
            raise FieldSyntaxError(f"trailing garbage in descriptor: {rest!r}")
        suf = m.group(0)
        rest = rest[len(suf):]
        if suf.startswith("(("):
            var = suf[2:-2].strip()
            try:
                tower = LaurentExt(tower, var)
            except InconsistentConstruction as exc:
                raise FieldSyntaxError(str(exc)) from exc
        else:
            order = int(suf.strip("[]").strip()[5:])
            try:
                tower = RootAdjunction(tower, order)
            except (InconsistentConstruction, UnsupportedTower) as exc:
                raise FieldSyntaxError(str(exc)) from exc
    return tower


# ---------------------------------------------------------------------------
# predicates and helpers used throughout the library
# ---------------------------------------------------------------------------

class PowerResult:
    """Decision for is_nth_power with optional witness and a certificate tag."""

    __slots__ = ("is_power", "witness", "certificate")

    def __init__(self, is_power: bool, witness=None, certificate: str = ""):
        self.is_power = is_power
        self.witness = witness
        self.certificate = certificate

    def __bool__(self):
        return self.is_power

    def __repr__(self):
        w = f", witness={self.witness}" if self.witness is not None else ""
        return f"PowerResult({self.is_power}{w}, {self.certificate!r})"


def is_nth_power(x: FieldElement, n: int) -> PowerResult:
    """Decide whether x is an n-th power in its tower, with witness where representable.

    Over k((t)) with char k not dividing n, x = t^v u (1 + w) is an n-th
    power iff n | v and u is one in k (Hensel): a monomial gets its exact
    root as witness, any other series witness None."""
    if n < 1:
        raise ValueError("n must be positive")
    if x.is_zero():
        raise ValueError("is_nth_power expects x != 0")
    if n == 1:
        return PowerResult(True, x, "n=1")
    tower = x.tower
    if isinstance(tower, Rationals):
        return _rational_nth_power(x, n)
    if isinstance(tower, FiniteField):
        return _finite_nth_power(x, n)
    if isinstance(tower, PAdicDescriptor):
        return _padic_nth_power(x, n)
    if isinstance(tower, LaurentExt):
        return _laurent_nth_power(x, n)
    if isinstance(tower, RootAdjunction) and tower._passthrough:
        inner = FieldElement(tower.base, x.payload)
        res = is_nth_power(inner, n)
        wit = FieldElement(tower, res.witness.payload) if res.witness is not None else None
        return PowerResult(res.is_power, wit, res.certificate)
    raise UnsupportedTower(f"is_nth_power not supported over {tower}")


def _rational_nth_power(x: FieldElement, n: int) -> PowerResult:
    q: Fraction = x.payload
    neg = q < 0
    if neg and n % 2 == 0:
        return PowerResult(False, None, "negative value, even n")
    num = integer_nth_root(abs(q.numerator), n)
    den = integer_nth_root(q.denominator, n)
    if num is None or den is None:
        return PowerResult(False, None, "integer n-th root obstruction")
    w = Fraction(num, den)
    if neg:
        w = -w
    return PowerResult(True, x.tower.elem(w), "exact root")


def _cyclic_log(y, g, n: int, mul, one):
    """The k in [0, n) with g^k = y, for g of order n, or None when y is not
    a power of g.  Pohlig-Hellman: the log is read one base-l digit at a
    time in the subgroup of prime order l, for each l | n, and glued by the
    CRT, so no loop runs over more than l values.  Works on any cyclic
    group given by its product and unit (ints mod p, FieldElements)."""
    k, mod = 0, 1
    for l, e in factorize(n).items():
        le = l ** e
        gl = power(g, n // le, one, mul)             # order l^e
        yl = power(y, n // le, one, mul)
        gamma = power(gl, le // l, one, mul)         # order l
        gl_inv = power(gl, le - 1, one, mul)
        x = 0
        for j in range(e):
            # strip the digits found so far, then project to order l
            h = power(mul(yl, power(gl_inv, x, one, mul)), l ** (e - 1 - j), one, mul)
            acc = one
            for digit in range(l):
                if acc == h:
                    break
                acc = mul(acc, gamma)
            else:
                return None
            x += digit * l ** j
        k += mod * ((x - k) * pow(mod, -1, le) % le)
        mod *= le
    return k if power(g, k, one, mul) == y else None


def _cyclic_roots(x, n: int, order: int, mul, one, generator) -> list:
    """All gcd(n, order) n-th roots of an n-th power x in a cyclic group of
    the given order: x^(n^-1) when n is prime to the order, otherwise the
    root g^t with n t = log_g x times the d-th roots of unity, g =
    generator()."""
    d = math.gcd(n, order)
    if d == 1:
        # y -> y^n is a bijection; its inverse is y -> y^(n^-1 mod order)
        return [power(x, pow(n, -1, order), one, mul)]
    g = generator()
    t = _cyclic_log(x, g, order, mul, one) // d * pow(n // d, -1, order // d)
    roots = [power(g, t, one, mul)]
    zeta = power(g, order // d, one, mul)
    for _ in range(d - 1):
        roots.append(mul(roots[-1], zeta))
    return roots


def _finite_nth_power(x: FieldElement, n: int) -> PowerResult:
    """Decided by x^((q-1)/d) = 1, d = gcd(n, q - 1); the witness is the
    first root in elements() order (the reversed payload orders them)."""
    F: FiniteField = x.tower
    order = F.q - 1
    d = math.gcd(n, order)
    if not (x ** (order // d)).is_one():
        return PowerResult(False, None, f"x^((q-1)/{d}) != 1")
    roots = _cyclic_roots(x, n, order, FieldElement.__mul__, F.one(),
                          F.multiplicative_generator)
    return PowerResult(True, min(roots, key=lambda y: y.payload[::-1]),
                       "discrete log" if d > 1 else "x^(n^-1 mod (q-1))")


def _field_trace(x: FieldElement) -> FieldElement:
    """Tr_{F_q/F_p}(x) = sum_{j<e} x^(p^j), q = p^e; x may sit in a root
    adjunction over F_q, which adds no degree."""
    F = x.tower
    while isinstance(F, RootAdjunction):
        F = F.base
    acc = conj = x
    for _ in range(F.e - 1):
        conj = conj ** F.p
        acc = acc + conj
    return acc


def _trace_one(F: FiniteField) -> FieldElement:
    """theta = b / Tr(b) for the first basis vector b of nonzero trace.  The
    trace is F_p-linear, so in characteristic 2 this is the first element
    of trace 1 in elements() order."""
    basis = (FieldElement(F, tuple(int(i == j) for i in range(F.e))) for j in range(F.e))
    b = next(b for b in basis if not _field_trace(b).is_zero())
    return b / _field_trace(b)


def _artin_schreier_root(c: FieldElement) -> FieldElement:
    """The first x in elements() order with x^p - x = c, for c of trace 0:
    x = sum_{0<i<e} S_i c^(p^i), S_i = sum_{j<i} theta^(p^j), Tr theta = 1
    (additive Hilbert 90; Lidl-Niederreiter, Finite Fields, Thm 2.25).
    The roots are x + F_p; the one with constant coefficient 0 comes first."""
    F: FiniteField = c.tower
    theta, S, x = _trace_one(F), F.zero(), F.zero()
    for _ in range(1, F.e):
        S, theta, c = S + theta, theta ** F.p, c ** F.p
        x = x + S * c
    return FieldElement(F, (0,) + tuple(x.payload[1:]))


def _padic_nth_power(x: FieldElement, n: int) -> PowerResult:
    K: PAdicDescriptor = x.tower
    p = K.p
    v, unit, prec = K.val_unit(x.payload)
    if v % n != 0:
        return PowerResult(False, None, "odd valuation" if n == 2 else
                           f"valuation {v} not divisible by {n}")
    if math.gcd(n, p) == 1:
        d = math.gcd(n, p - 1)
        if pow(unit % p, (p - 1) // d, p) != 1:
            return PowerResult(False, None, "unit-class obstruction")
        root = _hensel_root_unit(unit, n, p, prec)
        w = K.approx(v // n, root, prec)
        return PowerResult(True, w, "Hensel lift")
    if p == 2 and (n & (n - 1)) == 0:
        # iterated square roots
        y = x
        steps = n.bit_length() - 1
        for _ in range(steps):
            res = _padic_sqrt2(y)
            if not res.is_power:
                return PowerResult(False, None, res.certificate)
            y = res.witness
        return PowerResult(True, y, "iterated 2-adic square root")
    raise UnsupportedTower(
        f"n-th power test over Qp({p}) needs gcd(n,p)=1 or n a power of 2 with p=2")


def _hensel_root_unit(unit: int, n: int, p: int, prec: int) -> int:
    """Root of y^n = unit in Z_p^* (gcd(n,p)=1), computed mod p^prec: the
    Newton lift of the least root mod p (the caller checked that one
    exists)."""
    y0 = min(_cyclic_roots(unit % p, n, p - 1, lambda a, b: a * b % p, 1,
                           partial(_residue_of_exact_order, p, p - 1)))
    pk = p
    y = y0
    while pk < p ** prec:
        pk = min(pk * pk, p ** prec)
        # Newton: y <- y - (y^n - unit)/(n y^(n-1)) mod pk
        num = (pow(y, n, pk) - unit) % pk
        den = (n * pow(y, n - 1, pk)) % pk
        y = (y - num * pow(den, -1, pk)) % pk
    return y % p ** prec


def _padic_sqrt2(x: FieldElement) -> PowerResult:
    K: PAdicDescriptor = x.tower
    v, unit, prec = K.val_unit(x.payload)
    if v % 2 != 0:
        return PowerResult(False, None, "odd valuation")
    if prec < 3:
        raise PrecisionExhausted("2-adic square test needs the unit mod 8")
    if unit % 8 != 1:
        return PowerResult(False, None, "unit not 1 mod 8")
    # lift the square root bit by bit
    y = 1
    for k in range(3, prec):
        if (y * y - unit) % (1 << (k + 1)):
            y += 1 << (k - 1)
    y %= 1 << prec
    return PowerResult(True, K.approx(v // 2, y, prec - 1), "2-adic Hensel")


def _laurent_nth_power(x: FieldElement, n: int) -> PowerResult:
    L: LaurentExt = x.tower
    if L.characteristic != 0 and n % L.characteristic == 0:
        raise UnsupportedTower(
            "n-th power test over a Laurent tower with char | n is not certified")
    split = laurent_split(x)
    if split.valuation % n != 0:
        return PowerResult(False, None, "valuation parity" if n == 2 else
                           f"valuation {split.valuation} not divisible by {n}")
    base_res = is_nth_power(split.unit, n)
    if not base_res.is_power:
        return PowerResult(False, None, f"leading unit: {base_res.certificate}")
    if len(x.payload[0]) == 1 and base_res.witness is not None:
        return PowerResult(True,
                           L.monomial(split.valuation // n, base_res.witness),
                           "monomial root")
    # 1 + w with w in t k[[t]] is an n-th power when char k does not divide n
    return PowerResult(True, None, "Hensel: n | v, leading unit a power")


class LaurentSplit:
    """t^v * u * (1 + higher): valuation, leading base unit, tail, and the
    base valuation of the unit when the base is itself p-adic.  The tail
    (one inverse and one product per term) is formed on first read."""

    __slots__ = ("valuation", "unit", "base_valuation", "_x", "_tail")

    def __init__(self, valuation, unit, x, base_valuation=None):
        self.valuation = valuation
        self.unit = unit
        self.base_valuation = base_valuation
        self._x = x
        self._tail = None

    @property
    def tail(self) -> FieldElement:
        if self._tail is None:
            terms, order = self._x.payload
            v, uinv = self.valuation, self.unit.inverse()
            self._tail = self._x.tower.from_terms(
                {e - v: c * uinv for e, c in terms.items()},
                None if order is None else order - v)
        return self._tail

    def __repr__(self):
        bv = f", base_val={self.base_valuation}" if self.base_valuation is not None else ""
        return f"LaurentSplit(v={self.valuation}, unit={self.unit}, tail={self.tail}{bv})"


def laurent_split(x: FieldElement) -> LaurentSplit:
    """Split a nonzero Laurent element as t^v * u * (1 + higher terms)."""
    if not isinstance(x.tower, LaurentExt):
        raise UnsupportedTower("laurent_split expects a Laurent-extension element")
    terms, order = x.payload
    if not terms:
        if order is not None:
            raise PrecisionExhausted("element is 0 at working precision; no split")
        raise NonInvertibleElement("cannot split zero")
    L: LaurentExt = x.tower
    v = min(terms)
    u = terms[v]
    base_val = None
    if isinstance(L.base, PAdicDescriptor):
        base_val = L.base.valuation(u.payload)
    return LaurentSplit(v, u, x, base_val)


def primitive_root_of_unity(tower: FieldTower, m: int):
    """Return (element, None) with an exact primitive m-th root, or (None, reason)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return tower.one(), None
    if m == 2:
        if tower.characteristic == 2:
            return None, "characteristic 2 has no primitive square root of unity"
        return tower.elem(-1), None
    if isinstance(tower, Rationals):
        return None, f"Q contains no primitive {m}-th root for m > 2"
    if isinstance(tower, FiniteField):
        if (tower.q - 1) % m != 0:
            return None, f"{m} does not divide q-1 = {tower.q - 1}"
        g = tower.multiplicative_generator()
        return g ** ((tower.q - 1) // m), None
    if isinstance(tower, PAdicDescriptor):
        if (tower.p - 1) % m != 0:
            return None, (f"{m} does not divide p-1 = {tower.p - 1} "
                          f"(only tame roots are tracked)")
        r = _residue_of_exact_order(tower.p, m)
        return tower.approx(0, _teichmueller(r, tower.p, tower.precision),
                            tower.precision), None
    if isinstance(tower, RootAdjunction):
        if isinstance(tower.base, Rationals):
            M = tower.m
            full = M if M % 2 == 0 else 2 * M
            if full % m != 0:
                return None, f"mu_{m} not contained in mu_{full} of Q[zeta_{M}]"
            gen = tower.zeta() if M % 2 == 0 else -tower.zeta()
            return gen ** (full // m), None
        inner, reason = primitive_root_of_unity(tower.base, m)
        if inner is None:
            return None, reason
        return FieldElement(tower, inner.payload), None
    if isinstance(tower, LaurentExt):
        inner, reason = primitive_root_of_unity(tower.base, m)
        if inner is None:
            return None, reason
        return tower.elem(inner), None
    return None, f"unsupported tower {tower}"
