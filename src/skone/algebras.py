"""Central simple algebras by structure constants.

Everything in scope is (a tensor product of) "cyclic presentations": an
extension K = k[u]/(f) of the base, an automorphism sigma of K given by its
value on u, and an outer generator v with v^n = b, v*c = sigma(c)*v.  This
covers symbol algebras, p-algebras in characteristic p, Kummer and
Artin-Schreier cyclic algebras, and the twisted quaternion presentations
used by the characteristic-2 lift.

Multiplication tables are associative by construction, so no table is
re-verified at build time.  A cyclic presentation checks its defining
relations instead: sigma(u) is a root of f (so u -> sigma(u) extends to a
ring endomorphism of K), sigma^n(u) = u, and b is a nonzero element of the
base (so sigma fixes it).  Together they make K[v; sigma]/(v^n - b) an
associative unital algebra with basis u^r v^s.  A tensor product of two
associative tables is associative.  The exhaustive basis-triple check is a
test oracle (tests/oracles.py, ``associativity_defect``).

Involutions are built by construction too, and not re-verified: the
canonical involution z -> Trd(z) - z of a degree-2 algebra, the tensor
product of two involutions, and Int(s) o sigma, which is an involution
exactly when sigma(s) = +-s because (Int(s) o sigma)^2 = Int(s sigma(s)^{-1});
that relation on s is checked.  The exhaustive check of fixes-1, order 2 and
sigma(xy) = sigma(y) sigma(x) on all basis pairs is the test oracle
``involution_defect``.

Reduced traces and characteristic polynomials come from the reduced trace
form T(x, y) = Trd(xy), cached per algebra on the basis.  Where the
characteristic is 0 or exceeds the degree n, Trd(e_k) = Tr(L_{e_k})/n is read
off the table (the left regular representation is n copies of the reduced
one) and Prd(x) follows from the power sums Trd(x^k) by Newton's identities.
Where 0 < char <= n (p-algebras) Prd is computed through the regular
representation over the etale subalgebra K instead (a division-free
Berkowitz char poly with entries in K whose coefficients are then checked
to be scalars).  Every presentation is a cyclic one or a tensor product of
them, so every presentation has that K.  The inverse evaluates
Cayley-Hamilton on the powers of x that Newton's identities read.
"""

from __future__ import annotations

import math as _math
import random as _random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentConstruction, NonInvertibleElement, UnsupportedTower
from .fields import FieldElement, FieldTower, primitive_root_of_unity
from .linalg import berkowitz_charpoly, identity, mat_mul, rref, solve
from .poly import Poly, QuotElt, QuotientRing, monic_sqrt_char2, power, scalar_of


# ---------------------------------------------------------------------------
# presentation tags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolTag:
    a: FieldElement
    b: FieldElement
    n: int
    zeta: FieldElement


@dataclass(frozen=True)
class PAlgebraTag:
    a: FieldElement
    b: FieldElement
    p: int


@dataclass(frozen=True)
class CyclicTag:
    kind: str  # "kummer" | "artin_schreier"
    a: FieldElement
    b: FieldElement
    n: int


@dataclass(frozen=True)
class TwistedLiftTag:
    # char-0 quaternion presentation u^2+u=a, v^2=b, uv=-v(u+1)
    a: FieldElement
    b: FieldElement


@dataclass(frozen=True)
class TensorTag:
    left: "AlgebraPresentation"
    right: "AlgebraPresentation"


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class AlgElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "AlgebraPresentation", coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def __add__(self, other):
        o = self.algebra.coerce(other)
        return AlgElement(self.algebra,
                          [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.algebra, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-self.algebra.coerce(other))

    def __rsub__(self, other):
        return self.algebra.coerce(other) - self

    def __mul__(self, other):
        o = self.algebra.coerce(other)
        return self.algebra.mul(self, o)

    def __rmul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        return self.algebra.coerce(other) * self

    def scale(self, c) -> "AlgElement":
        c = self.algebra.base.elem(c)
        return AlgElement(self.algebra, [c * a for a in self.coords])

    def __truediv__(self, other):
        o = self.algebra.coerce(other)
        return self * self.algebra.inverse(o)

    def __pow__(self, n: int):
        if n < 0:
            return self.algebra.inverse(self) ** (-n)
        return power(self, n, self.algebra.one())

    def __eq__(self, other):
        o = self.algebra.coerce(other)
        return all(a == b for a, b in zip(self.coords, o.coords))

    def is_zero(self):
        return all(a.is_zero() for a in self.coords)

    def __repr__(self):
        bits = []
        for c, label in zip(self.coords, self.algebra.labels):
            if c.is_zero():
                continue
            cs = str(c)
            if any(ch in cs for ch in "+ ") or ("-" in cs[1:]):
                cs = f"({cs})"
            if label == "1":
                bits.append(cs)
            else:
                bits.append(label if cs == "1" else f"{cs}*{label}")
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# the presentation
# ---------------------------------------------------------------------------

class AlgebraPresentation:
    """Associative unital algebra over a tower, by a sparse multiplication table.

    table[i][j] is a list of (k, coeff) pairs with e_i * e_j = sum coeff * e_k.
    Basis label "1" is always index 0.  The constructors below guarantee that
    the table is unital and associative (see the module docstring); the table
    itself is not checked.  When table is None, table_factory() builds it on
    first use.
    """

    def __init__(self, base: FieldTower, labels, table, tag, degree: int,
                 gens: dict[str, int] | None = None, table_factory=None):
        self.base = base
        self.labels = list(labels)
        self.dim = len(self.labels)
        self._table = table
        self._table_factory = table_factory
        self.tag = tag
        self.degree = degree
        self.gens = gens or {}
        self.period_bound = degree
        # caches
        self._cyclic = None          # (K, Lu, Lv, ext_deg, n) regular rep data
        self._monomial_mats = None
        self._trd_basis = None
        self._trace_form = None

    @property
    def table(self):
        if self._table is None:
            self._table = self._table_factory()
        return self._table

    # --- element plumbing ------------------------------------------------
    def coerce(self, x) -> AlgElement:
        if isinstance(x, AlgElement):
            if x.algebra is self:
                return x
            raise InconsistentConstruction("element belongs to a different algebra")
        c = self.base.elem(x)
        coords = [c] + [self.base.zero()] * (self.dim - 1)
        return AlgElement(self, coords)

    def zero(self) -> AlgElement:
        return AlgElement(self, [self.base.zero()] * self.dim)

    def one(self) -> AlgElement:
        return self.coerce(1)

    def basis_element(self, k: int) -> AlgElement:
        coords = [self.base.zero()] * self.dim
        coords[k] = self.base.one()
        return AlgElement(self, coords)

    def generator(self, name: str) -> AlgElement:
        return self.basis_element(self.gens[name])

    def element(self, coords) -> AlgElement:
        return AlgElement(self, [self.base.elem(c) for c in coords])

    def mul(self, x: AlgElement, y: AlgElement) -> AlgElement:
        acc = [self.base.zero()] * self.dim
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y.coords):
                if yj.is_zero():
                    continue
                f = xi * yj
                for k, c in self.table[i][j]:
                    acc[k] = acc[k] + f * c
        return AlgElement(self, acc)

    def _check_unital_associative(self):
        """Does nothing: tables are associative by construction.

        Kept only because perfbench/tracer.py wraps this method by name.  The
        exhaustive check is ``associativity_defect`` in tests/oracles.py.
        """

    # --- reduced characteristic polynomial ---------------------------------
    def _cyclic_data(self):
        """(K, monomial matrices): the regular representation over the etale
        subalgebra K, with the matrix of every basis vector.

        A cyclic presentation has the data of its constructor.  A tensor
        product L (x) R takes K = K_L (x) K_R, R's chain of quotient rings
        rebuilt over K_L, and Kronecker products of the factors' matrices."""
        if self._monomial_mats is not None:
            return self._K, self._monomial_mats
        mats = {}
        if isinstance(self.tag, TensorTag):
            lK, lmats = self.tag.left._cyclic_data()
            rK, rmats = self.tag.right._cyclic_data()
            K, embed = _rebase(rK, lK)
            rmats = {i2: [[embed(e) for e in row] for row in m2] for i2, m2 in rmats.items()}
            for i1, m1 in lmats.items():
                L1 = [[K.coerce(e) for e in row] for row in m1]
                for i2, m2 in rmats.items():
                    mats[i1 * self.tag.right.dim + i2] = _kron(L1, m2, K)
        else:
            K, Lu, Lv, ext_deg, n = self._cyclic
            pu = identity(K, n)
            for r in range(ext_deg):
                pv = pu
                for s in range(n):
                    mats[r * n + s] = pv
                    if s < n - 1:
                        pv = mat_mul(pv, Lv, K.zero())
                if r < ext_deg - 1:
                    pu = mat_mul(pu, Lu, K.zero())
        self._K = K
        self._monomial_mats = mats
        return K, mats

    def _newton_path(self) -> bool:
        """Whether Newton's identities compute Prd: they divide by 1, ..., n,
        so the characteristic must be 0 or exceed the degree n."""
        p = self.base.characteristic
        return p == 0 or p > self.degree

    def _powers(self, x: AlgElement) -> list[AlgElement]:
        """1, x, ..., x^h, h = ceil(n/2): h - 1 algebra products."""
        pows = [self.one(), x]
        for _ in range((self.degree + 1) // 2 - 1):
            pows.append(pows[-1] * x)
        return pows

    def _prd_and_powers(self, x: AlgElement) -> tuple[Poly, list[AlgElement] | None]:
        """Prd(x), and the powers ``_powers(x)`` where Prd read them.

        In characteristic 0 or above the degree n, Prd comes from Newton's
        identities on the power sums p_k = Trd(x^k) = T(x^i, x^(k-i)), i,
        k - i <= h, read off the cached trace form: h - 1 algebra products
        (one in degree 4).  Where 0 < char <= n (p-algebras) it is
        ``_reduced_char_poly_etale``, which reads no powers: None stands in
        for them."""
        if not self._newton_path():
            return self._reduced_char_poly_etale(x), None
        n, base = self.degree, self.base
        pows = self._powers(x)
        psum = [None, self.trd(x)] + [self.trace_pairing(pows[k // 2], pows[k - k // 2])
                                      for k in range(2, n + 1)]
        # k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i; Prd = sum (-1)^k e_k X^(n-k)
        e = [base.one()]
        for k in range(1, n + 1):
            acc = base.zero()
            for i in range(1, k + 1):
                term = e[k - i] * psum[i]
                acc = acc + term if i % 2 else acc - term
            e.append(acc * Fraction(1, k))
        return Poly(base, [e[n - j] if (n - j) % 2 == 0 else -e[n - j]
                           for j in range(n + 1)]), pows

    def reduced_char_poly(self, x: AlgElement) -> Poly:
        """Prd of x: monic, degree deg(A), exact over the base tower, by
        Newton's identities or the etale path (``_prd_and_powers``)."""
        return self._prd_and_powers(self.coerce(x))[0]

    def _reduced_char_poly_etale(self, x: AlgElement) -> Poly:
        """Prd of x through the regular representation over the etale
        subalgebra K (Berkowitz over K), in every characteristic."""
        x = self.coerce(x)
        K, mats = self._cyclic_data()
        size = len(next(iter(mats.values())))
        lam = [[K.zero() for _ in range(size)] for _ in range(size)]
        for idx, c in enumerate(x.coords):
            if c.is_zero():
                continue
            cf = K.coerce(c)
            m = mats[idx]
            for i in range(size):
                for j in range(size):
                    if not m[i][j].is_zero():
                        lam[i][j] = lam[i][j] + cf * m[i][j]
        coeffs = berkowitz_charpoly(lam, K.zero(), K.one())
        out = []
        for c in coeffs:
            s = scalar_of(c)
            if s is None:
                raise InconsistentConstruction(
                    "char poly coefficient not scalar; presentation is not Azumaya")
            out.append(s)
        return Poly(self.base, out)

    def _trd_row(self) -> list[FieldElement]:
        """Trd(e_k) for every basis vector e_k.

        On the Newton path it is Tr(L_{e_k})/n, read off the table; elsewhere
        the coefficient of X^(n-1) in the etale Prd(e_k)."""
        if self._trd_basis is None:
            n = self.degree
            if self._newton_path():
                # Tr(L_{e_k}) sums the e_i-coefficients of e_k e_i
                row = [sum((c for i, prod in enumerate(prods) for m, c in prod if m == i),
                           self.base.zero()) * Fraction(1, n) for prods in self.table]
            else:
                row = [-self._reduced_char_poly_etale(self.basis_element(k))[n - 1]
                       for k in range(self.dim)]
            self._trd_basis = row
        return self._trd_basis

    def trace_form(self) -> list[list[tuple[int, FieldElement]]]:
        """T[i] = [(j, Trd(e_i e_j)) for the j where it is nonzero]: the
        reduced trace form on the basis, cached per algebra."""
        if self._trace_form is None:
            row = self._trd_row()
            zero = self.base.zero()
            form = []
            for prods in self.table:
                entries = []
                for j, prod in enumerate(prods):
                    t = zero
                    for k, c in prod:
                        if not row[k].is_zero():
                            t = t + c * row[k]
                    if not t.is_zero():
                        entries.append((j, t))
                form.append(entries)
            self._trace_form = form
        return self._trace_form

    def trace_pairing(self, x: AlgElement, y: AlgElement) -> FieldElement:
        """Trd(xy) from the cached trace form, without forming xy."""
        acc = self.base.zero()
        ys = y.coords
        for xi, entries in zip(x.coords, self.trace_form()):
            if xi.is_zero():
                continue
            for j, t in entries:
                if not ys[j].is_zero():
                    acc = acc + xi * ys[j] * t
        return acc

    def trd(self, x: AlgElement) -> FieldElement:
        """Trd(x) = sum x_k Trd(e_k), from the cached row ``_trd_row``: read
        off the table in characteristic 0 or above the degree, from the
        etale Prd of each basis vector where 0 < char <= degree."""
        x = self.coerce(x)
        acc = self.base.zero()
        for c, t in zip(x.coords, self._trd_row()):
            if not c.is_zero() and not t.is_zero():
                acc = acc + c * t
        return acc

    def nrd(self, x: AlgElement) -> FieldElement:
        prd = self.reduced_char_poly(x)
        sign = -1 if self.degree % 2 else 1
        return prd[0] * self.base.elem(sign)

    def inverse(self, x: AlgElement) -> AlgElement:
        """x^{-1} from Cayley-Hamilton on Prd; error if Nrd(x) = 0.

        x^{-1} = -(c_1 + c_2 x + ... + c_n x^(n-1)) / c_0, c_n = 1, on the
        powers 1, ..., x^h that Prd was read from (n <= 2h; formed here on
        the etale path): the terms past x^h are
        (c_(h+2) x + ... + c_n x^(n-1-h)) x^h, one algebra product."""
        x = self.coerce(x)
        prd, pows = self._prd_and_powers(x)
        c0 = prd[0]
        if c0.is_zero():
            raise NonInvertibleElement("reduced norm is zero")
        if pows is None:
            pows = self._powers(x)

        def combine(coeffs, powers):
            acc = self.zero()
            for c, pw in zip(coeffs, powers):
                if not c.is_zero():
                    acc = acc + pw.scale(c)
            return acc
        h = len(pows) - 1
        acc = combine(prd.coeffs[1:h + 2], pows)
        if self.degree > h + 1:
            acc = acc + combine(prd.coeffs[h + 2:], pows[1:]) * pows[h]
        return acc.scale(-c0.inverse())


def _rebase(R, B):
    """R, a chain of QuotientRings over the base tower, rebuilt with B in
    place of the base tower; returns the new ring and the embedding of R."""
    if not isinstance(R, QuotientRing):
        return B, B.coerce
    inner, embed = _rebase(R.base, B)
    ring = QuotientRing(inner, [embed(c) for c in R.modulus])
    return ring, lambda e: QuotElt(ring, [embed(c) for c in e.vec])


def _kron(a, b, K: QuotientRing):
    na, nb = len(a), len(b)
    out = [[K.zero() for _ in range(na * nb)] for _ in range(na * nb)]
    for i1 in range(na):
        for j1 in range(na):
            if a[i1][j1].is_zero():
                continue
            for i2 in range(nb):
                for j2 in range(nb):
                    if not b[i2][j2].is_zero():
                        out[i1 * nb + i2][j1 * nb + j2] = a[i1][j1] * b[i2][j2]
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _cyclic_presentation(base: FieldTower, ext_modulus, sigma_u, n: int,
                         b: FieldElement, tag, gen_names=("x", "y")):
    """Generic cyclic presentation: K = base[u]/(f), v^n = b, v c = sigma(c) v.

    ext_modulus: coefficients of the monic f below the leading term.
    sigma_u: image of u under sigma, as a K-coefficient vector over base.

    Checks the relations that make K[v; sigma]/(v^n - b) associative and
    unital -- f(sigma(u)) = 0, sigma^n(u) = u, b a nonzero base element --
    and raises InconsistentConstruction if one fails.  The table built from
    them is not re-verified.
    """
    if b.is_zero():
        raise InconsistentConstruction("cyclic algebra slot b must be nonzero")
    ext_deg = len(ext_modulus)
    K = QuotientRing(base, list(ext_modulus))
    u = K.gen()
    sigma_of_u = QuotElt(K, [base.elem(c) if not isinstance(c, FieldElement) else c
                             for c in sigma_u] +
                         [base.zero()] * (ext_deg - len(sigma_u)))

    # f(sigma(u)) = 0 as sigma(u)^deg == -sum c_i sigma(u)^i: a difference
    # that cancels to O(p^k) would exhaust the precision of approximate Q_p
    tail = K.zero()
    pw = K.one()
    for c in ext_modulus:
        tail = tail - K.coerce(c) * pw
        pw = pw * sigma_of_u
    if pw != tail:
        raise InconsistentConstruction(
            "sigma(u) is not a root of the modulus; sigma is not a ring map")

    def sigma(elt: QuotElt) -> QuotElt:
        acc = K.zero()
        pw = K.one()
        for c in elt.vec:
            acc = acc + K.coerce(c) * pw
            pw = pw * sigma_of_u
        return acc

    # sigma powers of u: sigma^j(u), j = 0..n-1; verify sigma^n = id on u
    spows = [u]
    for _ in range(n - 1):
        spows.append(sigma(spows[-1]))
    if sigma(spows[-1]) != u:
        raise InconsistentConstruction("sigma does not have order dividing n")

    dim = ext_deg * n
    labels = []
    uname, vname = gen_names
    for r in range(ext_deg):
        for s in range(n):
            bits = []
            if r:
                bits.append(uname if r == 1 else f"{uname}^{r}")
            if s:
                bits.append(vname if s == 1 else f"{vname}^{s}")
            labels.append("*".join(bits) if bits else "1")

    # structure constants: (u^r1 v^s1)(u^r2 v^s2) = u^r1 sigma^s1(u)^r2 [b] v^(s1+s2 mod n)
    table = [[None] * dim for _ in range(dim)]
    upow = [K.one()]
    for _ in range(ext_deg - 1):
        upow.append(upow[-1] * u)
    spow_pows = {}
    for s1 in range(n):
        pw = [K.one()]
        for _ in range(ext_deg - 1):
            pw.append(pw[-1] * spows[s1])
        spow_pows[s1] = pw
    for r1 in range(ext_deg):
        for s1 in range(n):
            i = r1 * n + s1
            for r2 in range(ext_deg):
                for s2 in range(n):
                    j = r2 * n + s2
                    w = upow[r1] * spow_pows[s1][r2]
                    s = s1 + s2
                    if s >= n:
                        s -= n
                        w = w * K.coerce(b)
                    entries = []
                    for rr, comp in enumerate(w.vec):
                        if not comp.is_zero():
                            entries.append((rr * n + s, comp))
                    table[i][j] = entries

    alg = AlgebraPresentation(base, labels, table, tag, degree=max(n, ext_deg),
                              gens={uname: n if ext_deg > 1 else 0, vname: 1})
    # regular representation data: Lu = diag(sigma^{-j}(u)), Lv = shift with corner b
    inv_spows = [spows[(-j) % n] for j in range(n)]
    Lu = [[K.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        Lu[j][j] = inv_spows[j]
    Lv = [[K.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n - 1):
        Lv[j + 1][j] = K.one()
    Lv[0][n - 1] = K.coerce(b)
    alg._cyclic = (K, Lu, Lv, ext_deg, n)
    return alg


def symbol_algebra(base: FieldTower, a, b, n: int,
                   zeta: FieldElement | None = None) -> AlgebraPresentation:
    """(a,b)_n: x^n = a, y^n = b, x y = zeta y x."""
    a = base.elem(a)
    b = base.elem(b)
    if a.is_zero():
        raise InconsistentConstruction("symbol algebra slot a must be nonzero")
    if zeta is None:
        zeta, reason = primitive_root_of_unity(base, n)
        if zeta is None:
            raise InconsistentConstruction(
                f"no primitive {n}-th root of unity in {base}: {reason}")
    # K = base[x]/(x^n - a), sigma(x) = zeta^{-1} x (so that y x = sigma(x) y)
    ext_modulus = [-a] + [base.zero()] * (n - 1)
    zinv = zeta.inverse()
    sigma_u = [base.zero(), zinv]
    alg = _cyclic_presentation(base, ext_modulus, sigma_u, n, b,
                               SymbolTag(a, b, n, zeta), gen_names=("x", "y"))
    alg.period_bound = n
    return alg


def p_algebra(base: FieldTower, a, b) -> AlgebraPresentation:
    """[a,b)_p in characteristic p: u^p - u = a, v^p = b, u v = v (u+1)."""
    p = base.characteristic
    if p == 0:
        raise InconsistentConstruction("p-algebra needs positive characteristic")
    a = base.elem(a)
    b = base.elem(b)
    # K = base[u]/(u^p - u - a); v u v^{-1} = u - 1, i.e. sigma(u) = u - 1
    ext_modulus = [-a, -base.one()] + [base.zero()] * (p - 2)
    sigma_u = [-base.one(), base.one()]
    alg = _cyclic_presentation(base, ext_modulus, sigma_u, p, b,
                               PAlgebraTag(a, b, p), gen_names=("u", "v"))
    alg.period_bound = p
    return alg


def cyclic_kummer(base: FieldTower, a, b, n: int) -> AlgebraPresentation:
    """Cyclic algebra (k(a^(1/n))/k, sigma, b) in Kummer form."""
    alg = symbol_algebra(base, a, b, n)
    alg.tag = CyclicTag("kummer", alg.tag.a, alg.tag.b, n)
    return alg


def cyclic_artin_schreier(base: FieldTower, a, b) -> AlgebraPresentation:
    """Cyclic algebra on the Artin-Schreier extension x^p - x - a."""
    alg = p_algebra(base, a, b)
    alg.tag = CyclicTag("artin_schreier", alg.tag.a, alg.tag.b, alg.tag.p)
    return alg


def twisted_lift_quaternion(base: FieldTower, a, b) -> AlgebraPresentation:
    """Char-0 presentation u^2 + u = a, v^2 = b, u v = -v (u+1) (the 2-ring lift)."""
    if base.characteristic == 2:
        raise InconsistentConstruction("the twisted lift lives in characteristic 0")
    a = base.elem(a)
    b = base.elem(b)
    # K = base[u]/(u^2 + u - a); v u v^{-1} = -u - 1
    ext_modulus = [-a, base.one()]
    sigma_u = [-base.one(), -base.one()]
    alg = _cyclic_presentation(base, ext_modulus, sigma_u, 2, b,
                               TwistedLiftTag(a, b), gen_names=("u", "v"))
    alg.period_bound = 2
    return alg


def tensor(left: AlgebraPresentation, right: AlgebraPresentation) -> AlgebraPresentation:
    """A (x) B over the common base.

    The Kronecker product of two associative tables is associative, so it is
    not checked.  It is built lazily on first use: tag-level operations such
    as Brauer-class extraction and reduced char polys never need it.
    """
    if left.base != right.base:
        raise InconsistentConstruction("tensor factors live over different towers")
    base = left.base
    dim = left.dim * right.dim
    labels = []
    for l1 in left.labels:
        for l2 in right.labels:
            if l1 == "1" and l2 == "1":
                labels.append("1")
            elif l1 == "1":
                labels.append(_suffix(l2, "2"))
            elif l2 == "1":
                labels.append(_suffix(l1, "1"))
            else:
                labels.append(f"{_suffix(l1, '1')}*{_suffix(l2, '2')}")

    def build_table():
        table = [[None] * dim for _ in range(dim)]
        for i1 in range(left.dim):
            for i2 in range(right.dim):
                i = i1 * right.dim + i2
                for j1 in range(left.dim):
                    lprod = left.table[i1][j1]
                    for j2 in range(right.dim):
                        rprod = right.table[i2][j2]
                        j = j1 * right.dim + j2
                        entries = []
                        for (k1, c1) in lprod:
                            for (k2, c2) in rprod:
                                entries.append((k1 * right.dim + k2, c1 * c2))
                        table[i][j] = entries
        return table

    gens = {}
    for name, idx in left.gens.items():
        gens[name + "1"] = idx * right.dim
    for name, idx in right.gens.items():
        gens[name + "2"] = idx
    alg = AlgebraPresentation(base, labels, None, TensorTag(left, right),
                              degree=left.degree * right.degree, gens=gens,
                              table_factory=build_table)
    alg.period_bound = _math.lcm(left.period_bound, right.period_bound)
    return alg


def _suffix(label: str, s: str) -> str:
    out = []
    for part in label.split("*"):
        if "^" in part:
            head, exp = part.split("^")
            out.append(f"{head}{s}^{exp}")
        else:
            out.append(part + s)
    return "*".join(out)


# ---------------------------------------------------------------------------
# Albert form and the division test for biquaternions
# ---------------------------------------------------------------------------

@dataclass
class AlbertResult:
    division: bool
    form: object
    isotropy: object

    def __bool__(self):
        return self.division


def albert_form(A: AlgebraPresentation):
    """<a, b, -ab, -c, -d, cd> for A = (a,b) (x) (c,d) in characteristic != 2."""
    from .forms import QuadraticForm
    if not isinstance(A.tag, TensorTag) or \
            not isinstance(A.tag.left.tag, (SymbolTag, CyclicTag)) or \
            not isinstance(A.tag.right.tag, (SymbolTag, CyclicTag)):
        raise InconsistentConstruction("Albert form needs a tensor of two quaternions")
    lt, rt = A.tag.left.tag, A.tag.right.tag
    if getattr(lt, "n", 2) != 2 or getattr(rt, "n", 2) != 2:
        raise InconsistentConstruction("Albert form needs degree-2 factors")
    if A.base.characteristic == 2:
        raise UnsupportedTower(
            "characteristic-2 biquaternions are handled through the lift")
    a, b = lt.a, lt.b
    c, d = rt.a, rt.b
    return QuadraticForm(A.base, [a, b, -(a * b), -c, -d, c * d])


def is_division_biquaternion(A: AlgebraPresentation) -> AlbertResult:
    """Division iff the 6-dimensional Albert form is anisotropic."""
    from .forms import isotropy
    form = albert_form(A)
    res = isotropy(form)
    return AlbertResult(not res.isotropic, form, res)


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

class Involution:
    """k-linear involution given by its images of the basis vectors.

    The images are not checked: every constructor below builds an
    involution by construction (see the module docstring), and the
    exhaustive check is ``involution_defect`` in tests/oracles.py.
    """

    def __init__(self, algebra: AlgebraPresentation, images):
        self.algebra = algebra
        self.images = [algebra.coerce(im) for im in images]
        self._kind = None
        self._symd = None

    def apply(self, x: AlgElement) -> AlgElement:
        x = self.algebra.coerce(x)
        acc = self.algebra.zero()
        for c, im in zip(x.coords, self.images):
            if not c.is_zero():
                acc = acc + im.scale(c)
        return acc

    __call__ = apply

    def symd_basis(self):
        """Basis of Symd(A, sigma) = {a + sigma(a)} as coordinate vectors."""
        if self._symd is not None:
            return self._symd
        A = self.algebra
        cols = []
        for j in range(A.dim):
            ej = A.basis_element(j)
            cols.append((ej + self.apply(ej)).coords)
        red, pivots = rref(cols, A.base)
        self._symd = [red[r] for r in range(len(pivots))]
        return self._symd

    def symd_contains(self, x: AlgElement) -> bool:
        basis = self.symd_basis()
        mat = [[basis[r][c] for r in range(len(basis))]
               for c in range(self.algebra.dim)]
        return solve(mat, list(self.algebra.coerce(x).coords),
                     self.algebra.base) is not None

    def kind(self) -> str:
        """"orthogonal" or "symplectic" (dim-count test; char 2: 1 in Symd)."""
        if self._kind is not None:
            return self._kind
        A = self.algebra
        if A.base.characteristic == 2:
            self._kind = "symplectic" if self.symd_contains(A.one()) else "orthogonal"
            return self._kind
        if A.degree % 2:
            self._kind = "orthogonal"
            return self._kind
        # dim Symd is n(2n - 1) for symplectic and n(2n + 1) for orthogonal
        n = A.degree // 2
        symplectic = len(self.symd_basis()) == n * (2 * n - 1)
        self._kind = "symplectic" if symplectic else "orthogonal"
        return self._kind


def canonical_involution(A: AlgebraPresentation) -> Involution:
    """The symplectic involution z -> Trd(z) - z of a degree-2 presentation."""
    if A.degree != 2:
        raise InconsistentConstruction("canonical involution needs degree 2")
    images = []
    for k in range(A.dim):
        ek = A.basis_element(k)
        images.append(A.one().scale(A.trd(ek)) - ek)
    return Involution(A, images)


def conjugate_involution(sigma: Involution, s: AlgElement) -> Involution:
    """Int(s) o sigma: z -> s sigma(z) s^{-1}, for a unit s with sigma(s) = +-s.

    (Int(s) o sigma)^2 = Int(s sigma(s)^{-1}), so the relation on s is what
    makes the composite an involution; any other s is rejected."""
    A = sigma.algebra
    s = A.coerce(s)
    ss = sigma.apply(s)
    if ss != s and ss != -s:
        raise InconsistentConstruction("sigma(s) != +-s; Int(s) o sigma is not an involution")
    sinv = A.inverse(s)
    images = [s * sigma.apply(A.basis_element(k)) * sinv for k in range(A.dim)]
    return Involution(A, images)


def tensor_involution(A: AlgebraPresentation, s1: Involution, s2: Involution) -> Involution:
    """s1 (x) s2 on A = L (x) R: the tensor product of two involutions is one."""
    if not isinstance(A.tag, TensorTag):
        raise InconsistentConstruction("tensor_involution needs a tensor presentation")
    return Involution(A, [AlgElement(A, [c1 * c2 for c1 in im1.coords for c2 in im2.coords])
                          for im1 in s1.images for im2 in s2.images])


def make_symplectic_involution(A: AlgebraPresentation,
                               skew_unit: AlgElement | None = None) -> Involution:
    """gamma_1 (x) (Int(s) o gamma_2) on a biquaternion A = Q1 (x) Q2.

    s must be a gamma_2-skew unit of Q2; default is Q2's first generator.
    Then Int(s) o gamma_2 is orthogonal, and the tensor product with the
    symplectic gamma_1 is symplectic, so the kind is recorded, not tested.
    """
    if not isinstance(A.tag, TensorTag):
        raise InconsistentConstruction("expected a tensor of two quaternions")
    Q1, Q2 = A.tag.left, A.tag.right
    if Q1.degree != 2 or Q2.degree != 2:
        raise InconsistentConstruction("expected degree-2 tensor factors")
    if A.base.characteristic == 2:
        raise UnsupportedTower(
            "symplectic involutions in characteristic 2 are reached through "
            "the characteristic-0 lift")
    g1 = canonical_involution(Q1)
    g2 = canonical_involution(Q2)
    if skew_unit is None:
        if not Q2.gens:
            raise InconsistentConstruction("Q2 exposes no generators")
        skew_unit = Q2.generator("x" if "x" in Q2.gens else min(Q2.gens, key=Q2.gens.get))
    s = Q2.coerce(skew_unit)
    if g2.apply(s) != -s:
        raise InconsistentConstruction("s is not anti-symmetric for gamma_2")
    if Q2.nrd(s).is_zero():
        raise InconsistentConstruction("s is not invertible")
    sigma = tensor_involution(A, g1, conjugate_involution(g2, s))
    # symplectic (x) orthogonal is symplectic (KMRT, Prop. 2.23)
    sigma._kind = "symplectic"
    return sigma


# ---------------------------------------------------------------------------
# pfaffian data
# ---------------------------------------------------------------------------

@dataclass
class PfaffianData:
    prp: Poly
    trp: FieldElement
    nrp: FieldElement


def pfaffian_data(sigma: Involution, a: AlgElement) -> PfaffianData:
    """Prp, Trp, Nrp of a in Symd(A, sigma) for a degree-4 symplectic sigma."""
    A = sigma.algebra
    if A.degree != 4:
        raise UnsupportedTower("pfaffian data implemented for degree 4")
    if not sigma.symd_contains(a):
        raise InconsistentConstruction("element is not in Symd(A, sigma)")
    prd = A.reduced_char_poly(a)
    base = A.base
    if base.characteristic != 2:
        two_inv = base.elem(1) / base.elem(2)
        t = -prd[3] * two_inv
        nr = (prd[2] - t * t) * two_inv
        prp = Poly(base, [nr, -t, base.one()])
        if prp * prp != prd:
            raise InconsistentConstruction(
                "Prd is not the square of a monic quadratic; "
                "element outside Symd or sigma not symplectic")
    else:
        prp = monic_sqrt_char2(prd)
        t = -prp[1]
        nr = prp[0]
    return PfaffianData(prp, t, nr)


def trp(sigma: Involution, a: AlgElement) -> FieldElement:
    """Pfaffian trace; linear, so computed from Trd when 2 is invertible."""
    A = sigma.algebra
    if A.base.characteristic != 2:
        return A.trd(a) * (A.base.elem(1) / A.base.elem(2))
    return pfaffian_data(sigma, a).trp


# ---------------------------------------------------------------------------
# SL1 and commutators
# ---------------------------------------------------------------------------

def is_sl1(A: AlgebraPresentation, x: AlgElement) -> bool:
    return A.nrd(x).is_one()


def commutator(A: AlgebraPresentation, x: AlgElement, y: AlgElement) -> AlgElement:
    """x y x^{-1} y^{-1}, formed as (x y)(y x)^{-1} with one inverse; always
    lies in SL1."""
    return (x * y) * A.inverse(y * x)


def sl1_sample(A: AlgebraPresentation, rng: _random.Random, span: int = 3,
               tries: int = 200) -> AlgElement:
    """A random commutator of two random invertible elements."""
    return commutator(A, random_invertible(A, rng, span, tries),
                      random_invertible(A, rng, span, tries))


def random_invertible(A: AlgebraPresentation, rng: _random.Random,
                      span: int = 3, tries: int = 200) -> AlgElement:
    for _ in range(tries):
        x = A.element([rng.randint(-span, span) for _ in range(A.dim)])
        if not A.nrd(x).is_zero():
            return x
    raise RuntimeError("could not sample an invertible element")
