"""Independent oracles for the test suite.

These deliberately avoid the production code paths: brute-force enumeration,
Springer reduction with exhaustive residue searches, ghost components on
integral polynomial lifts, sympy factorisation and symbolic expansion, and
exhaustive basis checks straight from the multiplication table.

sympy is imported inside the four functions that use it, so importing this
module stays cheap: perfbench/refs.py imports it in every benchmark set-up.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# --- quadratic forms ---------------------------------------------------------

def witness_box_search(diag: list[int], box: int):
    """Exhaustive integer search (meet in the middle) for q(x) = 0, x != 0."""
    n = len(diag)
    half = n // 2
    left, right = diag[:half], diag[half:]
    table = {}
    for vec in itertools.product(range(-box, box + 1), repeat=half):
        val = sum(c * x * x for c, x in zip(left, vec))
        table.setdefault(val, vec)
    for vec in itertools.product(range(-box, box + 1), repeat=n - half):
        val = sum(c * x * x for c, x in zip(right, vec))
        hit = table.get(-val)
        if hit is not None and (any(hit) or any(vec)):
            return hit + vec
    return None


def qp_ternary_solvable(a: int, b: int, p: int) -> bool:
    """z^2 = a x^2 + b y^2 solvable over Q_p: Springer + residue enumeration
    for odd p; bounded 2-adic enumeration with a Hensel margin for p = 2."""
    if p == 2:
        return _q2_ternary_solvable(a, b)
    diag = [a, b, -1]
    units, tpart = [], []
    for d in diag:
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        (units if v % 2 == 0 else tpart).append(d % p)

    def iso_fp(entries):
        if len(entries) >= 3:
            return True
        if len(entries) == 2:
            target = (-entries[0] * pow(entries[1], -1, p)) % p
            return any((x * x) % p == target for x in range(p))
        return False

    return iso_fp(units) or iso_fp(tpart)


def square_class_rep_2(x: int) -> int:
    """Representative of the square class of x in Q_2: 2^e * u, e in {0,1},
    u in {1,3,5,7} up to sign folded into u via mod 8."""
    v = 0
    n = x
    while n % 2 == 0:
        n //= 2
        v += 1
    u = n % 8
    if u < 0:
        u += 8
    return (2 if v % 2 else 1) * u


_Q2_TABLE: dict[tuple[int, int], bool] = {}


def _q2_ternary_solvable(a: int, b: int) -> bool:
    key = (square_class_rep_2(a), square_class_rep_2(b))
    if key in _Q2_TABLE:
        return _Q2_TABLE[key]
    ra, rb = key
    # search primitive solutions of ra x^2 + rb y^2 = z^2 mod 2^K; for the
    # reduced representatives (v <= 1, units <= 7) a primitive zero mod 2^7
    # lifts by Hensel margin arguments, and anisotropic forms admit none
    K = 1 << 7
    found = False
    for x in range(K):
        for y in range(K):
            if found:
                break
            val = (ra * x * x + rb * y * y) % K
            z = _sqrt_mod_2k(val, 7)
            if z is None:
                continue
            if x % 2 or y % 2 or z % 2:
                found = True
        if found:
            break
    _Q2_TABLE[key] = found
    return found


def _sqrt_mod_2k(val: int, k: int):
    for z in range(1 << ((k + 1) // 2 + 1)):
        if (z * z - val) % (1 << k) == 0:
            return z
    return None


def tame_norm_oracle(a_val: int, a_unit_dlog: int, b_val: int, b_unit_dlog: int,
                     p: int, m: int):
    """Whether b is a norm from Q_p(a^(1/m)) (tame m | p-1), by elementary
    structure theory of tame local extensions; no symbol formula involved.

    Coordinates: x = p^val * unit, with unit_dlog the discrete log of the
    Teichmueller part modulo m (base: a fixed primitive root mod p).

    Covered cases (None is returned outside them):
      * [a] trivial: every b is a norm.
      * a a unit: K unramified of degree d = order of the unit class;
        N(K^x) = {x : d | v(x)} (unit norms are onto).
      * v(a) invertible mod m: K = Q_p(pi), pi^m = a, totally ramified of
        degree m; N(pi) = (-1)^(m+1) a, unit norms are m-th powers times
        principal units, so N(K^x) mod (Q_p^x)^m = <[(-1)^(m+1) a]>.
    """
    def order_in_zm2(vec):
        for e in range(1, m + 1):
            if (e * vec[0]) % m == 0 and (e * vec[1]) % m == 0:
                return e
        return m

    a_cls = (a_val % m, a_unit_dlog % m)
    b_cls = (b_val % m, b_unit_dlog % m)
    if a_cls == (0, 0):
        return True
    if a_val % m == 0:
        d = order_in_zm2(a_cls)
        return b_val % d == 0
    import math
    if math.gcd(a_val, m) != 1:
        return None  # mixed ramification: outside the elementary oracle
    # dlog((-1)^(m+1)) is computed modulo p-1 first: zero for odd m
    sign_dlog = 0 if (m + 1) % 2 == 0 else ((p - 1) // 2) % m
    gen = (a_cls[0] % m, (a_cls[1] + sign_dlog) % m)
    for k in range(m):
        if ((k * gen[0]) % m, (k * gen[1]) % m) == b_cls:
            return True
    return False


def qp_nth_power(x: Fraction, m: int, p: int) -> bool:
    """Whether the rational x is an m-th power in Q_p, for p not dividing m
    (m | v(x) and the unit an m-th power residue mod p, by sympy's
    is_nthpow_residue and Hensel) or p = m = 2 (v(x) even, unit 1 mod 8)."""
    from sympy.ntheory import is_nthpow_residue
    num, den, v = Fraction(x).numerator, Fraction(x).denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    if v % m:
        return False
    if p == m == 2:
        return num * den % 8 == 1
    assert m % p
    return bool(is_nthpow_residue(num * pow(den, -1, p) % p, m, p))


def hilbert_oracle(a: int, b: int, place) -> int:
    """(a, b)_v over Q from the solvability of z^2 = a x^2 + b y^2 over Q_v."""
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    return 1 if qp_ternary_solvable(a, b, place) else -1


def local_invariants(diag: list[int], places=()) -> dict:
    """Dimension, signature, squarefree signed discriminant and the Hasse
    invariants prod_{i<j} (a_i, a_j)_v of <diag> over Q, at infinity, at
    every prime dividing 2 * prod(diag) and at the given extra places."""
    import sympy
    n = len(diag)
    disc = (-1) ** (n * (n - 1) // 2)
    for d in diag:
        disc *= d
    sqfree = -1 if disc < 0 else 1
    for p, e in sympy.factorint(abs(disc)).items():
        if e % 2:
            sqfree *= int(p)
    primes = {2}.union(*(map(int, sympy.factorint(abs(d))) for d in diag))
    hasse = {}
    for v in {"inf", *primes, *places}:
        eps = 1
        for a, b in itertools.combinations(diag, 2):
            eps *= hilbert_oracle(a, b, v)
        hasse[v] = eps
    return {"dim": n, "signature": sum(1 if d > 0 else -1 for d in diag),
            "disc": sqfree, "hasse": hasse}


# --- Laurent / Springer ------------------------------------------------------

def springer_brute_isotropy(diag_monomials, p: int) -> bool:
    """diag entries (unit int, e_s, e_t) over F_p((s))((t)); truncated search
    with constant witnesses per residue block (entries are unit monomials)."""
    blocks = {(0, 0): [], (0, 1): [], (1, 0): [], (1, 1): []}
    for (u, es, et) in diag_monomials:
        blocks[(es % 2, et % 2)].append(u % p)

    def iso_fp(entries):
        n = len(entries)
        if n == 0:
            return False
        if n == 1:
            return False
        for vec in itertools.product(range(p), repeat=n):
            if any(vec) and sum(c * x * x for c, x in zip(entries, vec)) % p == 0:
                return True
        return False

    return any(iso_fp(v) for v in blocks.values())


# --- Witt vectors: ghost components on integral lifts -------------------------

class IntQuot:
    """Z[G]/(f) with f monic integral; enough ring structure for ghosts."""

    def __init__(self, coeffs, modulus):
        self.modulus = tuple(modulus)  # monic: coeffs below the leading 1
        d = len(self.modulus)
        cs = list(coeffs) + [0] * d
        cs = cs[: max(len(coeffs), d)]
        # reduce
        while len(cs) > d:
            top = cs.pop()
            if top:
                for i, mi in enumerate(self.modulus):
                    cs[len(cs) - d + i] -= top * mi
        self.coeffs = tuple(cs + [0] * (d - len(cs)))

    def __add__(self, other):
        return IntQuot([a + b for a, b in zip(self.coeffs, other.coeffs)],
                       self.modulus)

    def __neg__(self):
        return IntQuot([-a for a in self.coeffs], self.modulus)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntQuot([a * other for a in self.coeffs], self.modulus)
        d = len(self.modulus)
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return IntQuot(prod, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = IntQuot([1], self.modulus)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def reduce_mod(self, m: int):
        return tuple(c % m for c in self.coeffs)


def sympy_witt_polynomials(p: int, l: int, op: str):
    """The universal Witt polynomials by sympy: expand the ghost recursion
    symbolically and read off the terms, in the format of
    skone.wittvec.universal_witt_polynomials."""
    import sympy
    xs = sympy.symbols(f"x0:{l}")
    ys = sympy.symbols(f"y0:{l}")

    def ghost_sum(comps, n):
        return sum(p ** i * comps[i] ** (p ** (n - i)) for i in range(n + 1))

    results = []
    solved = []
    for n in range(l):
        if op == "add":
            target = ghost_sum(xs, n) + ghost_sum(ys, n)
        elif op == "mul":
            target = ghost_sum(xs, n) * ghost_sum(ys, n)
        else:
            target = -ghost_sum(xs, n)
        expr = target - sum(p ** i * solved[i] ** (p ** (n - i)) for i in range(n))
        expr = sympy.expand(sympy.expand(expr) / p ** n)
        terms = []
        for monom, coeff in sympy.Poly(expr, *xs, *ys).terms():
            assert sympy.Rational(coeff).q == 1, "non-integer coefficient"
            terms.append((int(coeff), tuple(monom[:l]), tuple(monom[l:])))
        solved.append(expr)
        results.append(terms)
    return tuple(results)


def ghost(comps: list[IntQuot], p: int, n: int) -> IntQuot:
    acc = (comps[0] ** (p ** n))
    for i in range(1, n + 1):
        acc = acc + (p ** i) * (comps[i] ** (p ** (n - i)))
    return acc


def ghost_check(op: str, u_lift, v_lift, res_lift, p: int, l: int) -> bool:
    """ghost_n(res) == ghost_n(u) op ghost_n(v) mod p^(n+1) for all n < l."""
    for n in range(l):
        gu = ghost(u_lift, p, n)
        gr = ghost(res_lift, p, n)
        if op == "add":
            gv = ghost(v_lift, p, n)
            want = gu + gv
        elif op == "mul":
            gv = ghost(v_lift, p, n)
            want = gu * gv
        elif op == "neg":
            want = -gu
        else:
            raise ValueError(op)
        diff = gr - want
        if any(c % p ** (n + 1) for c in diff.coeffs):
            return False
    return True


def all_witt_vectors(F, l: int):
    """Every vector of W_l(F_q), by enumeration of its components."""
    from skone.wittvec import WittVector
    elems = list(F.elements())
    for comps in itertools.product(elems, repeat=l):
        yield WittVector(F, comps)


def artin_schreier_image(F, l: int) -> list:
    """The subgroup (F - 1) W_l(F_q) = {v^(p) - v}, by enumeration."""
    out = []
    for v in all_witt_vectors(F, l):
        w = v.frobenius() - v
        if not any(w == o for o in out):
            out.append(w)
    return out


def brute_character_order(w, image: list) -> int:
    """The least e >= 1 with e w in (F - 1) W_l, image being that subgroup."""
    e, m = 1, w
    while not any(m == img for img in image):
        e, m = e + 1, m + w
    return e


def artin_schreier_roots(c) -> bool:
    """x^2 + x = c has a root in c's finite field, by enumeration."""
    return any(x * x + x == c for x in c.tower.elements())


# --- factorisation (for kahn_bound comparison) --------------------------------

def nbar_oracle(n: int) -> int:
    import sympy
    out = 1
    for p, e in sympy.factorint(n).items():
        out *= int(p) ** (e - 1)
    return out


# --- congruence diagonalisation over Q ---------------------------------------

def diagonalize_gram_oracle(gram, tower) -> list:
    """The O(n^4) rational diagonalisation that the integer elimination in
    skone.forms replaced: it re-evaluates the form on every working vector
    at every pivot, with the same pivot rule (smallest nonzero |q(b, b)|,
    first on ties), primitive vectors and mixing step."""
    from skone.fields import FieldElement
    from skone.forms import _strip_small_squares, rational_of

    n = len(gram)
    q = [[rational_of(x) if isinstance(x, FieldElement) else Fraction(x)
          for x in row] for row in gram]

    def bilin(u, v):
        acc = Fraction(0)
        for i, ui in enumerate(u):
            if ui:
                acc += ui * sum(q[i][j] * vj for j, vj in enumerate(v) if vj)
        return acc

    def primitive(vec):
        den = 1
        for x in vec:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in vec]
        content = 0
        for x in ints:
            content = math.gcd(content, abs(x))
        if content > 1:
            ints = [x // content for x in ints]
        return [Fraction(x) for x in ints]

    active = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    entries = []
    while active:
        vals = [bilin(b, b) for b in active]
        piv = None
        best = None
        for i, v in enumerate(vals):
            if v != 0 and (best is None or abs(v) < best):
                piv, best = i, abs(v)
        if piv is None:
            mixed = False
            for i in range(len(active)):
                for j in range(len(active)):
                    if i != j and bilin(active[i], active[j]) != 0:
                        active[i] = primitive([a + b for a, b in
                                               zip(active[i], active[j])])
                        mixed = True
                        break
                if mixed:
                    break
            if not mixed:
                break  # zero block
            continue
        p = active[piv]
        d = vals[piv]
        entries.append(_strip_small_squares(tower.elem(d), tower))
        rest = []
        for i, b in enumerate(active):
            if i == piv:
                continue
            c = bilin(b, p)
            rest.append(primitive([d * x - c * y for x, y in zip(b, p)]))
        active = rest
    return entries


# --- algebras: unit and associativity from the structure constants -----------

def _vector(entries) -> dict:
    """Sum (k, coeff) pairs into {k: coeff}, dropping zero coefficients."""
    out = {}
    for k, c in entries:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _times_basis(table, vec: dict, k: int, basis_on_left: bool) -> dict:
    """e_k * vec if basis_on_left, else vec * e_k, from table alone."""
    return _vector((l, c * d) for m, c in vec.items()
                   for l, d in (table[k][m] if basis_on_left else table[m][k]))


def left_mult_matrix(A, x):
    """The matrix of y -> x y on A's basis, over the base tower."""
    cols = [(x * A.basis_element(j)).coords for j in range(A.dim)]
    return [[cols[j][i] for j in range(A.dim)] for i in range(A.dim)]


def associativity_defect(table, triples=None):
    """The first failure of unit or associativity in a multiplication table.

    table[i][j] lists the (k, coeff) pairs of e_i * e_j.  Checks that e_0 is
    a two-sided unit, then (e_i e_j) e_k == e_i (e_j e_k) on every triple of
    `triples` (default: all dim^3).  Returns a description, or None.
    """
    dim = len(table)
    for j in range(dim):
        for side, entries in (("left", table[0][j]), ("right", table[j][0])):
            vec = _vector(entries)
            if vec.keys() != {j} or not vec[j].is_one():
                return f"e_0 is not a {side} unit on e_{j}"
    if triples is None:
        triples = itertools.product(range(dim), repeat=3)
    for i, j, k in triples:
        left = _times_basis(table, _vector(table[i][j]), k, basis_on_left=False)
        right = _times_basis(table, _vector(table[j][k]), i, basis_on_left=True)
        if left != right:
            return f"(e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})"
    return None


# --- involutions and the KMRT v ------------------------------------------------

def _image(images: list, vec: dict) -> dict:
    """sigma(vec) for the linear map with sigma(e_m) = images[m]."""
    return _vector((k, c * d) for m, c in vec.items() for k, d in images[m].items())


def _product(table, u: dict, v: dict) -> dict:
    """u * v from the table alone."""
    return _vector((k, c * d * e) for i, c in u.items() for j, d in v.items()
                   for k, e in table[i][j])


def involution_defect(sigma):
    """The first failure of sigma as an involution of its algebra.

    From sigma's basis images and the multiplication table alone, checks
    sigma(1) = 1, sigma(sigma(e_k)) = e_k for every k and
    sigma(e_i e_j) = sigma(e_j) sigma(e_i) on every basis pair.  Returns a
    description, or None.
    """
    A = sigma.algebra
    table = A.table
    images = [_vector(enumerate(im.coords)) for im in sigma.images]
    if images[0].keys() != {0} or not images[0][0].is_one():
        return "sigma does not fix 1"
    for k in range(A.dim):
        twice = _image(images, images[k])
        if twice.keys() != {k} or not twice[k].is_one():
            return f"sigma(sigma(e_{k})) != e_{k}"
    for i, j in itertools.product(range(A.dim), repeat=2):
        if _image(images, _vector(table[i][j])) != \
                _product(table, images[j], images[i]):
            return f"sigma(e_{i} e_{j}) != sigma(e_{j}) sigma(e_{i})"
    return None


def kmrt_v_defect(sigma, v, w):
    """The first failure of v as an admissible v for w = -sigma(a) a: v is
    symmetric, v and Trp(v) - v are units, and v (Trp(v) - v)^{-1} = w,
    i.e. v = w (Trp(v) - v).  Characteristic != 2.  Returns a description,
    or None."""
    A = sigma.algebra
    if sigma.apply(v) != v:
        return "v is not in Symd"
    d = A.one().scale(A.trd(v) * Fraction(1, 2)) - v
    if A.nrd(v).is_zero() or A.nrd(d).is_zero():
        return "v or Trp(v) - v is not invertible"
    if v != w * d:
        return "v (Trp(v) - v)^{-1} != w"
    return None


# --- relative cohomology through the normalising residue chain ----------------

def relative_group_oracle(A, r: int, modulus: int) -> dict:
    """relative_group's fields the slow way: every lift {g, h, a, b} is built
    by `symbol` and scaled through the normaliser, and its top coordinate is
    read after residues that each normalise again (`tame_residue`)."""
    from skone.fields import LaurentExt
    from skone.forms import effective_tower
    from skone.ktheory import (
        BrauerCoordinate,
        KClass,
        brauer_symbol_of,
        field_generators_mod_m,
        kclass_order,
        symbol,
        tame_residue,
        top_coordinate,
    )

    def scaled(c, k):
        return KClass(c.tower, c.degree, c.modulus, [(cf * k, s) for cf, s in c.terms])

    T = A.base
    beta = brauer_symbol_of(A)
    n = beta.modulus
    gens = field_generators_mod_m(T, modulus)
    generators = []
    for i, g in enumerate(gens):
        for h in gens[i:]:
            total = 0
            for cf, (a, b) in beta.terms:
                c = scaled(symbol(T, [g, h, a, b], modulus), cf * (modulus // n) * r)
                while isinstance(effective_tower(c.tower), LaurentExt):
                    c = tame_residue(c)
                val = top_coordinate(c).value
                if isinstance(val, BrauerCoordinate):
                    val = int(val.value * modulus) % modulus
                total = (total + val) % modulus
            generators.append(((str(g), str(h)), total))
    gcd = modulus
    for _, v in generators:
        gcd = math.gcd(gcd, v)
    return {"order": gcd, "subgroup_gcd": gcd,
            "per_r": kclass_order(scaled(beta, r)), "generators": generators}


# --- hyperbolicity by an idempotent search ------------------------------------

def idempotent_search_oracle(sigma):
    """Bounded search over sigma-skew z with z^2 a nonzero square lambda:
    e = (1 + z/sqrt(lambda))/2 is then an idempotent with sigma(e) = 1 - e,
    and sigma is hyperbolic.  Returns a HyperbolicityReport whose
    hyperbolic is True with e as witness, or None when the search space
    holds no such e (a search outcome, not a proof)."""
    from skone.fields import is_nth_power
    from skone.invariants import HyperbolicityReport
    from skone.linalg import nullspace
    A = sigma.algebra
    rows = [(sigma.apply(A.basis_element(j)) + A.basis_element(j)).coords
            for j in range(A.dim)]
    mat = [[rows[j][i] for j in range(A.dim)] for i in range(A.dim)]
    candidates = [A.element(z) for z in nullspace(mat, A.base)]
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
