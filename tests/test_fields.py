import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skone.errors import FieldSyntaxError, InconsistentConstruction, PrecisionExhausted
from skone.fields import (
    FieldElement,
    FiniteField,
    LaurentExt,
    PAdicDescriptor,
    Rationals,
    RootAdjunction,
    factorize,
    is_nth_power,
    laurent_split,
    parse_field,
    primitive_root_of_unity,
)
from skone.poly import Poly

TOWERS = ["Q", "F(7)", "F(49)", "F(121)", "Qp(5)", "Qp(2)",
          "Q((t))", "F(7)((t))", "Qp(5)((t1))((t2))",
          "Q[zeta_4]", "Q[zeta_2]", "Qp(13)[zeta_4]", "F(7)[zeta_3]",
          "Qp(13)[zeta_3]((t1))((t2))"]


@pytest.mark.parametrize("desc", TOWERS)
def test_parse_print_roundtrip(desc):
    tower = parse_field(desc)
    assert parse_field(str(tower)) == tower


def test_parse_examples():
    assert isinstance(parse_field("Q"), Rationals)
    t = parse_field("F(7)((t))")
    assert t.characteristic == 7
    assert [(v, str(k)) for v, k in t.residue_chain()] == [("t", "F(7)")]
    t = parse_field("Qp(5)((t1))((t2))")
    assert len(t.residue_chain()) == 2


def test_parse_errors():
    with pytest.raises(FieldSyntaxError):
        parse_field("F(6)")           # not a prime power
    with pytest.raises(FieldSyntaxError):
        parse_field("Qp(4)")          # not prime
    with pytest.raises(FieldSyntaxError):
        parse_field("F(7)[zeta_5]")   # mu_5 needs an explicit extension
    with pytest.raises(FieldSyntaxError):
        parse_field("Qp(2)[zeta_4]")  # wild adjunction rejected
    with pytest.raises(FieldSyntaxError):
        parse_field("Q((t))((t))")    # repeated variable
    parse_field("F(7^4)[zeta_5]")     # explicit extension works


@pytest.mark.parametrize("desc", ["Q", "F(7)", "F(49)", "Qp(5)", "Q((t))",
                                  "Q[zeta_4]", "F(7)((t))"])
def test_field_axioms(desc):
    tower = parse_field(desc)
    rng = random.Random(hash(desc) & 0xFFFF)
    for _ in range(1000):
        a, b, c = (tower.elem(rng.randint(-20, 20)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def test_laurent_axioms_with_monomials():
    QT = parse_field("Q((t))")
    rng = random.Random(5)
    for _ in range(300):
        a = QT.elem(rng.randint(-5, 5)) + \
            QT.monomial(rng.randint(-2, 3), rng.randint(-5, 5))
        b = QT.monomial(rng.randint(-2, 2), rng.randint(-5, 5))
        c = QT.elem(rng.randint(-5, 5))
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def test_is_nth_power_examples():
    F7 = FiniteField(7)
    res = is_nth_power(F7.elem(2), 2)
    assert res.is_power and str(res.witness) == "3"
    Q = Rationals()
    res = is_nth_power(Q.elem(4), 2)
    assert res.is_power and str(res.witness) == "2"
    Q5 = PAdicDescriptor(5)
    res = is_nth_power(Q5.elem(5), 2)
    assert not res.is_power and res.certificate == "odd valuation"


def test_is_nth_power_exhaustive_finite_fields():
    # agreement with exhaustive search on all of F_q for q <= 121, n <= 12
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 81, 121]:
        F = FiniteField(q)
        elems = [x for x in F.elements() if not x.is_zero()]
        for n in range(1, 13):
            powers = set()
            for y in elems:
                powers.add(str(y ** n))
            for x in elems:
                res = is_nth_power(x, n)
                assert res.is_power == (str(x) in powers), (q, n, str(x))
                if res.is_power:
                    assert (res.witness ** n) == x


@pytest.mark.parametrize("q, ns", [(20011, (2, 3, 5, 4, 7)), (2 ** 15, (7, 31, 3, 14))])
def test_is_nth_power_by_discrete_log_beyond_the_search_bound(q, ns):
    # q > 20000: the witness comes from a discrete log, not a search; x is an
    # n-th power iff x^((q-1)/d) = 1, d = gcd(n, q - 1)
    F = FiniteField(q)
    g = F.multiplicative_generator()
    rng = random.Random(q)
    seen = set()
    for n in ns:
        d = math.gcd(n, q - 1)
        for k in [rng.randrange(1, 3000) for _ in range(3)] + [n * rng.randrange(1, 300)]:
            x = g ** k
            res = is_nth_power(x, n)
            assert res.is_power == (x ** ((q - 1) // d)).is_one(), (q, n, k)
            if res.is_power:
                assert res.witness ** n == x and res.certificate == "discrete log"
            seen.add(res.is_power)
    assert seen == {True, False}


def test_padic_nth_power_witnesses():
    Q5 = PAdicDescriptor(5)
    res = is_nth_power(Q5.elem(4), 2)
    assert res.is_power
    assert (res.witness * res.witness) == Q5.elem(4)
    res = is_nth_power(Q5.elem(2), 2)
    assert not res.is_power
    # 2-adic squares: u = 1 mod 8
    Q2 = PAdicDescriptor(2)
    res = is_nth_power(Q2.elem(17), 2)
    assert res.is_power
    assert (res.witness * res.witness) == Q2.elem(17)
    assert not is_nth_power(Q2.elem(3), 2).is_power
    assert not is_nth_power(Q2.elem(2), 2).is_power
    res = is_nth_power(Q2.elem(16), 4)
    assert res.is_power


def test_laurent_nth_power_decided_by_hensel():
    # x = t^v u (1 + w) is an n-th power iff n | v and u is one; only a
    # monomial carries a witness
    QT = parse_field("Q((t))")
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 4)
        y = QT.from_terms({e: QT.base.elem(rng.randint(1, 4))
                           for e in range(rng.randint(-1, 1), 3)})
        assert is_nth_power(y ** n, n).is_power
        assert not is_nth_power(QT.monomial(1) * y ** n, n).is_power
        assert not is_nth_power(QT.elem(-3 if n % 2 else 3) * y ** n, n).is_power
    res = is_nth_power(QT.monomial(-4, 9), 2)
    assert res.witness == QT.monomial(-2, 3)
    assert is_nth_power(QT.elem(1) + QT.monomial(1), 3).witness is None


def test_primitive_roots():
    F7 = FiniteField(7)
    z, _ = primitive_root_of_unity(F7, 3)
    assert str(z) == "2"
    assert (z ** 3).is_one() and not z.is_one()
    Q = Rationals()
    z, _ = primitive_root_of_unity(Q, 2)
    assert str(z) == "-1"
    z, reason = primitive_root_of_unity(F7, 5)
    assert z is None and "q-1" in reason
    # cyclotomic
    Q4 = parse_field("Q[zeta_4]")
    z = Q4.zeta()
    assert (z ** 4).is_one() and not (z ** 2).is_one()
    # tame p-adic
    Q13 = parse_field("Qp(13)")
    z, _ = primitive_root_of_unity(Q13, 4)
    assert (z ** 4).is_one()
    assert not (z ** 2).is_one()


def test_laurent_split_examples():
    QT = parse_field("Q((t))")
    t = QT.monomial(1)
    x = QT.elem(3) * t * t + t ** 3  # 3t^2 + t^3
    sp = laurent_split(x)
    assert sp.valuation == 2 and str(sp.unit) == "3"
    back = QT.monomial(sp.valuation) * QT.elem(sp.unit) * sp.tail
    assert back == x
    sp = laurent_split(QT.monomial(-1))
    assert sp.valuation == -1 and sp.unit.is_one()
    Q5T = parse_field("Qp(5)((t))")
    sp = laurent_split(Q5T.monomial(1, 5))
    assert sp.valuation == 1 and sp.base_valuation == 1


@given(st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_laurent_split_reassembly(c, v, extra):
    QT = parse_field("Q((t))")
    x = QT.monomial(v, c) + QT.monomial(v + extra, 7)
    sp = laurent_split(x)
    back = QT.monomial(sp.valuation) * QT.elem(sp.unit) * sp.tail
    assert back == x


def test_precision_exhaustion_is_loud():
    Q5 = PAdicDescriptor(5)
    w = is_nth_power(Q5.elem(4), 2).witness  # approximate unit
    with pytest.raises(PrecisionExhausted):
        _ = (w - w)  # cancels every certified digit


def test_equal_padic_approximations_hash_alike():
    Q7 = PAdicDescriptor(7)
    coarse, fine = Q7.approx(0, 3, 5), Q7.approx(0, 3 + 2 * 7 ** 5, 8)
    assert coarse == fine and str(coarse) != str(fine)
    assert hash(coarse) == hash(fine)
    exact = Q7.elem(3)
    assert exact == Q7.approx(0, 3, 6)
    assert hash(exact) == hash(Q7.approx(0, 3, 6))
    # the same holds one Laurent level up
    T = LaurentExt(Q7, "t")
    assert T.elem(coarse) == T.elem(fine)
    assert hash(T.elem(coarse)) == hash(T.elem(fine))
    # exact towers keep the string hash
    assert hash(Rationals().elem(Fraction(3, 4))) == hash("3/4")


def test_padic_precision_is_part_of_the_tower():
    coarse, fine = PAdicDescriptor(7, 10), PAdicDescriptor(7, 30)
    assert coarse != fine
    assert coarse == PAdicDescriptor(7, 10)
    assert hash(coarse) == hash(PAdicDescriptor(7, 10))
    with pytest.raises(InconsistentConstruction):
        _ = coarse.elem(3) + fine.elem(2)
    with pytest.raises(InconsistentConstruction):
        _ = fine.elem(3) * coarse.elem(2)


def test_root_adjunction_zeta_arithmetic():
    T = parse_field("Q[zeta_4]")
    z = T.zeta()
    assert z * z == T.elem(-1)
    assert (T.elem(1) + z) * (T.elem(1) - z) == T.elem(2)
    inv = z.inverse()
    assert (z * inv).is_one()


# --- the poly kernel's users against sympy ---------------------------------

X = sympy.Symbol("x")


def _to_sympy(coeffs, **domain):
    """sympy Poly of a low-degree-first coefficient list."""
    return sympy.Poly(list(reversed(coeffs)), X, **domain)


def _low_first(poly, n):
    cs = list(reversed(poly.all_coeffs()))
    return cs + [0] * (n - len(cs))


@st.composite
def _fq_pair(draw):
    q = draw(st.sampled_from([4, 8, 9, 27, 49, 243, 256]))
    F = FiniteField(q)
    digits = st.lists(st.integers(0, F.p - 1), min_size=F.e, max_size=F.e)
    return F, draw(digits), draw(digits)


@given(_fq_pair())
def test_fq_mul_and_inverse_match_sympy(case):
    F, a, b = case
    p = F.p
    f = _to_sympy(F.modulus, modulus=p)
    A, B = _to_sympy(a, modulus=p), _to_sympy(b, modulus=p)
    prod = (FieldElement(F, tuple(a)) * FieldElement(F, tuple(b))).payload
    # sympy prints symmetric residues, so compare mod p
    assert list(prod) == [int(c) % p for c in _low_first(sympy.rem(A * B, f), F.e)]
    if any(a):
        inv = FieldElement(F, tuple(a)).inverse().payload
        assert list(inv) == [int(c) % p for c in _low_first(sympy.invert(A, f), F.e)]


@st.composite
def _zeta_pair(draw):
    T = RootAdjunction(Rationals(), draw(st.sampled_from([3, 5, 7, 8, 12])))
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    coeffs = st.lists(rationals, min_size=T._deg, max_size=T._deg)
    return T, draw(coeffs), draw(coeffs)


@given(_zeta_pair())
def test_cyclotomic_mul_and_inverse_match_sympy(case):
    T, a, b = case
    phi = sympy.cyclotomic_poly(T.m, X, polys=True).set_domain(sympy.QQ)
    A, B = (_to_sympy(v, domain=sympy.QQ) for v in (a, b))

    def as_fractions(poly):
        return [Fraction(str(c)) for c in _low_first(poly, T._deg)]

    prod = (FieldElement(T, tuple(a)) * FieldElement(T, tuple(b))).payload
    assert list(prod) == as_fractions(sympy.rem(A * B, phi))
    if any(a):
        inv = FieldElement(T, tuple(a)).inverse().payload
        assert list(inv) == as_fractions(sympy.invert(A, phi))


@given(st.lists(st.integers(0, 6), max_size=8),
       st.lists(st.integers(0, 6), max_size=5),
       st.integers(2, 6))
def test_poly_divmod_non_monic_over_f7(num, den, lead):
    F7 = FiniteField(7)
    p, q = Poly(F7, num), Poly(F7, den + [lead])
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


@pytest.mark.parametrize("q, modulus", [
    (4, [1, 1, 1]), (8, [1, 1, 0, 1]), (9, [1, 0, 1]), (27, [1, 2, 0, 1]),
    (81, [2, 1, 0, 0, 1]), (256, [1, 1, 0, 1, 1, 0, 0, 0, 1]), (343, [2, 0, 0, 1]),
])
def test_finite_field_moduli_are_pinned(q, modulus):
    assert FiniteField(q).modulus == modulus


# --- the factoriser against sympy ------------------------------------------

PRIMES_30 = st.integers(min_value=3, max_value=2**30).map(lambda x: int(sympy.prevprime(x)))


@st.composite
def factoring_inputs(draw):
    """n < 2^90: a small cofactor, primes below 2^30 to powers 1-3 (so
    semiprimes and prime powers) and one prime as large as fits."""
    n = draw(st.integers(min_value=1, max_value=2**12))
    for p in draw(st.lists(PRIMES_30, max_size=3)):
        e = draw(st.integers(min_value=1, max_value=3))
        if n * p ** e < 2**90:
            n *= p ** e
    if 2**90 // n > 3 and draw(st.booleans()):
        n *= int(sympy.prevprime(draw(st.integers(min_value=3, max_value=2**90 // n))))
    return n


@settings(max_examples=80, deadline=None)
@given(factoring_inputs())
@example(998244366975420990913973297)   # 1000000007^2 * 998244353
@example(998244359987710471)            # 998244353 * 1000000007
@example(318665857834031151167461)      # strong pseudoprime to the bases <= 37
@example(3317044064679887385961981)     # strong pseudoprime to the bases <= 41
@example(int(sympy.nextprime(3317044064679887385961981)))
def test_factorize_matches_sympy(n):
    assert factorize(n) == {int(p): e for p, e in sympy.factorint(n).items()}


def test_runtime_modules_do_not_import_sympy():
    src = pathlib.Path(__file__).parents[1] / "src"
    code = ("import skone.forms, skone.ktheory, skone.invariants, skone.cli, "
            "skone.wittvec, sys; "
            "assert 'sympy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_importing_the_oracles_does_not_import_sympy():
    tests = pathlib.Path(__file__).parent
    code = "import oracles, sys; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": f"{tests.parent / 'src'}{os.pathsep}{tests}"})
