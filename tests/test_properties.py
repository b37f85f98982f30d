"""Property tests of tower arithmetic: Q_p with exact and approximate
elements, and one- and two-level Laurent towers over Q and F_p.

Each tests the ring axioms, inverses and that == agrees with hash.  They run
derandomized and with no example database, so every run draws the same
examples.  Known defects are pinned as strict xfails.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skone.errors import PrecisionExhausted
from skone.fields import LaurentExt, parse_field

fixed = settings(derandomize=True, database=None, deadline=None)

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def padic_exact(P):
    """Exact rationals p^k * n/d of Q_p."""
    return st.builds(lambda q, k: P.elem(q * Fraction(P.p) ** k),
                     rationals, st.integers(-2, 2))


def padic_approx(P, v):
    """Approximate p^v * u + O(p^(v + prec)) of Q_p, u a unit."""
    unit = st.builds(lambda m, r: P.p * m + r, st.integers(0, P.p ** 4),
                     st.integers(1, P.p - 1))
    return st.builds(lambda u, k: P.approx(v, u, k), unit, st.integers(2, 8))


def laurent_elements(T):
    """Finite expansions sum c_e t^e, e in -2..2, over every level of T."""
    base = T.base
    if isinstance(base, LaurentExt):
        coeff = laurent_elements(base)
    elif base.characteristic:
        coeff = st.integers(0, base.characteristic - 1).map(base.elem)
    else:
        coeff = rationals.map(base.elem)
    return st.dictionaries(st.integers(-2, 2), coeff, max_size=3).map(T.from_terms)


def assert_ring_axioms(a, b, c):
    T = a.tower
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + T.zero() == a and a * T.one() == a


def assert_eq_hash(x, y):
    assert x == y
    assert hash(x) == hash(y)


PADIC = ["Qp(2)", "Qp(5)"]
LAURENT = ["Q((t))", "F(3)((t))", "Q((t1))((t2))", "F(2)((t1))((t2))"]


@pytest.mark.parametrize("desc", PADIC)
@fixed
@given(data=st.data())
def test_padic_exact_ring_axioms_inverses_and_hash(desc, data):
    P = parse_field(desc)
    a, b, c = (data.draw(padic_exact(P)) for _ in range(3))
    assert_ring_axioms(a, b, c)
    assert (a + (-a)).is_zero()
    assert_eq_hash((a + b) - b, a)
    assert_eq_hash(a * b, b * a)
    if not a.is_zero():
        assert_eq_hash(a * a.inverse(), P.one())
        assert_eq_hash((b * a) * a.inverse(), b)


@pytest.mark.parametrize("desc", PADIC)
@fixed
@given(data=st.data(), vals=st.permutations([-1, 0, 2]))
def test_padic_approximate_ring_axioms_inverses_and_hash(desc, data, vals):
    # three distinct valuations, so no sum below cancels certified digits
    P = parse_field(desc)
    a, b, c = (data.draw(padic_approx(P, v)) for v in vals)
    assert_ring_axioms(a, b, c)
    assert_eq_hash(a * a.inverse(), P.one())
    assert_eq_hash((b * a) * a.inverse(), b)
    q = data.draw(padic_exact(P))
    assert_eq_hash(a * q, q * a)


@pytest.mark.xfail(strict=True, raises=PrecisionExhausted,
                   reason="approximate Q_p has no O(p^k) zero: a + (-a) raises")
@pytest.mark.parametrize("p, v, unit, prec", [(2, 0, 1, 5), (5, -1, 3, 4), (7, 2, 10, 6)])
def test_padic_approximate_a_plus_minus_a_is_zero(p, v, unit, prec):
    P = parse_field(f"Qp({p})")
    a = P.approx(v, unit, prec)
    assert (a + (-a)).is_zero()


@pytest.mark.parametrize("desc", LAURENT)
@fixed
@given(data=st.data())
def test_laurent_ring_axioms_inverses_and_hash(desc, data):
    T = parse_field(desc)
    a, b, c = (data.draw(laurent_elements(T)) for _ in range(3))
    assert_ring_axioms(a, b, c)
    assert (a + (-a)).is_zero()
    assert_eq_hash((a + b) - b, a)
    assert_eq_hash(a * b, b * a)
    if not a.is_zero():
        # a truncated inverse: equal to 1 up to its order (hash: see below)
        assert a * a.inverse() == T.one()
        m = T.monomial(-3, T.base.one())
        assert_eq_hash((b * m) * m.inverse(), b)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a truncated Laurent series hashes its O(t^k) term, "
                          "so 1 + O(t^16) == 1 hashes differently")
@pytest.mark.parametrize("desc", LAURENT)
def test_laurent_truncated_inverse_hashes_like_its_equal(desc):
    T = parse_field(desc)
    x = T.one() + T.monomial(1, T.base.one())
    assert_eq_hash(x * x.inverse(), T.one())
