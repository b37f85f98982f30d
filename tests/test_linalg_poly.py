import random
from fractions import Fraction

import pytest

from skone.fields import FiniteField, Rationals
from skone.linalg import (
    berkowitz_charpoly,
    identity,
    invert,
    nullspace,
    rank,
    rref,
    solve,
)
from skone.poly import Poly, QuotientRing, scalar_of

Q = Rationals()


def test_berkowitz_known_cases():
    M = [[Q.elem(2), Q.elem(1)], [Q.elem(0), Q.elem(3)]]
    assert [str(c) for c in berkowitz_charpoly(M, Q.zero(), Q.one())] == \
        ["6", "-5", "1"]
    # companion matrix of X^4 - 1
    C = [[Q.zero()] * 4 for _ in range(4)]
    for i in range(1, 4):
        C[i][i - 1] = Q.one()
    C[0][3] = Q.one()
    assert [str(c) for c in berkowitz_charpoly(C, Q.zero(), Q.one())] == \
        ["-1", "0", "0", "0", "1"]


def test_berkowitz_matches_determinant_sign():
    rng = random.Random(0)
    for n in (2, 3, 4):
        M = [[Q.elem(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        cp = berkowitz_charpoly(M, Q.zero(), Q.one())
        # det(M) = (-1)^n * cp[0]
        aug = [row[:] for row in M]
        red, piv = rref(aug, Q)
        if len(piv) == n:
            assert not cp[0].is_zero()
        else:
            assert cp[0].is_zero()


def test_berkowitz_over_finite_field():
    F = FiniteField(7)
    M = [[F.elem(1), F.elem(2)], [F.elem(3), F.elem(4)]]
    cp = berkowitz_charpoly(M, F.zero(), F.one())
    # trace 5, det 4 - 6 = -2 = 5: X^2 - 5X + 5 -> [5, 2, 1] mod 7
    assert [str(c) for c in cp] == ["5", "2", "1"]


def test_linear_algebra_basics():
    A = [[Q.elem(1), Q.elem(2)], [Q.elem(3), Q.elem(4)]]
    assert rank(A, Q) == 2
    x = solve(A, [Q.elem(5), Q.elem(6)], Q)
    assert [str(v) for v in x] == ["-4", "9/2"]
    inv = invert(A, Q)
    assert [str(c) for c in inv[0]] == ["-2", "1"]
    singular = [[Q.elem(1), Q.elem(2)], [Q.elem(2), Q.elem(4)]]
    assert rank(singular, Q) == 1
    assert invert(singular, Q) is None
    ns = nullspace(singular, Q)
    assert len(ns) == 1


def test_poly_arithmetic():
    p = Poly(Q, [3, 2, 1])
    q = Poly(Q, [1, 1])
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert p.gcd(p * q) == p.monic()
    assert str(p.eval(Q.elem(2))) == "11"


def test_quotient_ring_nesting():
    R = QuotientRing(Q, [Q.elem(-2), Q.zero()])   # T^2 = 2
    T = R.gen()
    assert str(scalar_of(T * T)) == "2"
    R2 = QuotientRing(R, [R.coerce(-3), R.zero()])  # S^2 = 3 over R
    S = R2.gen()
    x = S * R2.coerce(T)
    assert str(scalar_of(x * x)) == "6"
    assert scalar_of(S * S - R2.coerce(3)) .is_zero()
