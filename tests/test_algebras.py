import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    _product,
    associativity_defect,
    cyclic_presentation,
    involution_defect,
    left_mult_matrix,
)

from skone.algebras import (
    Involution,
    albert_form,
    canonical_involution,
    commutator,
    conjugate_involution,
    cyclic_artin_schreier,
    cyclic_kummer,
    is_division_biquaternion,
    is_sl1,
    make_symplectic_involution,
    p_algebra,
    pfaffian_data,
    random_invertible,
    symbol_algebra,
    tensor,
    tensor_involution,
    twisted_lift_quaternion,
)
from skone.errors import InconsistentConstruction, PrecisionExhausted, UnsupportedTower
from skone.fields import (
    FiniteField,
    PAdicDescriptor,
    LaurentExt,
    Rationals,
    parse_field,
    primitive_root_of_unity,
)
from skone.linalg import berkowitz_charpoly
from skone.poly import Poly

Q = Rationals()


def hamilton():
    return symbol_algebra(Q, -1, -1, 2)


def test_symbol_relations():
    H = hamilton()
    i, j = H.generator("x"), H.generator("y")
    assert i * i == H.coerce(-1)
    assert j * j == H.coerce(-1)
    assert i * j + j * i == H.zero()
    assert H.dim == 4


def test_p_algebra_relations():
    F2 = FiniteField(2)
    A = p_algebra(F2, 1, 1)
    u, v = A.generator("u"), A.generator("v")
    assert u * u + u == A.coerce(1)        # u^2 - u = a in char 2
    assert v * v == A.coerce(1)
    assert u * v == v * (u + A.one())


def test_twisted_lift_relations():
    A = twisted_lift_quaternion(Q, 1, 3)
    u, v = A.generator("u"), A.generator("v")
    assert u * u + u == A.coerce(1)
    assert v * v == A.coerce(3)
    assert u * v == -(v * (u + A.one()))


def test_tensor_dimensions():
    T = parse_field("Qp(5)((t1))((t2))")
    from skone.ktheory import laurent_var_element
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    A = tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, 5, t2, 2))
    assert A.dim == 16 and A.degree == 4


def test_reduced_char_poly_examples():
    H = hamilton()
    i = H.generator("x")
    x = H.one() + i
    assert repr(H.reduced_char_poly(x)) == "X^2 + -2*X + 2"
    assert repr(H.reduced_char_poly(i)) == "X^2 + 1"
    assert H.nrd(i).is_one()
    assert H.trd(i).is_zero()
    B = tensor(hamilton(), symbol_algebra(Q, 2, 5, 2))
    assert repr(B.reduced_char_poly(B.one())) == "X^4 + -4*X^3 + 6*X^2 + -4*X + 1"


def test_prd_matches_left_multiplication():
    # (Prd)^deg equals the characteristic polynomial of left multiplication
    rng = random.Random(2)
    B = tensor(hamilton(), symbol_algebra(Q, 2, 5, 2))
    for _ in range(5):
        x = B.element([rng.randint(-2, 2) for _ in range(16)])
        prd = B.reduced_char_poly(x)
        lcp = Poly(Q, berkowitz_charpoly(left_mult_matrix(B, x), Q.zero(), Q.one()))
        assert prd ** B.degree == lcp
        # Cayley-Hamilton for the reduced polynomial
        acc = B.zero()
        pw = B.one()
        for c in prd.coeffs:
            acc = acc + pw.scale(c)
            pw = pw * x
        assert acc.is_zero()


def test_char2_reduced_char_poly():
    F2 = FiniteField(2)
    A = p_algebra(F2, 1, 1)
    u = A.generator("u")
    prd = A.reduced_char_poly(u)
    # u^2 + u + 1 = 0 -> Prd(u) = X^2 + X + 1
    assert repr(prd) == "X^2 + X + 1"
    B = tensor(p_algebra(F2, 1, 1), p_algebra(F2, 0, 1))
    one_poly = B.reduced_char_poly(B.one())
    assert one_poly.degree == 4


def test_nrd_multiplicative_trd_linear():
    rng = random.Random(3)
    B = tensor(hamilton(), symbol_algebra(Q, -1, 3, 2))
    for _ in range(200):
        x = B.element([rng.randint(-2, 2) for _ in range(16)])
        y = B.element([rng.randint(-2, 2) for _ in range(16)])
        assert B.nrd(x * y) == B.nrd(x) * B.nrd(y)
        assert B.trd(x + y) == B.trd(x) + B.trd(y)


def _approx_coords(rng, K, dim, laurent=None):
    """Sparse coordinates: one to three nonzero entries, about half of them
    approximate units of K (carried into the Laurent tower if given)."""
    lift = laurent.elem if laurent is not None else (lambda c: c)
    coords = [0] * dim
    for k in rng.sample(range(dim), rng.randint(1, 3)):
        if rng.random() < 0.5:
            unit = rng.randrange(1, K.p ** 10)
            while unit % K.p == 0:
                unit = rng.randrange(1, K.p ** 10)
            coords[k] = lift(K.approx(rng.randint(0, 2), unit, 10))
        else:
            coords[k] = rng.choice([-2, -1, 1, 2])
    return coords


def _newton_cases():
    """(label, algebra, elements) on which Newton's Prd is compared."""
    rng = random.Random(17)
    B = tensor(hamilton(), symbol_algebra(Q, -1, 3, 2))
    yield "Q", B, [B.element([rng.randint(-2, 2) for _ in range(16)]) for _ in range(4)]
    Z3 = parse_field("Q[zeta_3]")
    C = symbol_algebra(Z3, 2, 5, 3)
    zeta = C.tag.zeta
    yield "Q[zeta_3]", C, [C.element([zeta * rng.randint(-2, 2) + rng.randint(-2, 2)
                                      for _ in range(9)]) for _ in range(3)]
    for p in (2, 3, 5):
        K = PAdicDescriptor(p)
        A = tensor(symbol_algebra(K, -1, p, 2), symbol_algebra(K, 2 if p == 3 else 3, -1, 2))
        yield f"Qp({p})", A, [A.element(_approx_coords(rng, K, 16)) for _ in range(12)]
    T = parse_field("Qp(7)((t1))")
    from skone.ktheory import laurent_var_element
    t1 = laurent_var_element(T, "t1")
    L = tensor(symbol_algebra(T, 3, t1, 2), symbol_algebra(T, -1, 5, 2))
    yield "Qp(7)((t1))", L, [L.element(_approx_coords(rng, T.base, 16, T)) for _ in range(8)]
    F7 = FiniteField(7)
    D = tensor(symbol_algebra(F7, 3, 5, 2), symbol_algebra(F7, -1, 3, 2))
    yield "F(7)", D, [D.element([rng.randint(0, 6) for _ in range(16)]) for _ in range(4)]


@pytest.mark.parametrize("label,A,xs", [pytest.param(*case, id=case[0])
                                         for case in _newton_cases()])
def test_newton_prd_matches_the_etale_prd(label, A, xs):
    assert A._newton_path()
    compared = 0
    for x in xs:
        try:
            oracle = A._reduced_char_poly_etale(x)
        except PrecisionExhausted:
            continue
        # Newton runs wherever the division-free etale path does
        assert A.reduced_char_poly(x) == oracle, (label, x)
        compared += 1
    assert compared >= 2


@pytest.mark.parametrize("desc", ["Q", "F(7)", "Qp(5)((t1))"])
def test_trace_form_is_trd_of_the_product(desc):
    T = parse_field(desc)
    A = tensor(symbol_algebra(T, -1, 3, 2), twisted_lift_quaternion(T, 1, 5)) \
        if T.characteristic == 0 else \
        tensor(symbol_algebra(T, 3, 5, 2), symbol_algebra(T, -1, 3, 2))
    # the row read off the table is the old per-basis row of the etale Prd
    assert A._trd_row() == [-A._reduced_char_poly_etale(A.basis_element(k))[3]
                            for k in range(A.dim)]
    rng = random.Random(8)
    for _ in range(6):
        x = A.element([rng.randint(-2, 2) for _ in range(16)])
        y = A.element([rng.randint(-2, 2) for _ in range(16)])
        assert A.trace_pairing(x, y) == A.trd(x * y)


# --- the cleared-denominator kernel of mul and trace_pairing ----------------

def _check_kernel(A, x, y):
    """x * y against the table oracle, Trd(xy) against trd(x * y), and each
    product coordinate equal to the oracle's and hashing alike (in lowest
    terms over Q)."""
    zero = A.base.zero()
    xy = x * y
    want = _product(A.table, dict(enumerate(x.coords)), dict(enumerate(y.coords)))
    for k, c in enumerate(xy.coords):
        w = want.get(k, zero)
        assert c == w and hash(c) == hash(w) and str(c) == str(w)
    assert A.trace_pairing(x, y) == A.trd(xy)


Q_NONINTEGRAL = tensor(symbol_algebra(Q, Fraction(1, 2), Fraction(-3, 5), 2),
                       symbol_algebra(Q, -1, Fraction(7, 3), 2))
_rational = st.one_of(st.just(Fraction(0)), st.integers(-4, 4).map(Fraction),
                      st.fractions(-4, 4, max_denominator=15))
_q_coords = st.lists(_rational, min_size=16, max_size=16)


@given(_q_coords, _q_coords)
@example([Fraction(0)] * 16, [Fraction(k, 7) for k in range(16)])
@example([Fraction(1, 6), Fraction(0), Fraction(-5, 4)] + [Fraction(0)] * 13,
         [Fraction(0)] * 16)
def test_kernel_over_q_mixed_denominators(xc, yc):
    A = Q_NONINTEGRAL
    _check_kernel(A, A.element(xc), A.element(yc))


def test_kernel_equal_products_hash_alike():
    # the same product reached from coordinates with different denominators
    A = Q_NONINTEGRAL
    x = A.element([Fraction(2, 6)] + [Fraction(0)] * 15)
    y = A.element([Fraction(0), Fraction(9, 12)] + [Fraction(0)] * 14)
    p1 = x * y
    p2 = A.element([Fraction(1, 3)] + [0] * 15) * A.element([0, Fraction(3, 4)] + [0] * 14)
    assert p1 == p2
    assert [hash(c) for c in p1.coords] == [hash(c) for c in p2.coords]
    assert str(p1.coords[1]) == "1/4"


_F49 = FiniteField(49)
_F49_ALG = symbol_algebra(_F49, _F49.generator(), 3, 3)
_Q5_ALG = symbol_algebra(PAdicDescriptor(5), 2, 5, 2)
_QT = LaurentExt(Q, "t")
_QT_ALG = symbol_algebra(_QT, _QT.monomial(1), -3, 2)


def _f49(pair):
    a, b = pair
    return _F49.elem(a) + _F49.elem(b) * _F49.generator()


def _qt(terms):
    return _QT.from_terms({e: Q.elem(c) for e, c in terms.items()})


_TOWER_CASES = {
    "F(49)": (_F49_ALG, st.tuples(st.integers(0, 6), st.integers(0, 6)).map(_f49)),
    "Qp(5)": (_Q5_ALG, _rational.map(_Q5_ALG.base.elem)),
    "Q((t))": (_QT_ALG, st.dictionaries(st.integers(-2, 2), _rational, max_size=3).map(_qt)),
}


@pytest.mark.parametrize("desc", list(_TOWER_CASES))
def test_kernel_on_other_towers(desc):
    A, coord = _TOWER_CASES[desc]
    coords = st.lists(coord, min_size=A.dim, max_size=A.dim)

    @given(coords, coords)
    def check(xc, yc):
        _check_kernel(A, A.element(xc), A.element(yc))
    check()


def _annihilates(A, prd, x) -> bool:
    acc, pw = A.zero(), A.one()
    for c in prd.coeffs:
        acc, pw = acc + pw.scale(c), pw * x
    return acc.is_zero()


def test_p_algebras_stay_on_the_etale_path():
    for A in (p_algebra(FiniteField(2), 1, 1), p_algebra(FiniteField(3), 1, 2),
              tensor(p_algebra(FiniteField(2), 1, 1), p_algebra(FiniteField(2), 0, 1)),
              tensor(symbol_algebra(FiniteField(3), 2, 2, 2),
                     symbol_algebra(FiniteField(3), 1, 2, 2))):
        # Newton's identities would divide by the characteristic
        assert not A._newton_path()
        x = A.element([k % A.base.characteristic for k in range(A.dim)])
        assert _annihilates(A, A.reduced_char_poly(x), x)


def test_right_nested_tensor_matches_left_nested():
    F2 = FiniteField(2)
    right = tensor(p_algebra(F2, 1, 1), tensor(p_algebra(F2, 1, 1), p_algebra(F2, 0, 1)))
    left = tensor(tensor(p_algebra(F2, 1, 1), p_algebra(F2, 1, 1)), p_algebra(F2, 0, 1))
    rng = random.Random(12)
    for nonzero in (2, 3, 4):
        # both orders put e_i (x) e_j (x) e_k at index 16 i + 4 j + k
        coords = [0] * 64
        for k in rng.sample(range(64), nonzero):
            coords[k] = 1
        x = right.element(coords)
        prd = right.reduced_char_poly(x)
        assert prd == left.reduced_char_poly(left.element(coords))
        assert _annihilates(right, prd, x)


def _inverse_cases():
    """(label, algebra, span) on which inverse and commutator are checked."""
    Z3 = parse_field("Q[zeta_3]")
    T = parse_field("Qp(5)((t1))")
    from skone.ktheory import laurent_var_element
    t1 = laurent_var_element(T, "t1")
    F2, F3, F7 = FiniteField(2), FiniteField(3), FiniteField(7)
    yield "Q (-1,-1)(x)(-1,3)", tensor(hamilton(), symbol_algebra(Q, -1, 3, 2))
    yield "Q (2,5)(x)(-1,-1)", tensor(symbol_algebra(Q, 2, 5, 2), hamilton())
    yield "Q[zeta_3] degree 3", symbol_algebra(Z3, 2, 5, 3)
    yield "Qp(5)((t1))", tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, -1, 5, 2))
    yield "F(7)", tensor(symbol_algebra(F7, 3, 5, 2), symbol_algebra(F7, -1, 3, 2))
    yield "p-algebra F(2)", p_algebra(F2, 1, 1)
    yield "p-algebra F(3)", p_algebra(F3, 1, 2)
    yield "p-algebras F(2) degree 4", tensor(p_algebra(F2, 1, 1), p_algebra(F2, 0, 1))


@pytest.mark.parametrize("label,A", [pytest.param(*case, id=case[0])
                                     for case in _inverse_cases()])
def test_inverse_and_commutator(label, A):
    rng = random.Random(31)
    x, y = random_invertible(A, rng, span=2), random_invertible(A, rng, span=2)
    xinv, yinv = A.inverse(x), A.inverse(y)
    for z, zinv in ((x, xinv), (y, yinv)):
        assert zinv * z == A.one() and z * zinv == A.one(), label
    c = commutator(A, x, y)
    # the definition, with two inverses, is the oracle
    assert c == x * y * xinv * yinv, label
    assert A.nrd(c).is_one(), label


def test_albert_examples():
    A = tensor(hamilton(), hamilton())
    res = is_division_biquaternion(A)
    assert not res.division
    assert [str(d) for d in res.form.diag] == ["-1", "-1", "-1", "1", "1", "1"]
    # (a,b) x (a,b) is never division
    A2 = tensor(symbol_algebra(Q, 2, 5, 2), symbol_algebra(Q, 2, 5, 2))
    assert not is_division_biquaternion(A2).division
    # the Platonov configuration is division
    T = parse_field("Qp(5)((t1))((t2))")
    from skone.ktheory import laurent_var_element
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    AP = tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, 5, t2, 2))
    assert is_division_biquaternion(AP).division


def test_involution_types():
    A = tensor(hamilton(), hamilton())
    g1 = canonical_involution(A.tag.left)
    g2 = canonical_involution(A.tag.right)
    orth = tensor_involution(A, g1, g2)
    assert orth.kind() == "orthogonal"
    assert len(orth.symd_basis()) == 10
    sigma = make_symplectic_involution(A)
    assert sigma.kind() == "symplectic"
    assert len(sigma.symd_basis()) == 6
    one = A.one()
    assert sigma.apply(one) == one
    for k in range(A.dim):
        e = A.basis_element(k)
        assert sigma.apply(sigma.apply(e)) == e


@pytest.mark.parametrize("field", ["Q", "Qp(5)", "Qp(5)((t1))"])
def test_constructed_involutions_pass_the_involution_oracle(field):
    from skone.ktheory import laurent_var_element
    T = parse_field(field)
    d = laurent_var_element(T, "t1") if "t1" in field else T.elem(5)
    A = tensor(symbol_algebra(T, -1, -1, 2), symbol_algebra(T, 2, d, 2))
    Q1, Q2 = A.tag.left, A.tag.right
    g1, g2 = canonical_involution(Q1), canonical_involution(Q2)
    sigma = make_symplectic_involution(A)
    cases = {
        "canonical": g1,
        "conjugate": conjugate_involution(g2, Q2.generator("y")),
        "tensor": tensor_involution(A, g1, g2),
        "symplectic": sigma,
        "symplectic, s = xy": make_symplectic_involution(
            A, Q2.generator("x") * Q2.generator("y")),
        "conjugate of the symplectic": conjugate_involution(sigma, A.generator("x1")),
    }
    for name, inv in cases.items():
        assert involution_defect(inv) is None, name


def test_involution_oracle_flags_a_non_involution():
    H = hamilton()
    identity_map = Involution(H, [H.basis_element(k) for k in range(H.dim)])
    assert "sigma(e_" in involution_defect(identity_map)
    doubled = Involution(H, [H.basis_element(k).scale(2) for k in range(H.dim)])
    assert involution_defect(doubled) == "sigma does not fix 1"


def test_conjugate_involution_needs_sigma_s_to_be_plus_minus_s():
    H = hamilton()
    g = canonical_involution(H)
    s = H.one() + H.generator("x")     # g(s) = 1 - x, and Nrd(s) = 2
    with pytest.raises(InconsistentConstruction):
        conjugate_involution(g, s)
    assert conjugate_involution(g, H.one().scale(3)).kind() == "symplectic"
    assert conjugate_involution(g, H.generator("x")).kind() == "orthogonal"


def test_char2_involution_type():
    F2 = FiniteField(2)
    Qp2 = p_algebra(F2, 1, 1)
    g = canonical_involution(Qp2)
    assert g.kind() == "symplectic"   # 1 = u + sigma(u) lies in Symd


def test_pfaffian_examples():
    A = tensor(hamilton(), hamilton())
    sigma = make_symplectic_involution(A)
    pf = pfaffian_data(sigma, A.one())
    assert repr(pf.prp) == "X^2 + -2*X + 1"
    assert str(pf.trp) == "2" and str(pf.nrp) == "1"
    lam = Q.elem(3)
    pf = pfaffian_data(sigma, A.one().scale(lam))
    assert str(pf.nrp) == "9"
    rng = random.Random(4)
    for _ in range(100):
        x = A.element([rng.randint(-3, 3) for _ in range(16)])
        a = x + sigma.apply(x)
        pf = pfaffian_data(sigma, a)
        assert pf.prp * pf.prp == A.reduced_char_poly(a)
        assert pf.nrp * pf.nrp == A.nrd(a)
        assert pf.trp + pf.trp == A.trd(a)


def test_pfaffian_rejects_outsiders():
    A = tensor(hamilton(), hamilton())
    sigma = make_symplectic_involution(A)
    outside = A.generator("x2")   # sigma(x2) = -x2, so x2 is not in Symd
    assert not sigma.symd_contains(outside)
    with pytest.raises(InconsistentConstruction):
        pfaffian_data(sigma, outside)


@pytest.mark.parametrize("q", [2, 4])
def test_pfaffian_char2_branch(q):
    # the tensor of the two canonical involutions is symplectic in
    # characteristic 2, where Prp is the square root of Prd
    F = FiniteField(q)
    Q1, Q2 = p_algebra(F, 1, 1), p_algebra(F, 0, 1)
    A = tensor(Q1, Q2)
    sigma = tensor_involution(A, canonical_involution(Q1), canonical_involution(Q2))
    assert sigma.kind() == "symplectic"
    elems = list(F.elements())
    rng = random.Random(q)
    for _ in range(3):
        x = A.element([rng.choice(elems) for _ in range(A.dim)])
        a = x + sigma.apply(x)
        pf = pfaffian_data(sigma, a)
        assert pf.prp * pf.prp == A.reduced_char_poly(a)
        assert pf.nrp * pf.nrp == A.nrd(a)


def test_sl1_and_commutators():
    H = hamilton()
    assert is_sl1(H, H.one())
    assert is_sl1(H, H.generator("x"))
    rng = random.Random(7)
    for _ in range(100):
        x = random_invertible(H, rng)
        y = random_invertible(H, rng)
        assert is_sl1(H, commutator(H, x, y))


def test_symplectic_involution_anti_symmetric_choices():
    A = tensor(hamilton(), symbol_algebra(Q, 2, 5, 2))
    Q2 = A.tag.right
    for name in ("x", "y"):
        s = Q2.generator(name)
        sigma = make_symplectic_involution(A, s)
        assert sigma.kind() == "symplectic"
    s = Q2.generator("x") * Q2.generator("y")
    sigma = make_symplectic_involution(A, s)
    assert sigma.kind() == "symplectic"


def test_cyclic_kummer_matches_symbol():
    A = cyclic_kummer(Q, 2, 5, 2)
    x = A.generator("x")
    assert (x * x) == A.coerce(2)
    y = A.generator("y")
    assert (y * y) == A.coerce(5)


def test_cyclic_artin_schreier():
    F2 = FiniteField(2)
    A = cyclic_artin_schreier(F2, 1, 1)
    u = A.generator("u")
    assert u * u + u == A.coerce(1)
    assert A.reduced_char_poly(u).degree == 2


def test_cyclic_constructors_carry_the_symbol_and_p_algebra_tags():
    # cyclic_kummer is (a, b)_n and cyclic_artin_schreier is [a, b), tags
    # included, so every reader of a symbol or p-algebra reads them too
    assert cyclic_kummer(Q, 2, 5, 2).tag == symbol_algebra(Q, 2, 5, 2).tag
    F3 = FiniteField(3)
    assert cyclic_artin_schreier(F3, 1, 2).tag == p_algebra(F3, 1, 2).tag
    A = tensor(cyclic_kummer(Q, 2, 5, 2), cyclic_kummer(Q, 3, 7, 2))
    assert is_division_biquaternion(A).form.diag == \
        is_division_biquaternion(tensor(symbol_algebra(Q, 2, 5, 2),
                                        symbol_algebra(Q, 3, 7, 2))).form.diag


def test_albert_form_refuses_every_char2_tensor_as_unsupported():
    F2 = FiniteField(2)
    for A in (tensor(p_algebra(F2, 1, 1), p_algebra(F2, 1, 1)),
              tensor(cyclic_artin_schreier(F2, 1, 1), p_algebra(F2, 1, 1))):
        with pytest.raises(UnsupportedTower):
            albert_form(A)
    with pytest.raises(InconsistentConstruction):
        albert_form(symbol_algebra(Q, 2, 5, 2))


def test_involution_type_stable_under_base_change():
    # rebuild the same presentation over a splitting p-adic tower: the
    # dimension-count type test gives the same answer
    for base in (Q, parse_field("Qp(5)"), parse_field("Qp(13)")):
        A = tensor(symbol_algebra(base, -1, -1, 2),
                   symbol_algebra(base, -1, 3, 2))
        sigma = make_symplectic_involution(A)
        assert sigma.kind() == "symplectic"
        g1 = canonical_involution(A.tag.left)
        g2 = canonical_involution(A.tag.right)
        assert tensor_involution(A, g1, g2).kind() == "orthogonal"


def test_splitting_embedding_satisfies_relations():
    # the regular-representation matrices over K obey the defining relations
    from skone.poly import scalar_of
    H = hamilton()
    K, mats = H._cyclic_data()
    x_idx, y_idx = H.gens["x"], H.gens["y"]
    Lx, Ly = mats[x_idx], mats[y_idx]

    def mat_mul(a, b):
        n = len(a)
        return [[sum_q(K, [a[i][k] * b[k][j] for k in range(n)])
                 for j in range(n)] for i in range(n)]

    def sum_q(Kr, vals):
        acc = Kr.zero()
        for v in vals:
            acc = acc + v
        return acc

    xx = mat_mul(Lx, Lx)
    for i in range(2):
        for j in range(2):
            want = K.coerce(-1) if i == j else K.zero()
            assert (xx[i][j] - want).is_zero()
    xy = mat_mul(Lx, Ly)
    yx = mat_mul(Ly, Lx)
    for i in range(2):
        for j in range(2):
            assert (xy[i][j] + yx[i][j]).is_zero()


def test_constructors_pass_the_associativity_oracle():
    from skone.ktheory import laurent_var_element
    T = parse_field("Qp(109)[zeta_9]((t1))((t2))")
    t1, t2 = laurent_var_element(T, "t1"), laurent_var_element(T, "t2")
    F7 = FiniteField(7)
    cases = {
        "symbol n=2 over Q": symbol_algebra(Q, 2, -3, 2),
        "symbol n=3 over Q[zeta_3]": symbol_algebra(parse_field("Q[zeta_3]"), 2, 5, 3),
        "symbol n=2 over F_7": symbol_algebra(F7, 3, 5, 2),
        "symbol n=3 over F_7": symbol_algebra(F7, 3, 5, 3),
        "symbol n=2 over the tower": symbol_algebra(T, 6, t1, 2),
        "symbol n=3 over the tower": symbol_algebra(T, 109, t2, 3),
        "p-algebra over F_2": p_algebra(FiniteField(2), 1, 1),
        "p-algebra over F_3": p_algebra(FiniteField(3), 2, 2),
        "twisted lift": twisted_lift_quaternion(Q, 1, 3),
        "cyclic Kummer": cyclic_kummer(Q, 2, 5, 2),
        "cyclic Artin-Schreier": cyclic_artin_schreier(FiniteField(3), 1, 2),
        "tensor of two quaternions": tensor(hamilton(), symbol_algebra(Q, 2, 5, 2)),
    }
    for name, A in cases.items():
        assert associativity_defect(A.table) is None, name


def test_degree5_symbol_passes_the_sampled_oracle():
    A = symbol_algebra(parse_field("Q[zeta_5]"), 2, 3, 5)
    rng = random.Random(5)
    triples = [tuple(rng.randrange(A.dim) for _ in range(3)) for _ in range(1000)]
    assert associativity_defect(A.table, triples) is None


def test_oracle_flags_a_non_associative_table():
    one = Q.one()
    # e1 e1 = e2, e1 e2 = e0, e2 e1 = e1: (e1 e1) e1 = e1 but e1 (e1 e1) = e0
    table = [[[(0, one)], [(1, one)], [(2, one)]],
             [[(1, one)], [(2, one)], [(0, one)]],
             [[(2, one)], [(1, one)], [(2, one)]]]
    assert associativity_defect(table) is not None
    table[0][1] = [(1, one + one)]
    assert "unit" in associativity_defect(table)


@pytest.mark.parametrize("build", [
    lambda: twisted_lift_quaternion(Q, 1, 0),
    lambda: symbol_algebra(Q, -1, 0, 2),
    lambda: p_algebra(FiniteField(2), 1, 0),
], ids=["twisted_lift", "symbol", "p_algebra"])
def test_zero_b_is_rejected(build):
    with pytest.raises(InconsistentConstruction):
        build()


def test_sigma_not_a_ring_map_is_rejected():
    # the oracle's relation checks, which the closed-form constructors hold
    # by their formulas: K = Q[u]/(u^2 - 2); sigma(u) = 1 - u has sigma^2 = id, but
    # (1 - u)^2 = 3 - 2u != 2, so sigma is not a ring endomorphism of K
    with pytest.raises(InconsistentConstruction):
        cyclic_presentation(Q, [Q.elem(-2), Q.zero()], [Q.one(), -Q.one()],
                            2, Q.elem(3), tag=None)


def test_sigma_of_wrong_order_is_rejected():
    # sigma(u) = -u is a ring automorphism of Q[u]/(u^2 - 2) of order 2,
    # so sigma^3 != id
    with pytest.raises(InconsistentConstruction):
        cyclic_presentation(Q, [Q.elem(-2), Q.zero()], [Q.zero(), -Q.one()],
                            3, Q.elem(3), tag=None)


def test_degree7_symbol_relations():
    A = symbol_algebra(parse_field("Q[zeta_7]"), 2, 3, 7)
    x, y = A.generator("x"), A.generator("y")
    assert A.dim == 49
    assert x ** 7 == A.coerce(2)
    assert y ** 7 == A.coerce(3)
    assert x * y == (y * x).scale(A.tag.zeta)


def _symbol_oracle(base, a, b, n, zeta):
    """(a, b)_n through the generic cyclic presentation: K = base[x]/(x^n - a),
    sigma(x) = zeta^{-1} x, with its relation checks and K-products."""
    return cyclic_presentation(base, [-a] + [base.zero()] * (n - 1),
                               [base.zero(), zeta.inverse()], n, b, tag=None)


def _slot(T, s):
    """A slot over T: an int, or an expression in the Laurent variables and,
    over F(q) with q not prime, its generator g."""
    from skone.exprs import parse_element
    binds = {"g": T.generator()} if isinstance(T, FiniteField) and T.e > 1 else {}
    return parse_element(str(s), T, binds)


@pytest.mark.parametrize("desc, n, a, b", [
    ("Q", 2, 2, -3),
    ("Q[zeta_3]", 2, 5, 7),
    ("Q[zeta_3]", 3, 2, 5),
    ("Q[zeta_5]", 2, -1, 3),
    ("Q[zeta_5]", 5, 2, 3),
    ("F(7)", 2, 3, 5),
    ("F(7)", 3, 3, 5),
    ("Qp(17)((t1))((t2))", 2, 3, "t1"),
    ("Qp(17)((t1))((t2))", 2, 17, "t2"),
    ("Qp(109)[zeta_9]((t1))((t2))", 2, 6, "t1"),
    ("Qp(109)[zeta_9]((t1))((t2))", 3, 6, "t1"),
    ("Qp(109)[zeta_9]((t1))((t2))", 3, 109, "t2"),
    ("Qp(251)[zeta_25]((t1))((t2))", 2, "t2", 6),
    ("Qp(251)[zeta_25]((t1))((t2))", 5, 6, "t1"),
    ("Qp(251)[zeta_25]((t1))((t2))", 5, 251, "t2"),
])
def test_closed_form_symbol_matches_the_cyclic_presentation(desc, n, a, b):
    # every table entry and the regular representation (Lu, Lv) over K,
    # against the generic builder
    T = parse_field(desc)
    a, b = _slot(T, a), _slot(T, b)
    zeta, _ = primitive_root_of_unity(T, n)
    A = symbol_algebra(T, a, b, n, zeta)
    assert A._table is None
    _assert_same_presentation(A, _symbol_oracle(T, a, b, n, zeta))


def _assert_same_presentation(A, want):
    """Labels, generators, degree, period bound, every table entry and the
    regular representation (Lu, Lv) over K of A equal the oracle's."""
    assert (A.labels, A.gens, A.degree, A.period_bound) == \
        (want.labels, want.gens, want.degree, want.period_bound)
    for i in range(A.dim):
        for j in range(A.dim):
            got, exp = A.table[i][j], want.table[i][j]
            assert [k for k, _ in got] == [k for k, _ in exp], (i, j)
            assert all(c == d for (_, c), (_, d) in zip(got, exp)), (i, j)
    K, Lu, Lv = A._cyclic
    K_want, Lu_want, Lv_want = want._cyclic
    assert (len(Lu), len(Lv)) == (len(Lu_want), len(Lv_want)) == (A.degree,) * 2
    assert all(c == d for c, d in zip(K.modulus, K_want.modulus))
    for M, M_want in ((Lu, Lu_want), (Lv, Lv_want)):
        for row, row_want in zip(M, M_want):
            for e, e_want in zip(row, row_want):
                assert all(c == d for c, d in zip(e.vec, e_want.vec))


@pytest.mark.parametrize("desc, a, b", [
    ("F(2)", 1, 1), ("F(2)", 0, 1),
    ("F(3)", 1, 2), ("F(3)", 2, 1), ("F(3)", 0, 2),
    ("F(4)", "g", 1), ("F(4)", 1, "g+1"), ("F(4)", "g", "g"),
    ("F(5)", 2, 3), ("F(5)", 1, 4), ("F(5)", 4, 2),
    ("F(7)", 3, 5), ("F(7)", 6, 1),
    ("F(9)", "g", 2), ("F(9)", 1, "g"), ("F(9)", "g+1", "g"),
    ("F(2)((t))", "t", 1), ("F(2)((t))", 1, "t"), ("F(2)((t))", "t+1", "t"),
    ("F(3)((t))", "t", 2), ("F(3)((t))", 2, "t"), ("F(3)((t))", "1/t", "t+2"),
])
def test_p_algebra_matches_the_cyclic_presentation(desc, a, b):
    # [a, b)_p written from sigma^s(u) = u - s against the generic constructor,
    # which walks sigma(u) = u - 1 and checks its relations
    T = parse_field(desc)
    a, b = _slot(T, a), _slot(T, b)
    p = T.characteristic
    A = p_algebra(T, a, b)
    assert A._table is None
    want = cyclic_presentation(T, [-a, -T.one()] + [T.zero()] * (p - 2),
                               [-T.one(), T.one()], p, b, tag=None,
                               gen_names=("u", "v"))
    _assert_same_presentation(A, want)
    assert A.period_bound == p


@pytest.mark.parametrize("desc, a, b", [
    ("Q", 1, 3), ("Q", 2, 5), ("Q", -3, 7), ("Q", 0, -1), ("Q", 5, 3),
    ("Qp(2)", 1, 3), ("Qp(2)", 3, 2), ("Qp(2)", 5, 6), ("Qp(2)", 9, -1),
    ("Q((t))", "t", 3), ("Q((t))", 2, "t"), ("Q((t))", 1, 5), ("Q((t))", "t", "t"),
])
def test_twisted_lift_matches_the_cyclic_presentation(desc, a, b):
    # u^2 + u = a, v^2 = b, sigma(u) = -1 - u against the generic constructor
    T = parse_field(desc)
    a, b = _slot(T, a), _slot(T, b)
    A = twisted_lift_quaternion(T, a, b)
    assert A._table is None
    want = cyclic_presentation(T, [-a, T.one()], [-T.one(), -T.one()], 2, b,
                               tag=None, gen_names=("u", "v"))
    _assert_same_presentation(A, want)
    assert A.period_bound == 2


def test_symbol_algebra_needs_a_primitive_root_of_unity():
    # zeta = 1 would make (2, 3)_2 commutative
    with pytest.raises(InconsistentConstruction, match="primitive"):
        symbol_algebra(Q, 2, 3, 2, zeta=Q.one())
    Qz = parse_field("Q[zeta_3]")
    with pytest.raises(InconsistentConstruction, match="3-th root of unity"):
        symbol_algebra(Qz, 2, 3, 3, zeta=Qz.elem(2))
    zeta3, _ = primitive_root_of_unity(Qz, 3)
    # zeta_3^6 = 1, but zeta_3^(6/2) = 1 too
    with pytest.raises(InconsistentConstruction, match="primitive"):
        symbol_algebra(Qz, 2, 3, 6, zeta=zeta3)
    assert symbol_algebra(Qz, 2, 3, 6, zeta=-zeta3).tag.zeta == -zeta3


@pytest.mark.parametrize("n, p, a", [(2, 17, 3), (3, 109, 6)])
def test_platonov_pipeline_builds_no_symbol_table(monkeypatch, capsys, n, p, a):
    # the pipeline reads tags, Brauer classes and residues, never a table
    import pathlib
    import runpy

    import skone.algebras
    script = pathlib.Path(__file__).parents[1] / "scripts" / "platonov_demo.py"
    run_one = runpy.run_path(str(script), run_name="platonov_demo")["run_one"]
    built = []

    def recording(*args, **kwargs):
        built.append(symbol_algebra(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(skone.algebras, "symbol_algebra", recording)
    monkeypatch.setitem(run_one.__globals__, "symbol_algebra", recording)
    run_one(n, p, a)
    assert "SK1(A) = Z/" in capsys.readouterr().out
    assert len(built) == (6 if n == 2 else 2)
    assert all(A._table is None for A in built)
