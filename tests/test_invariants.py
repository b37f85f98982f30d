import random

import pytest

from oracles import nbar_oracle
from skone.algebras import (
    commutator,
    is_division_biquaternion,
    random_invertible,
    symbol_algebra,
    tensor,
)
from skone.errors import InconsistentConstruction, PrecisionExhausted
from skone.fields import Rationals, parse_field
from skone.forms import witt_equal_mod_i4
from skone.invariants import (
    PlatonovConfig,
    _idempotent_search,
    centre_symbol,
    centre_value_biquat,
    comparison_m_r,
    comparison_pi_r,
    hyperbolicity_check,
    kahn_bound,
    kahn_torsion,
    kmrt_eval,
    make_symplectic_involution,
    pi_m_composition_is_multiplication,
    pi_tilde_surjective,
    platonov_algebra,
    sk1_nontrivial_witness,
    sk1_platonov,
)
from skone.ktheory import laurent_var_element, relative_group

Q = Rationals()


def test_kahn_bound_examples():
    assert kahn_bound(4) == 2
    assert kahn_bound(12) == 2
    assert kahn_bound(7) == 1         # square-free: trivial bound
    assert kahn_bound(360) == nbar_oracle(360)
    for n in range(1, 400):
        assert kahn_bound(n) == nbar_oracle(n)


def test_kahn_torsion_examples():
    assert kahn_torsion([(3, 9, 3), (2, 4, 2)]) == 18
    assert kahn_torsion([(2, 4, 2)]) == 2
    assert kahn_torsion([(5, 5, 5)]) == 5
    assert kahn_torsion([(5, 25, 5)]) == 25
    with pytest.raises(InconsistentConstruction):
        kahn_torsion([(4, 4, 4)])          # 4 is not prime
    with pytest.raises(InconsistentConstruction):
        kahn_torsion([(3, 3, 9)])          # per does not divide ind
    with pytest.raises(InconsistentConstruction):
        kahn_torsion([(3, 9, 9)])          # odd p needs per = p


def test_sk1_platonov_n2():
    k = parse_field("Qp(17)")
    cfg = PlatonovConfig(k, 2, k.elem(3), k.elem(17))
    res = sk1_platonov(cfg)
    assert res.group == "Z/2" and res.group_order == 2
    assert res.division == "computed certificate"
    assert str(res.br_K.value) == "1/4"


def test_sk1_platonov_n3():
    k = parse_field("Qp(109)[zeta_27]")
    cfg = PlatonovConfig(k, 3, k.elem(6), k.elem(109))
    res = sk1_platonov(cfg)
    assert res.group == "Z/3"
    assert res.division == "paper-cited certificate"


def test_sk1_platonov_rejects_non_disjoint():
    k = parse_field("Qp(17)")
    with pytest.raises(InconsistentConstruction):
        sk1_platonov(PlatonovConfig(k, 2, k.elem(3), k.elem(3)))
    with pytest.raises(InconsistentConstruction):
        sk1_platonov(PlatonovConfig(k, 2, k.elem(4), k.elem(17)))  # a1 square


def test_sk1_order_divides_n():
    # output order always divides n and equals n under disjointness
    for p, n, a1, a2 in ((17, 2, 3, 17), (13, 4, 2, 13), (109, 3, 6, 109)):
        k = parse_field(f"Qp({p})")
        cfg = PlatonovConfig(k, n, k.elem(a1), k.elem(a2))
        res = sk1_platonov(cfg)
        assert res.group_order == n


def fixture_biquat():
    A = tensor(symbol_algebra(Q, -1, -1, 2), symbol_algebra(Q, -1, 3, 2))
    return A, make_symplectic_involution(A)


def test_kmrt_identity_is_zero():
    A, sigma = fixture_biquat()
    res = kmrt_eval(A, sigma, A.one())
    assert res.level.level >= 4


def test_kmrt_commutators_level4():
    A, sigma = fixture_biquat()
    rng = random.Random(23)
    for _ in range(5):
        c = commutator(A, random_invertible(A, rng, span=2),
                       random_invertible(A, rng, span=2))
        res = kmrt_eval(A, sigma, c)
        assert res.level.level >= 4
        assert res.is_zero_mod_i4()


def test_kmrt_conjugation_invariance():
    A, sigma = fixture_biquat()
    rng = random.Random(5)
    c = commutator(A, random_invertible(A, rng, span=2),
                   random_invertible(A, rng, span=2))
    base = kmrt_eval(A, sigma, c)
    for _ in range(3):
        g = random_invertible(A, rng, span=1)
        conj = g * c * A.inverse(g)
        res = kmrt_eval(A, sigma, conj)
        assert witt_equal_mod_i4(base.witt, res.witt)


def test_kmrt_v_and_sigma_independence():
    A, sigma = fixture_biquat()
    rng = random.Random(6)
    c = commutator(A, random_invertible(A, rng, span=2),
                   random_invertible(A, rng, span=2))
    r1 = kmrt_eval(A, sigma, c)
    # alternative admissible v: a scalar multiple satisfies the same relation
    w = -(sigma.apply(c) * c)
    v2 = (A.one() + w).scale(3)
    r2 = kmrt_eval(A, sigma, c, v_override=v2)
    assert witt_equal_mod_i4(r1.witt, r2.witt)
    # sigma choices
    Q2alg = A.tag.right
    for s in (Q2alg.generator("y"), Q2alg.generator("x") * Q2alg.generator("y")):
        sig = make_symplectic_involution(A, s)
        r3 = kmrt_eval(A, sig, c)
        assert witt_equal_mod_i4(r1.witt, r3.witt)


def test_kmrt_rejects_non_sl1():
    A, sigma = fixture_biquat()
    x = A.generator("x1") + A.one()   # Nrd = 4 for i^2 = -1 quaternion part
    if A.nrd(x).is_one():
        pytest.skip("unexpected SL1 element")
    with pytest.raises(InconsistentConstruction):
        kmrt_eval(A, sigma, x)


def test_centre_value_biquat():
    T = parse_field("Qp(5)[zeta_4]")
    cv = centre_value_biquat(T, 1, 3, 2, 5)
    assert cv.is_zero()
    assert cv.level.level == 4
    # square slot kills it over Q too
    cv = centre_value_biquat(parse_field("Qp(13)[zeta_4]"), 2, 9, 1, 7)
    assert cv.is_zero()
    with pytest.raises(InconsistentConstruction):
        centre_value_biquat(parse_field("Qp(7)"), 1, 3, 2, 5)  # no 4th root


def test_centre_symbol_platonov():
    T = parse_field("Qp(17)[zeta_4]((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    A = tensor(symbol_algebra(T, 3, t1, 2), symbol_algebra(T, 17, t2, 2))
    cs = centre_symbol(A)
    assert cs.certificate == "computed nonzero"
    assert cs.scalar.name == "j(0,2)"
    assert cs.lam is not None and "nonzero" in cs.lam.constraints[0]
    # square slot: forced zero
    A0 = tensor(symbol_algebra(T, 4, t1, 2), symbol_algebra(T, 17, t2, 2))
    cs0 = centre_symbol(A0)
    assert cs0.certificate == "computed zero"


def test_sk1_nontrivial_witness():
    T = parse_field("Qp(17)[zeta_4]((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    A = tensor(symbol_algebra(T, 3, t1, 2), symbol_algebra(T, 17, t2, 2))
    assert sk1_nontrivial_witness(A) is True
    A0 = tensor(symbol_algebra(T, 4, t1, 2), symbol_algebra(T, 17, t2, 2))
    assert sk1_nontrivial_witness(A0) == "no conclusion"


def test_comparison_maps_prop42():
    T = parse_field("Qp(5)((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    A = tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, 5, t2, 2))
    rel = relative_group(A, 1, 4)
    assert rel.order == 2
    # m_1: Z/2 -> Z/4 is multiplication by per = 2 (canonical injection)
    assert comparison_m_r(rel, 1) == 2
    assert comparison_m_r(rel, 0) == 0
    # pi_1: Z/4 -> Z/2 is reduction mod 2
    assert comparison_pi_r(rel, 3) == 1
    assert pi_m_composition_is_multiplication(rel)
    assert not pi_tilde_surjective(rel)


def test_platonov_algebra_constructor():
    k = parse_field("Qp(17)")
    cfg = PlatonovConfig(k, 2, k.elem(3), k.elem(17))
    A, T = platonov_algebra(cfg)
    assert A.dim == 16
    assert str(T) == "Qp(17)((t1))((t2))"


def seeded_involutions(A, rng, count):
    """The default symplectic involution, then gamma_1 (x) Int(s) gamma_2
    for seeded pure quaternions s of the right factor."""
    Q2 = A.tag.right
    x, y = Q2.generator("x"), Q2.generator("y")
    out = [make_symplectic_involution(A)]
    while len(out) < count:
        s = (x.scale(rng.randint(-2, 2)) + y.scale(rng.randint(-2, 2))
             + (x * y).scale(rng.randint(-2, 2)))
        if not Q2.nrd(s).is_zero():
            out.append(make_symplectic_involution(A, s))
    return out


@pytest.mark.parametrize("field, slots", [
    ("Q", (-1, -1, -1, 3)), ("Q", (2, 5, -1, -1)), ("Q", (1, 1, 1, 1)),
    ("Qp(5)", (2, 5, -1, -1))])
def test_hyperbolicity_decision_matches_idempotent_search(field, slots):
    T = parse_field(field)
    a, b, c, d = slots
    A = tensor(symbol_algebra(T, a, b, 2), symbol_algebra(T, c, d, 2))
    searched = 0
    for sigma in seeded_involutions(A, random.Random(sum(slots)), 4):
        decided = hyperbolicity_check(sigma)
        assert decided.hyperbolic in (True, False) and decided.witness is None
        assert "KMRT" in decided.provenance
        try:
            found = _idempotent_search(sigma)
        except PrecisionExhausted:
            # over Q_p the search's square roots are approximate, and its
            # products can cancel below the working precision
            continue
        searched += 1
        if found.hyperbolic:
            assert decided.hyperbolic is True
        if decided.hyperbolic is False:
            # no e with e^2 = e and sigma(e) = 1 - e in the search space
            assert found.hyperbolic is None
    assert searched


def test_hyperbolicity_decision_on_a_division_algebra():
    T = parse_field("Qp(17)((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    A = tensor(symbol_algebra(T, 3, t1, 2), symbol_algebra(T, 17, t2, 2))
    assert is_division_biquaternion(A).division
    for sigma in seeded_involutions(A, random.Random(17), 3):
        assert hyperbolicity_check(sigma).hyperbolic is False
