import itertools
import random

import pytest

from oracles import (
    IntQuot,
    all_witt_vectors,
    artin_schreier_image,
    brute_character_order,
    check_lift_relations,
    ghost_check,
    greedy_as_solution,
    structure_constants_match,
    sympy_witt_polynomials,
)
from skone.algebras import p_algebra, symbol_algebra, tensor
from skone.fields import FiniteField, Rationals, parse_field
from skone.wittvec import (
    CharacterDatum,
    LiftDatum,
    LogDiffClass,
    WittVector,
    _canonical_as_solution,
    _embed_ff,
    character_order,
    coh_lift_equal,
    i_star,
    kato_phi,
    lift_algebra,
    pi_projection,
    r_coh_list,
    truncate,
    universal_witt_polynomials,
    witt_trace,
    witt_zero,
)


def lift_of(w: WittVector, modulus):
    """Integer polynomial lift of the components (payload digits as ints)."""
    F = w.tower
    return [IntQuot(list(c.payload), modulus) for c in w.components]


def test_w2_f2_is_z4():
    F2 = FiniteField(2)
    one = WittVector(F2, [1, 0])
    table = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}

    def key(w):
        return tuple(int(str(c)) for c in w.components)

    for u in table:
        for v in table:
            s = WittVector(F2, list(u)) + WittVector(F2, list(v))
            assert table[key(s)] == (table[u] + table[v]) % 4
            m = WittVector(F2, list(u)) * WittVector(F2, list(v))
            assert table[key(m)] == (table[u] * table[v]) % 4
    assert key(one + one) == (0, 1)


def test_neg_formula_char2():
    F4 = FiniteField(4)
    for w in all_witt_vectors(F4, 2):
        nw = -w
        a0, a1 = w.components
        assert nw == WittVector(F4, [a0, a1 + a0 * a0])
        assert (w + nw).is_zero()


@pytest.mark.parametrize("p,l", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_ghost_oracle_exhaustive_prime_field(p, l):
    F = FiniteField(p)
    modulus = tuple(F.modulus[:-1])
    vecs = list(all_witt_vectors(F, l))
    for u in vecs:
        for v in vecs:
            s = u + v
            assert ghost_check("add", lift_of(u, modulus), lift_of(v, modulus),
                               lift_of(s, modulus), p, l)
            m = u * v
            assert ghost_check("mul", lift_of(u, modulus), lift_of(v, modulus),
                               lift_of(m, modulus), p, l)
        n = -u
        assert ghost_check("neg", lift_of(u, modulus), None,
                           lift_of(n, modulus), p, l)


@pytest.mark.parametrize("p,l", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_ghost_oracle_random_quadratic_extension(p, l):
    F = FiniteField(p * p)
    modulus = tuple(F.modulus[:-1])
    rng = random.Random(p * 10 + l)
    elems = list(F.elements())
    for _ in range(200):
        u = WittVector(F, [rng.choice(elems) for _ in range(l)])
        v = WittVector(F, [rng.choice(elems) for _ in range(l)])
        s = u + v
        assert ghost_check("add", lift_of(u, modulus), lift_of(v, modulus),
                           lift_of(s, modulus), p, l)
        m = u * v
        assert ghost_check("mul", lift_of(u, modulus), lift_of(v, modulus),
                           lift_of(m, modulus), p, l)
        n = -u
        assert ghost_check("neg", lift_of(u, modulus), None,
                           lift_of(n, modulus), p, l)


@pytest.mark.parametrize("op", ["add", "mul", "neg"])
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_universal_polynomials_match_sympy(p, l, op):
    assert universal_witt_polynomials(p, l, op) == sympy_witt_polynomials(p, l, op)


def test_frobenius():
    F2 = FiniteField(2)
    w = WittVector(F2, [1, 1])
    assert w.frobenius() == w
    F4 = FiniteField(4)
    g = F4.generator()
    w = WittVector(F4, [g, F4.zero()])
    assert w.frobenius() == WittVector(F4, [g * g, F4.zero()])
    assert not (g * g == g)
    rng = random.Random(1)
    elems = list(F4.elements())
    for _ in range(50):
        u = WittVector(F4, [rng.choice(elems) for _ in range(2)])
        v = WittVector(F4, [rng.choice(elems) for _ in range(2)])
        assert (u + v).frobenius() == u.frobenius() + v.frobenius()


def test_pi_projection():
    F2 = FiniteField(2)
    assert pi_projection(WittVector(F2, [1, 1])) == WittVector(F2, [1])
    # order-2 elements (0, a) map to 0
    assert pi_projection(WittVector(F2, [0, 1])).is_zero()
    # doubling lands in (0, *), so r kills 2 * anything
    for w in all_witt_vectors(F2, 2):
        d = w + w
        assert pi_projection(d).is_zero()


def test_logdiff_relators():
    F4 = FiniteField(4)
    g = F4.generator()
    one = F4.elem(1)
    # (i) repeated slots
    c = LogDiffClass(F4, 2, 2, [(WittVector(F4, [g, 0]), (g + one, g + one))])
    assert c.is_syntactically_zero()
    # (ii) single-component Witt part matching a slot
    c = LogDiffClass(F4, 2, 1, [(WittVector(F4, [g, 0]), (g,))])
    assert c.is_syntactically_zero()
    c = LogDiffClass(F4, 2, 1, [(WittVector(F4, [0, g]), (g,))])
    assert c.is_syntactically_zero()
    # (iii) (F - 1) image
    w = WittVector(F4, [g, one]).frobenius() - WittVector(F4, [g, one])
    c = LogDiffClass(F4, 2, 1, [(w, (g + one,))])
    assert c.is_syntactically_zero()
    # normalizer idempotent on a surviving class
    c = LogDiffClass(F4, 2, 1, [(WittVector(F4, [one, 0]), (g,))])
    again = LogDiffClass(F4, 2, 1, c.terms)
    assert repr(c) == repr(again)


def test_h_q_plus_one_of_finite_fields():
    # degree-0 part: k / P(k); over F_2 the Artin-Schreier image is {0}
    F2 = FiniteField(2)
    img = artin_schreier_image(F2, 1)
    assert [str(w) for w in img] == ["(0)"]
    # q >= 1: every generator with a slot is killed over F_2 (only unit is 1)
    c = LogDiffClass(F2, 1, 1, [(WittVector(F2, [1]), (F2.elem(1),))])
    assert c.is_syntactically_zero()


def test_kato_phi_examples():
    F2 = FiniteField(2)
    Q2 = parse_field("Qp(2)")
    datum = LiftDatum(F2, Q2)
    c = kato_phi(datum, F2.elem(0), F2.elem(1), F2.elem(1), F2.elem(1))
    assert c.is_syntactically_zero()  # slot 1 + 4*0 = 1
    # nontrivial: declare lifts extending F4 slots
    F4 = FiniteField(4)
    g = F4.generator()
    datum4 = LiftDatum(F4, Q2)
    datum4.declare(g, 3)
    datum4.declare(g + F4.elem(1), 5)
    datum4.declare(F4.elem(1), 1)
    c = kato_phi(datum4, F4.elem(1), g, g + F4.elem(1), g)
    # {5, 3, 5, 3} mod 2 after lifting; survives normalisation as a 4-symbol
    assert c.degree == 4


def test_i_star_order4_character():
    F2 = FiniteField(2)
    datum = LiftDatum(F2, parse_field("Qp(2)"))
    ld = LogDiffClass(F2, 2, 0, [(WittVector(F2, [1, 0]), ())])
    img = i_star(ld, datum)
    assert len(img) == 1
    assert img[0].character.order == 4
    assert str(img[0].character.solution_field) == "F(16)"
    # solving verified: F(v) - v = w over the extension
    ch = img[0].character
    lifted_w = WittVector(ch.solution_field,
                          [ch.solution_field.elem(int(str(c)))
                           for c in ch.w.components])
    assert ch.solution.frobenius() - ch.solution == lifted_w


def test_i_star_r_compatibility_20_random():
    F4 = FiniteField(4)
    g = F4.generator()
    datum = LiftDatum(F4, parse_field("Qp(2)"))
    datum.declare(g, 3)
    datum.declare(g + F4.elem(1), 5)
    datum.declare(F4.elem(1), 1)
    rng = random.Random(7)
    elems = list(F4.elements())
    units = [x for x in elems if not x.is_zero()]
    checked = 0
    for _ in range(20):
        w = WittVector(F4, [rng.choice(elems), rng.choice(elems)])
        slots = tuple(rng.sample(units, k=rng.randint(1, 2)))
        ld = LogDiffClass(F4, 2, len(slots), [(w, slots)], normalized=True)
        left = r_coh_list(i_star(ld, datum, drop_trivial=False),
                          drop_trivial=False)
        right = i_star(ld.project(normalize=False), datum, drop_trivial=False)
        assert coh_lift_equal(left, right), (w, slots)
        checked += 1
    assert checked == 20


def test_lift_algebra_identities():
    # symbolic instance: a, b, c, d transcendental over Q via Laurent variables
    T = parse_field("Q((a))((b))((c))((d))")
    from skone.ktheory import laurent_var_element
    a = laurent_var_element(T, "a")
    b = laurent_var_element(T, "b")
    c = laurent_var_element(T, "c")
    d = laurent_var_element(T, "d")
    from skone.algebras import twisted_lift_quaternion
    tw = tensor(twisted_lift_quaternion(T, a, b), twisted_lift_quaternion(T, c, d))
    i1 = tw.generator("u1").scale(T.elem(2)) + tw.one()
    j1 = tw.generator("v1")
    assert (i1 * i1) == tw.one().scale(T.elem(4) * a + T.elem(1))
    assert (i1 * j1 + j1 * i1).is_zero()
    i2 = tw.generator("u2").scale(T.elem(2)) + tw.one()
    assert (i2 * i2) == tw.one().scale(T.elem(4) * c + T.elem(1))


def test_lift_algebra_numeric_instance():
    # a=1, b=3, c=2, d=5: structure constants of (5,3) (x) (9,5) reproduced
    F2 = FiniteField(2)
    A = tensor(p_algebra(F2, 1, 1), p_algebra(F2, 0, 1))
    datum = LiftDatum(F2, Rationals())
    # declared lifts: a=1->1, b=1->3, c=0->2, d=1->5 cannot reuse residue keys,
    # so drive the lift through a bespoke datum with per-slot declarations
    res = lift_with_slots(A, datum, [1, 3, 2, 5])
    assert check_lift_relations(res)
    assert structure_constants_match(res)
    tags = res.symbol_form.tag
    assert str(tags.left.tag.a) == "5" and str(tags.left.tag.b) == "3"
    assert str(tags.right.tag.a) == "9" and str(tags.right.tag.b) == "5"


@pytest.mark.parametrize("algebra, residue, fraction, lifts", [
    ((1, 1, 0, 1), "F(2)", "Q", ()),
    ((1, 1, 0, 1), "F(2)", "Qp(2)", ()),
    ((1, 1, 1, 1), "F(2)", "Q", ((1, 3),)),
    ((1, 1, 0, 1), "F(2)", "Q((t))", ((1, -7),)),
])
def test_lift_algebra_holds_by_construction(algebra, residue, fraction, lifts):
    # lift_algebra checks nothing at run time; the oracles check both facts
    F, K = parse_field(residue), parse_field(fraction)
    a, b, c, d = algebra
    A = tensor(p_algebra(F, a, b), p_algebra(F, c, d))
    datum = LiftDatum(F, K)
    for r, l in lifts:
        datum.declare(r, l)
    res = lift_algebra(A, datum)
    assert check_lift_relations(res)
    assert structure_constants_match(res)
    want = [K.elem(4) * datum.lift(x) + K.elem(1) for x in (a, c)]
    assert [res.symbol_form.tag.left.tag.a, res.symbol_form.tag.right.tag.a] == want


def test_lift_oracles_reject_a_wrong_generator_map():
    F2 = FiniteField(2)
    res = lift_with_slots(tensor(p_algebra(F2, 1, 1), p_algebra(F2, 0, 1)),
                          LiftDatum(F2, Rationals()), [1, 3, 2, 5])
    # x1 -> 2u1 - 1 squares to 4a + 1 - 8u1, not to 4a + 1
    res.generator_map["x1"] = res.twisted.generator("u1").scale(2) - res.twisted.one()
    assert not check_lift_relations(res)
    assert not structure_constants_match(res)


def lift_with_slots(A, datum, slots):
    """Helper: lift_algebra's construction with explicit integer lifts for
    (a, b, c, d)."""
    from skone.algebras import symbol_algebra, twisted_lift_quaternion
    from skone.wittvec import AlgebraLift
    K = datum.fraction_tower
    a, b, c, d = (K.elem(s) for s in slots)
    four, one = K.elem(4), K.elem(1)
    twisted = tensor(twisted_lift_quaternion(K, a, b),
                     twisted_lift_quaternion(K, c, d))
    symbol_form = tensor(symbol_algebra(K, four * a + one, b, 2),
                         symbol_algebra(K, four * c + one, d, 2))
    two = K.elem(2)
    images = {
        "x1": twisted.generator("u1").scale(two) + twisted.one(),
        "y1": twisted.generator("v1"),
        "x2": twisted.generator("u2").scale(two) + twisted.one(),
        "y2": twisted.generator("v2"),
    }
    return AlgebraLift(twisted, symbol_form, images)


def test_character_orders():
    F2 = FiniteField(2)
    assert character_order(WittVector(F2, [1, 0])) == 4
    assert character_order(WittVector(F2, [0, 1])) == 2
    assert character_order(WittVector(F2, [0, 0])) == 1


WITT_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2),
               (9, 1), (9, 2), (5, 2), (8, 2)]


@pytest.mark.parametrize("q,l", WITT_FIELDS)
def test_witt_trace_decides_the_artin_schreier_image(q, l):
    # W_l(F_q)/(F - 1)W_l(F_q) = Z/p^l through the trace: w is in the
    # enumerated image iff its trace is 0 (so relator (iii) kills w (x) 1),
    # its order is p^l/gcd(trace, p^l), and the trace is additive
    F = FiniteField(q)
    pl = F.p ** l
    image = artin_schreier_image(F, l)
    assert len(image) * pl == q ** l
    vectors = list(all_witt_vectors(F, l))
    for k, w in enumerate(vectors):
        in_image = any(w == img for img in image)
        assert (witt_trace(w) == 0) == in_image, w
        assert LogDiffClass(F, l, 0, [(w, ())]).is_syntactically_zero() == in_image
        if k < 40:
            assert character_order(w) == brute_character_order(w, image), w
            u = vectors[-1 - k]
            assert witt_trace(w + u) == (witt_trace(w) + witt_trace(u)) % pl, (w, u)


@pytest.mark.parametrize("q,l,order,field", [(3, 1, 3, "F(27)"), (2, 3, 8, "F(256)")])
def test_i_star_solves_over_the_degree_of_the_order(q, l, order, field):
    # characters of order 3 and 8 split over F(27) and F(256): the
    # extension degree is the order, whatever the prime
    F = FiniteField(q)
    datum = LiftDatum(F, parse_field(f"Qp({F.p})"))
    w = WittVector(F, [1] + [0] * (l - 1))
    img = i_star(LogDiffClass(F, l, 0, [(w, ())]), datum)
    assert len(img) == 1
    ch = img[0].character
    assert ch.order == order and str(ch.solution_field) == field
    E = ch.solution_field
    lifted_w = WittVector(E, [E.elem(int(str(c))) for c in ch.w.components])
    assert ch.solution.frobenius() - ch.solution == lifted_w


@pytest.mark.parametrize("q,l", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_artin_schreier_witt_solution_is_the_greedy_one(q, l):
    # the closed-form solve gives the solution the componentwise search
    # over F_(q^e) picks; over F(3) with l = 2 only characters of order <= 3,
    # whose F(27) the search can walk
    F = FiniteField(q)
    for w in all_witt_vectors(F, l):
        if q == 3 and l == 2 and not w.components[0].is_zero():
            continue
        v, Fe = _canonical_as_solution(w)
        wl = WittVector(Fe, [_embed_ff(c, Fe) for c in w.components])
        assert v == greedy_as_solution(Fe, wl), w
        assert v.frobenius() - v == wl, w


def test_character_data_of_i_star_match_the_greedy_solution():
    F4 = FiniteField(4)
    datum = LiftDatum(F4, parse_field("Qp(2)"))
    # w of trace 0 is a relator of the class, so only the others have an image
    for w in (w for w in all_witt_vectors(F4, 2) if witt_trace(w)):
        img = i_star(LogDiffClass(F4, 2, 0, [(w, ())]), datum, drop_trivial=False)
        ch = img[0].character
        E = ch.solution_field
        wl = WittVector(E, [_embed_ff(c, E) for c in w.components])
        assert ch == CharacterDatum(w, greedy_as_solution(E, wl), E,
                                    character_order(w), 2 ** 2), w
