import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    local_invariants,
    qp_ternary_solvable,
    springer_brute_isotropy,
    witness_box_search,
)
from skone.fields import FiniteField, PAdicDescriptor, Rationals, parse_field
from skone.forms import (
    SIGNATURE_CLASS,
    QuadraticForm,
    arf_invariant,
    bilinear_mult,
    hilbert_symbol_rational,
    i_level,
    isotropy,
    pfister,
    witt_add,
    witt_class,
    witt_equal_mod_i4,
    witt_neg,
)

Q = Rationals()


def test_pfister_examples():
    q = pfister(Q, [3])
    assert [str(d) for d in q.diag] == ["1", "-3"]
    c = witt_class(pfister(Q, [1, 7]))
    assert c.is_zero()
    Q5 = PAdicDescriptor(5)
    c = witt_class(pfister(Q5, [4 * 1 + 1, 3, 4 * 2 + 1]))
    assert c.is_zero()
    assert i_level(c).level == 4


def test_pfister_represents_one():
    q = pfister(Q, [2, 3, 5])
    vec = [1] + [0] * (q.dim - 1)
    assert str(q.eval(vec)) == "1"


def test_isotropy_examples():
    r = isotropy(QuadraticForm(Q, [1, -1]))
    assert r.isotropic and tuple(map(str, r.witness)) == ("1", "1")
    F7 = FiniteField(7)
    r = isotropy(QuadraticForm(F7, [1, 1, 1]))
    assert r.isotropic and tuple(map(str, r.witness)) == ("1", "2", "3")
    # platonov albert form
    T = parse_field("Qp(5)((t1))((t2))")
    from skone.ktheory import laurent_var_element
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    u, p = T.elem(2), T.elem(5)
    r = isotropy(QuadraticForm(T, [u, t1, -(u * t1), -p, -t2, p * t2]))
    assert not r.isotropic
    assert "Springer" in r.certificate


def test_witt_laws():
    c = witt_class(QuadraticForm(Q, [2, 3, 5]))
    hyp = witt_class(QuadraticForm(Q, [1, -1]))
    assert witt_add(hyp, c).kernel.diag == c.kernel.diag
    z = witt_add(witt_class(QuadraticForm(Q, [1, 1])),
                 witt_class(QuadraticForm(Q, [-1, -1])))
    assert z.is_zero()
    rng = random.Random(1)
    for _ in range(30):
        diag = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(3)]
        c = witt_class(QuadraticForm(Q, diag))
        assert witt_add(c, witt_neg(c)).is_zero()


def test_bilinear_mult():
    # <1,-a> x <<b>>-class = <<a,b>>-class
    a, b = 3, 5
    lhs = bilinear_mult([1, -a], witt_class(pfister(Q, [b])))
    rhs = witt_class(pfister(Q, [a, b]))
    assert witt_add(lhs, witt_neg(rhs)).is_zero()


def test_i_level_examples():
    hyp = witt_class(QuadraticForm(Q, [1, -1]))
    assert i_level(hyp).level == 4
    c = witt_class(pfister(Q, [-1, -1, -1]))
    lvl = i_level(c)
    assert lvl.level == 3 and "signature 8" in lvl.detail
    c = witt_class(pfister(Q, [-1, -1, -1, -1]))
    assert i_level(c).level == 4
    # p-adic: nonzero class with trivial disc caps at level 2
    Q5 = PAdicDescriptor(5)
    c = witt_class(QuadraticForm(Q5, [1, -2, 5, -10]))  # norm form of (2,5)
    if not c.is_zero():
        assert i_level(c).level == 2


def test_i_level_laurent():
    T = parse_field("F(7)((s))((t))")
    s_elem = T.elem(T.base.monomial(1))
    t_elem = T.monomial(1)
    u = T.elem(3)  # nonsquare in F(7)
    q = pfister(T, [u, s_elem, t_elem])
    c = witt_class(q)
    lvl = i_level(c)
    assert lvl.level == 3, lvl
    q4 = pfister(T, [u, s_elem, t_elem, T.elem(5)])
    assert i_level(witt_class(q4)).level == 4


def test_arf_examples():
    F2 = FiniteField(2)
    q = QuadraticForm(F2, (), [(0, 0)])
    assert arf_invariant(q).is_trivial
    q = QuadraticForm(F2, (), [(1, 1)])
    assert not arf_invariant(q).is_trivial
    q = QuadraticForm(F2, (), [(1, 1), (1, 1)])
    assert arf_invariant(q).is_trivial


def test_char2_pfister_and_witt():
    F2 = FiniteField(2)
    q = pfister(F2, [1, 1])
    assert q.dim == 4 and len(q.blocks) == 2
    c = witt_class(q)
    assert c.is_zero()  # slot 1 kills a Pfister form in char 2 as well


def test_hilbert_symbol_product_formula():
    rng = random.Random(9)
    for _ in range(120):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        places = {"inf", 2}
        import sympy
        for n in (a, b):
            places |= {int(p) for p in sympy.factorint(abs(n))}
        prod = 1
        for v in places:
            prod *= hilbert_symbol_rational(Fraction(a), Fraction(b), v)
        assert prod == 1, (a, b)


def test_hasse_minkowski_vs_box_search():
    rng = random.Random(12)
    for _ in range(150):
        dim = rng.randint(2, 5)
        diag = [rng.choice([x for x in range(-30, 31) if x]) for _ in range(dim)]
        q = QuadraticForm(Q, diag)
        res = isotropy(q)
        found = witness_box_search(diag, 10)
        if found is not None:
            assert res.isotropic, (diag, found)
        if res.isotropic:
            assert res.witness is not None, diag
            assert sum(c * int(str(x)) ** 2
                       for c, x in zip(diag, res.witness)) == 0


def test_padic_isotropy_vs_springer_oracle():
    for p in (3, 5, 7, 11):
        K = PAdicDescriptor(p)
        rng = random.Random(p)
        for _ in range(60):
            a = rng.choice([x for x in range(-20, 21) if x])
            b = rng.choice([x for x in range(-20, 21) if x])
            q = QuadraticForm(K, [a, b, -1])
            assert isotropy(q).isotropic == qp_ternary_solvable(a, b, p), (a, b, p)


def test_springer_vs_truncated_search():
    for p in (3, 5, 7):
        T = parse_field(f"F({p})((s))((t))")
        s_elem = T.elem(T.base.monomial(1))
        t_elem = T.monomial(1)
        rng = random.Random(p + 100)
        for _ in range(40):
            dim = rng.randint(2, 4)
            monos = []
            entries = []
            for _ in range(dim):
                u = rng.randint(1, p - 1)
                es, et = rng.randint(0, 1), rng.randint(0, 1)
                monos.append((u, es, et))
                e = T.elem(u) * (s_elem ** es) * (t_elem ** et)
                entries.append(e)
            q = QuadraticForm(T, entries)
            assert isotropy(q).isotropic == springer_brute_isotropy(monos, p), monos


def test_witt_equal_mod_i4():
    c1 = witt_class(pfister(Q, [2, 3, 5, 7]))
    z = witt_class(QuadraticForm(Q, ()))
    assert witt_equal_mod_i4(c1, z)   # a 4-fold Pfister form lies in I^4
    c2 = witt_class(pfister(Q, [-1, -1, -1]))
    assert not witt_equal_mod_i4(c2, z)


def test_pfister_roundness_desk_scale():
    # every represented value v found by search satisfies [P] = [<v> P]
    F7 = FiniteField(7)
    rng = random.Random(77)
    for tower, picks in ((F7, [x for x in F7.elements() if not x.is_zero()]),
                         (Q, [Q.elem(x) for x in (2, 3, -1, 5)])):
        for _ in range(6):
            a, b = rng.choice(picks), rng.choice(picks)
            P = pfister(tower, [a, b])
            values = []
            if tower is Q:
                for vec in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (2, 1, 0, 1)):
                    val = P.eval([tower.elem(x) for x in vec])
                    if not val.is_zero():
                        values.append(val)
            else:
                for vec in itertools.product(list(F7.elements())[:4], repeat=4):
                    val = P.eval(list(vec))
                    if not val.is_zero():
                        values.append(val)
                        if len(values) >= 4:
                            break
            for v in values:
                scaled = P.scale(v)
                assert witt_add(witt_class(P), witt_neg(witt_class(scaled))).is_zero()


@given(st.integers(min_value=-20, max_value=20).filter(bool),
       st.integers(min_value=-20, max_value=20).filter(bool),
       st.integers(min_value=-20, max_value=20).filter(bool))
def test_witt_group_axioms_hypothesis(a, b, c):
    x = witt_class(QuadraticForm(Q, [a, b]))
    y = witt_class(QuadraticForm(Q, [c]))
    lhs = witt_add(witt_add(x, y), witt_neg(x))
    assert witt_add(lhs, witt_neg(y)).is_zero()


SLOTS = st.sampled_from([-1, -1, -1, 2, 3, -3, 5, -5, 6, 7, -7])
SMALL = st.integers(min_value=-7, max_value=7).filter(bool)


@st.composite
def i3_plus_small_forms(draw):
    """Scaled n-fold Pfister forms (n >= 3), hyperbolic planes and a small
    form (a random diagonal or a scaled 2-fold Pfister form), shuffled."""
    diag = []
    for _ in range(draw(st.integers(1, 2))):
        slots = draw(st.lists(SLOTS, min_size=3, max_size=4))
        c = draw(SMALL)
        diag += [c * int(str(d)) for d in pfister(Q, slots).diag]
    for a in draw(st.lists(SMALL, max_size=2)):
        diag += [a, -a]
    small = draw(st.sampled_from(["none", "diag", "pfister2"]))
    if small == "diag":
        diag += draw(st.lists(SMALL, min_size=1, max_size=3))
    elif small == "pfister2":
        c = draw(SMALL)
        diag += [c * int(str(d)) for d in pfister(Q, draw(st.lists(SLOTS, min_size=2,
                                                                    max_size=2))).diag]
    return draw(st.permutations(diag))


@settings(max_examples=40, deadline=None)
@given(i3_plus_small_forms())
def test_witt_class_against_local_invariants(diag):
    c = witt_class(QuadraticForm(Q, diag))
    kernel = [int(str(d)) for d in c.kernel.diag]
    assert len(kernel) + 2 * c.hyperbolic_rank == len(diag)
    assert not isotropy(c.kernel).isotropic
    # [q] = [kernel] iff q _|_ -kernel has the hyperbolic form's invariants
    diff = local_invariants(diag + [-d for d in kernel])
    hyperbolic = [1, -1] * ((len(diag) + len(kernel)) // 2)
    assert diff == local_invariants(hyperbolic, places=diff["hasse"]), (diag, kernel)


def test_definite_i3_form_keeps_witness_splitting():
    c = witt_class(pfister(Q, [-1, -1, -1]))
    assert c.provenance == "witness splitting"
    assert [str(d) for d in c.kernel.diag] == ["1"] * 8
    # made indefinite by <<3,5,7>> (signature 0), the same class is decided
    c = witt_class(QuadraticForm(Q, [1] * 8 + [2, -2]).perp(pfister(Q, [3, 5, 7])))
    assert c.provenance == SIGNATURE_CLASS
    assert [str(d) for d in c.kernel.diag] == ["1"] * 8 and c.hyperbolic_rank == 5
