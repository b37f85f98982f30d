import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    artin_schreier_roots,
    diagonalize_gram_oracle,
    first_isotropic_vector,
    local_invariants,
    qp_ternary_solvable,
    springer_brute_isotropy,
    square_class_rep_2,
    witness_box_search,
)
from skone.errors import Undecided
from skone.fields import FiniteField, PAdicDescriptor, Rationals, is_nth_power, parse_field
from skone.forms import (
    SIGNATURE_CLASS,
    QuadraticForm,
    WittClass,
    arf_invariant,
    bilinear_mult,
    diagonalize_gram,
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


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_arf_by_the_trace_matches_x2_plus_x_enumeration(q):
    # Arf is trivial iff sum a_i b_i = x^2 + x has a root; the nonzero Witt
    # class is [1, c] for the first c without one
    F = FiniteField(q)
    elems = list(F.elements())
    rng = random.Random(q)
    for c in elems:
        assert arf_invariant(QuadraticForm(F, (), [(F.one(), c)])).is_trivial \
            == artin_schreier_roots(c)
    for _ in range(20):
        blocks = [(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randint(1, 3))]
        assert arf_invariant(QuadraticForm(F, (), blocks)).is_trivial \
            == artin_schreier_roots(sum((a * b for a, b in blocks), F.zero()))
    first = next(c for c in elems if not artin_schreier_roots(c))
    kernel = witt_class(QuadraticForm(F, (), [(F.one(), first), (F.one(), F.zero())])).kernel
    assert kernel.blocks == ((F.one(), first),)


def test_char2_pfister_and_witt():
    F2 = FiniteField(2)
    q = pfister(F2, [1, 1])
    assert q.dim == 4 and len(q.blocks) == 2
    c = witt_class(q)
    assert c.is_zero()  # slot 1 kills a Pfister form in char 2 as well


@pytest.mark.parametrize("q", [2, 4])
def test_char2_i_level_over_a_finite_field_is_certified(q):
    # the Arf invariant is an isomorphism W_q(F_q) = Z/2: a nonzero class is
    # in I_q \ I^2_q = 0, the zero class in every I^n_q
    F = FiniteField(q)
    units = [x for x in F.elements() if not x.is_zero()]
    levels = set()
    for a in units:
        for b in F.elements():
            binary = QuadraticForm(F, (), [(a, b)])
            lvl = i_level(witt_class(binary))
            nonzero = not artin_schreier_roots(a * b)
            assert lvl.certified, (a, b)
            assert lvl.level == (1 if nonzero else 4), (a, b)
            levels.add(lvl.level)
            double = QuadraticForm(F, (), [(a, b), (a, b)])
            assert i_level(witt_class(double)).level == 4
    assert levels == {1, 4}


def test_char2_i_level_over_laurent_towers_stays_unverified():
    from skone.ktheory import laurent_var_element
    T = parse_field("F(2)((t))")
    t = laurent_var_element(T, "t")
    c = WittClass(T, QuadraticForm(T, (), [(T.one(), t)]))
    lvl = i_level(c)
    assert (lvl.level, lvl.certified) == (1, False)


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
    for p in (2, 3, 5, 7, 11):
        K = PAdicDescriptor(p)
        rng = random.Random(p)
        for _ in range(60):
            a = rng.choice([x for x in range(-20, 21) if x])
            b = rng.choice([x for x in range(-20, 21) if x])
            q = QuadraticForm(K, [a, b, -1])
            assert isotropy(q).isotropic == qp_ternary_solvable(a, b, p), (a, b, p)


def _expected_padic_level(diag, p):
    """The I^n level of <diag> over Q_p from the oracle's invariants, with
    the discriminant's square class found by brute force."""
    if len(diag) % 2:
        return 0
    inv = local_invariants(diag, places=[p])
    d = inv["disc"]
    if p == 2:
        square = square_class_rep_2(d) == 1
    else:
        square = d % p != 0 and any((x * x - d) % p == 0 for x in range(1, p))
    if not square:
        return 1
    hyperbolic = local_invariants([1, -1] * (len(diag) // 2), places=[p])
    return 4 if inv["hasse"][p] == hyperbolic["hasse"][p] else 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(min_value=-30, max_value=30).filter(bool),
                min_size=1, max_size=6))
def test_padic_i_level_against_local_invariants(p, diag):
    c = witt_class(QuadraticForm(PAdicDescriptor(p), diag))
    assert i_level(c).level == _expected_padic_level(diag, p), (p, diag, c)


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


@pytest.mark.xfail(strict=True, raises=Undecided,
                   reason="ROADMAP item 4: <-5, 1330, 133> is isotropic, but the "
                          "box ladder of _witness_search holds no zero of it")
def test_witt_class_box_search_gap():
    witt_class(QuadraticForm(Q, [2, 60, -14, 4, -14, 12, 2, -14, 2, -14, 2, 12, -24,
                                 -8, -8, -120, 20, 4, 20, 60, 2, -120, -40, -24, -40]))


@pytest.mark.xfail(strict=True, raises=Undecided,
                   reason="ROADMAP item 4: 9<1> _|_ 8<-7> has no isotropic subform of "
                          "dimension 3 or 4, and its support-5 zeros lie past the "
                          "cost gate of _witness_search's ladder")
def test_witt_class_box_search_gap_no_small_isotropic_subform():
    witt_class(QuadraticForm(Q, [1] * 9 + [-7] * 8))


@st.composite
def rational_grams(draw):
    """Symmetric rational Gram matrices of dimension 1-16: full, with a zero
    diagonal, of low rank (B^T D B), or with all-zero rows and columns."""
    n = draw(st.integers(1, 16))
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4]))
    shape = draw(st.sampled_from(["full", "zero_diagonal", "low_rank", "zero_block"]))
    if shape == "low_rank":
        k = draw(st.integers(0, n - 1))
        b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        d = [draw(entry) for _ in range(k)]
        return [[sum(d[r] * b[r][i] * b[r][j] for r in range(k)) for j in range(n)]
                for i in range(n)]
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    if shape == "zero_diagonal":
        for i in range(n):
            g[i][i] = Fraction(0)
    elif shape == "zero_block":
        dead = draw(st.sets(st.integers(0, n - 1)))
        g = [[Fraction(0) if i in dead or j in dead else x for j, x in enumerate(row)]
             for i, row in enumerate(g)]
    return g


@settings(max_examples=80, deadline=None)
@given(rational_grams())
def test_integer_diagonalisation_matches_the_oracle(gram):
    assert [str(d) for d in diagonalize_gram(gram, Q)] == \
        [str(d) for d in diagonalize_gram_oracle(gram, Q)]


def test_definite_i3_form_keeps_witness_splitting():
    c = witt_class(pfister(Q, [-1, -1, -1]))
    assert c.provenance == "witness splitting"
    assert [str(d) for d in c.kernel.diag] == ["1"] * 8
    # made indefinite by <<3,5,7>> (signature 0), the same class is decided
    c = witt_class(QuadraticForm(Q, [1] * 8 + [2, -2]).perp(pfister(Q, [3, 5, 7])))
    assert c.provenance == SIGNATURE_CLASS
    assert [str(d) for d in c.kernel.diag] == ["1"] * 8 and c.hyperbolic_rank == 5


def test_char2_witt_kernel_is_the_first_element_of_trace_one():
    # every anisotropic class over F(2^e) is [1, c] for the first c in
    # elements() order for which x^2 + x = c has no root, up to F(256)
    for e in range(1, 9):
        F = FiniteField(2 ** e)
        elems = list(itertools.islice(F.elements(), 16))
        first = next(c for c in F.elements() if not artin_schreier_roots(c))
        for c in (c for c in elems if not artin_schreier_roots(c)):
            for a in elems[1:4]:
                wc = witt_class(QuadraticForm(F, (), [(a, c / a), (a, F.zero())]))
                assert wc.hyperbolic_rank == 1, (e, c, a)
                assert wc.kernel.blocks == ((F.one(), first),), (e, c, a)


def test_finite_isotropy_witness_is_the_first_zero_in_dimension_four():
    # 101^4 vectors: the witness is built coordinate by coordinate, and it is
    # the first zero an enumeration would meet
    F = FiniteField(101)
    q = QuadraticForm(F, [1, 2, 3, 5])
    res = isotropy(q)
    assert res.isotropic and res.certificate == "dim >= 3 over F_q (Chevalley-Warning)"
    assert [str(x) for x in res.witness] == ["0", "1", "1", "10"]
    assert q.eval(list(res.witness)).is_zero()


@st.composite
def finite_forms(draw):
    """Forms over F_q with q^dim <= 2*10^4: diagonal for odd q; for q = 2^e
    binary blocks (zero entries allowed) mixed with diagonal entries."""
    q = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 2, 4, 8, 16]))
    F = FiniteField(q)
    elems = list(F.elements())
    max_dim = max(n for n in range(1, 6) if q ** n <= 20000)
    if q % 2:
        dim = draw(st.integers(1, min(4, max_dim)))
        return QuadraticForm(F, draw(st.lists(st.sampled_from(elems[1:]),
                                              min_size=dim, max_size=dim)))
    n_blocks = draw(st.integers(0, max_dim // 2))
    n_diag = draw(st.integers(0 if n_blocks else 1, max_dim - 2 * n_blocks))
    blocks = draw(st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(elems)),
                           min_size=n_blocks, max_size=n_blocks))
    diag = draw(st.lists(st.sampled_from(elems[1:]), min_size=n_diag, max_size=n_diag))
    return QuadraticForm(F, diag, blocks)


@settings(max_examples=150, deadline=None)
@given(finite_forms())
def test_finite_isotropy_matches_the_enumeration(q):
    res = isotropy(q)
    assert res.witness == first_isotropic_vector(q)
    assert res.isotropic == (res.witness is not None)


def test_finite_binary_anisotropy_is_one_square_test(monkeypatch):
    # <1, -c> with c the least non-square of F(401): decided without any
    # walk over the field
    F = FiniteField(401)
    c = next(x for x in F.elements() if not x.is_zero() and not is_nth_power(x, 2))
    monkeypatch.setattr(FiniteField, "elements", None)
    res = isotropy(QuadraticForm(F, [1, -c]))
    assert not res.isotropic and res.certificate == "binary: -a1 a2 is not a square"


def test_finite_isotropy_in_a_large_char2_field():
    F = FiniteField(2 ** 11)
    res = isotropy(QuadraticForm(F, [1, 1, 1]))
    assert res.isotropic and res.certificate == "dim >= 3 over F_q (Chevalley-Warning)"
    assert [str(x) for x in res.witness] == ["0", "1", "1"]
