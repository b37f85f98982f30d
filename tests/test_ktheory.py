import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    brute_dlog_mod_p,
    brute_dlog_table,
    qp_nth_power,
    qp_ternary_solvable,
    relative_group_oracle,
    residue_of_exact_order_scan,
    tame_norm_oracle,
    tame_symbol_log,
)
import skone.ktheory
from skone.algebras import symbol_algebra, tensor
from skone.errors import InconsistentConstruction, Undecided, UnsupportedTower
from skone.fields import (
    FiniteField,
    PAdicDescriptor,
    Rationals,
    parse_field,
    primitive_root_of_unity,
)
from skone.ktheory import (
    BrauerCoordinate,
    KClass,
    SlotSplits,
    brauer_symbol_of,
    coh_coordinates,
    dlog_mod,
    hilbert_pairing,
    kclass_is_zero,
    kclass_order,
    laurent_var_element,
    relative_group,
    symbol,
    tame_residue,
    top_coordinate,
    unit_reduction,
)


def test_steinberg_and_normalizer():
    QT = parse_field("Q((t))")
    x = QT.elem(Fraction(1, 3))
    assert symbol(QT, [x, 1 - x], 2).is_syntactically_zero()
    t = QT.monomial(1)
    c = symbol(QT, [t, t], 4)
    assert len(c.terms) == 1
    assert str(c.terms[0][1][1]) == "-1"
    # {4, b} mod 2 = 0 (4 is a square)
    assert symbol(QT, [4, 7], 2).is_syntactically_zero()
    # {x, -x} = 0
    assert symbol(QT, [t, -t], 3).is_syntactically_zero()
    # normalize is idempotent
    c = symbol(QT, [t, QT.elem(5)], 4)
    c2 = KClass(c.tower, c.degree, c.modulus, c.terms)
    assert repr(c) == repr(c2)


def test_residue_examples():
    QT = parse_field("Q((t))")
    t = QT.monomial(1)
    r = tame_residue(symbol(QT, [t, 5], 3))
    assert len(r.terms) == 1 and str(r.terms[0][1][0]) == "5"
    assert tame_residue(symbol(QT, [2, 5], 3)).is_syntactically_zero()
    r = tame_residue(symbol(QT, [t, t], 2))
    assert len(r.terms) == 1 and str(r.terms[0][1][0]) == "-1"


def test_residue_kills_steinberg_relators():
    # residues of Steinberg relators vanish: randomized instances
    QT = parse_field("Q((t))")
    t = QT.monomial(1)
    rng = random.Random(3)
    count = 0
    for _ in range(500):
        v = rng.randint(-2, 2)
        c = rng.choice([x for x in range(-5, 6) if x])
        x = QT.monomial(v, c)
        one_minus = QT.one() - x
        if one_minus.is_zero():
            continue
        cls = symbol(QT, [x, one_minus], 2)
        # the normalizer already kills it; the residue of the normal form is 0
        assert tame_residue(cls).is_syntactically_zero()
        count += 1
    assert count >= 400


def test_residue_all_units_vanish():
    QT = parse_field("Q((t))")
    rng = random.Random(4)
    for _ in range(100):
        xs = [rng.choice([x for x in range(2, 9)]) for _ in range(3)]
        cls = symbol(QT, xs, 5)
        assert tame_residue(cls).is_syntactically_zero()


def test_hilbert_pairing_examples():
    Q5 = PAdicDescriptor(5)
    assert hilbert_pairing(Q5.elem(2), Q5.elem(5), 2) == 1
    assert hilbert_pairing(Q5.elem(4), Q5.elem(5), 2) == 0
    Q13 = PAdicDescriptor(13)
    # (u, p) for u the canonical primitive root: dlog of u^((p-1)/m)
    val = hilbert_pairing(Q13.elem(2), Q13.elem(13), 4)
    assert val % 4 != 0  # 2 is a primitive root mod 13, so the value generates
    # 2-adic
    Q2 = PAdicDescriptor(2)
    assert hilbert_pairing(Q2.elem(-1), Q2.elem(-1), 2) == 1
    assert hilbert_pairing(Q2.elem(17), Q2.elem(2), 2) == 0


def test_2adic_pairing_refuses_units_below_mod_8_on_either_side():
    # a unit known only mod 4 could be 3 or 7, and (3,2)_2 != (7,2)_2
    Q2 = PAdicDescriptor(2)
    three_mod_4 = Q2.approx(0, 3, 2)
    for a, b in ((three_mod_4, Q2.elem(2)), (Q2.elem(2), three_mod_4)):
        with pytest.raises(Undecided):
            hilbert_pairing(a, b, 2)


def test_pairing_bilinearity_antisymmetry():
    for p, m in ((5, 2), (7, 3), (13, 4), (11, 5)):
        K = PAdicDescriptor(p)
        rng = random.Random(p * m)
        picks = [x for x in range(-25, 26) if x]
        for _ in range(60):
            a1, a2, b = (K.elem(rng.choice(picks)) for _ in range(3))
            lhs = hilbert_pairing(a1 * a2, b, m)
            rhs = (hilbert_pairing(a1, b, m) + hilbert_pairing(a2, b, m)) % m
            assert lhs == rhs
            assert (hilbert_pairing(a1, b, m) +
                    hilbert_pairing(b, a1, m)) % m == 0
            assert hilbert_pairing(a1, -a1, m) == 0


def test_pairing_vs_solvability_oracle():
    for p in (3, 5, 7, 11, 13):
        K = PAdicDescriptor(p)
        for a in [x for x in range(-12, 13) if x]:
            for b in [x for x in range(-12, 13) if x]:
                got = hilbert_pairing(K.elem(a), K.elem(b), 2)
                want = 0 if qp_ternary_solvable(a, b, p) else 1
                assert got == want, (p, a, b)


def test_pairing_vs_norm_oracle_tame():
    from skone.fields import _residue_of_exact_order
    for p, m in ((7, 3), (13, 4), (11, 5)):
        K = PAdicDescriptor(p)
        g = _residue_of_exact_order(p, p - 1)
        rng = random.Random(p)
        for _ in range(200):
            va, vb = rng.randint(-2, 2), rng.randint(-2, 2)
            ua = rng.randint(1, p - 1)
            ub = rng.randint(1, p - 1)
            a = K.elem(Fraction(p) ** va * ua)
            b = K.elem(Fraction(p) ** vb * ub)
            da = brute_dlog_mod_p(ua, g, p) % m
            db = brute_dlog_mod_p(ub, g, p) % m
            want = tame_norm_oracle(va, da, vb, db, p, m)
            if want is None:
                continue
            got = hilbert_pairing(a, b, m)
            assert (got == 0) == want, (p, m, va, ua, vb, ub, got)


def test_kclass_zero_decisions():
    F9 = FiniteField(9)
    c = symbol(F9, [F9.generator(), F9.elem(2)], 2)
    assert kclass_is_zero(c)  # K_2 of a finite field vanishes
    Q5 = PAdicDescriptor(5)
    c = symbol(Q5, [2, 5], 2)
    assert not kclass_is_zero(c)
    c = symbol(Q5, [4, 5], 2)
    assert kclass_is_zero(c)
    QT = parse_field("Qp(5)((t))")
    t = QT.monomial(1)
    c = symbol(QT, [2, t], 2)
    assert not kclass_is_zero(c)
    c = c + (-symbol(QT, [2, t], 2))
    assert kclass_is_zero(c)


def _qp_rationals(p, rng, count):
    """Nonzero rationals p^v * a/b other than 1, with a, b prime to p."""
    out = []
    while len(out) < count:
        a, b = rng.choice([x for x in range(-40, 41) if x % p]), rng.randint(1, 9)
        if b % p:
            x = Fraction(p) ** rng.randint(-2, 3) * Fraction(a, b)
            if x != 1:
                out.append(x)
    return out


def test_kclass_is_zero_matches_the_qp_power_oracle():
    # {x} = 0 in K_1(Q_p)/m iff x is an m-th power; m not dividing p - 1
    # included, and a modulus divisible by p stays undecided
    rng = random.Random(21)
    for p in (3, 5, 7, 11, 13):
        K = PAdicDescriptor(p)
        for m in range(2, 7):
            for x in _qp_rationals(p, rng, 25):
                c = symbol(K, [x], m)
                if m % p == 0:
                    with pytest.raises(Undecided):
                        kclass_is_zero(c)
                else:
                    assert kclass_is_zero(c) == qp_nth_power(x, m, p), (p, m, x)


def test_kclass_is_zero_matches_the_q2_power_oracle():
    rng = random.Random(22)
    K = PAdicDescriptor(2)
    for m in (2, 3):
        hits = 0
        for x in _qp_rationals(2, rng, 120):
            zero = kclass_is_zero(symbol(K, [x], m))
            assert zero == qp_nth_power(x, m, 2), (m, x)
            hits += zero
        assert 0 < hits < 120


def _is_zero_record(rec):
    value = getattr(rec.value, "value", rec.value)
    return not any(value) if isinstance(value, tuple) else value == 0


def test_top_coordinate_is_the_full_residue_record():
    rng = random.Random(23)
    for p in (5, 13):
        T = parse_field(f"Qp({p})((t1))((t2))")
        t1, t2 = laurent_var_element(T, "t1"), laurent_var_element(T, "t2")
        one = T.one()

        def slot():
            x = T.elem(rng.choice([2, 3, -1, p, 6])) * t1 ** rng.randint(0, 2) \
                * t2 ** rng.randint(0, 2)
            return x * (one + t1) if rng.random() < 0.3 else x

        for m in (2, 3, 4):
            compared = 0
            for _ in range(30):
                degree = rng.randint(1, 4)
                c = symbol(T, [slot() for _ in range(degree)], m)
                c = c + symbol(T, [slot() for _ in range(degree)], m).scale(
                    rng.randint(1, m))
                try:
                    recs = coh_coordinates(c)
                except (Undecided, UnsupportedTower):
                    continue
                assert len(recs) == 4
                assert top_coordinate(c) == recs[-1]
                assert recs[-1].subset == ("t2", "t1")
                assert kclass_is_zero(c) == all(map(_is_zero_record, recs))
                compared += 1
            assert compared >= 10, (p, m, compared)


def test_top_coordinate_reads_terms_as_they_stand():
    # a raw normalized=True class and the same slots built by `symbol` (and so
    # normalised) have one top coordinate: relators contribute 0 either way
    rng = random.Random(31)
    for p in (5, 7, 13):
        T = parse_field(f"Qp({p})((t1))((t2))")
        t1, t2 = laurent_var_element(T, "t1"), laurent_var_element(T, "t2")
        one = T.one()

        def slot():
            x = T.elem(rng.choice([2, 3, -1, p, 6])) * t1 ** rng.randint(0, 2) \
                * t2 ** rng.randint(0, 2)
            return x * (one + t1) if rng.random() < 0.3 else x

        for m in (2, 3, 4, 6):
            for case in range(24):
                # a constant x leaves the relator in the base slots
                x = slot() if case % 8 < 4 else T.elem(rng.choice([2, 3, -p, 3 * p]))
                pair = [[x, one - x], [x, -x], [x, x], [x ** m, slot()]][case % 4]
                slots = [slot() for _ in range(rng.randint(0, 2))]
                for y in pair:  # not necessarily adjacent
                    slots.insert(rng.randint(0, len(slots)), y)
                other = [slot() for _ in slots]
                cf1, cf2 = rng.randint(1, m - 1), rng.randint(1, m - 1)
                raw = KClass(T, len(slots), m, [(cf1, tuple(slots)),
                                                (cf2, tuple(other))],
                             normalized=True)
                built = symbol(T, slots, m).scale(cf1) + \
                    symbol(T, other, m).scale(cf2)
                assert top_coordinate(raw) == top_coordinate(built), \
                    (p, m, case, slots)


def _primes(residue_mod, limit):
    """The primes p < limit with p = 1 mod residue_mod (the platonov-towers
    benchmark's rule)."""
    return [p for p in range(3, limit) if p % residue_mod == 1
            and all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_relative_group_matches_the_normalising_oracle():
    for n, primes in ((2, _primes(8, 400)), (3, _primes(27, 1000)), (5, [251])):
        for p in primes:
            a = next(g for g in range(2, p)
                     if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
            T = parse_field(f"Qp({p})[zeta_{n * n}]((t1))((t2))" if n > 2
                            else f"Qp({p})((t1))((t2))")
            t1, t2 = laurent_var_element(T, "t1"), laurent_var_element(T, "t2")
            zeta, _ = primitive_root_of_unity(T, n)
            A = tensor(symbol_algebra(T, a, t1, n, zeta),
                       symbol_algebra(T, p, t2, n, zeta))
            for r in (1, 2):
                got = relative_group(A, r, n * n)
                want = relative_group_oracle(A, r, n * n)
                assert (got.order, got.subgroup_gcd, got.per_r, got.generators) \
                    == (want["order"], want["subgroup_gcd"], want["per_r"],
                        want["generators"]), (n, p, r)


class _UnsharedSplits(SlotSplits):
    """A fresh `laurent_split` and a fresh -1 on every request."""

    def __call__(self, L, s):
        sp = skone.ktheory.laurent_split(L.elem(s))
        return sp.valuation, sp.unit

    def minus_one(self, L):
        return L.base.elem(-1)


@pytest.mark.parametrize("n, p, a", [(2, 17, 3), (3, 109, 6)])
def test_relative_group_splits_each_slot_once(monkeypatch, n, p, a):
    # one SlotSplits serves the period and every lift {g, h, a, b}: each
    # slot object is split once at its level, and the result is the same
    # as reading every lift with splits of its own
    T = parse_field(f"Qp({p})[zeta_{n * n}]((t1))((t2))" if n > 2
                    else f"Qp({p})((t1))((t2))")
    t1, t2 = laurent_var_element(T, "t1"), laurent_var_element(T, "t2")
    zeta, _ = primitive_root_of_unity(T, n)
    A = tensor(symbol_algebra(T, a, t1, n, zeta), symbol_algebra(T, p, t2, n, zeta))
    split = skone.ktheory.laurent_split
    for r in (1, 2):
        calls = []
        monkeypatch.setattr(skone.ktheory, "laurent_split",
                            lambda x: calls.append(x) or split(x))
        got = relative_group(A, r, n * n)
        shared = list(calls)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(skone.ktheory, "SlotSplits", _UnsharedSplits)
            want = relative_group(A, r, n * n)
        assert (got.order, got.subgroup_gcd, got.per_r, got.generators) \
            == (want.order, want.subgroup_gcd, want.per_r, want.generators)
        # the list holds every split element, so no id is reused
        assert len({id(x) for x in shared}) == len(shared), (n, r)
        assert 5 * len(shared) <= len(calls), (n, r, len(shared), len(calls))


def test_k2_of_qp_mod_m_is_read_mod_gcd_m_p_minus_1():
    # Moore: K_2(Q_p)/m = mu(Q_p)/m = Z/d, d = gcd(m, p - 1), for p not
    # dividing m, and for odd p | m since mu(Q_p) has no p-part; the
    # coordinate is the pairing mod d
    rng = random.Random(37)
    for p in (3, 5, 7, 11, 13):
        K = PAdicDescriptor(p)
        for m in sorted({m for m in range(3, 9) if m % p} | {p, 2 * p, 3 * p}):
            d = math.gcd(m, p - 1)
            for _ in range(12):
                x, y = _qp_rationals(p, rng, 2)
                rec = top_coordinate(symbol(K, [x, y], m))
                value = rec.value
                if isinstance(value, BrauerCoordinate):
                    value = int(value.value * m) % m
                want = 0 if d == 1 else hilbert_pairing(K.elem(x), K.elem(y), d)
                assert rec.group == f"Z/{d}" and value == want, (p, m, x, y)
    assert not kclass_is_zero(symbol(PAdicDescriptor(7), [3, 7], 4))
    rec = top_coordinate(symbol(PAdicDescriptor(5), [2, 5], 10))
    assert rec.group == "Z/2" and rec.value == 1
    # over Q_2 an even m != 2 stays undecided: mu(Q_2) = {+-1}
    with pytest.raises(Undecided):
        top_coordinate(symbol(PAdicDescriptor(2), [3, 2], 4))


def test_evaluator_degree_rules():
    # K_3(Q_p)/m = 0 for every m, a wild one included
    Q5 = PAdicDescriptor(5)
    assert kclass_is_zero(symbol(Q5, [2, 3, 5], 5))
    assert top_coordinate(symbol(Q5, [2, 3, 5], 25)).value == 0
    # degree 1 with p | m, other than p = m = 2, is undecided
    with pytest.raises(Undecided):
        kclass_is_zero(symbol(Q5, [6], 5))
    # F_q: degree 1 mod gcd(m, q - 1), degree >= 2 vanishes
    F7 = FiniteField(7)
    rec = top_coordinate(symbol(F7, [3], 4))
    assert rec.group == "Z/2" and rec.value == 1
    assert kclass_is_zero(symbol(F7, [3, 5], 6))
    # a Laurent tower whose characteristic divides m is undecided, at every
    # entry point
    F5t = parse_field("F(5)((t))")
    c = symbol(F5t, [F5t.monomial(1), 2], 5)
    for fn in (kclass_is_zero, coh_coordinates, top_coordinate):
        with pytest.raises(Undecided):
            fn(c)
    # off F_q and Q_p there is no evaluator
    Qt = parse_field("Q((t))")
    with pytest.raises(UnsupportedTower):
        kclass_is_zero(symbol(Qt, [Qt.monomial(1), 2], 2))


def test_coh_coordinates_of_a_threefold_tower():
    T = parse_field("Qp(5)((t1))((t2))((t3))")
    t1, t2, t3 = (laurent_var_element(T, v) for v in ("t1", "t2", "t3"))
    c = symbol(T, [t1, 2, t2, 5, t3], 2)
    recs = coh_coordinates(c)
    assert [r.subset for r in recs] == [
        (), ("t3",), ("t2",), ("t1",), ("t3", "t2"), ("t3", "t1"),
        ("t2", "t1"), ("t3", "t2", "t1")]
    assert top_coordinate(c) == recs[-1]
    assert recs[-1].value.value == Fraction(1, 2)


def test_coh_coordinates_examples():
    T = parse_field("Qp(5)((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    c = symbol(T, [2, t1, 5, t2], 2)
    rec = top_coordinate(c)
    assert rec.subset == ("t2", "t1")
    assert isinstance(rec.value, BrauerCoordinate)
    assert rec.value.value == Fraction(1, 2)
    # square slot kills it
    c = symbol(T, [4, t1, 5, t2], 2)
    assert top_coordinate(c).value.value == 0
    # m * anything = 0
    c = symbol(T, [2, t1, 5, t2], 2).scale(2)
    assert top_coordinate(c).value.value == 0
    recs = coh_coordinates(symbol(T, [2, t1, 5, t2], 2))
    assert len(recs) == 4


def test_coordinates_product_factorisation():
    # coordinates of disjoint-variable products factor through lower degrees
    T = parse_field("Qp(13)((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    m = 3
    c = symbol(T, [2, t1, 13, t2], m)
    rec = top_coordinate(c)
    # residues: d_{t2} then d_{t1} leaves {2, 13}; its pairing value mod 3
    base = PAdicDescriptor(13)
    want = hilbert_pairing(base.elem(2), base.elem(13), m)
    got = int(rec.value.value * m) % m
    assert got in (want % m, (-want) % m)  # sign convention differences only


def test_relative_group_platonov():
    T = parse_field("Qp(5)((t1))((t2))")
    t1 = laurent_var_element(T, "t1")
    t2 = laurent_var_element(T, "t2")
    A = tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, 5, t2, 2))
    rg = relative_group(A, 1, 4)
    assert rg.order == 2 and rg.per_r == 2
    rg2 = relative_group(A, 2, 4)
    assert rg2.order == 4
    beta = brauer_symbol_of(A)
    assert kclass_order(beta) == 2


def test_unit_reduction_is_projection():
    QT = parse_field("Qp(5)((t))")
    t = QT.monomial(1)
    c = symbol(QT, [QT.elem(2) * t ** 2, QT.elem(3)], 4)
    red = unit_reduction(c)
    assert all(str(s) in ("2", "3") for _, slots in red.terms for s in slots)


def test_residue_commutes_with_unit_scaling():
    # d(k * c) = k * d(c) for integer scalars k modulo m
    QT = parse_field("Q((t))")
    t = QT.monomial(1)
    rng = random.Random(17)
    for _ in range(40):
        c = symbol(QT, [QT.monomial(rng.randint(0, 2), rng.choice([2, 3, 5])),
                        QT.monomial(rng.randint(0, 1), rng.choice([2, 7]))], 6)
        k = rng.randint(1, 5)
        lhs = tame_residue(c.scale(k))
        rhs = tame_residue(c).scale(k)
        diff = lhs + (-rhs)
        assert kclass_is_zero(diff) or diff.is_syntactically_zero()


@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=2, max_value=40))
def test_symbol_antisymmetry_hypothesis(a, b):
    Q5 = PAdicDescriptor(5)
    if a % 5 == 0 or b % 5 == 0:
        return
    m = 2
    lhs = hilbert_pairing(Q5.elem(a), Q5.elem(b), m)
    rhs = hilbert_pairing(Q5.elem(b), Q5.elem(a), m)
    assert (lhs + rhs) % m == 0


@pytest.mark.parametrize("q", (3, 4, 7, 8, 9, 16, 25, 27, 49, 64, 81, 121))
def test_dlog_mod_matches_the_walk_over_the_powers(q):
    F = FiniteField(q)
    table = brute_dlog_table(F)
    for x in F.elements():
        for m in (2, 3, 4, 6, 8, 12):
            if x.is_zero():
                if math.gcd(m, q - 1) > 1:
                    with pytest.raises(InconsistentConstruction):
                        dlog_mod(F, x, m)
                continue
            assert dlog_mod(F, x, m) == table[tuple(x.payload)] % math.gcd(m, q - 1)


def test_tame_pairing_matches_the_walk_over_mu_m():
    from skone.ktheory import _tame_pairing
    for p in (3, 5, 7, 11, 13, 31, 37, 41):
        K = PAdicDescriptor(p)
        for m in (m for m in range(1, p) if (p - 1) % m == 0):
            for va, vb in itertools.product((-1, 0, 2), (-2, 0, 1)):
                for ua, ub in itertools.product(range(1, min(p, 9)), (1, 2, p - 1)):
                    a = K.elem(Fraction(p) ** va * ua)
                    b = K.elem(Fraction(p) ** vb * ub)
                    assert _tame_pairing(K, a, b, m) == \
                        tame_symbol_log(va, ua, vb, ub, p, m), (p, m, va, ua, vb, ub)


def test_degree_one_unit_reads_match_the_brute_log():
    # Q_p^x/m: the unit coordinate is the log mod gcd(m, p - 1) to the base
    # of the least primitive root
    for p in (3, 5, 7, 13, 31, 41):
        K = PAdicDescriptor(p)
        g = residue_of_exact_order_scan(p, p - 1)
        for m in (2, 3, 4, 6, 10):
            if m % p == 0:
                continue
            d = math.gcd(m, p - 1)
            for u in range(1, p):
                v, c = top_coordinate(symbol(K, [K.elem(u + p)], m)).value
                assert (v, c) == (0, brute_dlog_mod_p(u, g, p) % d), (p, m, u)
