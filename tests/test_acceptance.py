"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (add -s to stream the lines).
Every tolerance is exact; the stated wall-clock budgets are asserted.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from oracles import (
    IntQuot,
    all_witt_vectors,
    ghost_check,
    nbar_oracle,
    qp_ternary_solvable,
    springer_brute_isotropy,
    square_class_rep_2,
    tame_norm_oracle,
    witness_box_search,
)
from skone.algebras import (
    commutator,
    is_division_biquaternion,
    random_invertible,
    symbol_algebra,
    tensor,
)
from skone.fields import FiniteField, PAdicDescriptor, Rationals, parse_field
from skone.forms import QuadraticForm, isotropy, pfister, witt_class, witt_equal_mod_i4
from skone.invariants import (
    PlatonovConfig,
    centre_symbol,
    centre_value_biquat,
    comparison_m_r,
    comparison_pi_r,
    kahn_bound,
    kahn_torsion,
    kmrt_eval,
    make_symplectic_involution,
    pi_m_composition_is_multiplication,
    pi_tilde_surjective,
    sk1_nontrivial_witness,
    sk1_platonov,
)
from skone.invariants import pfaffian_data
from skone.ktheory import (
    hilbert_pairing,
    laurent_var_element,
    relative_group,
    symbol,
    top_coordinate,
)
from skone.wittvec import (
    LiftDatum,
    LogDiffClass,
    WittVector,
    coh_lift_equal,
    i_star,
    kato_phi,
    r_coh_list,
)

Q = Rationals()


@contextmanager
def criterion(num: int, name: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [{name}]: FAIL "
              f"({time.monotonic() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} [{name}]: PASS ({time.monotonic() - t0:.2f}s)")


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_platonov_sk1():
    with criterion(1, "Platonov SK1 = Z/n for n in {2,3,5}"):
        for n, p, a1 in ((2, 17, 3), (3, 109, 6), (5, 251, 6)):
            k = parse_field(f"Qp({p})")
            t0 = time.monotonic()
            cfg = PlatonovConfig(k, n, k.elem(a1), k.elem(p))
            res = sk1_platonov(cfg)
            elapsed = time.monotonic() - t0
            assert res.group_order == n, (n, p, res.group)
            assert res.group == f"Z/{n}"
            assert elapsed < 1.0, f"n={n}: {elapsed:.2f}s >= 1s"


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_cohomology_tower():
    with criterion(2, "H^4_m(Qp((t1))((t2))) = Z/m for m in {2,3,4}"):
        t0 = time.monotonic()
        T = parse_field("Qp(13)((t1))((t2))")
        t1 = laurent_var_element(T, "t1")
        t2 = laurent_var_element(T, "t2")
        for m in (2, 3, 4):
            gen = symbol(T, [2, t1, 13, t2], m)   # 2 is a primitive root mod 13
            rec = top_coordinate(gen)
            val = int(rec.value.value * m) % m
            assert math.gcd(val, m) == 1, (m, val)   # exact order m
            # multiples scan: e * gen has top coordinate of order m/gcd(e,m)
            for e in range(1, m + 1):
                rec_e = top_coordinate(gen.scale(e))
                ve = int(rec_e.value.value * m) % m
                assert ve == (e * val) % m
        assert time.monotonic() - t0 < 1.0


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_prop_4_2():
    with criterion(3, "relative group Z/2, pi-tilde not surjective, division"):
        t0 = time.monotonic()
        T = parse_field("Qp(5)((t1))((t2))")
        t1 = laurent_var_element(T, "t1")
        t2 = laurent_var_element(T, "t2")
        A = tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, 5, t2, 2))
        rel = relative_group(A, 1, 4)
        assert rel.order == 2, rel
        assert not pi_tilde_surjective(rel)
        assert comparison_m_r(rel, 1) == 2          # m_1: Z/2 -> Z/4 injection
        assert comparison_pi_r(rel, 3) == 1         # pi_1: mod-2 map
        assert pi_m_composition_is_multiplication(rel)
        div = is_division_biquaternion(A)
        assert div.division
        assert "Springer" in div.isotropy.certificate
        assert time.monotonic() - t0 < 5.0


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_thm_4_3_groups():
    with criterion(4, "r=2 relative groups: Z/n odd n, Z/4 at n=2"):
        for n, p, a in ((3, 109, 6), (5, 251, 6)):
            T = parse_field(f"Qp({p})[zeta_{n*n}]((t1))((t2))")
            t1 = laurent_var_element(T, "t1")
            t2 = laurent_var_element(T, "t2")
            from skone.fields import primitive_root_of_unity
            zeta, _ = primitive_root_of_unity(T, n)
            A = tensor(symbol_algebra(T, a, t1, n, zeta),
                       symbol_algebra(T, p, t2, n, zeta))
            rel = relative_group(A, 2, n * n)
            assert rel.order == n, (n, rel)
        T = parse_field("Qp(5)((t1))((t2))")
        t1 = laurent_var_element(T, "t1")
        t2 = laurent_var_element(T, "t2")
        A = tensor(symbol_algebra(T, 2, t1, 2), symbol_algebra(T, 5, t2, 2))
        rel = relative_group(A, 2, 4)
        assert rel.order == 4, rel


# -- 5 ------------------------------------------------------------------------

def _torsion_oracle(factors):
    m = 1
    for p, ind, per in factors:
        if p == 2:
            f = 1
        elif ind == per == p:
            f = 1
        else:
            f = 2
        m *= p ** f
    return m


def test_criterion_05_kahn_arithmetic():
    with criterion(5, "kahn_bound/torsion vs independent oracle"):
        for n in range(1, 1001):
            assert kahn_bound(n) == nbar_oracle(n), n
        rng = random.Random(55)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7, 11])
            if p == 2:
                e = rng.randint(1, 4)
                per = 2 ** rng.randint(1, e)
                fac = (2, 2 ** e, per)
            else:
                e = rng.randint(1, 3)
                fac = (p, p ** e, p)
            assert kahn_torsion([fac]) == _torsion_oracle([fac]), fac


# -- 6 ------------------------------------------------------------------------

def test_criterion_06_pfaffian_identities():
    with criterion(6, "Prp^2=Prd, Nrp^2=Nrd, 2Trp=Trd on 100 samples"):
        t0 = time.monotonic()
        algebras = [
            tensor(symbol_algebra(Q, -1, -1, 2), symbol_algebra(Q, -1, 3, 2)),
            tensor(symbol_algebra(Q, 2, 5, 2), symbol_algebra(Q, -1, -1, 2)),
        ]
        rng = random.Random(66)
        for A in algebras:
            sigma = make_symplectic_involution(A)
            for _ in range(50):
                x = A.element([rng.randint(-3, 3) for _ in range(16)])
                a = x + sigma.apply(x)
                pf = pfaffian_data(sigma, a)
                assert pf.prp * pf.prp == A.reduced_char_poly(a)
                assert pf.nrp * pf.nrp == A.nrd(a)
                assert pf.trp + pf.trp == A.trd(a)
        assert time.monotonic() - t0 < 10.0


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_kmrt_behaviour():
    with criterion(7, "KMRT: rho(1)=0, commutators level 4, independence"):
        t0 = time.monotonic()
        A = tensor(symbol_algebra(Q, -1, -1, 2), symbol_algebra(Q, -1, 3, 2))
        sigma = make_symplectic_involution(A)
        res = kmrt_eval(A, sigma, A.one())
        assert res.level.level >= 4
        rng = random.Random(77)
        commutators = []
        for _ in range(20):
            c = commutator(A, random_invertible(A, rng, span=2),
                           random_invertible(A, rng, span=2))
            commutators.append(c)
            r = kmrt_eval(A, sigma, c)
            assert r.level.level >= 4, "commutator not certified level 4"
        # v-choice independence on 10 samples (scalar-distinct admissible v)
        for c in commutators[:10]:
            w = -(sigma.apply(c) * c)
            base = kmrt_eval(A, sigma, c)
            alt = kmrt_eval(A, sigma, c, v_override=(A.one() + w).scale(3))
            assert witt_equal_mod_i4(base.witt, alt.witt)
        # sigma-choice independence across 3 constructed involutions
        c = commutators[0]
        Q2alg = A.tag.right
        base = kmrt_eval(A, sigma, c)
        for s in (Q2alg.generator("y"),
                  Q2alg.generator("x") * Q2alg.generator("y")):
            sig = make_symplectic_involution(A, s)
            r = kmrt_eval(A, sig, c)
            assert witt_equal_mod_i4(base.witt, r.witt)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"{elapsed:.1f}s >= 60s"


# -- 8 ------------------------------------------------------------------------

def _lift_witt(w, modulus):
    return [IntQuot(list(c.payload), modulus) for c in w.components]


def test_criterion_08_witt_vectors():
    with criterion(8, "W_2(F_2)=Z/4; ops match the ghost oracle"):
        F2 = FiniteField(2)
        table = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}

        def key(w):
            return tuple(int(str(c)) for c in w.components)

        for u in table:
            for v in table:
                assert table[key(WittVector(F2, list(u)) +
                                 WittVector(F2, list(v)))] == \
                    (table[u] + table[v]) % 4
                assert table[key(WittVector(F2, list(u)) *
                                 WittVector(F2, list(v)))] == \
                    (table[u] * table[v]) % 4
        for p in (2, 3):
            F = FiniteField(p)
            modulus = tuple(F.modulus[:-1])
            for l in (2, 3):
                vecs = list(all_witt_vectors(F, l))
                for u in vecs:
                    for v in vecs:
                        assert ghost_check("add", _lift_witt(u, modulus),
                                           _lift_witt(v, modulus),
                                           _lift_witt(u + v, modulus), p, l)
                        assert ghost_check("mul", _lift_witt(u, modulus),
                                           _lift_witt(v, modulus),
                                           _lift_witt(u * v, modulus), p, l)
                    assert ghost_check("neg", _lift_witt(u, modulus), None,
                                       _lift_witt(-u, modulus), p, l)
            Fq = FiniteField(p * p)
            modulus = tuple(Fq.modulus[:-1])
            rng = random.Random(88 + p)
            elems = list(Fq.elements())
            for l in (2, 3):
                for _ in range(100):
                    u = WittVector(Fq, [rng.choice(elems) for _ in range(l)])
                    v = WittVector(Fq, [rng.choice(elems) for _ in range(l)])
                    assert ghost_check("add", _lift_witt(u, modulus),
                                       _lift_witt(v, modulus),
                                       _lift_witt(u + v, modulus), p, l)
                    assert ghost_check("mul", _lift_witt(u, modulus),
                                       _lift_witt(v, modulus),
                                       _lift_witt(u * v, modulus), p, l)


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_lift_identities():
    with criterion(9, "lift identities, Kato phi residues, i* compatibility"):
        # symbolic: i = 2u+1, j = v over transcendental a, b, c, d
        T = parse_field("Q((a))((b))((c))((d))")
        a = laurent_var_element(T, "a")
        b = laurent_var_element(T, "b")
        c = laurent_var_element(T, "c")
        d = laurent_var_element(T, "d")
        from skone.algebras import twisted_lift_quaternion
        tw = tensor(twisted_lift_quaternion(T, a, b),
                    twisted_lift_quaternion(T, c, d))
        for uname, vname, slot in (("u1", "v1", a), ("u2", "v2", c)):
            i = tw.generator(uname).scale(T.elem(2)) + tw.one()
            j = tw.generator(vname)
            assert (i * i) == tw.one().scale(T.elem(4) * slot + T.elem(1))
            assert (i * j + j * i).is_zero()
        # numeric instance: (1,3) (x) (2,5) lifts to (5,3) (x) (9,5)
        from test_wittvec import lift_with_slots
        from skone.algebras import p_algebra
        F2 = FiniteField(2)
        A2 = tensor(p_algebra(F2, 1, 1), p_algebra(F2, 0, 1))
        datum = LiftDatum(F2, Q)
        res = lift_with_slots(A2, datum, [1, 3, 2, 5])
        assert res.relations_verified and res.structure_constants_match
        # Kato's phi composed with residues: the double residue of
        # {1+4b, t1, t2, a3} equals the Hilbert pairing of (1+4b, a3)
        TL = parse_field("Qp(2)((t1))((t2))")
        t1 = laurent_var_element(TL, "t1")
        t2 = laurent_var_element(TL, "t2")
        datumL = LiftDatum(F2, TL)
        for bres, a3 in ((F2.elem(1), 3), (F2.elem(1), 5), (F2.elem(0), 7)):
            datumL.lifts = []
            datumL.declare(F2.elem(1), 1)
            phi = kato_phi(datumL, bres, TL.elem(1), TL.elem(1), TL.elem(1))
            # rebuild with Laurent slots: {1+4b, t1, t2, a3}
            one_plus = TL.elem(1) + TL.elem(4) * TL.elem(int(str(bres)))
            cls = symbol(TL, [one_plus, t1, t2, a3], 2)
            rec = top_coordinate(cls)
            K2 = PAdicDescriptor(2)
            want = hilbert_pairing(K2.elem(Fraction(str(one_plus))),
                                   K2.elem(a3), 2)
            got = int(rec.value.value * 2) % 2
            assert got == want, (str(one_plus), a3)
        # i* o r_A = r_B o i* on 20 random generator classes
        F4 = FiniteField(4)
        g = F4.generator()
        datum4 = LiftDatum(F4, parse_field("Qp(2)"))
        datum4.declare(g, 3)
        datum4.declare(g + F4.elem(1), 5)
        datum4.declare(F4.elem(1), 1)
        rng = random.Random(99)
        elems = list(F4.elements())
        units = [x for x in elems if not x.is_zero()]
        for _ in range(20):
            w = WittVector(F4, [rng.choice(elems), rng.choice(elems)])
            slots = tuple(rng.sample(units, k=rng.randint(1, 2)))
            ld = LogDiffClass(F4, 2, len(slots), [(w, slots)], normalized=True)
            left = r_coh_list(i_star(ld, datum4, drop_trivial=False),
                              drop_trivial=False)
            right = i_star(ld.project(normalize=False), datum4,
                           drop_trivial=False)
            assert coh_lift_equal(left, right), (w, slots)


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_centre_formulas():
    with criterion(10, "centre values: p-adic vanishing; Platonov nonzero"):
        cv = centre_value_biquat(parse_field("Qp(5)[zeta_4]"), 1, 3, 2, 5)
        assert cv.is_zero()
        assert cv.level.level == 4
        cv2 = centre_value_biquat(parse_field("Qp(13)[zeta_4]"), 3, 7, 1, 11)
        assert cv2.is_zero()
        T = parse_field("Qp(17)[zeta_4]((t1))((t2))")
        t1 = laurent_var_element(T, "t1")
        t2 = laurent_var_element(T, "t2")
        A = tensor(symbol_algebra(T, 3, t1, 2), symbol_algebra(T, 17, t2, 2))
        cs = centre_symbol(A)
        assert cs.certificate == "computed nonzero"
        assert sk1_nontrivial_witness(A) is True
        # consistent with criterion 1: the same configuration has SK1 = Z/2
        k = parse_field("Qp(17)")
        res = sk1_platonov(PlatonovConfig(k, 2, k.elem(3), k.elem(17)))
        assert res.group_order == 2


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_pairing_soundness():
    with criterion(11, "pairing vs solvability (m=2) and norm oracles"):
        t0 = time.monotonic()
        entries = [x for x in range(-50, 51) if x]
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            K = PAdicDescriptor(p)
            cache = {}
            for a in entries:
                for b in entries:
                    if p == 2:
                        key = (square_class_rep_2(a), square_class_rep_2(b))
                        if key in cache:
                            want = cache[key]
                        else:
                            want = qp_ternary_solvable(a, b, 2)
                            cache[key] = want
                    else:
                        want = qp_ternary_solvable(a, b, p)
                    got = hilbert_pairing(K.elem(a), K.elem(b), 2)
                    assert (got == 0) == want, (p, a, b)
        # tame m in {3,4,5} vs the norm-test oracle
        from skone.fields import _residue_of_exact_order
        from skone.ktheory import _dlog_mod_p
        for p, m in ((7, 3), (13, 4), (11, 5)):
            K = PAdicDescriptor(p)
            g = _residue_of_exact_order(p, p - 1)
            rng = random.Random(p * m)
            checked = 0
            while checked < 150:
                va, vb = rng.randint(-2, 2), rng.randint(-2, 2)
                ua, ub = rng.randint(1, p - 1), rng.randint(1, p - 1)
                want = tame_norm_oracle(va, _dlog_mod_p(ua, g, p) % m,
                                        vb, _dlog_mod_p(ub, g, p) % m, p, m)
                if want is None:
                    continue
                a = K.elem(Fraction(p) ** va * ua)
                b = K.elem(Fraction(p) ** vb * ub)
                got = hilbert_pairing(a, b, m)
                assert (got == 0) == want, (p, m, va, ua, vb, ub)
                checked += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"{elapsed:.1f}s >= 120s"


# -- 12 -----------------------------------------------------------------------

def test_criterion_12_isotropy_engine():
    with criterion(12, "Hasse-Minkowski vs search; Springer vs brute force"):
        rng = random.Random(1212)
        for _ in range(500):
            dim = rng.randint(2, 6)
            diag = [rng.choice([x for x in range(-30, 31) if x])
                    for _ in range(dim)]
            q = QuadraticForm(Q, diag)
            res = isotropy(q)
            if res.isotropic:
                assert res.witness is not None, diag
                assert sum(c * int(str(x)) ** 2
                           for c, x in zip(diag, res.witness)) == 0, diag
            else:
                assert witness_box_search(diag, 8) is None, diag
        for p in (3, 5, 7, 11):
            T = parse_field(f"F({p})((s))((t))")
            s_elem = T.elem(T.base.monomial(1))
            t_elem = T.monomial(1)
            rng = random.Random(p)
            for _ in range(50):
                dim = rng.randint(2, 5)
                monos, entries = [], []
                for _ in range(dim):
                    u = rng.randint(1, p - 1)
                    es, et = rng.randint(0, 1), rng.randint(0, 1)
                    monos.append((u, es, et))
                    entries.append(T.elem(u) * (s_elem ** es) * (t_elem ** et))
                q = QuadraticForm(T, entries)
                assert isotropy(q).isotropic == springer_brute_isotropy(monos, p)
