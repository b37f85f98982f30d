"""Milnor K-theory mod m: symbols, tame residues, local pairings, and
residue-coordinate computations of H^j_m over iterated Laurent towers.

Conventions (also attached to every CLI report):
  * residues follow the "second projection" normalisation: the residue is
    taken with the uniformizer moved to the FIRST slot, d{t, u2, ..., ur} =
    {u2bar, ..., urbar};
  * the unit-part projection replaces unit slots by their leading residues
    (exact modulo m in the tame complete case);
  * tame Hilbert pairing values are discrete logs with respect to the
    canonical residue of the chosen primitive m-th root of unity.

One evaluator, `_evaluate_base_class`, reads a class over the residue base
F_q or Q_p; `kclass_is_zero` (every coordinate zero), `coh_coordinates` (all
2^s iterated residue / unit-reduction leaves of an s-fold Laurent tower),
`top_coordinate` (the residue along every variable) and the Kummer
coordinates of a Platonov configuration all end in it.  Its rules, m the
modulus:
  * degree 0: the coefficient sum mod m, over any field;
  * F_q: degree 1 is the discrete log mod gcd(m, q-1); degree >= 2 is 0;
  * Q_p: degree >= 3 is 0 for every m (cd(Q_p) = 2); degree 2 is the
    Hilbert pairing in Z/m (m | p-1 or m = 2), and for any other m prime to
    p, or divisible by an odd p, the tame symbol mod d = gcd(m, p-1) in Z/d,
    since K_2(Q_p)/m = mu(Q_p)/m (Moore; 0 in Z/1 when d = 1) and mu(Q_p)
    has no p-part for odd p; degree 1 is (v mod m, unit dlog mod
    gcd(m, p-1)) for p not dividing m, and the square class (v, eps, omega)
    mod 2 for p = m = 2; degree 1 with any other m divisible by p, and
    degree 2 over Q_2 with even m != 2, are undecided;
  * a Laurent tower whose characteristic divides m is undecided (one check
    covers every layer, since all share the characteristic of the base).

`kclass_is_zero` and `coh_coordinates` walk normalised residues: an empty
leaf is zero whatever the modulus.  `top_coordinate` reads the terms as they
stand, so a class built with normalized=True (as `relative_group` builds its
lifts) skips the relator normaliser; every map it applies kills relators.

Equality with the value "zero" is only ever asserted when the decision
procedure certifies it; otherwise Undecided is raised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InconsistentConstruction,
    PrecisionExhausted,
    Undecided,
    UnsupportedTower,
)
from .fields import (
    FieldElement,
    FieldTower,
    FiniteField,
    LaurentExt,
    PAdicDescriptor,
    _residue_of_exact_order,
    is_nth_power,
    laurent_split,
)
from .forms import _hilbert, _padic_val_unit, effective_tower

RESIDUE_CONVENTION = "residue: uniformizer-first, second-projection normalisation"


# ---------------------------------------------------------------------------
# Milnor symbols
# ---------------------------------------------------------------------------

class KClass:
    """Formal sum of pure symbols {x_1, ..., x_r} with coefficients mod m."""

    def __init__(self, tower: FieldTower, degree: int, modulus: int, terms=(),
                 normalized: bool = False):
        self.tower = tower
        self.degree = degree
        self.modulus = modulus
        self.terms = list(terms)
        if not normalized:
            self.terms = _normalize_terms(tower, degree, modulus, self.terms)

    def __add__(self, other: "KClass") -> "KClass":
        if (other.tower != self.tower or other.degree != self.degree
                or other.modulus != self.modulus):
            raise InconsistentConstruction("K-class mismatch in addition")
        return KClass(self.tower, self.degree, self.modulus,
                      self.terms + other.terms)

    def __neg__(self):
        return KClass(self.tower, self.degree, self.modulus,
                      [(-c, s) for c, s in self.terms], normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int) -> "KClass":
        m = self.modulus
        return KClass(self.tower, self.degree, m,
                      [(c * k % m, s) for c, s in self.terms if c * k % m],
                      normalized=True)

    def is_syntactically_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for c, slots in self.terms:
            body = "{" + ",".join(str(s) for s in slots) + "}"
            bits.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(bits) + f" (mod {self.modulus})"


def symbol(tower: FieldTower, entries, modulus: int) -> KClass:
    """The pure symbol {x_1, ..., x_r} mod modulus."""
    slots = []
    for x in entries:
        e = tower.elem(x)
        if e.is_zero():
            raise InconsistentConstruction("symbol slots must be nonzero")
        slots.append(e)
    return KClass(tower, len(slots), modulus, [(1, tuple(slots))])


def _normalize_terms(tower, degree, modulus, terms):
    out = []
    for coeff, slots in terms:
        coeff %= modulus
        if coeff == 0:
            continue
        res = _normalize_pure(tower, list(slots), modulus)
        if res is None:
            continue
        sign, slots2 = res
        coeff = (coeff * sign) % modulus
        if coeff:
            out.append((coeff, tuple(slots2)))
    # combine syntactically identical slot tuples
    combined = []
    for coeff, slots in out:
        for k, (c0, s0) in enumerate(combined):
            if len(s0) == len(slots) and all(a == b for a, b in zip(s0, slots)):
                combined[k] = ((c0 + coeff) % modulus, s0)
                break
        else:
            combined.append((coeff, slots))
    return [(c, s) for c, s in combined if c]


def _normalize_pure(tower, slots, modulus):
    """None if the pure symbol is a listed relator; else (sign, slots)."""
    sign = 1
    one = tower.one()
    changed = True
    while changed:
        changed = False
        for x in slots:
            if x == one:
                return None
            try:
                if is_nth_power(x, modulus).is_power:
                    return None
            except (UnsupportedTower, Undecided, PrecisionExhausted):
                pass
        n = len(slots)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if slots[i] + slots[j] == one:
                    return None          # Steinberg
                if slots[j] == -slots[i]:
                    return None          # {x, -x} = 0
        minus_one = tower.elem(-1)
        for i in range(n):
            for j in range(i + 1, n):
                if slots[i] == slots[j] and not slots[j] == minus_one:
                    # move slot j next to slot i, then {x,x} = {x,-1}
                    if (j - i - 1) % 2:
                        sign = -sign
                    slots[j] = minus_one
                    changed = True
                    break
            if changed:
                break
    return sign, slots


# ---------------------------------------------------------------------------
# tame residues
# ---------------------------------------------------------------------------

def tame_residue(c: KClass, var: str | None = None) -> KClass:
    """Residue along the outermost Laurent variable; degree drops by one."""
    L = effective_tower(c.tower)
    if not isinstance(L, LaurentExt):
        raise UnsupportedTower("tame_residue expects a Laurent-extension class")
    if var is not None and L.var != var:
        raise InconsistentConstruction(
            f"residue variable {var!r} is not the outermost variable {L.var!r}")
    return KClass(L.base, c.degree - 1, c.modulus, _residue_terms(L, c))


def _residue_terms(L: LaurentExt, c: KClass):
    """The terms of the residue of c along L, as they stand (not normalised)."""
    return [(cf, slots) for coeff, pure in c.terms
            for cf, slots in _residue_of_pure(L, coeff, pure, c.modulus) if cf]


def unit_reduction(c: KClass) -> KClass:
    """The unit-part projection: drop {t,...} components, reduce unit slots."""
    L = effective_tower(c.tower)
    if not isinstance(L, LaurentExt):
        raise UnsupportedTower("unit_reduction expects a Laurent-extension class")
    out_terms = []
    for coeff, slots in c.terms:
        data = [_slot_split(L, s) for s in slots]
        # the S = (empty set) piece of the multilinear expansion: every slot
        # t^v u(1+w) contributes its unit residue u-bar
        out_terms.append((coeff, tuple(lead for _, lead in data)))
    return KClass(L.base, c.degree, c.modulus, out_terms)


def _slot_split(L: LaurentExt, s: FieldElement):
    sp = laurent_split(L.elem(s))
    return sp.valuation, sp.unit


def _residue_of_pure(L: LaurentExt, coeff, slots, modulus):
    """Residue of coeff * {slots}: multilinear expansion, {t,t} reduction."""
    data = [_slot_split(L, s) for s in slots]
    minus_one = L.base.elem(-1)
    out = []
    val_positions = [i for i, (v, _) in enumerate(data) if v != 0]
    for size in range(1, len(val_positions) + 1):
        for S in itertools.combinations(val_positions, size):
            mult = 1
            for i in S:
                mult *= data[i][0]
            # pattern: 't' at positions in S, unit residues elsewhere
            pattern = []
            for i, (v, lead) in enumerate(data):
                pattern.append(("t", None) if i in S else ("u", lead))
            sign = 1
            # reduce multiple t's: {.., t, .., t, ..} -> {.., t, -1, ..} with sign
            while True:
                tpos = [i for i, (k, _) in enumerate(pattern) if k == "t"]
                if len(tpos) <= 1:
                    break
                i, j = tpos[0], tpos[1]
                if (j - i - 1) % 2:
                    sign = -sign
                pattern[j] = ("u", minus_one)
            tpos = [i for i, (k, _) in enumerate(pattern) if k == "t"]
            i = tpos[0]
            if i % 2:
                sign = -sign
            rest = [lead for (kk, lead) in pattern if kk == "u"]
            out.append(((coeff * mult * sign) % modulus, tuple(rest)))
    return out


# ---------------------------------------------------------------------------
# local pairings
# ---------------------------------------------------------------------------

def hilbert_pairing(a: FieldElement, b: FieldElement, modulus: int) -> int:
    """The m-torsion Hilbert pairing of a local field, additively in Z/m.

    Value 0 iff b is a norm from the Kummer extension attached to a.
    Supported: m | p-1, and m = 2 for every p (including p = 2).  Any other
    m prime to p has no primitive m-th root of unity in Q_p; its K_2/m is
    read mod gcd(m, p-1) by `_evaluate_base_class`.
    """
    K = effective_tower(a.tower)
    if not isinstance(K, PAdicDescriptor):
        raise UnsupportedTower("hilbert_pairing expects p-adic descriptor elements")
    p = K.p
    if modulus == 2:
        return _hilbert(_padic_val_unit(a), _padic_val_unit(b), p)
    if p != 2 and (p - 1) % modulus == 0:
        return _tame_pairing(K, a, b, modulus)
    reason = ("the modulus is wild" if modulus % p == 0
              else f"Qp({p}) has no primitive {modulus}-th root of unity")
    raise UnsupportedTower(
        f"hilbert_pairing mod {modulus} over Qp({p}): {reason}; only m | p-1 "
        f"and m=2 are implemented")


def _tame_pairing(K: PAdicDescriptor, a: FieldElement, b: FieldElement,
                  m: int) -> int:
    p = K.p
    va, ua, _ = K.val_unit(a.payload)
    vb, ub, _ = K.val_unit(b.payload)
    # tame symbol T(a,b) = (-1)^(va vb) a^vb / b^va mod p
    t = pow(-1, va * vb, p) * pow(ua % p, vb, p) * pow(pow(ub % p, -1, p), va, p) % p
    tm = pow(t, (p - 1) // m, p)
    if m == 1:
        return 0
    zbar = _residue_of_exact_order(p, m)
    val = 1
    for k in range(m):
        if val == tm:
            return k
        val = (val * zbar) % p
    raise InconsistentConstruction("tame symbol value is not an m-th root of unity")


def dlog_mod(F: FiniteField, x: FieldElement, m: int) -> int:
    """Discrete log of x in F_q^x / (F_q^x)^m, base the canonical generator."""
    d = math.gcd(m, F.q - 1)
    if d == 1:
        return 0
    g = F.multiplicative_generator()
    acc = F.one()
    for k in range(F.q - 1):
        if acc == x:
            return k % d
        acc = acc * g
    raise InconsistentConstruction("element not in F_q^x")


# ---------------------------------------------------------------------------
# residue coordinates and zero certification: one evaluator over F_q and Q_p
# ---------------------------------------------------------------------------

@dataclass
class BrauerCoordinate:
    """An element of Br(k) for a local-field (Q/Z) or finite-field (0) tower."""
    value: Fraction
    provenance: str

    def __post_init__(self):
        self.value = Fraction(self.value) % 1

    def __repr__(self):
        return f"BrauerCoordinate({self.value}, {self.provenance!r})"


@dataclass
class CohClass:
    """Symbol-backed cohomology class of H^degree.

    Purely symbol-backed classes have character None; the characteristic-p
    lift machinery attaches an Artin-Schreier-Witt character, which raises
    the degree by one (i(w) cup h^q(symbol))."""
    kclass: KClass
    character: object | None = None

    @property
    def tower(self):
        return self.kclass.tower

    @property
    def degree(self):
        return self.kclass.degree + (0 if self.character is None else 1)

    @property
    def modulus(self):
        return self.kclass.modulus


@dataclass
class CoordinateRecord:
    subset: tuple[str, ...]
    group: str
    value: object

    def __repr__(self):
        return f"[{','.join(self.subset) or '-'}] {self.group}: {self.value}"


def _evaluate_base_class(k: KClass, names) -> CoordinateRecord:
    """The coordinate of a class over F_q or Q_p in K_r/m, by the rules in
    the module docstring; the only code that reads a K-class over a base."""
    tower = effective_tower(k.tower)
    m, deg = k.modulus, k.degree
    if deg <= 0:  # K_0 = Z over every field
        return CoordinateRecord(names, f"Z/{m}", sum(cf for cf, _ in k.terms) % m)
    if isinstance(tower, FiniteField):
        if deg >= 2:
            return CoordinateRecord(names, "0 (K_r of a finite field, r >= 2)", 0)
        d = math.gcd(m, tower.q - 1)
        total = sum(cf * dlog_mod(tower, tower.elem(x), m) for cf, (x,) in k.terms)
        return CoordinateRecord(names, f"Z/{d}", total % d)
    if not isinstance(tower, PAdicDescriptor):
        raise UnsupportedTower(f"coordinate evaluation over {k.tower}")
    p = tower.p
    if deg >= 3:
        return CoordinateRecord(names, "0 (cd(Q_p) = 2)", 0)
    if m % p == 0 and m != 2 and (deg == 1 or p == 2):
        raise Undecided(f"modulus {m} is wild over Qp({p})")
    if deg == 2 and m != 2 and (p - 1) % m:
        # Moore: K_2(Q_p)/m = mu(Q_p)/m = Z/d, d = gcd(m, p-1), read by the
        # tame symbol mod d; for odd p | m too, as mu(Q_p) has no p-part
        d = math.gcd(m, p - 1)
        total = sum(cf * _tame_pairing(tower, x, y, d) for cf, (x, y) in k.terms)
        return CoordinateRecord(names, f"Z/{d}", total % d)
    if deg == 2:
        total = sum(cf * hilbert_pairing(x, y, m) for cf, (x, y) in k.terms)
        return CoordinateRecord(names, f"Z/{m}",
                                BrauerCoordinate(Fraction(total % m, m),
                                                 "Hilbert pairing"))
    if m == p == 2:
        # Q_2^x/(Q_2^x)^2 = Z/2^3: (v, eps(u), omega(u)), Serre II.3.3
        v = eps = omega = 0
        for cf, (x,) in k.terms:
            xv, u = _padic_val_unit(x)
            v += cf * xv
            eps += cf * (u % 4 == 3)
            omega += cf * (u % 8 in (3, 5))
        return CoordinateRecord(names, "Z/2 x Z/2 x Z/2", (v % 2, eps % 2, omega % 2))
    # p does not divide m: Q_p^x/m = Z/m (valuation) x F_p^x/m (Hensel)
    d = math.gcd(m, p - 1)
    g = _residue_of_exact_order(p, p - 1) if d > 1 else None
    v = ulog = 0
    for cf, (x,) in k.terms:
        xv, u, _ = tower.val_unit(x.payload)
        v += cf * xv
        if g is not None:
            ulog += cf * _dlog_mod_p(u, g, p)
    return CoordinateRecord(names, f"Z/{m} x Z/{d}", (v % m, ulog % d))


def _dlog_mod_p(u: int, g: int, p: int) -> int:
    acc = 1
    for k in range(p - 1):
        if acc == u % p:
            return k
        acc = (acc * g) % p
    raise InconsistentConstruction("discrete log does not exist")


def _is_zero_value(value) -> bool:
    if isinstance(value, BrauerCoordinate):
        return value.value == 0
    if isinstance(value, tuple):
        return not any(value)
    return value == 0


def _symbol_class(c: CohClass | KClass) -> KClass:
    """The K-class of c, after the one wild-modulus check for Laurent
    towers: every layer shares the characteristic of the base."""
    if isinstance(c, CohClass):
        if c.character is not None:
            raise UnsupportedTower("coordinates need a purely symbol-backed class")
        c = c.kclass
    tower = effective_tower(c.tower)
    if (isinstance(tower, LaurentExt) and tower.characteristic
            and c.modulus % tower.characteristic == 0):
        raise Undecided(f"modulus {c.modulus} is wild over {c.tower}")
    return c


def _leaves(k: KClass, names=()):
    """The 2^s leaves of the residue tree of k over an s-fold Laurent tower,
    as (residue variables, class over the residue base): at each variable,
    outermost first, the unit reduction and then the residue."""
    L = effective_tower(k.tower)
    if not isinstance(L, LaurentExt):
        yield names, k
        return
    yield from _leaves(unit_reduction(k), names)
    yield from _leaves(tame_residue(k), names + (L.var,))


def coh_coordinates(c: CohClass | KClass) -> list[CoordinateRecord]:
    """The 2^s iterated-residue coordinates of a symbol-backed class over an
    s-fold Laurent tower on F_q or Q_p, by subset size, then in tower order."""
    leaves = list(_leaves(_symbol_class(c)))
    order = leaves[-1][0]  # every variable, outermost first
    leaves.sort(key=lambda leaf: (len(leaf[0]), [order.index(v) for v in leaf[0]]))
    return [_evaluate_base_class(leaf, names) for names, leaf in leaves]


def top_coordinate(c: CohClass | KClass) -> CoordinateRecord:
    """The coordinate of the residue along every Laurent variable.  The terms
    are read as they stand: residues and base coordinates are symbol maps,
    so a relator term the normaliser would drop contributes 0."""
    k = _symbol_class(c)
    names = ()
    while isinstance(L := effective_tower(k.tower), LaurentExt):
        k = KClass(L.base, k.degree - 1, k.modulus, _residue_terms(L, k),
                   normalized=True)
        names += (L.var,)
    return _evaluate_base_class(k, names)


def kclass_is_zero(c: KClass) -> bool:
    """Certified zero test: every residue coordinate of c is zero, a
    syntactically zero one on any tower.  Raises Undecided for a wild
    modulus, UnsupportedTower off F_q and Q_p."""
    if not c.terms:
        return True
    return all(not leaf.terms or _is_zero_value(_evaluate_base_class(leaf, names).value)
               for names, leaf in _leaves(_symbol_class(c)))


def kclass_order(c: KClass) -> int:
    """Order of c in K/m (smallest e | m with e*c = 0), certified."""
    for e in range(1, c.modulus + 1):
        if c.modulus % e:
            continue
        if kclass_is_zero(c.scale(e)):
            return e
    return c.modulus


# ---------------------------------------------------------------------------
# relative cohomology H^4_{n, A (x) r}
# ---------------------------------------------------------------------------

@dataclass
class RelativeGroup:
    modulus: int
    subgroup_gcd: int          # subgroup of Z/modulus is <subgroup_gcd>
    order: int                 # order of the quotient group
    per_r: int                 # period of A^(x r)
    generators: list
    convention: str = RESIDUE_CONVENTION

    def describe(self) -> str:
        return f"Z/{self.order}"


def brauer_symbol_of(A) -> KClass:
    """[A] in K_2/per-coordinates for a tensor of symbol algebras."""
    from .algebras import SymbolTag, TensorTag
    T = A.base
    n = None
    parts = []

    def collect(alg):
        nonlocal n
        if isinstance(alg.tag, TensorTag):
            collect(alg.tag.left)
            collect(alg.tag.right)
        elif isinstance(alg.tag, SymbolTag):
            if n is None:
                n = alg.tag.n
            elif n != alg.tag.n:
                raise UnsupportedTower("mixed symbol degrees are out of scope")
            parts.append((alg.tag.a, alg.tag.b))
        else:
            raise UnsupportedTower("Brauer symbol needs symbol-algebra factors")
    collect(A)
    cls = KClass(T, 2, n, [])
    for a, b in parts:
        cls = cls + symbol(T, [a, b], n)
    return cls


def laurent_var_element(T: FieldTower, var: str) -> FieldElement:
    """The monomial var^1 as an element of the full tower T."""
    layers = []
    cur = effective_tower(T)
    while isinstance(cur, LaurentExt) and cur.var != var:
        layers.append(cur)
        cur = effective_tower(cur.base)
    if not isinstance(cur, LaurentExt):
        raise InconsistentConstruction(f"variable {var!r} not found in {T}")
    elem = cur.monomial(1)
    for L in reversed(layers):
        elem = L.elem(elem)
    return elem


def field_generators_mod_m(T: FieldTower, m: int) -> list[FieldElement]:
    """Generators of T^x/(T^x)^m for T an iterated Laurent tower over a tame
    p-adic descriptor: Teichmueller unit, p, and the Laurent variables."""
    chain = effective_tower(T).residue_chain()
    base = effective_tower(T)
    for _, b in chain:
        base = effective_tower(b)
    if not isinstance(base, PAdicDescriptor):
        raise UnsupportedTower("generator set implemented over p-adic bases")
    p = base.p
    if m > 1 and (p - 1) % m != 0 and m != 2:
        raise UnsupportedTower("wild modulus for the generator set")
    gens = [T.elem(_residue_of_exact_order(p, p - 1)), T.elem(p)]
    for var, _ in chain:
        gens.append(laurent_var_element(T, var))
    return gens


def relative_group(A, r: int, modulus: int) -> RelativeGroup:
    """H^4_{modulus, A^(x r)} over a 2-fold Laurent tower on a tame p-adic base,
    computed through iterated residues and the Hilbert pairing.  Each lift
    {g, h, a, b} is read by `top_coordinate` without normalising it."""
    T = A.base
    beta = brauer_symbol_of(A)          # [A] in K_2 / n
    n = beta.modulus
    if modulus % n:
        raise InconsistentConstruction(
            f"modulus {modulus} must be divisible by the symbol degree {n}")
    # per(A^(x r)) = order of r * beta in K_2/n
    per_r = kclass_order(beta.scale(r))
    gens = field_generators_mod_m(T, modulus)
    values = []
    gen_info = []
    for i, g in enumerate(gens):
        for j in range(i, len(gens)):
            h = gens[j]
            total = 0
            for cf, (a, b) in beta.terms:
                # lift of cf*{a,b} into Z/modulus carries the factor modulus/n
                c = cf * (modulus // n) * r % modulus
                if not c:
                    continue
                rec = top_coordinate(KClass(T, 4, modulus, [(c, (g, h, a, b))],
                                            normalized=True))
                val = rec.value
                if isinstance(val, BrauerCoordinate):
                    val = int(val.value * modulus) % modulus
                total = (total + val) % modulus
            values.append(total)
            gen_info.append(((str(g), str(h)), total))
    g = modulus
    for v in values:
        g = math.gcd(g, v)
    order = g  # quotient of Z/modulus by the subgroup generated by the values
    return RelativeGroup(modulus=modulus, subgroup_gcd=g, order=order,
                         per_r=per_r, generators=gen_info)
