"""Small recursive-descent parsers for the CLI grammars.

Element expressions:  3*t1^2 + t1^3, 4*a+1, -1/2, u, p, zeta, ...
Algebra expressions:  symbol(a; b; n), palg(a; b; p), cyclic_kummer(a; b; n),
                      A (*) B
Form expressions:     diag(e1, e2, ...), pfister(e1; e2; ...)
Symbol expressions:   {x1, x2, ..., xr}
"""

from __future__ import annotations

import re

from .errors import FieldSyntaxError, InconsistentConstruction
from .fields import (
    FieldElement,
    FieldTower,
    LaurentExt,
    PAdicDescriptor,
    RootAdjunction,
    _residue_of_exact_order,
)
from .forms import QuadraticForm, effective_tower, pfister

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^(),;{}])")


def tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise FieldSyntaxError(f"cannot tokenise {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def default_bindings(tower: FieldTower) -> dict[str, FieldElement]:
    """Names available in element expressions over a tower.

    Laurent variables bind to their monomials; over p-adic descriptors,
    p is the prime and, for odd p, u the smallest primitive root modulo p
    (reported in every CLI run; Qp(2) binds no u); zeta is the
    distinguished adjoined root when present.
    """
    binds: dict[str, FieldElement] = {}
    from .ktheory import laurent_var_element
    for var, _ in effective_tower(tower).residue_chain():
        binds[var] = laurent_var_element(tower, var)
    base = effective_tower(tower)
    while isinstance(base, LaurentExt):
        base = effective_tower(base.base)
    if isinstance(base, PAdicDescriptor):
        binds.setdefault("p", tower.elem(base.p))
        if base.p != 2:
            binds.setdefault("u", tower.elem(_residue_of_exact_order(base.p, base.p - 1)))
    cur = tower
    while True:
        if isinstance(cur, RootAdjunction):
            z = cur.zeta()
            binds.setdefault("zeta", tower.elem(z) if cur is not tower else z)
            break
        if isinstance(cur, LaurentExt):
            cur = cur.base
            continue
        break
    return binds


class _ElementParser:
    def __init__(self, tokens, tower, bindings):
        self.toks = tokens
        self.pos = 0
        self.tower = tower
        self.bindings = bindings

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise FieldSyntaxError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_expr(self) -> FieldElement:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> FieldElement:
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor(self) -> FieldElement:
        if self.peek() == "-":
            self.take()
            return -self.parse_factor()
        if self.peek() == "+":
            self.take()
            return self.parse_factor()
        atom = self.parse_atom()
        while self.peek() in ("^", "**"):
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            exp = int(self.take())
            atom = atom ** (-exp if neg else exp)
        return atom

    def parse_atom(self) -> FieldElement:
        tok = self.peek()
        if tok == "(":
            self.take("(")
            node = self.parse_expr()
            self.take(")")
            return node
        tok = self.take()
        if tok.isdigit():
            return self.tower.elem(int(tok))
        if tok in self.bindings:
            return self.bindings[tok]
        raise FieldSyntaxError(f"unbound name {tok!r} in element expression")


def parse_element(text: str, tower: FieldTower,
                  bindings: dict | None = None) -> FieldElement:
    binds = default_bindings(tower)
    if bindings:
        binds.update(bindings)
    parser = _ElementParser(tokenize(text), tower, binds)
    out = parser.parse_expr()
    if parser.pos != len(parser.toks):
        raise FieldSyntaxError(f"trailing tokens {parser.toks[parser.pos:]}")
    return out


def parse_symbol_entries(text: str, tower: FieldTower,
                         bindings: dict | None = None) -> list[FieldElement]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise FieldSyntaxError("symbol syntax is {x1, x2, ..., xr}")
    inner = text[1:-1]
    return [parse_element(part, tower, bindings)
            for part in _split_top(inner, ",") if part.strip()]


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_algebra(text: str, tower: FieldTower, bindings: dict | None = None):
    """symbol(a; b; n) | palg(a; b; p) | cyclic_kummer(a; b; n) | A (*) B."""
    from .algebras import (cyclic_kummer, p_algebra, symbol_algebra, tensor)
    factors = [t.strip() for t in text.split("(*)")]
    built = []
    for f in factors:
        m = re.fullmatch(r"(symbol|palg|cyclic_kummer)\s*\((.*)\)", f.strip(),
                         re.DOTALL)
        if not m:
            raise FieldSyntaxError(f"cannot parse algebra factor {f!r}")
        kind, argstr = m.group(1), m.group(2)
        args = [a.strip() for a in _split_top(argstr, ";")]
        if len(args) != 3:
            raise FieldSyntaxError(f"{kind} takes three ;-separated arguments")
        a = parse_element(args[0], tower, bindings)
        b = parse_element(args[1], tower, bindings)
        n = int(args[2])
        if kind == "symbol":
            built.append(symbol_algebra(tower, a, b, n))
        elif kind == "cyclic_kummer":
            built.append(cyclic_kummer(tower, a, b, n))
        else:
            if tower.characteristic != n:
                raise InconsistentConstruction(
                    f"palg(...; {n}) needs a characteristic-{n} tower")
            built.append(p_algebra(tower, a, b))
    alg = built[0]
    for nxt in built[1:]:
        alg = tensor(alg, nxt)
    return alg


def parse_form(text: str, tower: FieldTower, bindings: dict | None = None):
    text = text.strip()
    m = re.fullmatch(r"diag\s*\((.*)\)", text, re.DOTALL)
    if m:
        entries = [parse_element(part, tower, bindings)
                   for part in _split_top(m.group(1), ",") if part.strip()]
        return QuadraticForm(tower, entries)
    m = re.fullmatch(r"pfister\s*\((.*)\)", text, re.DOTALL)
    if m:
        entries = [parse_element(part, tower, bindings)
                   for part in _split_top(m.group(1), ";") if part.strip()]
        return pfister(tower, entries)
    raise FieldSyntaxError("form syntax: diag(e1, e2, ...) or pfister(e1; e2; ...)")


def parse_algebra_element(text: str, algebra, bindings: dict | None = None):
    """Linear combinations of the algebra generators (x1, y2, ...) and scalars."""
    tower = algebra.base
    binds = default_bindings(tower)
    if bindings:
        binds.update(bindings)
    gen_binds = {name: algebra.generator(name) for name in algebra.gens}

    toks = tokenize(text)

    class P(_ElementParser):
        def parse_atom(self):
            tok = self.peek()
            if tok == "(":
                self.take("(")
                node = self.parse_expr()
                self.take(")")
                return node
            tok = self.take()
            if tok.isdigit():
                return algebra.coerce(int(tok))
            if tok in gen_binds:
                return gen_binds[tok]
            if tok in binds:
                return algebra.coerce(1).scale(binds[tok])
            raise FieldSyntaxError(f"unbound name {tok!r} in algebra element")

        def parse_factor(self):
            if self.peek() == "-":
                self.take()
                return -self.parse_factor()
            atom = self.parse_atom()
            while self.peek() in ("^", "**"):
                self.take()
                exp = int(self.take())
                atom = atom ** exp
            return atom

    parser = P(toks, tower, binds)
    out = parser.parse_expr()
    if parser.pos != len(parser.toks):
        raise FieldSyntaxError(f"trailing tokens {parser.toks[parser.pos:]}")
    return out
