"""Exact dense linear algebra over field towers (and char polys over rings).

Matrices are plain lists of lists.  Entries are FieldElements for the
elimination routines; the Berkowitz characteristic polynomial is division
free and also accepts QuotElt entries from poly.QuotientRing.
"""

from __future__ import annotations

from .fields import FieldTower
from .poly import _is_zero, poly_mul


def identity(tower: FieldTower, n: int):
    """The n x n identity over a tower or a QuotientRing."""
    return [[tower.one() if i == j else tower.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(a, b, zero):
    """a @ b over a tower or a QuotientRing; zero entries are skipped."""
    b_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b]
    out = [[zero] * len(b[0]) for _ in a]
    for ai, row in zip(a, out):
        for x, bl in zip(ai, b_rows):
            if x.is_zero():
                continue
            for j, y in bl:
                row[j] = row[j] + x * y
    return out


def berkowitz_charpoly(mat, zero, one):
    """Coefficients of det(X*I - M), low degree first, leading coeff 1.

    Division free, so it works over any commutative ring (QuotientRing
    elements included).
    """
    n = len(mat)
    if n == 0:
        return [one]
    # polys[k] holds char poly of leading k x k block, HIGH degree first
    poly = [one, -mat[0][0]]
    for r in range(1, n):
        a_rr = mat[r][r]
        row = mat[r][:r]
        col = [mat[i][r] for i in range(r)]
        # Toeplitz column: t0 = 1, t1 = -a_rr, t_{j+2} = -(row . A^j col)
        t = [one, -a_rr]
        w = col[:]
        for _ in range(r - 1):
            t.append(-_dot(row, w, zero))
            w = [_dot(mat[i][:r], w, zero) for i in range(r)]
        t.append(-_dot(row, w, zero))
        # new poly = the first r+2 coefficients of t * old poly
        poly = poly_mul(t, poly, zero, _is_zero)[:r + 2]
    poly.reverse()
    return poly


def _dot(u, v, zero):
    acc = zero
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def rref(mat, tower: FieldTower):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [row[:] for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat, tower: FieldTower) -> int:
    return len(rref(mat, tower)[1])


def solve(mat, rhs, tower: FieldTower):
    """One solution of mat @ x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(b.is_zero() for b in rhs) else None
    cols = len(mat[0])
    aug = [row[:] + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug, tower)
    for row in red:
        if all(x.is_zero() for x in row[:-1]) and not row[-1].is_zero():
            return None
    x = [tower.zero()] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            return None
        x[c] = red[r][-1]
    return x


def nullspace(mat, tower: FieldTower):
    """Basis of the kernel of mat (as row vectors of length cols)."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(mat, tower)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [tower.zero()] * cols
        v[fc] = tower.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(mat, tower: FieldTower):
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [row[:] + ident_row for row, ident_row in zip(mat, identity(tower, n))]
    red, pivots = rref(aug, tower)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]
