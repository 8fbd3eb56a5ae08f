"""Small exact linear algebra toolkit over Fraction matrices.

Everything here is plain Gaussian elimination with exact rational pivots;
no scaling, no tolerances. Matrices are lists of row lists.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def det(rows) -> Fraction:
    """Exact determinant of a square matrix (entries int or Fraction)."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    if n == 2:
        (a, b), (c, d) = rows
        return Fraction(a * d - b * c)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    m = [[Fraction(v) for v in r] for r in rows]
    out = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        p = m[col][col]
        out *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return out


def _eliminate(aug, ncols):
    """Forward elimination with back-substitution to reduced form.

    Returns (rows, pivot_cols); `aug` is modified in place and may have more
    columns than `ncols` (the extra ones ride along as right-hand sides).
    """
    nrows = len(aug)
    width = len(aug[0]) if aug else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row][col]
        if p != 1:
            aug[row] = [v / p for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return aug, pivots


def solve_unique(a_rows, b):
    """Solve A x = b expecting a unique solution.

    Returns ("unique", x), ("inconsistent", None) when no solution exists,
    or ("underdetermined", None) when the solution is not unique.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(v) for v in r] + [Fraction(b[i])] for i, r in enumerate(a_rows)]
    aug, pivots = _eliminate(aug, ncols)
    for r in range(len(pivots), len(aug)):
        if aug[r][ncols] != 0:
            return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    x = [ZERO] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return "unique", x


def nullspace(a_rows, ncols=None):
    """Basis of {x : A x = 0}, deterministic (free variables in ascending order)."""
    if ncols is None:
        ncols = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(v) for v in r] for r in a_rows]
    if not aug:
        return [[ONE if i == j else ZERO for j in range(ncols)] for i in range(ncols)]
    aug, pivots = _eliminate(aug, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, col in enumerate(pivots):
            v[col] = -aug[i][f]
        basis.append(v)
    return basis

