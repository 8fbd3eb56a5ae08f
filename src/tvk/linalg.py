"""Small exact linear algebra toolkit over int and Fraction matrices.

`det` is fraction-free Bareiss elimination on the rows scaled to integers;
the solvers are plain Gaussian elimination with exact rational pivots. No
tolerances anywhere. Matrices are lists of row lists.
"""
from __future__ import annotations

import math
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
    """Exact determinant of a square matrix (entries int or Fraction).

    Bareiss elimination (Math. Comp. 1968): each row is scaled to integers,
    and every step divides exactly by the previous pivot, so each entry
    stays an integer minor of the scaled matrix.
    """
    scale = 1
    m = []
    for row in rows:
        den = math.lcm(*[v.denominator for v in row])
        scale *= den
        m.append([v.numerator * (den // v.denominator) for v in row])
    n = len(m)
    flip, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            flip = -flip
        p = m[k][k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * p - f * m[k][j]) // prev
        prev = p
    return Fraction(flip * m[-1][-1], scale) if n else ONE


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

