"""Small exact linear algebra toolkit over int and Fraction matrices.

Two questions, `det` and `nullspace`, and one fraction-free Gauss-Jordan
reduction that serves both: every working entry is an integer, and
`Fraction`s are built only for the returned values. A linear system
A x = b is read off the nullspace of [A | -b]. No tolerances anywhere.
Matrices are lists of row lists.
"""
from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _reduce(rows, ncols):
    """Fraction-free Gauss-Jordan reduction on the first `ncols` columns.

    Each row is scaled to integers. At every pivot p every other row becomes
    (p*a - f*b) // prev, an exact division by the previous pivot (Bareiss,
    Math. Comp. 1968), so each entry stays an integer minor of the scaled
    matrix, and every pivot row ends with the last pivot in its pivot
    column: row i is the reduced row echelon form's row i times that pivot.
    Returns the integer rows, the pivot columns, the sign of the row swaps
    and the product of the row scales.
    """
    m, scale = [], 1
    for row in rows:
        row, den = _int_row(row)
        scale *= den
        m.append(row)
    pivots, flip, prev = [], 1, 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        piv = next((r for r in range(k, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            flip = -flip
        prev = _pivot(m, k, col, prev)
        pivots.append(col)
    return m, pivots, flip, scale


def _int_row(row):
    """The row (ints or Fractions) times the lcm of its denominators, as
    integers, and that lcm."""
    den = math.lcm(*[v.denominator for v in row])
    return [v.numerator * (den // v.denominator) for v in row], den


def _pivot(m, k, col, prev):
    """One fraction-free pivot on m[k][col], in place, returning the pivot p.

    Row k stays; every other row a becomes (p*a - f*b) // prev with f its
    entry in `col` and b row k, so that, with `prev` the previous pivot,
    every row keeps one shared denominator: the new pivot.
    """
    b = m[k]
    p = b[col]
    for r, a in enumerate(m):
        if r != k:
            f = a[col]
            if f:
                m[r] = [(p * x - f * y) // prev for x, y in zip(a, b)]
            else:
                m[r] = [p * x // prev for x in a]
    return p


def det(rows) -> Fraction:
    """Exact determinant of a square matrix (entries int or Fraction): the
    last pivot of the reduction, times the swap sign, over the row scales."""
    m, pivots, flip, scale = _reduce(rows, len(rows))
    if len(pivots) < len(m):
        return ZERO
    return Fraction(flip * m[-1][-1], scale) if m else ONE


def nullspace(a_rows, ncols):
    """Basis of {x : A x = 0}, deterministic (free variables in ascending order)."""
    m, pivots, _, _ = _reduce(a_rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, col in zip(m, pivots):
            v[col] = Fraction(-row[f], row[col])
        basis.append(v)
    return basis
