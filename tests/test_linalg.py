from fractions import Fraction as F
from itertools import permutations

from hypothesis import given
from hypothesis import strategies as st

from tvk import linalg

ints = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)


def det_by_permutation(rows):
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the permutation sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = F(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


@given(square(3))
def test_det3_matches_permanent_expansion(rows):
    assert linalg.det(rows) == det_by_permutation(rows)


@given(square(4))
def test_det4_matches_permanent_expansion(rows):
    assert linalg.det(rows) == det_by_permutation(rows)


@given(square(3), st.lists(ints, min_size=3, max_size=3))
def test_solve_roundtrip(rows, x):
    b = [sum(rows[i][j] * x[j] for j in range(3)) for i in range(3)]
    status, got = linalg.solve_unique(rows, b)
    if linalg.det(rows) != 0:
        assert status == "unique"
        assert got == [F(v) for v in x]
    else:
        assert status in ("underdetermined", "inconsistent")


def test_solve_inconsistent():
    status, x = linalg.solve_unique([[1, 0], [1, 0]], [1, 2])
    assert status == "inconsistent" and x is None


def test_solve_underdetermined():
    status, x = linalg.solve_unique([[1, 1]], [2])
    assert status == "underdetermined" and x is None


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=2, max_size=3))
def test_nullspace_vectors_annihilate(rows):
    for v in linalg.nullspace(rows, 4):
        assert all(sum(r[j] * v[j] for j in range(4)) == 0 for r in rows)


def test_nullspace_deterministic():
    rows = [[1, 2, 3, 4], [0, 0, 1, 1]]
    assert linalg.nullspace(rows, 4) == [[-2, 1, 0, 0], [-1, 0, -1, 1]]


# Reference: plain Gauss-Jordan elimination over Fractions, the solver the
# fraction-free reduction replaced; the determinant is the product of its
# pivots with the sign of its row swaps.


def ref_eliminate(aug, ncols):
    nrows = len(aug)
    pivots = []
    flip, prod = 1, F(1)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            aug[row], aug[piv] = aug[piv], aug[row]
            flip = -flip
        p = aug[row][col]
        prod *= p
        aug[row] = [v / p for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return aug, pivots, flip * prod


def ref_det(rows):
    _, pivots, value = ref_eliminate([[F(v) for v in r] for r in rows], len(rows))
    return value if len(pivots) == len(rows) else F(0)


def ref_solve_unique(a_rows, b):
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [[F(v) for v in r] + [F(b[i])] for i, r in enumerate(a_rows)]
    aug, pivots, _ = ref_eliminate(aug, ncols)
    if any(aug[r][ncols] != 0 for r in range(len(pivots), len(aug))):
        return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    x = [F(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return "unique", x


def ref_nullspace(a_rows, ncols):
    aug, pivots, _ = ref_eliminate([[F(v) for v in r] for r in a_rows], ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, col in enumerate(pivots):
            v[col] = -aug[i][f]
        basis.append(v)
    return basis


# zeros are drawn often, so pivots are often missing and rows get swapped
entries = st.one_of(
    st.just(0), ints, st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@st.composite
def systems(draw, square=False):
    """(rows, b, ncols): 0-6 rows of 1-6 int or Fraction entries (0-6 square).

    Sometimes the last row is a combination of the others, with a
    right-hand side that may break the combination (an inconsistent system).
    """
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    b = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    if nrows >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=nrows - 1, max_size=nrows - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        b[-1] = sum(c * v for c, v in zip(coeffs, b)) + draw(st.sampled_from([0, 1, F(-2, 3)]))
    return rows, b, ncols


@given(systems(square=True))
def test_det_matches_fraction_elimination(system):
    rows, _, _ = system
    got = linalg.det(rows)
    assert got == ref_det(rows) and type(got) is F


@given(systems())
def test_solve_unique_matches_fraction_elimination(system):
    rows, b, _ = system
    status, x = linalg.solve_unique(rows, b)
    assert (status, x) == ref_solve_unique(rows, b)
    assert x is None or all(type(v) is F for v in x)


@given(systems())
def test_nullspace_matches_fraction_elimination(system):
    rows, _, ncols = system
    basis = linalg.nullspace(rows, ncols)
    assert basis == ref_nullspace(rows, ncols)
    assert all(type(v) is F for vec in basis for v in vec)
