from fractions import Fraction as F
from itertools import permutations

from hypothesis import given
from hypothesis import strategies as st

from tvk import linalg

from conftest import ref_eliminate

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


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=2, max_size=3))
def test_nullspace_vectors_annihilate(rows):
    for v in linalg.nullspace(rows, 4):
        assert all(sum(r[j] * v[j] for j in range(4)) == 0 for r in rows)


def test_nullspace_deterministic():
    rows = [[1, 2, 3, 4], [0, 0, 1, 1]]
    assert linalg.nullspace(rows, 4) == [[-2, 1, 0, 0], [-1, 0, -1, 1]]


# References: `conftest.ref_eliminate`, the plain Fraction Gauss-Jordan
# elimination that the fraction-free reduction replaced; the determinant is
# the product of its pivots with the sign of its row swaps.


def ref_det(rows):
    _, pivots, value = ref_eliminate([[F(v) for v in r] for r in rows], len(rows))
    return value if len(pivots) == len(rows) else F(0)


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
    """(rows, ncols): 0-6 rows of 1-6 int or Fraction entries (0-6 square),
    sometimes with the last row a combination of the others."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=nrows - 1, max_size=nrows - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    return rows, ncols


@given(systems(square=True))
def test_det_matches_fraction_elimination(system):
    rows, _ = system
    got = linalg.det(rows)
    assert got == ref_det(rows) and type(got) is F


@given(systems())
def test_nullspace_matches_fraction_elimination(system):
    rows, ncols = system
    basis = linalg.nullspace(rows, ncols)
    assert basis == ref_nullspace(rows, ncols)
    assert all(type(v) is F for vec in basis for v in vec)
