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
    assert linalg.nullspace(rows, 4) == linalg.nullspace(rows, 4)
