from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvk import linalg, lp
from tvk.errors import DimensionMismatch, InternalError
from tvk.generate import random_point_set
from tvk.geometry import PointSet, _planar_hulls_meet
from tvk.lp import (
    FeasibilityProblem,
    LPResult,
    Witness,
    barycentric_witness,
    common_point,
    hull_contains,
    relative_interior_witness,
    solve_feasibility,
    witness_violations,
)
from tvk.tverberg import birch_partition_planar

from conftest import HEXAGON, ref_solve_unique


def test_trivial_feasible():
    res = solve_feasibility(FeasibilityProblem([[1]], [1]))
    assert res.feasible and res.x == [F(1)]
    # no constraint and no variable: feasible, with the empty x
    assert solve_feasibility(FeasibilityProblem([], [])) == LPResult(True, [])


def test_trivial_infeasible():
    res = solve_feasibility(FeasibilityProblem([[1]], [-1]))
    assert not res.feasible and res.x is None


def test_square_diagonals_common_point():
    ps = PointSet(2, [(0, 0), (1, 1), (1, 0), (0, 1)])
    w = common_point([(0, 1), (2, 3)], ps)
    assert w is not None
    assert w.point == (F(1, 2), F(1, 2))
    assert witness_violations(w, [(0, 1), (2, 3)], ps) == []


def test_disjoint_triangles_no_common_point():
    ps = PointSet(2, [(0, 0), (1, 0), (0, 1), (10, 10), (11, 10), (10, 11)])
    assert common_point([(0, 1, 2), (3, 4, 5)], ps) is None


def test_hexagon_triples_common_point():
    ps = PointSet(2, HEXAGON)
    parts = [(0, 2, 4), (1, 3, 5)]
    w = common_point(parts, ps)
    assert w is not None
    assert witness_violations(w, parts, ps) == []
    for part in parts:
        assert hull_contains(w.point, part, ps)


def test_common_point_rejects_empty_and_overlapping_parts():
    ps = PointSet(2, HEXAGON)
    with pytest.raises(ValueError, match="empty part"):
        common_point([(0, 1, 2), ()], ps)
    with pytest.raises(ValueError, match="parts are not disjoint"):
        common_point([(0, 1, 2), (2, 3, 4)], ps)


@pytest.mark.parametrize("d", [2, 3])
def test_relative_interior_witness_rejects_empty_and_overlapping_parts(d):
    # the same check as common_point's, before any screen or LP
    ps = random_point_set(d, 6, seed=1)
    with pytest.raises(ValueError, match="empty part"):
        relative_interior_witness([(0, 1, 2), ()], ps)
    with pytest.raises(ValueError, match="parts are not disjoint"):
        relative_interior_witness([(0, 1, 2, 3), (3, 4)], ps)


@pytest.mark.parametrize("d", [2, 3])
def test_parts_reject_no_parts_and_an_index_outside_the_set(d):
    # -1 and 5 name the same point of six through Python's indexing, and 6
    # names none; both entry points refuse them before any screen or LP
    ps = random_point_set(d, 6, seed=1)
    for entry in (common_point, relative_interior_witness):
        with pytest.raises(ValueError, match="no parts"):
            entry([], ps)
        for parts in ([(-1,), (5,)], [(0, 1), (2, 6)]):
            with pytest.raises(ValueError, match=r"an index lies outside 0\.\.5"):
                entry(parts, ps)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 8)])
def test_hull_contains_rejects_an_index_outside_the_set(d, n):
    # -1 and -n name points n-1 and 0 through Python's indexing, and n names
    # none; in the part, each is refused
    ps = random_point_set(d, n, seed=1)
    outside = rf"an index lies outside 0\.\.{n - 1}"
    for part in ((-n,), (1, n), (0, -1)):
        with pytest.raises(ValueError, match=outside):
            hull_contains(ps.points[0], part, ps)
    first, last = ps.points[0], ps.points[n - 1]
    assert hull_contains(last, (n - 1,), ps) and not hull_contains(first, (n - 1,), ps)


def test_solver_deterministic():
    prob = FeasibilityProblem(
        [[1, 2, 0, 1], [0, 1, 1, 3]],
        [4, 5],
    )
    assert solve_feasibility(prob).x == solve_feasibility(prob).x


def test_relative_interior_witness_strictly_positive():
    ps = PointSet(2, HEXAGON)
    parts = [(0, 2, 4), (1, 3, 5)]
    w = relative_interior_witness(parts, ps)
    assert w is not None
    assert all(weight > 0 for row in w.weights for weight in row)
    assert witness_violations(w, parts, ps) == []
    # the weights of the point itself, recomputed, are positive too
    for row in barycentric_witness(w.point, parts, ps).weights:
        assert all(weight > 0 for weight in row)


def test_hull_membership():
    ps = PointSet(2, [(0, 0), (4, 0), (0, 4), (4, 4), (1, 1)])
    assert hull_contains((2, 2), (0, 1, 2, 3), ps)
    assert hull_contains((0, 0), (0, 1, 2, 3), ps)  # closed hull
    assert not hull_contains((5, 5), (0, 1, 2, 3), ps)
    assert not hull_contains((2, 2), (0, 1, 4), ps)
    # beyond the plane, parts that are not d+1 independent points go to the
    # LP rule: five points, a segment, a square
    ps = PointSet(
        3, [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (4, 4, 4), (1, 1, 1), (4, 4, 0)]
    )
    assert hull_contains((1, 1, 1), (0, 1, 2, 3, 4), ps)
    assert hull_contains(ps.points[5], (0, 1, 2, 3, 4), ps)
    assert not hull_contains((5, 5, 5), (0, 1, 2, 3, 4), ps)
    assert hull_contains((2, 2, 2), (0, 4), ps)
    assert not hull_contains((2, 2, 1), (0, 4), ps)
    assert hull_contains((2, 2, 0), (0, 1, 2, 6), ps)
    assert not hull_contains((2, 2, 1), (0, 1, 2, 6), ps)
    # and check the indices as every other rule does: -1 is not point 6
    for p, part in ((ps.points[6], (-1,)), (ps.points[0], (7,))):
        with pytest.raises(ValueError, match="an index lies outside 0..6"):
            hull_contains(p, part, ps)


@pytest.mark.parametrize("d", [2, 3])
def test_hull_membership_reads_the_point_as_query_does(d):
    # d coordinates, each through `geometry.rat`: a point with one too few
    # or one too many raises DimensionMismatch, a float raises TypeError;
    # d+2 points take the LP rule beyond the plane
    ps = random_point_set(d, d + 2, seed=3)
    idx = range(d + 2)
    for k in (d - 1, d + 1):
        with pytest.raises(DimensionMismatch, match=f"point has {k} coordinates, expected {d}"):
            hull_contains((1,) * k, idx, ps)
    with pytest.raises(TypeError, match="floats are not accepted"):
        hull_contains((0.5,) * d, idx, ps)
    assert hull_contains(ps.points[0], idx, ps)


@pytest.mark.parametrize("d", [2, 3])
def test_hull_of_no_points_contains_nothing(d):
    ps = random_point_set(d, d + 2, seed=3)
    assert not hull_contains(ps.points[0], (), ps)


def test_lp_inputs_take_what_point_coordinates_take():
    # ints, Fractions and rational strings, as `geometry.rat`; floats raise
    assert solve_feasibility(FeasibilityProblem([["1/3"]], ["1"])).x == [3]
    assert Witness(("1/2", 2), [["1/2", F(1, 2)]]).weights == [[F(1, 2), F(1, 2)]]
    for bad in (
        lambda: FeasibilityProblem([[0.1]], [1]),
        lambda: FeasibilityProblem([[1]], [0.5]),
        lambda: Witness((1, 2), [[0.5, 0.5]]),
        lambda: Witness((0.5, 2), [[1]]),
    ):
        with pytest.raises(TypeError, match="floats are not accepted"):
            bad()


# --- brute-force oracle: feasible iff some supported subsystem solves >= 0 ---


def bfs_oracle(a, b, m, n):
    if all(v == 0 for v in b):
        return True
    for size in range(1, m + 1):
        for cols in combinations(range(n), size):
            sub = [[a[i][j] for j in cols] for i in range(m)]
            status, x = ref_solve_unique(sub, b)
            if status == "unique" and all(v >= 0 for v in x):
                return True
    return False


small = st.integers(min_value=-4, max_value=4)


@given(
    st.lists(st.lists(small, min_size=4, max_size=4), min_size=2, max_size=3),
    st.lists(small, min_size=2, max_size=3),
)
def test_feasibility_matches_bfs_enumeration(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    prob = FeasibilityProblem(a, b)
    got = solve_feasibility(prob)
    expect = bfs_oracle(a, b, m, 4)
    assert got.feasible == expect
    if got.feasible:
        for i in range(m):
            assert sum(a[i][j] * got.x[j] for j in range(4)) == b[i]
        assert all(v >= 0 for v in got.x)


# --- differential test against the Fraction tableau -------------------------
#
# The reference is the phase-1 simplex as it was written over Fractions: the
# integer tableau must take the same pivots (Bland's rule on the same reduced
# costs, the same ratio-test ties) and so return the same x.


def fraction_solve(a, b, left=None):
    """The reference solve; the label of each leaving variable is appended
    to `left` when a list is given."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return True, []
    tab = []
    for i in range(m):
        row = [F(v) for v in a[i]] + [F(b[i])]
        if b[i] < 0:
            row = [-v for v in row]
        tab.append(row)
    basis = [n + i for i in range(m)]
    rrow = [sum(tab[i][j] for i in range(m)) for j in range(n + 1)]
    while True:
        entering = next((j for j in range(n) if rrow[j] > 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coef = tab[i][entering]
            if coef > 0:
                ratio = tab[i][n] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        prow = tab[leaving]
        piv = prow[entering]
        nonzero = [j for j in range(n + 1) if prow[j]]
        for j in nonzero:
            prow[j] /= piv
        for row in tab + [rrow]:
            f = row[entering]
            if f and row is not prow:
                for j in nonzero:
                    row[j] -= f * prow[j]
        if left is not None:
            left.append(basis[leaving])
        basis[leaving] = entering
    if sum(tab[i][n] for i in range(m) if basis[i] >= n) != 0:
        return False, None
    x = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][n]
    return True, x


def fraction_common_point_rows(parts, ps, shift=F(0)):
    """The hull-intersection system as Fraction rows, built apart from
    `lp._common_point_problem`: one convexity row per part, then d rows per
    later part. The reference solver reads these rows as the intended ones."""
    cols = sum(map(len, parts))
    offsets = [sum(map(len, parts[:i])) for i in range(len(parts))]
    a, b = [], []
    for i, part in enumerate(parts):
        row = [F(0)] * cols
        for k in range(len(part)):
            row[offsets[i] + k] = F(1)
        a.append(row)
        b.append(1 - shift * len(part))
    for i in range(1, len(parts)):
        for c in range(ps.dim):
            row = [F(0)] * cols
            for k, j in enumerate(parts[0]):
                row[offsets[0] + k] = ps.points[j][c]
            for k, j in enumerate(parts[i]):
                row[offsets[i] + k] = -ps.points[j][c]
            a.append(row)
            b.append(shift * (sum(ps.points[j][c] for j in parts[i])
                              - sum(ps.points[j][c] for j in parts[0])))
    return a, b


def fraction_witness(parts, ps, shift=F(0)):
    """The witness at the reference solver's vertex, decoded over Fractions:
    weights x + shift, and the point their combination of the first part."""
    feasible, x = fraction_solve(*fraction_common_point_rows(parts, ps, shift))
    if not feasible:
        return None
    weights, pos = [], 0
    for part in parts:
        weights.append([v + shift for v in x[pos:pos + len(part)]])
        pos += len(part)
    point = tuple(
        sum(w * ps.points[j][c] for w, j in zip(weights[0], parts[0]))
        for c in range(ps.dim)
    )
    return Witness(point, weights)


def fraction_relative_interior_witness(parts, ps):
    t = F(1, 2 * max(map(len, parts)))
    for _ in range(lp.MAX_HALVINGS):
        w = fraction_witness(parts, ps, t)
        if w is not None:
            return w
        t /= 2
    return None


def same_witness(got, expect):
    if expect is None:
        return got is None
    return got is not None and (got.point, got.weights) == (expect.point, expect.weights)


entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(F, st.integers(-3, 3), st.sampled_from([2, 3, 4, 6])),
)


@st.composite
def systems(draw):
    """Small systems with mixed row denominators, negative right-hand sides,
    zero rows and columns, repeated columns and proportional rows (which
    tie in the ratio test); half of them feasible by construction."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = [sum(v * x for v, x in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    for i in range(m):  # rows over a common denominator weigh differently
        d = draw(st.sampled_from([1, 1, 5, 7]))
        a[i], b[i] = [F(v, d) for v in a[i]], F(b[i], d)
    for kind in draw(st.lists(st.sampled_from("rcdt"), max_size=3)):
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        j, l = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "r":  # zero row
            a[i] = [0] * n
        elif kind == "c":  # zero column
            for row in a:
                row[j] = 0
        elif kind == "d":  # repeated column
            for row in a:
                row[l] = row[j]
        elif i != k:  # row k a multiple of row i: equal ratios
            s = draw(st.sampled_from([F(1), F(2), F(1, 3), F(-1, 2)]))
            a[k], b[k] = [s * v for v in a[i]], s * b[i]
    return a, b


# rows of different denominators: the intended rows' sum enters column 2
# first and reaches x = (1, 0, 2), the integer rows' sum would enter column
# 1 and reach (0, 1/4, 1/4)
@example(([[-2, -1, 1], [F(-1, 3), 1, F(1, 3)]], [0, F(1, 3)]))
@settings(max_examples=300)
@given(systems())
def test_solver_matches_fraction_tableau(system):
    a, b = system
    got = solve_feasibility(FeasibilityProblem(a, b))
    feasible, x = fraction_solve(a, b)
    assert got.feasible == feasible
    assert got.x == x
    assert all(type(v) is F for v in got.x or [])


def test_ratio_test_ties_go_to_the_smallest_basis_label():
    # column 0 enters with rows 0 and 2 tied at ratio 0; the tie goes to
    # artificial 0, and x = (0, 1/4, 3/4, 1/2) if it went to artificial 2
    a = [[2, 1, 1, -2], [0, 0, 2, 1], [0, 2, 0, -1]]
    b = [0, 2, 0]
    got = solve_feasibility(FeasibilityProblem(a, b))
    assert (got.feasible, got.x) == fraction_solve(a, b)
    assert got.x == [F(3, 2), 1, 0, 2]


# x0 enters and artificial 0 leaves; its slot goes to x2, so x2 sits in
# slot 0 and x1 in slot 1, and Bland's rule must enter x1, the smaller
# label, not x2, the first slot: x = (0, 0, 1) if x2 entered
ARTIFICIALS_LEAVE = ([[1, 0, 0], [1, 1, 1]], [0, 1])
# structural variables leave the basis, and later pivots read the columns
# they take: x = (1/2, 1, 1), and the second system is infeasible
STRUCTURALS_LEAVE = [
    ([[-2, -1, 1], [0, 0, -1], [0, -1, 0]], [-1, -1, -1]),
    ([[-1, -1], [0, -1]], [-1, -2]),
]


def test_only_artificials_leave_and_the_smallest_label_enters():
    a, b = ARTIFICIALS_LEAVE
    left = []
    expect = fraction_solve(a, b, left)
    assert left and all(v >= 3 for v in left)
    got = solve_feasibility(FeasibilityProblem(a, b))
    assert (got.feasible, got.x) == expect == (True, [0, 1, 0])


def test_structural_variables_leave_the_basis():
    expected = [(True, [F(1, 2), 1, 1]), (False, None)]
    for (a, b), want in zip(STRUCTURALS_LEAVE, expected):
        left = []
        expect = fraction_solve(a, b, left)
        assert any(v < len(a[0]) for v in left)
        got = solve_feasibility(FeasibilityProblem(a, b))
        assert (got.feasible, got.x) == expect == want


def test_a_solve_leaves_the_problem_as_it_was():
    # rows with b >= 0 that lose a column, a row scale of 3, negated rows
    a, b = ARTIFICIALS_LEAVE
    cases = [ARTIFICIALS_LEAVE, ([[F(1, 3), 0, 0], *a[1:]], b), *STRUCTURALS_LEAVE]
    for a, b in cases:
        prob = FeasibilityProblem(a, b)
        rows, scales = [row[:] for row in prob.rows], prob.scales[:]
        solve_feasibility(prob)
        assert (prob.rows, prob.scales) == (rows, scales)


def test_a_pivot_that_breaks_phase_1_is_an_internal_error():
    # a negative row scale, which FeasibilityProblem never builds: pivoting
    # x0 in on row 0 leaves row 1 with scale -2 in the first system, every
    # right-hand side >= 0, and the reduced costs with right-hand side -6
    # in the second, every scale > 0
    cases = [([[2, 1], [1, 1], [0, 5]], [1, -1, 1]), ([[2, 0, 1], [0, 1, 3]], [1, -1])]
    for rows, scales in cases:
        with pytest.raises(InternalError, match="a pivot left a row"):
            solve_feasibility(lp._integer_problem(rows, scales))


def test_malformed_tableau_is_an_internal_error(monkeypatch):
    # a negative row scale turns the reduced costs against their column:
    # column 0 looks improving, but no row can leave
    monkeypatch.setattr(linalg, "_int_row", lambda row: ([int(v) for v in row], -1))
    with pytest.raises(InternalError, match="unbounded"):
        solve_feasibility(FeasibilityProblem([[-1]], [1]))


coords = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-12, 12), st.sampled_from([2, 3, 5])))


@st.composite
def parts_in_space(draw, d):
    r = draw(st.integers(2, 3))
    sizes = [draw(st.integers(1, d + 2)) for _ in range(r)]
    pts = [tuple(draw(coords) for _ in range(d)) for _ in range(sum(sizes))]
    order = draw(st.permutations(range(len(pts))))
    parts, pos = [], 0
    for s in sizes:
        parts.append(tuple(order[pos:pos + s]))
        pos += s
    return PointSet(d, pts), parts


# halves in the coordinates: the integer coordinate rows are twice the
# intended ones, and only their row scales keep the witness at (1/3, -1/3)
@example((PointSet(2, [(1, F(1, 2)), (-1, -2), (F(1, 2), -1), (-1, -1), (1, 0)]), [(0, 1, 2), (3, 4)]))
@settings(max_examples=100)
@given(st.sampled_from([2, 3]).flatmap(parts_in_space))
def test_common_point_matches_fraction_tableau(case):
    ps, parts = case
    assert same_witness(common_point(parts, ps), fraction_witness(parts, ps))


# coordinates with denominators, in the plane and in R^3: with the integer
# coordinate rows tagged with scale 1 instead of den, the reduced costs
# change, the shifted LPs take other pivots and the witness moves
@example((
    PointSet(2, [(F(-7, 5), F(1, 3)), (F(5, 3), F(10, 3)), (-3, F(-11, 2)),
                 (-2, F(-2, 3)), (0, -1), (1, 6)]),
    [(0, 1, 2, 3), (4, 5)],
))
@example((
    PointSet(3, [(-1, 0, 2), (3, 4, F(8, 3)), (6, -6, 4), (F(-6, 5), -3, 3),
                 (F(5, 2), -1, -3), (3, -5, -3), (-4, -6, 1), (F(5, 3), 4, 3)]),
    [(0, 1, 2, 3, 4), (5, 6, 7)],
))
@settings(max_examples=40)
@given(st.sampled_from([2, 3]).flatmap(parts_in_space))
def test_relative_interior_witness_matches_fraction_tableau(case):
    ps, parts = case
    expect = fraction_relative_interior_witness(parts, ps)
    assert same_witness(relative_interior_witness(parts, ps), expect)


@st.composite
def planar_hulls(draw):
    """Two to four parts of one to five planar points, as a point set and
    its consecutive parts. A point lies on a small grid, on the line
    through two earlier points (t = 0 or 1 repeats a point, within the part
    or from an earlier one, t = 1/2 lies on an earlier edge, other t extend
    it: collinear triples), or is the previous point moved by the
    difference of two earlier ones, which makes translated, parallel
    segments."""
    pts, parts = [], []
    for _ in range(draw(st.integers(2, 4))):
        start = len(pts)
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["grid", "line", "line", "parallel"])) if pts else "grid"
            if kind == "grid":
                pts.append((draw(st.integers(-3, 3)), draw(st.integers(-3, 3))))
                continue
            a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            if kind == "line":
                t = F(draw(st.integers(-2, 4)), 2)
                pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
            else:
                pts.append(tuple(c + y - x for c, x, y in zip(pts[-1], a, b)))
        parts.append(tuple(range(start, len(pts))))
    return PointSet(2, pts), parts


def frame_hulls(parts, ps):
    pts = ps.frame[0]
    return [[pts[i] for i in part] for part in parts]


@settings(max_examples=500)
@given(planar_hulls())
def test_planar_hulls_meet_matches_common_point(case):
    ps, parts = case
    assert _planar_hulls_meet(frame_hulls(parts, ps)) == (common_point(parts, ps) is not None)


# two triangles apart along the x axis: every shift misses
@example((PointSet(2, [(0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1)]), [(0, 1, 2), (3, 4, 5)]))
# a triangle around a point of another part: small shifts meet
@example((PointSet(2, [(0, 0), (4, 0), (0, 4), (1, 1), (9, 9)]), [(0, 1, 2), (3, 4)]))
@settings(max_examples=150)
@given(planar_hulls())
def test_shrunk_parts_meet_exactly_where_the_shifted_lp_is_feasible(case):
    ps, parts = case
    hulls = frame_hulls(parts, ps)
    biggest = max(map(len, parts))
    # every q up to 4x the largest part, and the witness search's shifts
    qs = {*range(1, 4 * biggest + 1), *(2 * biggest << h for h in range(6))}
    for q in sorted(qs):
        feasible = fraction_witness(parts, ps, F(1, q)) is not None
        if q < biggest:
            # no weights >= 1/q for a part of more than q points
            assert not feasible, q
        else:
            assert _planar_hulls_meet([lp._shrunk(vs, q) for vs in hulls]) == feasible, q


def test_planar_witness_lps_with_over_100_rows_match_fraction_tableau(monkeypatch):
    # the witness LPs of planar crossing_simplices at n=120: 40 triangles,
    # 40 + 2*39 = 118 rows; the first shift is too large and is infeasible
    ps = random_point_set(2, 120, seed=1)
    parts = birch_partition_planar(ps, 40).parts
    shifts = [F(1, 6), F(1, 12), F(1, 24)]
    verdicts = []
    for t in shifts:
        a, b = fraction_common_point_rows(parts, ps, t)
        assert len(a) == 118
        got = solve_feasibility(FeasibilityProblem(a, b))
        feasible, x = fraction_solve(a, b)
        assert (got.feasible, got.x) == (feasible, x)
        verdicts.append(feasible)
    assert verdicts == [False, True, True]
    # the exact shift decision rules out t = 1/6 without an LP: one solve, at 1/12
    solves = []

    def counted(prob):
        solves.append(prob)
        return solve_feasibility(prob)

    monkeypatch.setattr(lp, "solve_feasibility", counted)
    expect = fraction_relative_interior_witness(parts, ps)
    assert same_witness(relative_interior_witness(parts, ps), expect)
    assert len(solves) == 1


LP_RAISES = {
    "ragged constraint matrix": (([[1, 2], [1]], [0, 0]), "ragged constraint matrix"),
    "more right-hand sides than rows": (([[1]], [1, 2]), "matrix/rhs row count mismatch"),
}


@pytest.mark.parametrize("args, message", LP_RAISES.values(), ids=LP_RAISES)
def test_lp_public_raises(args, message):
    with pytest.raises(DimensionMismatch, match=message):
        FeasibilityProblem(*args)
