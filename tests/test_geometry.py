from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvk.errors import (
    DegenerateSimplex,
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    PerturbationFailed,
    TrianglesIntersect,
)
from tvk.geometry import (
    PointSet,
    gp_violations_with_extra,
    in_general_position,
    orientation,
    perturb,
    require_general_position,
    simplex_volume,
)
from tvk import generate, geometry, linalg
from tvk.apps import segments_intersect_3d, triangles_linked
from tvk.fixing import count_interior_points, enumerate_origin_pairs
from tvk.lp import barycentric_witness, hull_contains

coords = st.integers(min_value=-50, max_value=50)


def pt2():
    return st.tuples(coords, coords)


def pt3():
    return st.tuples(coords, coords, coords)


# --- orientation -------------------------------------------------------------


def test_orientation_standard_simplex():
    assert orientation([(0, 0), (1, 0), (0, 1)]) == 1


def test_orientation_collinear():
    assert orientation([(0, 0), (1, 1), (2, 2)]) == 0


def test_orientation_unit_tetrahedron():
    assert orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


@given(pt2(), pt2(), pt2())
def test_orientation_antisymmetric(a, b, c):
    assert orientation([a, b, c]) == -orientation([b, a, c])


@given(pt2(), pt2(), pt2(), pt2())
def test_orientation_translation_invariant(a, b, c, t):
    shift = lambda p: (p[0] + t[0], p[1] + t[1])
    assert orientation([a, b, c]) == orientation([shift(a), shift(b), shift(c)])


# --- general position ---------------------------------------------------------


def test_gp_collinear_triple_reported():
    ps = PointSet(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
    assert in_general_position(ps) == [(0, 1, 2)]


def test_gp_with_extra_point():
    points = [(0, 0), (1, 0), (0, 1)]
    assert in_general_position(PointSet(2, [*points, (F(1, 3), F(1, 3))])) == []
    # a point appended collinear with two others is reported as index n
    assert (0, 1, 3) in in_general_position(PointSet(2, [*points, (2, 0)]))


@pytest.mark.parametrize(
    "points, extra",
    [
        ([(0, 0), (1, 0), (0, 1), (1, 1)], (F(1, 2), F(1, 2))),  # on both diagonals
        ([(0, 0), (2, 0), (0, 2), (4, 0)], (1, 1)),  # on one line only
        ([(0, 0), (1, 0), (0, 1)], (F(1, 3), F(1, 3))),  # general position
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], (2, 2, 0)),
    ],
)
def test_gp_violations_with_extra_stops_at_the_first(points, extra):
    n = len(points)
    appended = PointSet(len(extra), [*points, extra])
    with_extra = [t for t in in_general_position(appended) if n in t]
    assert gp_violations_with_extra(appended.points[:n], extra) == with_extra[:1]


def test_gate_raises_with_the_scan_report():
    points = [(0, 0), (1, 0), (0, 1)]
    require_general_position(PointSet(2, points))
    require_general_position(PointSet(2, [*points, (F(1, 3), F(1, 3))]))
    degenerate = PointSet(2, [*points, (2, 0)])
    with pytest.raises(GeneralPositionViolated) as info:
        require_general_position(degenerate)
    assert info.value.violations == in_general_position(degenerate)
    assert str(info.value).startswith("1 affinely dependent (d+1)-subsets")


def ref_in_general_position(ps):
    """The subset scan: `orientation` on every (d+1)-subset, and for k <= d
    points the whole set when the Gram determinant of its difference
    vectors is zero."""
    pts = list(ps.points)
    if len(pts) <= ps.dim:
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        gram = [[sum(a * b for a, b in zip(u, v)) for v in diffs] for u in diffs]
        return [tuple(range(len(pts)))] if diffs and linalg.det(gram) == 0 else []
    return [
        idx
        for idx in combinations(range(len(pts)), ps.dim + 1)
        if orientation([pts[i] for i in idx]) == 0
    ]


def grid_coordinate(bound):
    # small grids repeat points and lines; a denominator moves off the grid
    return st.one_of(
        st.integers(-bound, bound),
        st.builds(F, st.integers(-2 * bound, 2 * bound), st.sampled_from([2, 3])),
    )


@st.composite
def grid_sets(draw, d=2):
    coord = grid_coordinate(draw(st.integers(1, 5)))
    point = st.tuples(*[coord] * d)
    return PointSet(d, draw(st.lists(point, max_size=10)))


@settings(max_examples=300)
@given(grid_sets())
def test_planar_gate_matches_the_subset_scan(ps):
    report = in_general_position(ps)
    assert report == ref_in_general_position(ps)
    if report:
        with pytest.raises(GeneralPositionViolated) as info:
            require_general_position(ps)
        assert info.value.violations == report
        if len(ps) <= ps.dim:
            # the whole set of k <= d points, named point by point
            k = len(report[0])
            names = ", ".join(map(str, range(k)))
            assert str(info.value).startswith(f"the {k} points {names} are affinely dependent")
        else:
            assert str(info.value).startswith(f"{len(report)} affinely dependent")


@settings(max_examples=120)
@given(st.sampled_from([1, 3, 4]).flatmap(lambda d: grid_sets(d=d)))
def test_gate_in_space_matches_the_subset_scan(ps):
    # d = 3 takes the scan's cross products, d = 1 and d = 4 its nullspace normals
    assert in_general_position(ps) == ref_in_general_position(ps)


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(lambda d: grid_sets(d=d)))
def test_gp_violations_with_extra_is_the_first_subset_through_the_last_point(ps):
    # the pool is every point but the last, which is the extra point
    if not ps.points:
        return
    n = len(ps) - 1
    through = [t for t in ref_in_general_position(ps) if n in t]
    assert gp_violations_with_extra(ps.points[:n], ps.points[n]) == through[:1]


def test_planar_scans_take_no_determinant(monkeypatch):
    # the plane reads primitive directions only
    ps = PointSet(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (F(1, 2), 3)])
    expected = ref_in_general_position(ps)
    calls = []
    monkeypatch.setattr(geometry, "_det", lambda s: calls.append(s) or 1)
    assert in_general_position(ps) == expected != []
    assert gp_violations_with_extra(ps.points[:4], (3, 0)) == [(0, 1, 4)]
    assert gp_violations_with_extra(ps.points, (5, 7)) == []
    assert calls == []


def test_scans_beyond_the_plane_take_no_determinant(monkeypatch):
    # d = 1, 3 and 4 read hyperplane normals: a dot product per subset
    sets = [
        PointSet(1, [(0,), (2,), (F(1, 2),), (2,)]),
        PointSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (F(1, 2), 3, 7)]),
        PointSet(4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                     (1, 1, 0, 0), (F(1, 3), 2, 5, 7)]),
    ]
    expected = [ref_in_general_position(ps) for ps in sets]
    calls = []
    monkeypatch.setattr(geometry, "_det", lambda s: calls.append(s) or 1)
    for ps, report in zip(sets, expected):
        n = len(ps) - 1
        assert in_general_position(ps) == report != []
        through = [t for t in report if n in t][:1]
        assert gp_violations_with_extra(ps.points[:n], ps.points[n]) == through
    assert calls == []


def ref_dependent_through(q, pts, start=0):
    """The determinant loop: one `_det` per d-subset of pts[start:]."""
    return [
        idx
        for idx in combinations(range(start, len(pts)), len(q))
        if not geometry._det([q, *[pts[i] for i in idx]])
    ]


@st.composite
def dependence_scans(draw):
    # small integer grids repeat points, lines and planes; q may be a later point
    d = draw(st.sampled_from([1, 3, 4]))
    coord = st.integers(-draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    pts = draw(st.lists(st.tuples(*[coord] * d), max_size=8))
    q = draw(st.sampled_from(pts) if pts and draw(st.booleans()) else st.tuples(*[coord] * d))
    return q, pts, draw(st.integers(0, len(pts)))


@settings(max_examples=300)
@given(dependence_scans())
def test_dependence_scan_matches_the_determinant_loop(scan):
    q, pts, start = scan
    assert list(geometry._dependent_through(q, pts, start)) == ref_dependent_through(q, pts, start)


@pytest.mark.parametrize(
    "q, pts, start",
    [
        # q equals a later point: a zero vector
        ((1,), [(0,), (1,), (3,), (1,)], 1),
        ((1, 2, 3), [(0, 0, 0), (1, 2, 3), (4, 5, 6), (1, 2, 3), (7, 0, 1)], 0),
        ((1, 1, 1, 1), [(0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 1, 3), (5, 1, 0, 2), (1, 0, 0, 9)], 1),
        # q collinear with two points: a zero normal, so every later point is dependent
        ((0, 0, 0), [(5, 5, 5), (1, 1, 1), (2, 2, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 1),
        ((0, 0, 0, 0), [(1, 1, 1, 1), (2, 2, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], 0),
        ((0, 0, 0, 0), [(9, 9, 9, 9), (1, 2, 3, 4), (2, 4, 6, 8), (1, 0, 0, 0), (0, 1, 0, 0),
                        (0, 0, 0, 1)], 1),
    ],
)
def test_dependence_scan_on_zero_vectors_and_zero_normals(q, pts, start):
    report = list(geometry._dependent_through(q, pts, start))
    assert report == ref_dependent_through(q, pts, start) != []


def test_planar_gate_on_a_lattice_and_coincident_points():
    lattice = PointSet(2, [(x, y) for x in range(6) for y in range(5)])
    report = in_general_position(lattice)
    assert len(report) == 240
    assert report == ref_in_general_position(lattice)
    # a point coinciding with another makes every triple through both dependent
    ps = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 0)])
    assert in_general_position(ps) == [(0, 1, 3), (1, 2, 3)]
    appended = PointSet(2, [*ps.points, (0, 0)])
    assert in_general_position(appended) == ref_in_general_position(appended)


def test_gate_rejects_an_extra_point_of_another_dimension():
    # the origin is gated as one more point of the set, so a wrong
    # coordinate count is named as PointSet names it
    ps = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (3, 1)])
    with pytest.raises(DimensionMismatch, match="point 6 has 3 coordinates, expected 2"):
        enumerate_origin_pairs(ps, (1, 2, 3))


# --- volume -------------------------------------------------------------------


def test_volume_unit_triangle_and_tetrahedron():
    assert simplex_volume([(0, 0), (1, 0), (0, 1)]) == F(1, 2)
    assert simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == F(1, 6)
    assert simplex_volume([(0, 0), (1, 1), (2, 2)]) == 0


@given(pt2(), pt2(), pt2(), st.integers(min_value=-5, max_value=5), pt2())
def test_volume_translation_and_scaling(a, b, c, lam, t):
    base = simplex_volume([a, b, c])
    shifted = simplex_volume([(p[0] + t[0], p[1] + t[1]) for p in (a, b, c)])
    assert shifted == base
    scaled = simplex_volume([(lam * p[0], lam * p[1]) for p in (a, b, c)])
    assert scaled == base * lam**2


def test_volume_permutation_invariant():
    tri = [(0, 0), (7, 1), (2, 5)]
    v = simplex_volume(tri)
    assert simplex_volume([tri[2], tri[0], tri[1]]) == v
    assert simplex_volume([tri[1], tri[0], tri[2]]) == v


# --- point in simplex ----------------------------------------------------------
# Closed membership is `hull_contains`, strict interiority of points of the set
# `count_interior_points`, and weights `barycentric_witness`.


def test_point_in_triangle_cases():
    tri = [(0, 0), (1, 0), (0, 1)]
    queries = [(F(1, 3), F(1, 3)), (2, 2), (F(1, 2), F(1, 2)), (0, 0)]
    ps = PointSet(2, tri)
    assert [hull_contains(p, (0, 1, 2), ps) for p in queries] == [True, False, True, True]
    for k, inside in enumerate([1, 0, 0, 0]):
        assert count_interior_points((0, 1, 2), PointSet(2, [*tri, queries[k]])) == inside


def test_segment_relative_interior_is_interior():
    # sub-dimensional simplices are judged in their affine hull
    ps = PointSet(2, [(0, 0), (1, 1)])
    assert barycentric_witness((F(1, 2), F(1, 2)), [(0, 1)], ps).weights == [[F(1, 2), F(1, 2)]]
    assert barycentric_witness((0, 0), [(0, 1)], ps).weights == [[1, 0]]
    for p in [(2, 2), (1, 0)]:
        assert not hull_contains(p, (0, 1), ps)
        with pytest.raises(InternalError):
            barycentric_witness(p, [(0, 1)], ps)


def test_degenerate_simplex_raises():
    ps = PointSet(2, [(0, 0), (1, 1), (2, 2), (0, 1)])
    with pytest.raises(DegenerateSimplex):
        barycentric_witness((0, 0), [(0, 1, 2)], ps)
    with pytest.raises(DegenerateSimplex):
        count_interior_points((0, 1, 2), ps)


@given(st.tuples(coords, coords), st.tuples(coords, coords), st.tuples(coords, coords),
       st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
def test_barycentric_reconstruction(a, b, c, wa, wb, wc):
    if orientation([a, b, c]) == 0:
        return
    total = wa + wb + wc
    p = tuple(
        (F(wa) * a[k] + F(wb) * b[k] + F(wc) * c[k]) / total for k in range(2)
    )
    coordsv = barycentric_witness(p, [(0, 1, 2)], PointSet(2, [a, b, c])).weights[0]
    assert coordsv == [F(wa, total), F(wb, total), F(wc, total)]
    rebuilt = tuple(
        sum(coordsv[i] * v[k] for i, v in enumerate((a, b, c))) for k in range(2)
    )
    assert rebuilt == p
    assert count_interior_points((0, 1, 2), PointSet(2, [a, b, c, p])) == 1


# --- perturbation ----------------------------------------------------------------


def test_perturb_deterministic_and_bounded():
    ps = PointSet(2, [(0, 0), (8, 0), (0, 8), (8, 8)])
    a = perturb(ps, seed=5)
    b = perturb(ps, seed=5)
    assert a.points == b.points
    assert in_general_position(a) == []
    for orig, moved in zip(ps.points, a.points):
        for c0, c1 in zip(orig, moved):
            assert abs(c1 - c0) <= F(8, 2**16)  # diam / 2^16


def test_perturb_fixes_collinear():
    ps = PointSet(2, [(0, 0), (1, 0), (2, 0), (3, 0)])
    out = perturb(ps, seed=1)
    assert in_general_position(out) == []
    # an empty set is in general position after the first round
    assert perturb(PointSet(3, []), seed=1) == PointSet(3, [])


def test_generation_refuses_more_points_than_the_grid_slices_hold(monkeypatch):
    # each slice x_1 = c of [-1, 1]^2 holds at most 2 general-position points
    calls = []
    monkeypatch.setattr(generate, "gp_violations_with_extra", lambda *a: calls.append(a))
    refused = r"could not place 7 general-position points \(seed=0\)"
    with pytest.raises(PerturbationFailed, match=refused):
        generate.random_point_set(2, 7, seed=0, bound=1)
    with pytest.raises(PerturbationFailed, match=r"could not extend by 4 general-position points"):
        generate.random_extension(PointSet(1, [(F(1, 2),)]), 4, seed=0, bound=1)
    assert calls == []


def test_generation_stops_once_every_grid_point_was_drawn(monkeypatch):
    # [-1, 1]^2 holds 6 general-position points, but this greedy draw gets
    # stuck earlier; a rejected point stays rejected, so once all 9 grid
    # points were seen no later draw can succeed
    drawn = []
    real = generate.mk_point
    monkeypatch.setattr(generate, "mk_point", lambda p: drawn.append(p) or real(p))
    with pytest.raises(PerturbationFailed, match=r"could not place 6"):
        generate.random_point_set(2, 6, seed=0, bound=1)
    assert len(set(drawn)) == 9 and len(drawn) < generate.MAX_TRIES


@pytest.mark.parametrize("d, n, seed, bound", [(2, 6, 0, 1), (3, 16, 0, 3), (2, 12, 4, 3)])
def test_generation_scans_each_distinct_candidate_once(monkeypatch, d, n, seed, bound):
    # a repeated draw is skipped before the general-position scan: it was
    # rejected before, or it coincides with an accepted point
    scanned = []
    real = generate.gp_violations_with_extra
    monkeypatch.setattr(
        generate, "gp_violations_with_extra", lambda pts, c: scanned.append(c) or real(pts, c)
    )
    try:
        generate.random_point_set(d, n, seed=seed, bound=bound)
    except PerturbationFailed:
        pass
    assert len(scanned) == len(set(scanned))


def test_generation_fills_a_grid_at_its_slice_bound():
    ps = generate.random_point_set(1, 3, seed=0, bound=1)
    assert sorted(ps.points) == [(-1,), (0,), (1,)]


# --- 3D incidence ------------------------------------------------------------------

TRI = [(3, 0, 0), (-3, 2, 0), (-3, -2, 0)]


def test_triangles_linked_examples():
    t2 = [(1, 0, 2), (1, 0, -2), (6, 0, 1)]
    assert triangles_linked(TRI, t2) is True
    assert triangles_linked(t2, TRI) is True
    far = [(101, 0, 2), (101, 0, -2), (106, 0, 1)]
    assert triangles_linked(TRI, far) is False


def test_triangles_intersect_raises():
    t2 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]  # coplanar, boundary overlap
    with pytest.raises(TrianglesIntersect):
        triangles_linked(TRI, t2)


def test_segments_intersect_3d():
    assert segments_intersect_3d((0, 0, 0), (2, 2, 0), (0, 2, 0), (2, 0, 0))
    assert not segments_intersect_3d((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1))
    # collinear overlap
    assert segments_intersect_3d((0, 0, 0), (2, 0, 0), (1, 0, 0), (3, 0, 0))
    assert not segments_intersect_3d((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
    # shared endpoint
    assert segments_intersect_3d((0, 0, 0), (1, 1, 1), (1, 1, 1), (2, 0, 0))
    # skew
    assert not segments_intersect_3d((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))


@given(st.lists(pt3(), min_size=6, max_size=6, unique=True))
def test_triangles_linked_symmetric(pts):
    t1, t2 = pts[:3], pts[3:]
    try:
        a = triangles_linked(t1, t2)
        b = triangles_linked(t2, t1)
    except (TrianglesIntersect, DegenerateSimplex):
        return
    assert a == b


# The closed-segment test as it stood before it delegated coplanar segments
# to the common-point LP: special cases for zero-length, collinear and
# crossing segments. Kept here as the reference.


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _sign(x):
    return (x > 0) - (x < 0)


def _point_on_segment(p, c, d):
    if any(_cross3(_sub(d, c), _sub(p, c))):
        return False
    return all(min(c[i], d[i]) <= p[i] <= max(c[i], d[i]) for i in range(3))


def reference_segments_intersect(a, b, c, d):
    u, v = _sub(b, a), _sub(d, c)
    if not any(u):
        return _point_on_segment(a, c, d)
    if not any(v):
        return _point_on_segment(c, a, b)
    if orientation([a, b, c, d]) != 0:
        return False
    n = _cross3(u, v)
    if not any(n):
        if any(_cross3(u, _sub(c, a))):
            return False
        axis = next((i for i in range(3) if a[i] != b[i]), None)
        if axis is None:
            axis = next((i for i in range(3) if c[i] != d[i]), 0)
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        return max(lo1, lo2) <= min(hi1, hi2)
    axis = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != axis]
    pa, pb, pc, pd = (tuple(p[i] for i in keep) for p in (a, b, c, d))

    def turn(p, q, r):
        (ux, uy), (vx, vy) = _sub(q, p), _sub(r, p)
        return _sign(ux * vy - uy * vx)

    o1, o2 = turn(pa, pb, pc), turn(pa, pb, pd)
    o3, o4 = turn(pc, pd, pa), turn(pc, pd, pb)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True

    def on_seg(p, q, r):
        return all(min(p[i], q[i]) <= r[i] <= max(p[i], q[i]) for i in range(2))

    return (
        (o1 == 0 and on_seg(pa, pb, pc))
        or (o2 == 0 and on_seg(pa, pb, pd))
        or (o3 == 0 and on_seg(pc, pd, pa))
        or (o4 == 0 and on_seg(pc, pd, pb))
    )


small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=400)
@given(st.lists(st.tuples(small, small, small), min_size=4, max_size=4))
def test_segments_intersect_3d_matches_reference(pts):
    # coordinates in [-2, 2] make coplanar, collinear, shared-endpoint and
    # zero-length segments common
    assert segments_intersect_3d(*pts) == reference_segments_intersect(*pts)


def perturbation_gives_up(monkeypatch):
    # no round ever reaches general position
    monkeypatch.setattr(geometry, "in_general_position", lambda ps: [(0, 1, 2)])
    perturb(PointSet(2, [(0, 0), (1, 1), (2, 2)]), seed=3)


GEOMETRY_RAISES = {
    "rat of an unconvertible type": (
        lambda mp: geometry.rat([1]),
        TypeError,
        "cannot convert list to a rational",
    ),
    "PointSet of dimension 0": (
        lambda mp: PointSet(0, []),
        DimensionMismatch,
        "dimension must be positive, got 0",
    ),
    "orientation of points of the wrong dimension": (
        lambda mp: orientation([(0, 0), (1, 1)]),
        DimensionMismatch,
        r"need d\+1 points in R\^d with d >= 1, got 2",
    ),
    "gp_violations_with_extra across dimensions": (
        lambda mp: gp_violations_with_extra([(0, 0)], (1, 2, 3)),
        DimensionMismatch,
        r"need points in R\^d with d >= 1 for an extra point in R\^3",
    ),
    "perturb gives up after 64 rounds": (
        perturbation_gives_up,
        PerturbationFailed,
        r"no general-position perturbation after 64 rounds \(seed=3\)",
    ),
}


@pytest.mark.parametrize("call, error, message", GEOMETRY_RAISES.values(), ids=GEOMETRY_RAISES)
def test_geometry_public_raises(monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(monkeypatch)
