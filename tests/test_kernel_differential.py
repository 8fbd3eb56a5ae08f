"""Differential tests of the exact predicates against plain Fraction references.

The references below share no code with the predicates they check: a
determinant by Fraction elimination (with one vertex replaced by the
query, also the reference for each facet row), barycentric containment
by solving the affine system in Fractions (`conftest.ref_containment`,
the reference for closed membership, strict interiority and the witness
weights of one simplex), and a centerpoint scan that asks a
Fraction depth (`conftest.ref_depth`) about every candidate in the
documented order. The hull tests, in the plane and beyond it, use as
their reference the phase-1 LP on the rational points
(`conftest.lp_hull_contains`), which none of `hull_contains`' rules
builds; barycentric weights are checked against a Fraction solve of
the affine system (`conftest.ref_solve_unique`), and the angular order
against the comparator it replaced. Any change to how the
predicates compute must leave every verdict, volume, raised error and
returned point equal.
"""
import math
import random
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvk import geometry, tverberg
from tvk.errors import (
    DegenerateSimplex,
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
)
from tvk.fixing import count_interior_points
from tvk.generate import random_point_set
from tvk.geometry import (
    PointSet,
    _int_frame,
    _query,
    angular_order,
    orientation,
    simplex_volume,
)
from tvk.lp import _hull_test, barycentric_witness, common_point, hull_contains
from tvk.tverberg import _planar_hulls_meet, centerpoint_planar

from conftest import lp_hull_contains, ref_containment, ref_depth, ref_solve_unique


def ref_det(rows):
    m = [[F(v) for v in r] for r in rows]
    n = len(m)
    out = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return out


def ref_volume_det(simplex):
    p0 = simplex[0]
    return ref_det([[F(a) - F(b) for a, b in zip(p, p0)] for p in simplex[1:]])


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateSimplex:
        return DegenerateSimplex


# small numerators so that dependent and boundary cases are common; mixed
# int and Fraction entries with unequal denominators
small_int = st.integers(min_value=-3, max_value=3)
coordinate = st.one_of(
    small_int,
    st.builds(F, small_int, st.sampled_from([1, 2, 3, 5, 7])),
)


@st.composite
def simplex_case(draw, full=True):
    d = draw(st.integers(min_value=1, max_value=4))
    k = d + 1 if full else draw(st.integers(min_value=1, max_value=d + 1))
    verts = [tuple(draw(st.lists(coordinate, min_size=d, max_size=d))) for _ in range(k)]
    if draw(st.booleans()):
        # p as an affine combination of the vertices: lands on faces and in
        # the interior far more often than a random point does
        ws = [F(draw(st.integers(min_value=-1, max_value=3))) for _ in range(k)]
        total = sum(ws)
        if total == 0:
            ws[0] += 1
            total = 1
        p = tuple(sum(w * F(v[c]) for w, v in zip(ws, verts)) / total for c in range(d))
    else:
        p = tuple(draw(st.lists(coordinate, min_size=d, max_size=d)))
    return p, verts


@settings(max_examples=300)
@given(simplex_case())
def test_orientation_matches_fraction_determinant(case):
    _, verts = case
    got = orientation(verts)
    assert type(got) is int
    assert got == (ref_volume_det(verts) > 0) - (ref_volume_det(verts) < 0)


@settings(max_examples=300)
@given(simplex_case())
def test_simplex_volume_matches_fraction_determinant(case):
    _, verts = case
    got = simplex_volume(verts)
    assert type(got) is F
    assert got == abs(ref_volume_det(verts)) / math.factorial(len(verts) - 1)


def witness_weights(p, verts):
    """`lp.barycentric_witness`'s weights of p in the one part `verts`."""
    part = tuple(range(len(verts)))
    return barycentric_witness(p, [part], PointSet(len(p), verts)).weights[0]


@settings(max_examples=400)
@given(simplex_case())
def test_point_in_full_simplex_matches_barycentric_reference(case):
    """d+1 vertices with p as one more point of the set: closed membership
    (`hull_contains`) and strict interiority (`count_interior_points`, which
    counts p alone, since a vertex never counts) agree with the reference.
    Affinely dependent vertices make the count raise, wherever p lies."""
    p, verts = case
    ps = PointSet(len(p), [*verts, p])
    simplex = tuple(range(len(verts)))
    if ref_volume_det(verts) == 0:
        with pytest.raises(DegenerateSimplex):
            count_interior_points(simplex, ps)
        assert hull_contains(p, simplex, ps) == lp_hull_contains(p, simplex, ps)
        return
    expect = ref_containment(p, verts)
    assert hull_contains(p, simplex, ps) == (expect != "outside")
    assert count_interior_points(simplex, ps) == (expect == "interior")


@settings(max_examples=300)
@given(simplex_case(full=False))
def test_point_in_subdimensional_simplex_matches_barycentric_reference(case):
    """1..d+1 vertices: closed membership (`hull_contains`) agrees with the
    reference, and the witness weights are all positive exactly in the
    relative interior; off the hull `barycentric_witness` raises
    InternalError, and where the reference raises, DegenerateSimplex."""
    p, verts = case
    ps = PointSet(len(p), verts)
    part = tuple(range(len(verts)))
    try:
        expect = ref_containment(p, verts)
    except DegenerateSimplex:
        with pytest.raises(DegenerateSimplex):
            witness_weights(p, verts)
        assert hull_contains(p, part, ps) == lp_hull_contains(p, part, ps)
        return
    assert hull_contains(p, part, ps) == (expect != "outside")
    if expect == "outside":
        with pytest.raises(InternalError):
            witness_weights(p, verts)
    else:
        assert all(w > 0 for w in witness_weights(p, verts)) == (expect == "interior")


@st.composite
def facets_case(draw):
    """d+1 integer vertices in R^d, d = 1..4, half of them with the last
    vertex on the line through the first and the next to last (affinely
    dependent; for d = 1 the two vertices coincide), and a homogeneous
    query point (x, w) with w in 1..5."""
    d = draw(st.integers(min_value=1, max_value=4))
    verts = [tuple(draw(st.lists(small_int, min_size=d, max_size=d))) for _ in range(d + 1)]
    if draw(st.booleans()):
        t = draw(st.integers(min_value=-2, max_value=2))
        verts[-1] = tuple(a + t * (b - a) for a, b in zip(verts[0], verts[-2]))
    x = tuple(draw(st.lists(st.integers(min_value=-15, max_value=15), min_size=d, max_size=d)))
    return verts, x, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=400)
@given(facets_case())
def test_facet_rows_match_fraction_determinants(case):
    """row_i . (x, w) is w times the determinant with vertex i replaced by
    x / w, and full is the determinant itself; None exactly when it is 0."""
    verts, x, w = case
    full = ref_volume_det(verts)
    got = geometry._facets(verts)
    if full == 0:
        assert got is None
        return
    rows, got_full = got
    assert type(got_full) is int and got_full == full
    p = tuple(F(c, w) for c in x)
    for i, row in enumerate(rows):
        assert len(row) == len(x) + 1 and all(type(c) is int for c in row)
        replaced = verts[:i] + [p] + verts[i + 1:]
        assert sum(c * v for c, v in zip(row, (*x, w))) == w * ref_volume_det(replaced)


def test_degenerate_simplex_raises_only_for_points_on_its_hull():
    """Witness weights over dependent vertices: DegenerateSimplex for a point
    on their affine hull; off it the point is in no hull (InternalError)."""
    flat = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(DegenerateSimplex):
        witness_weights((F(1, 2), F(1, 2)), flat)
    with pytest.raises(InternalError):
        witness_weights((1, 0), flat)
    flat3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(DegenerateSimplex):
        witness_weights((F(1, 3), F(1, 3), 0), flat3)
    with pytest.raises(InternalError):
        witness_weights((0, 0, F(1, 9)), flat3)


def test_int_and_fraction_inputs_agree():
    tri_int = [(0, 0), (6, 0), (0, 6)]
    tri_frac = [tuple(F(c) for c in p) for p in tri_int]
    queries = [(1, 1), (3, 3), (4, 4), (0, 2), (F(1, 3), F(1, 5))]
    for tri in (tri_int, tri_frac):
        ps = PointSet(2, tri)
        inside = [hull_contains(p, (0, 1, 2), ps) for p in queries]
        assert inside == [True, True, False, True, True]
        # (1, 1) and (1/3, 1/5) are inside; (3, 3) and (0, 2) are on edges
        assert count_interior_points((0, 1, 2), PointSet(2, [*tri, *queries])) == 2
    assert orientation(tri_int) == orientation(tri_frac) == 1
    assert simplex_volume(tri_int) == simplex_volume(tri_frac) == F(18)


# --- centerpoint scan ----------------------------------------------------------


def ref_centerpoint(ps):
    """First candidate, in the documented order, with depth >= ceil(n/3)."""
    pts = ps.points
    m = -(-len(pts) // 3)
    inputs = set(pts)

    def candidates():
        lines = list(combinations(range(len(pts)), 2))
        for (i, j), (k, l) in combinations(lines, 2):
            a, b, c, d = pts[i], pts[j], pts[k], pts[l]
            u = (b[0] - a[0], b[1] - a[1])
            v = (d[0] - c[0], d[1] - c[1])
            den = u[0] * v[1] - u[1] * v[0]
            if den == 0:
                continue
            t = ((c[0] - a[0]) * v[1] - (c[1] - a[1]) * v[0]) / den
            yield (a[0] + t * u[0], a[1] + t * u[1])

    seen = set()
    for q in candidates():
        if q in seen:
            continue
        seen.add(q)
        if q in inputs:
            continue
        if ref_depth(q, pts) >= m:
            return q
    return None


def centerpoint_inputs():
    for seed in range(24):
        n = 6 + seed % 15
        ps = random_point_set(2, n, seed=seed, bound=60)
        if seed % 2:
            # an affine image keeps general position and gives the points
            # denominators
            ps = PointSet(2, [(x / 3 + F(1, 5), y / 7 - F(2, 9)) for x, y in ps.points])
        yield ps


def test_centerpoint_matches_reference_scan():
    for ps in centerpoint_inputs():
        assert centerpoint_planar(ps) == ref_centerpoint(ps)


@pytest.mark.parametrize("n", [33, 34, 35, 60])
def test_centerpoint_matches_reference_scan_at_benchmark_sizes(n):
    ps = random_point_set(2, n, seed=n)
    assert centerpoint_planar(ps) == ref_centerpoint(ps)


@pytest.mark.parametrize(
    "points",
    [
        [(1, 3), (3, 3), (-3, -1), (-3, 0), (3, 0)],
        [(-1, 0), (1, 1), (1, 1), (0, 1), (-1, -1), (1, -1), (-1, -1)],
    ],
)
def test_centerpoint_with_points_on_a_kept_halfplane_boundary(points):
    # a kept halfplane's boundary through a candidate passes through input
    # points: counting only the open side would reject the centerpoint
    ps = PointSet(2, points)
    assert centerpoint_planar(ps) == ref_centerpoint(ps)


def table_centerpoint(ps):
    """The centerpoint scan as it was with a stored table of all C(n,2)
    lines (`lines[i + 1:]` for the later line pairs), for the generated
    scan to match: the same windows and `_depth` calls, the same point."""
    n = len(ps)
    m = -(-n // 3)
    pts, denom = ps.frame
    input_set = set(pts)
    shallow = []

    def deep(qx, qy, qd):
        if qd == 1 and (qx, qy) in input_set:
            return None
        depth, w = tverberg._depth(qx, qy, qd, pts, m)
        if depth >= m:
            return (F(qx, qd * denom), F(qy, qd * denom))
        wx, wy = w
        shallow.append((wx, wy, sorted(x * wx + y * wy for x, y in pts)[n - m]))
        return None

    def window(ax, ay, ux, uy):
        lo = hi = None
        for wx, wy, thr in shallow:
            s = ux * wx + uy * wy
            r = thr - ax * wx - ay * wy
            if s > 0:
                if hi is None or r * hi[1] < hi[0] * s:
                    hi = (r, s)
            elif s < 0:
                if lo is None or r * lo[1] < lo[0] * s:
                    lo = (-r, -s)
            elif r < 0:
                return None
        if lo and hi and lo[0] * hi[1] > hi[0] * lo[1]:
            return None
        return lo, hi

    lines = [
        ((j, k), a, (b[0] - a[0], b[1] - a[1]))
        for (j, a), (k, b) in combinations(enumerate(pts), 2)
    ]
    for i, ((j, k), (ax, ay), (ux, uy)) in enumerate(lines):
        kept = len(shallow)
        bounds = window(ax, ay, ux, uy)
        for ends, (cx, cy), (vx, vy) in lines[i + 1:]:
            if bounds is None:
                break
            if j in ends or k in ends:
                continue
            den = ux * vy - uy * vx
            if den == 0:
                continue
            t_num = (cx - ax) * vy - (cy - ay) * vx
            if den < 0:
                t_num, den = -t_num, -den
            lo, hi = bounds
            if lo and t_num * lo[1] < lo[0] * den or hi and t_num * hi[1] > hi[0] * den:
                continue
            qx = ax * den + t_num * ux
            qy = ay * den + t_num * uy
            g = math.gcd(qx, qy, den)
            hit = deep(qx // g, qy // g, den // g)
            if hit:
                return hit
            if len(shallow) > kept:
                kept = len(shallow)
                bounds = window(ax, ay, ux, uy)
    return GeneralPositionViolated


def centerpoint_or_error(ps):
    try:
        return centerpoint_planar(ps)
    except GeneralPositionViolated:
        return GeneralPositionViolated


def generated_scan_inputs():
    """Seeded sets of 6..240 points (a third with denominators), then small
    grids, where collinear and repeated points are common."""
    sizes = [6, 7, 8, 9, 10, 12, 15, 20, 27, 33, 34, 35, 48, 60, 90, 120, 180, 240]
    for seed, n in enumerate(sizes):
        ps = random_point_set(2, n, seed=seed, bound=[3 * n, 10000][seed % 2])
        if seed % 3 == 2:
            ps = PointSet(2, [(x / 3 + F(1, 5), y / 7 - F(2, 9)) for x, y in ps.points])
        yield ps
    rng = random.Random(5)
    for k in range(40):
        b = 1 + k % 3
        grid = [(x, y) for x in range(-b, b + 1) for y in range(-b, b + 1)]
        yield PointSet(2, [rng.choice(grid) for _ in range(rng.randint(3, 12))])


def test_generated_line_pairs_match_the_line_table():
    for ps in generated_scan_inputs():
        assert centerpoint_or_error(ps) == table_centerpoint(ps)


# --- planar hulls without LPs ---------------------------------------------------


def ref_planar_hull_contains(p, points):
    """Membership by the phase-1 LP: p = sum w_i s_i, sum w_i = 1, w >= 0."""
    return lp_hull_contains(p, range(len(points)), PointSet(2, points))


@st.composite
def planar_coordinate(draw):
    den = draw(st.integers(min_value=1, max_value=3))
    return F(draw(st.integers(min_value=-3 * den, max_value=3 * den)), den)


planar_point = st.tuples(planar_coordinate(), planar_coordinate())


def on_line(a, b, t):
    return tuple(x + t * (y - x) for x, y in zip(a, b))


@st.composite
def planar_part(draw, max_size):
    """1..max_size points, often collinear or with repeated points."""
    k = draw(st.integers(min_value=1, max_value=max_size))
    if draw(st.booleans()):
        a, b = draw(planar_point), draw(planar_point)
        ts = st.builds(F, st.integers(min_value=-2, max_value=2), st.sampled_from([1, 2]))
        return [on_line(a, b, draw(ts)) for _ in range(k)]
    pts = [draw(planar_point) for _ in range(k)]
    if draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    return pts


@settings(max_examples=600)
@given(planar_part(7), st.data())
def test_planar_hull_contains_matches_lp(points, data):
    kind = data.draw(st.sampled_from(["vertex", "line", "anywhere"]))
    if kind == "vertex":
        p = data.draw(st.sampled_from(points))
    elif kind == "line":
        # on an edge or a diagonal for t in [0, 1], beyond its ends otherwise
        a, b = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
        p = on_line(a, b, F(data.draw(st.integers(min_value=-1, max_value=4)), 3))
    else:
        p = data.draw(planar_point)
    ps = PointSet(2, points)
    assert hull_contains(p, range(len(points)), ps) == ref_planar_hull_contains(p, points)


def test_planar_hull_contains_degenerate_cases():
    seg = [(0, 0), (2, 2)]
    assert hull_contains((1, 1), (0, 1), PointSet(2, seg))
    assert not hull_contains((3, 3), (0, 1), PointSet(2, seg))
    assert not hull_contains((-1, -1), (0, 1), PointSet(2, seg))
    assert not hull_contains((1, 0), (0, 1), PointSet(2, seg))
    collinear = PointSet(2, [(0, 0), (2, 2), (1, 1), (2, 2)])
    assert hull_contains((F(1, 2), F(1, 2)), (0, 1, 2, 3), collinear)
    assert not hull_contains((F(5, 2), F(5, 2)), (0, 1, 2, 3), collinear)
    single = PointSet(2, [(F(1, 3), 1)])
    assert hull_contains((F(1, 3), 1), (0,), single)
    assert not hull_contains((0, 1), (0,), single)
    square = PointSet(2, [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    assert hull_contains((2, 1), (0, 1, 2, 3), square)
    assert hull_contains((1, 1), (0, 1, 2, 3, 4), square)
    assert not hull_contains((F(5, 2), 1), (0, 1, 2, 3), square)


@st.composite
def planar_parts_case(draw):
    """r = 2..4 disjoint parts of 1..3 points; later parts often reuse an
    earlier point or a point on an earlier segment, so hulls touch."""
    r = draw(st.integers(min_value=2, max_value=4))
    points, parts = [], []
    for _ in range(r):
        part = draw(planar_part(3))[:3]
        if points and draw(st.booleans()):
            a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            part[0] = on_line(a, b, F(draw(st.integers(min_value=0, max_value=2)), 2))
        parts.append(tuple(range(len(points), len(points) + len(part))))
        points.extend(part)
    return PointSet(2, points), parts


def helly_planar_meet(ps, parts):
    """The brute-force search's rule: planar hulls meet iff every three of
    them do, each three decided by `_planar_hulls_meet` on their prepared
    membership tests."""
    return all(
        _planar_hulls_meet(f, [_hull_test(part, ps) for part in f], ps)
        for f in combinations(parts, min(3, len(parts)))
    )


@settings(max_examples=500)
@given(planar_parts_case())
def test_planar_hulls_meet_matches_lp(case):
    ps, parts = case
    assert helly_planar_meet(ps, parts) == (common_point(parts, ps) is not None)


def test_planar_hulls_meet_degenerate_cases():
    def meet(*hulls):
        """The hulls as the consecutive parts of one point set."""
        ends = list(accumulate(map(len, hulls)))
        parts = [tuple(range(end - len(h), end)) for h, end in zip(hulls, ends)]
        return helly_planar_meet(PointSet(2, [p for h in hulls for p in h]), parts)

    tri = [(0, 0), (4, 0), (0, 4)]
    assert meet(tri, [(2, 2), (5, 5)])  # touching at an edge point
    assert meet(tri, [(4, 0)])  # a shared vertex
    assert not meet(tri, [(3, 3), (5, 5)])
    assert meet([(0, 0), (2, 2)], [(0, 2), (2, 0)])  # crossing segments
    assert not meet([(0, 0), (2, 0)], [(0, 1), (2, 1)])  # parallel segments
    assert meet([(0, 0), (2, 0)], [(1, 0), (3, 0)])  # overlapping collinear
    # three segments that pairwise meet but share no point
    a, b, c = [(0, 0), (6, 0)], [(0, -1), (3, 5)], [(6, -1), (3, 5)]
    assert meet(a, b) and meet(a, c) and meet(b, c) and not meet(a, b, c)
    # four hulls: every triple with the big triangle meets, the segments' does not
    big = [(-10, -10), (30, -10), (-10, 30)]
    assert not meet(a, b, c, big)
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert meet(square, [(1, 1)], [(0, 0), (2, 2)], [(0, 2), (2, 0)])


# --- one integer frame per PointSet ---------------------------------------------


fractional = st.builds(
    F, st.integers(min_value=-12, max_value=12), st.sampled_from([2, 3, 5, 7])
)
fractional_point = st.tuples(fractional, fractional)


@settings(max_examples=400)
@given(st.lists(fractional_point, min_size=1, max_size=9), st.data())
def test_frame_hull_contains_matches_lp_on_subsets(points, data):
    """Point and part both with denominators > 1; the part is a subset of a
    larger set, tested in place and as `PointSet.take`."""
    ps = PointSet(2, points)
    idx = sorted(data.draw(st.sets(st.sampled_from(range(len(points))), min_size=1)))
    kind = data.draw(st.sampled_from(["vertex", "edge", "anywhere"]))
    if kind == "vertex":
        p = points[data.draw(st.sampled_from(idx))]
    elif kind == "edge":
        a, b = points[data.draw(st.sampled_from(idx))], points[data.draw(st.sampled_from(idx))]
        p = on_line(a, b, F(data.draw(st.integers(min_value=-1, max_value=5)), 4))
    else:
        p = data.draw(fractional_point)
    expected = lp_hull_contains(p, idx, ps)
    assert hull_contains(p, idx, ps) == expected
    sub = ps.take(idx)
    assert hull_contains(p, range(len(idx)), sub) == expected
    for q in points:
        assert hull_contains(q, idx, ps) == lp_hull_contains(q, idx, ps)


# --- membership beyond the plane ------------------------------------------------


@st.composite
def spatial_part_case(draw):
    """A PointSet in R^3 or R^4 with fractional coordinates, a part of 1..d+2
    of its points (a (d+1)-point part often on a hyperplane, any part often
    with a repeated point) and a point at a vertex, at an affine combination
    of the part's points (in, on or beyond its hull, in its affine hull) or
    anywhere."""
    d = draw(st.sampled_from([3, 4]))
    point = st.tuples(*[fractional] * d)
    k = draw(st.integers(min_value=1, max_value=d + 2))
    part = [draw(point) for _ in range(k)]
    if k == d + 1 and draw(st.booleans()):
        ws = [F(draw(st.integers(min_value=-2, max_value=3)), 2) for _ in range(d - 1)]
        part[-1] = tuple(
            sum(w * p[c] for w, p in zip([1 - sum(ws), *ws], part)) for c in range(d)
        )
    elif k > 1 and draw(st.booleans()):
        part[-1] = draw(st.sampled_from(part[:-1]))
    others = draw(st.lists(point, max_size=3))
    pts = others + part
    idx = list(range(len(others), len(pts)))
    kind = draw(st.sampled_from(["vertex", "combination", "anywhere"]))
    if kind == "vertex":
        p = draw(st.sampled_from(part))
    elif kind == "combination":
        ws = [F(draw(st.integers(min_value=-1, max_value=3)), 3) for _ in range(k - 1)]
        p = tuple(
            sum(w * q[c] for w, q in zip([1 - sum(ws), *ws], part)) for c in range(d)
        )
    else:
        p = draw(point)
    return PointSet(d, pts), idx, p


@settings(max_examples=400)
@given(spatial_part_case())
def test_spatial_hull_contains_matches_lp(case):
    """Facet-row signs for d+1 independent points, the frame LP for every
    other part: either way the verdict is the rational LP's, for p and for
    every point of the set."""
    ps, idx, p = case
    expected = lp_hull_contains(p, idx, ps)
    assert hull_contains(p, idx, ps) == expected
    for q in ps.points:
        assert hull_contains(q, idx, ps) == lp_hull_contains(q, idx, ps)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hull_contains_input_contract(d):
    """Rational strings are read as `geometry.rat` reads them; floats and a
    wrong coordinate count raise, in the plane and beyond it."""
    ps = PointSet(d, [[0] * d] + [[4 * (c == i) for c in range(d)] for i in range(d)])
    part = range(d + 1)
    assert hull_contains(("1",) * d, part, ps)
    assert hull_contains(("1/2",) * d, part, ps) == hull_contains((F(1, 2),) * d, part, ps)
    assert not hull_contains(("-1/2",) * d, part, ps)
    with pytest.raises(TypeError, match="floats are not accepted"):
        hull_contains((1.0,) * d, part, ps)
    for count in (d - 1, d + 1):
        with pytest.raises(DimensionMismatch, match=f"point has {count} coordinates"):
            hull_contains((1,) * count, part, ps)
    with pytest.raises(DimensionMismatch):
        _query((1,) * (d + 1), ps)


@pytest.mark.parametrize("d", [3, 4])
def test_spatial_hull_contains_reads_the_frame(d, monkeypatch):
    """With `ps.frame` computed, membership beyond the plane scales nothing
    again: a point from outside the set and a point of it against a
    simplex part and against parts of other sizes call `_int_frame` zero
    times."""
    ps = random_point_set(d, d + 4, seed=5)
    assert ps.frame
    calls = []
    scale = geometry._int_frame
    monkeypatch.setattr(geometry, "_int_frame", lambda pts: calls.append(pts) or scale(pts))
    p = tuple(sum(c) / (d + 1) for c in zip(*ps.points[: d + 1]))
    for part in (range(d + 1), range(d + 2), range(d)):
        for q in (p, ps.points[d + 3]):
            hull_contains(q, part, ps)
    assert calls == []


@pytest.mark.parametrize("d", [2, 3, 4])
def test_query_is_the_homogeneous_frame_point(d):
    ps = random_point_set(d, d + 2, seed=d)
    den = ps.frame[1]
    for p in (ps.points[0], (F(-1, 6),) * d, (F(5, 4), *[3] * (d - 1))):
        *x, w = _query(p, ps)
        assert w > 0
        assert [F(c, w) for c in x] == [c * den for c in p]


def test_frame_is_the_int_frame_of_the_points():
    sets = [
        PointSet(2, [(F(1, 2), F(-2, 3)), (5, F(7, 5)), (0, 0)]),
        PointSet(3, [(F(1, 6), 2, F(3, 4)), (1, 1, 1)]),
        PointSet(2, []),
        random_point_set(2, 12, seed=3),
    ]
    sets.append(sets[0].take([1, 2]))  # a subset may have a smaller lcm
    for ps in sets:
        assert ps.frame == _int_frame(ps.points)
        assert ps.frame is ps.frame
    assert sets[-1].frame == ([(25, 7), (0, 0)], 5)


def ref_barycentric(p, verts):
    """The affine system sum w_i v_i = p, sum w_i = 1 by Fraction
    elimination (`conftest.ref_solve_unique`)."""
    rows = [[v[c] for v in verts] for c in range(len(p))]
    rows.append([1] * len(verts))
    status, x = ref_solve_unique(rows, [*p, 1])
    if status == "underdetermined":
        raise DegenerateSimplex("reference: dependent vertices")
    return None if status == "inconsistent" else x


@st.composite
def barycentric_case(draw):
    """d = 1..4 with 0..d+2 vertices, the last one often an affine
    combination of the others (dependent vertices, as d+2 always are),
    and p often an affine combination of the vertices."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=d + 2))
    verts = [tuple(draw(st.lists(coordinate, min_size=d, max_size=d))) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        ws = [F(draw(st.integers(min_value=-2, max_value=2))) for _ in range(k - 2)]
        ws.append(1 - sum(ws))
        verts[-1] = tuple(sum(w * F(v[c]) for w, v in zip(ws, verts)) for c in range(d))
    if k and draw(st.booleans()):
        ws = [F(draw(st.integers(min_value=-1, max_value=3))) for _ in range(k)]
        ws[0] += 1 - sum(ws)
        p = tuple(sum(w * F(v[c]) for w, v in zip(ws, verts)) for c in range(d))
    else:
        p = tuple(draw(st.lists(coordinate, min_size=d, max_size=d)))
    return p, verts


@settings(max_examples=500)
@given(barycentric_case())
def test_barycentric_witness_matches_the_linear_solve(case):
    """`lp.barycentric_witness` on one part of 0..d+2 vertices: in the hull
    its weights are the linear solve's; off the hull (a negative weight, or
    off the affine hull) it raises InternalError, and where the solve has
    many solutions DegenerateSimplex."""
    p, verts = case
    expect = outcome(ref_barycentric, p, verts)
    if expect is DegenerateSimplex:
        with pytest.raises(DegenerateSimplex):
            witness_weights(p, verts)
    elif expect is None or any(w < 0 for w in expect):
        with pytest.raises(InternalError):
            witness_weights(p, verts)
    else:
        got = witness_weights(p, verts)
        assert got == expect and all(type(w) is F for w in got)


def test_barycentric_witness_on_dependent_and_subdimensional_vertices():
    tri = [(0, 0), (4, 0), (0, 4)]
    assert witness_weights((1, 1), tri) == [F(1, 2), F(1, 4), F(1, 4)]
    with pytest.raises(InternalError):
        witness_weights((-1, 1), tri)  # weights 1, -1/4, 1/4
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(DegenerateSimplex):
        witness_weights((F(1, 3), F(1, 3), 0), flat)
    with pytest.raises(InternalError):
        witness_weights((0, 0, 1), flat)
    edge = [(0, 0, 0, 0), (2, 2, 2, 2)]
    assert witness_weights((1, 1, 1, 1), edge) == [F(1, 2), F(1, 2)]
    with pytest.raises(InternalError):
        witness_weights((1, 1, 1, 0), edge)


def ref_angular_order(vectors):
    """`angular_order` as a comparator: the open upper half-plane and the
    +x ray first, then cross products, ties on a ray in index order."""
    for v in vectors:
        if len(v) != 2:
            raise DimensionMismatch("angular_order is planar only")
        if v[0] == 0 and v[1] == 0:
            raise ValueError("zero vector has no direction")

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i, j):
        u, v = vectors[i], vectors[j]
        if half(u) != half(v):
            return -1 if half(u) < half(v) else 1
        c = u[0] * v[1] - u[1] * v[0]
        return -1 if c > 0 else 1 if c < 0 else (i > j) - (i < j)

    return sorted(range(len(vectors)), key=cmp_to_key(cmp))


def angle_outcome(fn, vectors):
    try:
        return fn(vectors)
    except (DimensionMismatch, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def angle_vectors(draw):
    """Rational vectors, many on the axes or on a common ray, sometimes a
    zero vector or one of the wrong dimension."""
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["any", "axis", "ray", "ray", "zero", "3d"]))
        if kind == "axis":
            c = draw(coordinate.filter(bool))
            v = draw(st.sampled_from([(c, 0), (0, c)]))
        elif kind == "ray" and out and len(out[-1]) == 2:
            v = tuple(draw(st.builds(F, st.integers(1, 5), st.integers(1, 4))) * c for c in out[-1])
        elif kind == "zero" and draw(st.integers(0, 4)) == 0:
            v = (0, F(0))
        elif kind == "3d" and draw(st.integers(0, 4)) == 0:
            v = (1, 2, 3)
        else:
            v = tuple(draw(st.lists(coordinate, min_size=2, max_size=2)))
        out.append(v)
    return out


@settings(max_examples=200)
@given(angle_vectors())
def test_angular_order_matches_the_comparator(vectors):
    assert angle_outcome(angular_order, vectors) == angle_outcome(ref_angular_order, vectors)


def test_angular_order_on_axes_and_rays():
    vectors = [(0, -1), (2, 0), (-1, 0), (0, 3), (1, 0), (F(1, 2), F(-1, 2)), (-1, -1), (1, 1)]
    assert angular_order(vectors) == [1, 4, 7, 3, 2, 6, 0, 5]
    with pytest.raises(ValueError, match="zero vector"):
        angular_order([(1, 1), (0, 0), (1, 2, 3)])
    with pytest.raises(DimensionMismatch, match="planar only"):
        angular_order([(1, 2, 3), (0, 0)])


@pytest.mark.parametrize(
    "points, depth_calls",
    [
        # the centerpoint lies on a line with a kept parallel halfplane that
        # leaves it whole; rejecting such lines skips two of its candidates
        ([(2, -1), (0, 3), (3, -2), (-2, -1), (-2, 2)], 7),
        # a kept halfplane parallel to a line rejects all of it; without
        # that rejection the scan runs _depth 13 times
        ([(2, 0), (-1, 3), (1, -2), (-2, 0), (1, -1), (-3, -2), (-2, -1)], 9),
    ],
)
def test_centerpoint_window_with_a_kept_halfplane_parallel_to_the_line(
    monkeypatch, points, depth_calls
):
    # depth_calls counts the candidates that no kept halfplane rejects, as
    # a scan that tests each candidate against every kept halfplane finds
    # them: the window must reject exactly the others
    ps = PointSet(2, points)
    expect = ref_centerpoint(ps)
    calls = []
    depth = tverberg._depth

    def counted(*args):
        calls.append(args)
        return depth(*args)

    monkeypatch.setattr(tverberg, "_depth", counted)
    assert centerpoint_planar(ps) == expect
    assert len(calls) == depth_calls
