"""Exact geometric predicates over rational coordinates.

Points hold `fractions.Fraction` (or int) coordinates. Every sign predicate
works in an integer frame: the points it compares are scaled by the least
common multiple of their denominators, which keeps every sign, so
orientation, volume and simplex containment are integer determinants
(closed forms for d <= 3, Bareiss elimination beyond). Only sub-dimensional
and degenerate simplices fall back to an exact rational solve. There are
no tolerances anywhere in this module; degenerate inputs raise rather than
silently picking a side.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from operator import attrgetter
from typing import Optional, Sequence

from . import linalg
from .errors import (
    DegenerateIncidence,
    DegenerateSimplex,
    DimensionMismatch,
    InternalError,
    PerturbationFailed,
    TrianglesIntersect,
)

Rat = Fraction
Point = tuple
_numerator = attrgetter("numerator")


class Containment(Enum):
    INTERIOR = "interior"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def rat(value) -> Fraction:
    """Exact rational from int, Fraction, or a string like '3', '-1/7', '0.25'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass a string or Fraction")
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def mk_point(coords) -> Point:
    return tuple(rat(c) for c in coords)


@dataclass
class PointSet:
    """Dimension-tagged, index-addressed list of points.

    Indices 0..n-1 are the canonical handles used by every other module.
    """

    dim: int
    points: list

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dim}")
        self.points = [mk_point(p) for p in self.points]
        for i, p in enumerate(self.points):
            if len(p) != self.dim:
                raise DimensionMismatch(
                    f"point {i} has {len(p)} coordinates, expected {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def take(self, indices) -> "PointSet":
        """New PointSet of the selected points, reindexed 0..k-1."""
        return PointSet(self.dim, [self.points[i] for i in indices])


def vsub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _int_frame(points):
    """The points scaled by the lcm of their coordinates' denominators.

    Returns (integer tuples, lcm). Scaling by a positive factor keeps the
    sign of every orientation and every barycentric coordinate.
    """
    den = 1
    for p in points:
        for c in p:
            if c.denominator != 1:
                den = math.lcm(den, c.denominator)
    if den == 1:
        return [tuple(map(_numerator, p)) for p in points], 1
    return [tuple([c.numerator * (den // c.denominator) for c in p]) for p in points], den


def _det(simplex) -> int:
    """det[p1-p0, ..., pd-p0] of d+1 integer points in R^d."""
    p0 = simplex[0]
    d = len(p0)
    if d == 2:
        (ax, ay), (bx, by), (cx, cy) = simplex
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    rows = [[a - b for a, b in zip(p, p0)] for p in simplex[1:]]
    if d == 3:
        (a, b, c), (e, f, g), (h, i, j) = rows
        return a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
    return linalg.det(rows).numerator


def _simplex_dim(simplex) -> int:
    d = len(simplex) - 1
    if d < 1 or set(map(len, simplex)) != {d}:
        raise DimensionMismatch(f"need d+1 points in R^d with d >= 1, got {len(simplex)}")
    return d


def orientation(simplex: Sequence[Point]) -> int:
    """Sign of det[p1-p0, ..., pd-p0] for d+1 points in R^d.

    Zero exactly when the points are affinely dependent.
    """
    _simplex_dim(simplex)
    return linalg.sign(_det(_int_frame(simplex)[0]))


def simplex_volume(simplex: Sequence[Point]) -> Fraction:
    """Exact d-volume |det[p1-p0,...,pd-p0]| / d! of d+1 points in R^d."""
    d = _simplex_dim(simplex)
    pts, den = _int_frame(simplex)
    return Fraction(abs(_det(pts)), math.factorial(d) * den**d)


def in_general_position(ps: PointSet, extra: Optional[Point] = None) -> list:
    """All (d+1)-subsets of ps.points (plus `extra`) that are affinely dependent.

    An empty report means general position. When `extra` is given it is
    addressed as index len(ps) in the reported tuples.
    """
    pts = list(ps.points)
    if extra is not None:
        pts.append(mk_point(extra))
    d = ps.dim
    if len(pts) <= d:
        return []
    pts = _int_frame(pts)[0]
    return [
        idx
        for idx in combinations(range(len(pts)), d + 1)
        if orientation([pts[i] for i in idx]) == 0
    ]


def gp_violations_with_extra(points: Sequence[Point], extra: Point) -> list:
    """Affinely dependent (d+1)-subsets that include `extra` (faster re-check)."""
    d = len(extra)
    if len(points) < d:
        return []
    *pts, extra = _int_frame([*points, extra])[0]
    out = []
    for idx in combinations(range(len(pts)), d):
        if orientation([pts[i] for i in idx] + [extra]) == 0:
            out.append(idx + (len(pts),))
    return out


def bounding_box(points: Sequence[Point]):
    mins = [min(p[c] for p in points) for c in range(len(points[0]))]
    maxs = [max(p[c] for p in points) for c in range(len(points[0]))]
    return mins, maxs


def perturb(ps: PointSet, seed: int, k: int = 16) -> PointSet:
    """Deterministic rational jitter until the set is in general position.

    Each coordinate moves by (m / 2^(k+j)) * diam with m drawn uniformly from
    {-2^k..2^k}; j starts at k (so every move is at most diam / 2^k) and grows
    each round until `in_general_position` passes.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rng = random.Random(seed)
    if len(ps) == 0:
        return PointSet(ps.dim, [])
    mins, maxs = bounding_box(ps.points)
    diam = max((hi - lo for lo, hi in zip(mins, maxs)), default=Fraction(0))
    if diam == 0:
        diam = Fraction(1)
    span = 2**k
    for j in range(k, k + 64):
        den = 2 ** (k + j)
        moved = [
            tuple(c + Fraction(rng.randint(-span, span), den) * diam for c in p)
            for p in ps.points
        ]
        candidate = PointSet(ps.dim, moved)
        if not in_general_position(candidate):
            return candidate
    raise PerturbationFailed(f"no general-position perturbation after 64 rounds (seed={seed})")


def barycentric_coordinates(p: Point, vertices: Sequence[Point]):
    """Exact barycentric coordinates of p w.r.t. affinely independent vertices.

    Returns the coordinate list, or None when p is off the vertices' affine
    hull. Raises DegenerateSimplex when the vertices are affinely dependent.
    """
    d = len(p)
    for v in vertices:
        if len(v) != d:
            raise DimensionMismatch("point/simplex dimension mismatch")
    rows = [[v[c] for v in vertices] for c in range(d)]
    rows.append([Fraction(1)] * len(vertices))
    status, x = linalg.solve_unique(rows, list(p) + [Fraction(1)])
    if status == "underdetermined":
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    if status == "inconsistent":
        return None
    return x


def point_in_simplex(p: Point, vertices: Sequence[Point]) -> Containment:
    """Containment of p in the simplex spanned by up to d+1 vertices.

    Sub-dimensional simplices are tested in their affine hull: INTERIOR means
    relative interior, and points off the hull are OUTSIDE. For d+1 affinely
    independent vertices the barycentric signs are read off d+2 integer
    orientation determinants (Cramer's rule) instead of a linear solve.
    """
    d = len(p)
    if d >= 1 and len(vertices) == d + 1 and all(len(v) == d for v in vertices):
        q, *verts = _int_frame([p, *vertices])[0]
        full = _det(verts)
        if full:
            on_face = False
            for i in range(d + 1):
                part = _det(verts[:i] + [q] + verts[i + 1:])
                if not part:
                    on_face = True
                elif (part > 0) != (full > 0):
                    return Containment.OUTSIDE
            return Containment.ON_BOUNDARY if on_face else Containment.INTERIOR
    coords = barycentric_coordinates(p, vertices)
    if coords is None:
        return Containment.OUTSIDE
    if any(c < 0 for c in coords):
        return Containment.OUTSIDE
    if any(c == 0 for c in coords):
        return Containment.ON_BOUNDARY
    return Containment.INTERIOR


# --- planar angular order -------------------------------------------------


def angular_order(vectors: Sequence[Point]) -> list:
    """Indices of nonzero 2D vectors sorted CCW by exact angle from the +x axis.

    Vectors on a common ray are tied and kept in index order.
    """
    for v in vectors:
        if len(v) != 2:
            raise DimensionMismatch("angular_order is planar only")
        if v[0] == 0 and v[1] == 0:
            raise ValueError("zero vector has no direction")

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i, j):
        hi, hj = half(vectors[i]), half(vectors[j])
        if hi != hj:
            return -1 if hi < hj else 1
        c = cross2(vectors[i], vectors[j])
        if c > 0:
            return -1
        if c < 0:
            return 1
        return -1 if i < j else (1 if i > j else 0)

    return sorted(range(len(vectors)), key=cmp_to_key(cmp))


# --- 3D segment/triangle incidence -----------------------------------------


def _require_r3(*pts):
    for p in pts:
        if len(p) != 3:
            raise DimensionMismatch("operation is defined in R^3 only")


def _collinear_overlap_1d(a, b, c, d) -> bool:
    axis = next((i for i in range(3) if a[i] != b[i]), None)
    if axis is None:
        axis = next((i for i in range(3) if c[i] != d[i]), 0)
    lo1, hi1 = sorted((a[axis], b[axis]))
    lo2, hi2 = sorted((c[axis], d[axis]))
    return max(lo1, lo2) <= min(hi1, hi2)


def _point_on_segment_3d(p, c, d) -> bool:
    if any(x != 0 for x in cross3(vsub(d, c), vsub(p, c))):
        return False
    return all(min(c[i], d[i]) <= p[i] <= max(c[i], d[i]) for i in range(3))


def segments_intersect_3d(a, b, c, d) -> bool:
    """Exact closed-segment intersection test in R^3."""
    _require_r3(a, b, c, d)
    u, v = vsub(b, a), vsub(d, c)
    if all(x == 0 for x in u):
        return _point_on_segment_3d(a, c, d)
    if all(x == 0 for x in v):
        return _point_on_segment_3d(c, a, b)
    if orientation([a, b, c, d]) != 0:
        return False  # skew segments cannot meet
    n = cross3(u, v)
    if all(x == 0 for x in n):
        # parallel directions: either disjoint parallel lines or collinear
        if any(x != 0 for x in cross3(u, vsub(c, a))):
            return False
        return _collinear_overlap_1d(a, b, c, d)
    # coplanar with independent directions: exact 2D test after dropping the
    # dominant normal axis
    axis = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != axis]
    pa, pb, pc, pd = (tuple(p[i] for i in keep) for p in (a, b, c, d))
    o1 = linalg.sign(cross2(vsub(pb, pa), vsub(pc, pa)))
    o2 = linalg.sign(cross2(vsub(pb, pa), vsub(pd, pa)))
    o3 = linalg.sign(cross2(vsub(pd, pc), vsub(pa, pc)))
    o4 = linalg.sign(cross2(vsub(pd, pc), vsub(pb, pc)))
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True

    def on_seg(p, q, r):
        # r collinear with pq: is it within the closed box?
        return all(min(p[i], q[i]) <= r[i] <= max(p[i], q[i]) for i in range(2))

    if o1 == 0 and on_seg(pa, pb, pc):
        return True
    if o2 == 0 and on_seg(pa, pb, pd):
        return True
    if o3 == 0 and on_seg(pc, pd, pa):
        return True
    if o4 == 0 and on_seg(pc, pd, pb):
        return True
    return False


def _curve_pierce_parity(curve: Sequence[Point], surface: Sequence[Point]) -> int:
    """Mod-2 count of transversal passages of a triangle's boundary curve
    through another triangle's spanned surface.

    Assumes the two boundary curves are disjoint. Vertices lying exactly on
    the surface's plane are handled by looking at the sign change across
    them; a whole edge in the plane is rejected as degenerate.
    """
    sides = [orientation(list(surface) + [v]) for v in curve]
    if all(s == 0 for s in sides):
        return 0  # coplanar disjoint curves are never linked
    parity = 0
    n = len(curve)
    for i in range(n):
        si, sj = sides[i], sides[(i + 1) % n]
        if si == 0 or sj == 0 or si == sj:
            continue
        a, b = curve[i], curve[(i + 1) % n]
        s1 = orientation([a, b, surface[0], surface[1]])
        s2 = orientation([a, b, surface[1], surface[2]])
        s3 = orientation([a, b, surface[2], surface[0]])
        if 0 in (s1, s2, s3):
            raise DegenerateIncidence("edge crossing through the surface boundary")
        if s1 == s2 == s3:
            parity ^= 1
    # maximal runs of vertices on the surface's plane: disjointness of the
    # boundary curves forces each run to lie wholly inside the open triangle
    # (a passage event when the flanking signs differ) or wholly outside the
    # closed triangle (no event)
    i = 0
    while i < n:
        if sides[i] != 0:
            i += 1
            continue
        if i == 0 and sides[-1] == 0:
            # rotate so the run does not wrap
            k = next(j for j in range(n) if sides[j] != 0)
            sides = sides[k:] + sides[:k]
            curve = list(curve[k:]) + list(curve[:k])
            i = 0
            continue
        j = i
        while j < n and sides[j] == 0:
            j += 1
        run = range(i, j)
        statuses = [point_in_simplex(curve[m], list(surface)) for m in run]
        if any(s == Containment.ON_BOUNDARY for s in statuses):
            raise DegenerateIncidence("curve vertex on the surface boundary")
        kinds = set(statuses)
        if len(kinds) > 1:
            raise DegenerateIncidence(
                "in-plane edge would cross the surface boundary"
            )
        if kinds == {Containment.INTERIOR}:
            prev_s = sides[i - 1]
            next_s = sides[j % n]
            if prev_s != next_s:
                parity ^= 1
        i = j
    return parity


def triangles_linked(tri1: Sequence[Point], tri2: Sequence[Point]) -> bool:
    """Whether two disjoint triangle boundary curves in R^3 are linked.

    Computed as the mod-2 number of times one curve pierces the other's
    spanned surface; both directions are computed and asserted equal.
    Raises TrianglesIntersect when the boundary curves meet.
    """
    t1, t2 = [mk_point(p) for p in tri1], [mk_point(p) for p in tri2]
    _require_r3(*t1, *t2)
    edges1 = [(t1[i], t1[(i + 1) % 3]) for i in range(3)]
    edges2 = [(t2[i], t2[(i + 1) % 3]) for i in range(3)]
    for a, b in edges1:
        for c, d in edges2:
            if segments_intersect_3d(a, b, c, d):
                raise TrianglesIntersect("triangle boundaries intersect")
    p1 = _curve_pierce_parity(t1, t2)
    p2 = _curve_pierce_parity(t2, t1)
    if p1 != p2:
        raise InternalError("linking parity differs between directions: predicate bug")
    return p1 == 1
