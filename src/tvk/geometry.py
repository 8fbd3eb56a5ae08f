"""Exact geometric predicates over rational coordinates.

Points hold `fractions.Fraction` (or int) coordinates. Every sign predicate
works in an integer frame: the points it compares are scaled by the least
common multiple of their denominators, which keeps every sign, so
orientation and volume are integer determinants (closed forms for d <= 3,
Bareiss elimination beyond). A simplex's facet rows, `_facets`, are d+1
integer linear forms in the homogeneous point, built once per simplex,
whose values are the barycentric numerators: the membership tests that
`lp._hull_test` prepares and interior counts read their signs, and
`_barycentric` their ratios, the witness weights. `angular_order` sorts
by one exact key, the diamond angle. A `PointSet` computes its frame
once, on first use, and the predicates on its points read that frame by
index; those tests read homogeneous points, (p, 1) for a frame point p
and, for a point from outside the set, the plain tuple `_query` builds. Only
sub-dimensional and degenerate vertex sets fall back to a linear system,
read off the nullspace that `linalg` computes fraction-free as well.
There are no tolerances anywhere in this module; degenerate inputs raise
rather than silently picking a side.
One scan, `_dependent_through`, finds the d points that are affinely
dependent together with a point q: in the plane by repeated primitive
directions from q in O(n), beyond it by one determinant per d-subset. The
gate `in_general_position` runs it from each point over the later ones;
`gp_violations_with_extra`, the witness check's and the generator's test,
runs it from the new point. Fewer than d+1 points are dependent when
their difference vectors have a nontrivial nullspace.
`require_general_position` is the one gate that raises on a point set not
in general position.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import attrgetter, mul
from typing import Sequence

from . import linalg
from .errors import (
    DegenerateSimplex,
    DimensionMismatch,
    GeneralPositionViolated,
    PerturbationFailed,
)

Point = tuple
_numerator = attrgetter("numerator")


def rat(value) -> Fraction:
    """Exact rational from int, Fraction, or a string like '3', '-1/7', '0.25'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
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
    `frame` is `_int_frame(points)`, computed on first use and kept; it is
    a pure function of the points, which are not changed after
    construction.
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

    @cached_property
    def frame(self):
        """(integer points, lcm of the denominators), as `_int_frame`."""
        return _int_frame(self.points)


def vsub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


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


def _query(p: Point, ps: PointSet) -> tuple:
    """p validated once (`rat` on every coordinate, d of them) and made the
    homogeneous integer point (x_1, ..., x_d, w) of `ps.frame`, with w > 0
    and p * den == x / w."""
    p = mk_point(p)
    if len(p) != ps.dim:
        raise DimensionMismatch(f"point has {len(p)} coordinates, expected {ps.dim}")
    den = ps.frame[1]
    w = math.lcm(*[c.denominator for c in p])
    return (*[c.numerator * (w // c.denominator) * den for c in p], w)


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
    v = _det(_int_frame(simplex)[0])
    return (v > 0) - (v < 0)


def simplex_volume(simplex: Sequence[Point]) -> Fraction:
    """Exact d-volume |det[p1-p0,...,pd-p0]| / d! of d+1 points in R^d."""
    d = _simplex_dim(simplex)
    pts, den = _int_frame(simplex)
    return Fraction(abs(_det(pts)), math.factorial(d) * den**d)


def _dependent_through(q, pts, start=0):
    """Lazily, in `combinations` order, the ascending index tuples of d
    points of pts[start:] (indices into pts) that are affinely dependent
    with q; all points are integer. In the plane (j, l) is dependent
    exactly when p_j or p_l coincides with q or both have the same
    primitive direction from q: O(n) plus the report. Beyond the plane
    each d-subset takes one `_det`."""
    d = len(q)
    if d != 2:
        for idx in combinations(range(start, len(pts)), d):
            if not _det([q, *[pts[i] for i in idx]]):
                yield idx
        return
    x0, y0 = q
    rays = {}  # primitive direction from q, sign fixed, (0, 0) if coincident
    for j in range(start, len(pts)):
        dx, dy = pts[j][0] - x0, pts[j][1] - y0
        g = math.gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        rays.setdefault((dx // g, dy // g) if g else (0, 0), []).append(j)
    coincident = rays.pop((0, 0), [])
    if not coincident and len(rays) == len(pts) - start:
        return
    pairs = {pair for js in rays.values() for pair in combinations(js, 2)}
    for j in coincident:
        pairs.update((min(j, l), max(j, l)) for l in range(start, len(pts)) if l != j)
    yield from sorted(pairs)


def in_general_position(ps: PointSet) -> list:
    """All affinely dependent (d+1)-subsets of ps.points, in `combinations`
    order; k <= d points are reported as `tuple(range(k))` when they are
    affinely dependent.

    An empty report means general position. A caller that gates a point o
    together with the set scans `PointSet(d, [*points, o])`, where o is
    index len(points). Each point i runs `_dependent_through` over the
    points after it on `ps.frame`.
    """
    if len(ps) <= ps.dim:
        return _few_points_report(ps.points)
    pts = ps.frame[0]
    return [(i, *idx) for i, p in enumerate(pts) for idx in _dependent_through(p, pts, i + 1)]


def _few_points_report(points) -> list:
    """The gate's report on k <= d points: [tuple(range(k))] when they are
    affinely dependent, that is when the difference vectors to the first
    point have a nontrivial nullspace, and [] otherwise."""
    if len(points) < 2:
        return []
    base = points[0]
    rows = [[p[c] - base[c] for p in points[1:]] for c in range(len(base))]
    return [tuple(range(len(points)))] if linalg.nullspace(rows, len(points) - 1) else []


def gp_violations_with_extra(points: Sequence[Point], extra: Point) -> list:
    """The first affinely dependent (d+1)-subset that includes `extra`, in
    `combinations` order (the first that `_dependent_through` yields from
    it), as a one-tuple list; empty when there is none. With fewer than d
    points the subset is all of them and `extra`."""
    d = len(extra)
    if d < 1 or any(len(p) != d for p in points):
        raise DimensionMismatch(f"need points in R^d with d >= 1 for an extra point in R^{d}")
    if len(points) < d:
        return _few_points_report([*points, extra])
    *pts, q = _int_frame([*points, extra])[0]
    for idx in _dependent_through(q, pts):
        return [(*idx, len(pts))]
    return []


def require_general_position(ps: PointSet) -> None:
    """The general-position gate: raises GeneralPositionViolated carrying
    `in_general_position`'s report unless that report is empty. On k <= d
    points the report is the whole set, and the message names its k
    points."""
    violations = in_general_position(ps)
    if violations:
        k = len(ps)
        what = (
            f"the {k} points {', '.join(map(str, range(k)))} are affinely dependent"
            if k <= ps.dim
            else f"{len(violations)} affinely dependent (d+1)-subsets"
        )
        raise GeneralPositionViolated(
            f"{what}; perturb the input or fix the data", violations
        )


def longest_side(points: Sequence[Point]) -> Fraction:
    """Longest side of the points' bounding box, or 1 when that is 0."""
    return max((max(c) - min(c) for c in zip(*points)), default=0) or Fraction(1)


def perturb(ps: PointSet, seed: int) -> PointSet:
    """Deterministic rational jitter until the set is in general position.

    Each coordinate moves by (m / 2^(16+j)) * diam with m drawn uniformly
    from {-2^16..2^16}; j starts at 16 (so every move is at most
    diam / 2^16) and grows each round until `in_general_position` passes.
    """
    rng = random.Random(seed)
    diam = longest_side(ps.points)
    span = 2**16
    for j in range(16, 16 + 64):
        den = 2 ** (16 + j)
        moved = [
            tuple(c + Fraction(rng.randint(-span, span), den) * diam for c in p)
            for p in ps.points
        ]
        candidate = PointSet(ps.dim, moved)
        if not in_general_position(candidate):
            return candidate
    raise PerturbationFailed(f"no general-position perturbation after 64 rounds (seed={seed})")


def _facets(verts):
    """(rows, full) for d+1 affinely independent integer vertices in R^d:
    row i is the integer linear form with row_i . q = w * _det(verts with
    vertex i replaced by x / w) for every homogeneous point q = (x_1, ...,
    x_d, w), and full = _det(verts) != 0. So x / w has barycentric
    coordinate i equal to row_i . q / (w * full), and the rows sum to
    (0, ..., 0, full). None when the vertices are affinely dependent.

    In the plane the rows are the opposite edges' normals, in d = 3 the
    opposite faces' cross products with sign (-1)^(i+1); otherwise each
    entry is (-1)^d times a cofactor of the matrix with rows (v, 1), a
    minor that `_det` reads. The cofactors give the same rows in every d,
    but the closed forms build them in 0.8 us (d = 2) and 12 us (d = 3)
    against 47 and 31 us; with cofactors alone planar-scale's throughput
    falls by half and bruteforce-d3's by 4% (CHANGES.md).
    """
    d = len(verts) - 1
    if d == 2:
        (ax, ay), (bx, by), (cx, cy) = verts
        c0, c1, c2 = bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx
        full = c0 + c1 + c2
        if not full:
            return None
        return [(by - cy, cx - bx, c0), (cy - ay, ax - cx, c1), (ay - by, bx - ax, c2)], full
    if d == 3:
        rows = []
        for i in range(4):
            a, b, c = verts[:i] + verts[i + 1:]
            (ux, uy, uz), (vx, vy, vz) = vsub(b, a), vsub(c, a)
            s = 1 if i % 2 else -1
            n = (s * (uy * vz - uz * vy), s * (uz * vx - ux * vz), s * (ux * vy - uy * vx))
            rows.append((*n, -sum(map(mul, n, a))))
    else:
        rows = []
        for i in range(d + 1):
            others = verts[:i] + verts[i + 1:]
            s = 1 if i % 2 else -1
            rows.append((
                *[s * (-1) ** c * _det([v[:c] + v[c + 1:] for v in others]) for c in range(d)],
                -s * _det([(0,) * d, *others]),
            ))
    full = sum([row[-1] for row in rows])  # the rows' sum at q = (0, ..., 0, 1)
    return (rows, full) if full else None


def _barycentric(q, verts):
    """Exact barycentric coordinates of the homogeneous integer point
    q = (x, w), w > 0, over integer vertices, or None when x / w is off
    their affine hull: for d+1 affinely independent vertices their facet
    rows (`_facets`) at q, row_i . q / (w * full). Other vertex sets read
    the nullspace of sum l_i (w v_i) = t x, sum l_i = t: None when no
    basis vector has t != 0, DegenerateSimplex when there is more than one,
    and l / t from one basis vector (l, t)."""
    *x, w = q
    if len(verts) == len(x) + 1:
        facets = _facets(verts)
        if facets is not None:
            rows, full = facets
            return [Fraction(sum(map(mul, row, q)), w * full) for row in rows]
    rows = [[*[w * v[c] for v in verts], -x[c]] for c in range(len(x))]
    rows.append([1] * len(verts) + [-1])
    basis = linalg.nullspace(rows, len(verts) + 1)
    if not any(v[-1] for v in basis):
        return None
    if len(basis) > 1:
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    *lam, t = basis[0]
    return [c / t for c in lam]


def _in_planar_hull(q, pts) -> bool:
    """Exact test q in conv(pts) in the plane, for the homogeneous integer
    point q = (x, y, w) with w > 0 and integer points pts.

    With v_s = s - q, q is outside exactly when some v_s has every v_t
    strictly to its left or on its own ray: then pts lies in an open
    halfplane through q. A zero v_t (q is a point of pts) lies on no ray.
    Duplicate, collinear and single points need no special case; an empty
    pts contains nothing.
    """
    x, y, w = q
    vs = [(a * w - x, b * w - y) for a, b in pts]
    for ux, uy in vs:
        for vx, vy in vs:
            c = ux * vy - uy * vx
            if c < 0 or (c == 0 and ux * vx + uy * vy <= 0):
                break
        else:
            return False
    return bool(vs)


# --- planar angular order -------------------------------------------------


def angular_order(vectors: Sequence[Point]) -> list:
    """Indices of nonzero 2D vectors sorted CCW by exact angle from the +x axis.

    The key is the diamond angle: with p = y / (|x| + |y|) it is p for
    x >= 0 <= y, 2 - p for x < 0 and 4 + p otherwise, exact and strictly
    increasing with the angle on [0, 2pi). Vectors on a common ray share a
    key, so the stable sort keeps them in index order.
    """
    keys = []
    for v in vectors:
        if len(v) != 2:
            raise DimensionMismatch("angular_order is planar only")
        x, y = v
        if x == 0 and y == 0:
            raise ValueError("zero vector has no direction")
        p = Fraction(y) / (abs(x) + abs(y))
        keys.append(2 - p if x < 0 else p if y >= 0 else 4 + p)
    return sorted(range(len(vectors)), key=keys.__getitem__)
