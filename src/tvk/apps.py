"""End-to-end pipelines and self-contained verifications.

`crossing_tverberg` chains: size gates, general-position gate, a bounded
partition (planar fast path or brute force), witness refinement to a
generic interior common point, the fixing loop, and optional extension
with leftover points. `verify_crossing_partition` re-checks everything
from scratch using only the exact predicates, with no pipeline state.
The linking section decides whether two triangles in R^3 are linked, by
segment tests and then orientations alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Optional, Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    SizeOutOfRange,
    TrianglesIntersect,
)
from .fixing import FixTrace, _classify, enumerate_origin_pairs, fix_all
from .geometry import (
    Point,
    PointSet,
    _query,
    gp_violations_with_extra,
    longest_side,
    mk_point,
    orientation,
    require_general_position,
    vsub,
)
from .lp import (
    Partition,
    Witness,
    _hull_test,
    barycentric_witness,
    common_point,
    relative_interior_witness,
    witness_violations,
)
from .tverberg import bounded_partition, extend_partition


@dataclass
class CrossingReport:
    """Pipeline output: partition, per-pair verdicts, fixing trace, discards."""

    partition: Partition
    verdicts: list  # r x r matrix of verdict strings ("crossing" | None)
    trace: FixTrace
    discarded: list = field(default_factory=list)


def refine_witness(parts, ps: PointSet, seed: int = 0) -> Witness:
    """Generic common point: strictly positive weights, and general position
    together with the union of the full-dimensional parts.

    Starts from a relative-interior witness and, when the point still lies
    on a hyperplane spanned by d of the relevant points, nudges it inside
    the feasible region along seeded rational directions (restricted to the
    affine hulls of any sub-dimensional parts).
    """
    d = ps.dim
    witness = relative_interior_witness(parts, ps)
    if witness is None:
        raise GeneralPositionViolated(
            "the parts have no full-dimensional common region; "
            "the input is degenerate for the crossing pipeline"
        )
    full_union = sorted(i for p in parts if len(p) == d + 1 for i in p)
    anchor_points = [ps.points[i] for i in full_union]
    if not gp_violations_with_extra(anchor_points, witness.point):
        return witness
    small = [p for p in parts if len(p) < d + 1]
    directions = _nudge_directions(small, ps)
    if not directions:
        raise GeneralPositionViolated(
            "witness is pinned to a degenerate affine subspace"
        )
    scale = longest_side(ps.points)
    rng = random.Random(seed)
    o = witness.point
    tests = [_hull_test(part, ps) for part in parts]
    for attempt in range(512):
        eps = Fraction(1, 2 ** (12 + attempt // 8))
        # all-zero coefficients give cand = o, which the gp test rejects
        coeffs = [rng.randint(-9, 9) for _ in directions]
        cand = tuple(
            oc + eps * scale * sum(c * v[k] for c, v in zip(coeffs, directions))
            for k, oc in enumerate(o)
        )
        q = _query(cand, ps)
        if not all(test(q) for test in tests):
            continue
        if gp_violations_with_extra(anchor_points, cand):
            continue
        return barycentric_witness(cand, parts, ps)
    raise GeneralPositionViolated(
        "no generic common point found after 512 seeded attempts"
    )


def _nudge_directions(small_parts, ps: PointSet) -> list:
    """Basis of the intersection of the small parts' affine-hull directions
    (empty when a single-point part pins the witness completely)."""
    d = ps.dim
    normal_rows = []
    for part in small_parts:
        base = ps.points[part[0]]
        dirs = [vsub(ps.points[i], base) for i in part[1:]]
        normal_rows.extend(linalg.nullspace(dirs, d))
    return [tuple(v) for v in linalg.nullspace(normal_rows, d)]


def _crossing_pipeline(ps: PointSet, r: int, measure, budget, seed):
    """Unverified crossing partition of ps into r parts, and its fixing trace."""
    d = ps.dim
    n = len(ps)
    if r < 1 or n < (d + 1) * (r - 1) + 1:
        raise SizeOutOfRange(
            f"need at least (d+1)(r-1)+1={(d + 1) * (r - 1) + 1} points, got {n}"
        )
    require_general_position(ps)
    cap = (d + 1) * r
    core = list(range(min(n, cap)))
    leftover = list(range(cap, n))
    core_ps = ps if not leftover else ps.take(core)
    partition = bounded_partition(core_ps, r)
    witness = refine_witness(partition.parts, core_ps, seed=seed)
    fixed, trace = fix_all(
        Partition(partition.parts, witness), core_ps, measure=measure, budget=budget
    )
    if leftover:
        fixed = extend_partition(fixed, leftover, ps)
    return fixed, trace


def _verified_report(ps: PointSet, partition: Partition, trace, discarded) -> CrossingReport:
    """The report of a pipeline result, after its one independent verification."""
    check = verify_crossing_partition(ps, partition)
    if not check.ok:
        raise InternalError(f"pipeline output failed verification: {check.violations}")
    return CrossingReport(partition, check.verdicts, trace, discarded)


def crossing_tverberg(
    ps: PointSet,
    r: int,
    measure: str = "volume",
    budget: Optional[int] = None,
    seed: int = 0,
) -> CrossingReport:
    """Partition into r parts sharing a point, all full-dimensional hulls
    pairwise crossing; oversized inputs are handled by extending a crossing
    partition of the first (d+1)r points."""
    partition, trace = _crossing_pipeline(ps, r, measure, budget, seed)
    return _verified_report(ps, partition, trace, [])


def crossing_simplices(
    ps: PointSet,
    measure: str = "volume",
    budget: Optional[int] = None,
    seed: int = 0,
    discard: Optional[Sequence[int]] = None,
) -> CrossingReport:
    """floor(n/(d+1)) vertex-disjoint pairwise crossing simplices.

    Removes n mod (d+1) points (highest indices unless specified) and runs
    the crossing pipeline with r = floor(n/(d+1)).
    """
    d = ps.dim
    n = len(ps)
    r = n // (d + 1)
    if r < 1:
        raise SizeOutOfRange(f"need at least d+1={d + 1} points, got {n}")
    spare = n % (d + 1)
    if discard is None:
        discard = list(range(n - spare, n))
    else:
        for k, i in enumerate(discard):
            if type(i) is not int or i in discard[:k]:
                raise SizeOutOfRange(f"discarded index {i!r} is repeated or not an integer")
        discard = sorted(discard)
        if len(discard) != spare:
            raise SizeOutOfRange(
                f"must discard exactly n mod (d+1) = {spare} points, got {len(discard)}"
            )
        if any(i < 0 or i >= n for i in discard):
            raise SizeOutOfRange(f"discarded indices must lie in 0..{n - 1}, got {discard}")
    keep = [i for i in range(n) if i not in discard]
    partition, trace = _crossing_pipeline(ps.take(keep), r, measure, budget, seed)
    parts = [tuple(keep[i] for i in part) for part in partition.parts]
    return _verified_report(ps, Partition(parts, partition.witness), trace, discard)


# --- linking -----------------------------------------------------------------


def _require_r3(*pts):
    for p in pts:
        if len(p) != 3:
            raise DimensionMismatch("operation is defined in R^3 only")


def segments_intersect_3d(a, b, c, d) -> bool:
    """Exact closed-segment intersection test in R^3."""
    _require_r3(a, b, c, d)
    if orientation([a, b, c, d]) != 0:
        return False  # skew segments cannot meet
    return common_point([(0, 1), (2, 3)], PointSet(3, [a, b, c, d])) is not None


def _curve_pierce_parity(curve: Sequence[Point], surface: Sequence[Point]) -> int:
    """Mod-2 count of the passages of a triangle's boundary curve through
    another triangle.

    Assumes the two boundary curves are disjoint, as `triangles_linked` has
    checked. A curve without vertices strictly on both sides of the
    surface's plane passes through it an even number of times. Otherwise it
    passes at most twice: along an edge ab with ends strictly on opposite
    sides, and at the one vertex b in the plane, if any, with a the curve's
    vertex on the positive side, so that the line ab meets the plane at b
    alone. Both read the same three orientations: the passage goes through
    the triangle iff the line ab passes strictly on one side of all three
    edge lines. Where it meets an edge line it is outside the closed
    triangle or on its boundary, which the disjoint curves rule out, so the
    strict test is exact.
    """
    sides = [orientation(list(surface) + [v]) for v in curve]
    if not {1, -1} <= set(sides):
        return 0

    def through(a, b):
        return {orientation([a, b, surface[k - 1], surface[k]]) for k in range(3)} in ({1}, {-1})

    top = curve[sides.index(1)]
    parity = 0
    for i in range(3):
        a, b = curve[i - 1], curve[i]
        if sides[i - 1] * sides[i] < 0:
            parity ^= through(a, b)
        elif sides[i] == 0:
            parity ^= through(top, b)
    return parity


def triangles_linked(tri1: Sequence[Point], tri2: Sequence[Point]) -> bool:
    """Whether two disjoint triangle boundary curves in R^3 are linked.

    Raises TrianglesIntersect when nine exact segment tests find that the
    boundary curves meet. Otherwise the verdict is the mod-2 number of
    passages of one curve through the other triangle; both directions are
    computed, and a difference between them is an InternalError.
    """
    t1, t2 = [mk_point(p) for p in tri1], [mk_point(p) for p in tri2]
    _require_r3(*t1, *t2)
    edges1, edges2 = ([(t[i - 1], t[i]) for i in range(3)] for t in (t1, t2))
    if any(segments_intersect_3d(*e, *f) for e in edges1 for f in edges2):
        raise TrianglesIntersect("triangle boundaries intersect")
    p1 = _curve_pierce_parity(t1, t2)
    p2 = _curve_pierce_parity(t2, t1)
    if p1 != p2:
        raise InternalError("linking parity differs between directions: predicate bug")
    return p1 == 1


class FaceLinkVerdict(Enum):
    LINKED = "linked"
    UNLINKED = "unlinked"
    FACES_INTERSECT = "faces_intersect"


def tetrahedra_face_linked(a, b, ps: PointSet) -> FaceLinkVerdict:
    """Whether some 2-face boundary of one tetrahedron links a 2-face of the
    other; meeting boundary curves yield the distinct FACES_INTERSECT verdict."""
    if ps.dim != 3:
        raise SizeOutOfRange("face linking is defined in R^3 only")
    a, b = tuple(sorted(a)), tuple(sorted(b))
    any_linked = False
    for fa in combinations(a, 3):
        for fb in combinations(b, 3):
            try:
                if triangles_linked(
                    [ps.points[i] for i in fa], [ps.points[i] for i in fb]
                ):
                    any_linked = True
            except TrianglesIntersect:
                return FaceLinkVerdict.FACES_INTERSECT
    return FaceLinkVerdict.LINKED if any_linked else FaceLinkVerdict.UNLINKED


# Eight integer points whose complementary tetrahedra pairs around the origin
# are never face-linked; used as the built-in negative example for the
# stronger-linking question.
LINKING_COUNTEREXAMPLE_POINTS = [
    (3, -2, 2),
    (2, -5, 3),
    (-3, 0, -4),
    (-1, 2, 0),
    (1, -5, -4),
    (4, 1, -2),
    (-2, -5, -4),
    (-3, 1, 3),
]


@dataclass
class LinkingCounterexampleReport:
    origin_pair_count: int
    origin_pairs: list
    linked_pairs: int
    faces_intersect_pairs: int
    falsified: bool


def verify_linking_counterexample() -> LinkingCounterexampleReport:
    """Check the built-in 8-point set: origin-containing complementary
    tetrahedra pairs exist in even number, and none of them is face-linked."""
    ps = PointSet(3, LINKING_COUNTEREXAMPLE_POINTS)
    pairs = enumerate_origin_pairs(ps, (0, 0, 0))
    linked = 0
    intersecting = 0
    for f, g in pairs:
        verdict = tetrahedra_face_linked(f, g, ps)
        if verdict == FaceLinkVerdict.LINKED:
            linked += 1
        elif verdict == FaceLinkVerdict.FACES_INTERSECT:
            intersecting += 1
    falsified = not pairs or len(pairs) % 2 != 0 or linked > 0
    return LinkingCounterexampleReport(
        origin_pair_count=len(pairs),
        origin_pairs=pairs,
        linked_pairs=linked,
        faces_intersect_pairs=intersecting,
        falsified=falsified,
    )


# --- independent verification -------------------------------------------------


@dataclass
class VerificationReport:
    violations: list
    # r x r pair verdicts ("crossing", "nested", ...; None where a part is
    # not full-dimensional); empty when a structural check failed
    verdicts: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_crossing_partition(ps: PointSet, partition: Partition) -> VerificationReport:
    """Re-check a claimed crossing partition from primitives only.

    Structural checks come first: at least one part, indices are ints (not
    booleans) in range, disjoint and not repeated, the size bound when
    claimed, and a witness point of dimension d. Only when they pass are
    the geometric checks run: the witness certificates (nonnegative weights
    summing to 1 that reproduce the point, which proves it lies in every
    part's hull) and a crossing verdict for every pair of full-dimensional
    parts; a pair involving an affinely dependent (d+1)-point part is
    "degenerate".
    Returns violations and never raises; no state from any producing
    pipeline is used. Each part's membership test is prepared once, when a
    pair first needs it; the tests read `ps.frame`, a pure function of
    `ps.points` computed on first use and never written by a pipeline.
    """
    d = ps.dim
    n = len(ps)
    parts = partition.parts
    out = []
    seen = set()
    if not parts:
        out.append("partition has no parts")
    for part in parts:
        if not part:
            out.append("empty part")
            continue
        if not all(type(i) is int and 0 <= i < n for i in part):
            out.append(f"part {part} has indices outside 0..{n - 1}")
            continue
        if len(set(part)) != len(part):
            out.append(f"part {part} repeats an index")
        overlap = seen & set(part)
        if overlap:
            out.append(f"index {sorted(overlap)} appears in two parts")
        seen |= set(part)
        if partition.size_bounded and len(part) > d + 1:
            out.append(f"part {part} exceeds the size bound d+1={d + 1}")
    witness = partition.witness
    if witness is None:
        out.append("partition has no witness")
    elif len(witness.point) != d:
        out.append(f"witness point has {len(witness.point)} coordinates, expected {d}")
    if out:
        return VerificationReport(out)
    out.extend(witness_violations(witness, parts, ps))
    q, pts = _query(witness.point, ps), ps.frame[0]
    test = cache(lambda i: _hull_test(parts[i], ps))  # part i's test
    r = len(parts)
    degenerate = {
        i
        for i, part in enumerate(parts)
        if len(part) == d + 1 and orientation([ps.points[k] for k in part]) == 0
    }
    verdicts = [[None] * r for _ in range(r)]
    for i, j in combinations(range(r), 2):
        if len(parts[i]) < d + 1 or len(parts[j]) < d + 1:
            continue
        if i in degenerate or j in degenerate:
            kind = "degenerate"
        else:
            kind = _classify(parts[i], parts[j], q, test(i), test(j), pts).kind
        verdicts[i][j] = verdicts[j][i] = kind
        if kind != "crossing":
            out.append(f"parts {parts[i]} and {parts[j]} do not cross ({kind})")
    return VerificationReport(out, verdicts)
