"""Size-bounded Tverberg partitions and extension to oversized inputs.

The brute force is one depth-first search over canonical partitions that
prunes by bounding boxes and by Helly's theorem, deciding each sub-family
it tests once (in the plane every one of at most three parts, by clipping
one hull by the others' edge halfplanes in integers,
`geometry._planar_hulls_meet`; in d >= 3 those that another candidate can
hold, by the exact LP), and certifies the first survivor with the exact
LP. The planar fast path groups the points by angle around an exactly
computed centerpoint, and Birch's theorem puts that centerpoint in every
group, so its barycentric weights are the witness and a group missing it
is an InternalError. Results are always independently checkable: every
returned partition carries a witness whose certificates re-verify by
exact arithmetic.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import gt
from typing import Sequence

from .errors import (
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    SizeOutOfRange,
)
from .fixing import _classify
from .geometry import Point, PointSet, _planar_hulls_meet, _query, angular_order
from .lp import (
    Partition,
    Witness,
    _check_indices,
    _hull_test,
    barycentric_witness,
    common_point,
)

BRUTE_FORCE_MAX_POINTS = 14


def _parts(remaining: tuple, lo: int, hi: int) -> list:
    """The parts of `remaining` that hold its first element and lo..hi
    elements, in lexicographic order."""
    anchor, rest = remaining[0], remaining[1:]
    return sorted((anchor, *c) for k in range(lo - 1, hi) for c in combinations(rest, k))


class _Search:
    """Depth-first search for the first canonical partition whose hulls meet.

    Candidates are the unordered partitions of 0..n-1 into r parts of at
    most m = d+1 points. Each part holds the smallest index not yet placed
    and the parts of a level come in lexicographic order, so candidates
    are visited in canonical order. A part size that leaves a remainder
    the later parts cannot hold is skipped, and a part whose bounding box
    misses the intersection of the placed boxes is rejected: boxes meet
    iff they meet coordinate by coordinate, and intervals meet iff they
    meet pairwise.

    By Helly's theorem r hulls in R^d meet iff every d+1 of them do. At a
    leaf, after every box, the sub-families of 2..d+1 parts are tested in
    `combinations` order, each once per search: in the plane by
    `geometry._planar_hulls_meet` on the parts' frame points, in d >= 3 by
    `common_point`; in d = 1 the boxes are the hulls. A
    sub-family that misses rules out every candidate that holds it, so the
    search moves past its last part. In d >= 3 a
    sub-family of r-1 or r parts belongs to no other candidate, so it is
    left to the final LP, which then decides the candidate; otherwise the
    tests are complete, and the final LP of the first candidate to pass
    them must be feasible.
    """

    __slots__ = ("ps", "r", "m", "families", "complete", "parts", "boxes", "verdicts")

    def __init__(self, ps: PointSet, r: int):
        d = ps.dim
        self.ps = ps
        self.r = r
        self.m = d + 1
        # the largest sub-family tested: none in d = 1, up to three parts in
        # the plane; in d >= 3 only those another candidate can hold, as r-1
        # parts fix the last one
        limit = 1 if d == 1 else min(r, 3) if d == 2 else min(r - 2, d + 1)
        self.families = [idx for s in range(2, limit + 1) for idx in combinations(range(r), s)]
        # whether a candidate that passes them must have a common point
        self.complete = d == 1 or limit >= min(r, d + 1)
        self.parts = []  # the placed parts
        self.boxes = {}  # part -> its bounding box (lo, hi)
        self.verdicts = {}  # sub-family -> whether its hulls meet

    def first(self):
        """The first partition whose hulls meet, or None."""
        cols = list(zip(*self.ps.frame[0]))
        lo, hi = tuple(map(min, cols)), tuple(map(max, cols))
        found = self._place(tuple(range(len(self.ps))), lo, hi)
        return None if found.__class__ is int else found

    def _place(self, remaining, lo, hi):
        """The first partition that completes the placed parts with parts
        of `remaining`, given that the placed boxes meet in lo..hi; when
        there is none, the index of the placed part to move past."""
        pts = self.ps.frame[0]
        parts, boxes = self.parts, self.boxes
        k = len(parts)
        left = self.r - k - 1  # parts after this one
        size = len(remaining)
        if left:
            candidates = _parts(remaining, max(1, size - left * self.m), min(self.m, size - left))
        else:
            candidates = (remaining,)  # the last part is what remains
        for part in candidates:
            box = boxes.get(part)
            if box is None:
                cols = list(zip(*[pts[i] for i in part]))
                box = boxes[part] = (tuple(map(min, cols)), tuple(map(max, cols)))
            lo2 = tuple(map(max, lo, box[0]))
            hi2 = tuple(map(min, hi, box[1]))
            if any(map(gt, lo2, hi2)):
                continue
            parts.append(part)
            if left:
                found = self._place(tuple(i for i in remaining if i not in part), lo2, hi2)
            else:
                found = self._leaf()
            parts.pop()
            if found.__class__ is not int or found < k:
                return found
        return k - 1

    def _leaf(self):
        """The placed candidate with its LP witness; when its hulls miss,
        the index of the placed part to move past."""
        parts, verdicts = self.parts, self.verdicts
        for idx in self.families:
            family = tuple(parts[i] for i in idx)
            verdict = verdicts.get(family)
            if verdict is None:
                verdict = verdicts[family] = self._hulls_meet(family)
            if not verdict:
                return idx[-1]
        candidate = tuple(parts)
        witness = common_point(candidate, self.ps)
        if witness is not None:
            return Partition(list(candidate), witness)
        if self.complete:
            raise InternalError(
                f"the hulls of {candidate} pass every sub-family test of "
                "Helly's theorem, yet their common-point LP is infeasible"
            )
        return self.r - 1

    def _hulls_meet(self, family) -> bool:
        """Whether the hulls of a sub-family of parts share a point."""
        if self.ps.dim == 2:
            pts = self.ps.frame[0]
            return _planar_hulls_meet([[pts[i] for i in part] for part in family])
        return common_point(family, self.ps) is not None


def tverberg_partition_bruteforce(ps: PointSet, r: int) -> Partition:
    """First canonical size-bounded partition whose hulls share a point,
    with the witness of its common-point LP.

    `_Search` rejects only candidates whose hulls miss, so this is the
    first candidate that an LP on every candidate would accept. Existence
    is guaranteed for (d+1)(r-1)+1 <= n <= (d+1)r points. Gated at desk
    scale (n <= 14); only the planar fast path (d=2, n=3r) takes larger
    inputs.
    """
    d = ps.dim
    n = len(ps)
    if r < 1:
        raise SizeOutOfRange("r must be at least 1")
    if not ((d + 1) * (r - 1) + 1 <= n <= (d + 1) * r):
        raise SizeOutOfRange(
            f"need (d+1)(r-1)+1 <= n <= (d+1)r, got n={n}, d={d}, r={r}"
        )
    if n > BRUTE_FORCE_MAX_POINTS:
        raise SizeOutOfRange(
            f"brute force is gated at {BRUTE_FORCE_MAX_POINTS} points (got n={n}, "
            f"d={d}, r={r}); larger inputs need the planar fast path, which "
            "takes only d=2 and n=3r"
        )
    found = _Search(ps, r).first()
    if found is None:
        raise InternalError(
            f"no partition found for n={n}, d={d}, r={r}, where one must exist"
        )
    return found


# --- planar centerpoint fast path -------------------------------------------


def _depth(qx: int, qy: int, qd: int, pts, stop_below: int):
    """Exact halfplane depth of the homogeneous candidate (qx/qd, qy/qd)
    over integer points, with the direction of a closed halfplane through
    the candidate that holds that many points.

    Returns early, with the count of the first halfplane holding fewer than
    stop_below points.
    """
    vs = [(x * qd - qx, y * qd - qy) for x, y in pts]

    def count(wx, wy):
        # closed halfplane through q with inner normal w, its boundary line
        # cut to the ray where w x v > 0; v = 0 (q itself) counts too
        total = 0
        for vx, vy in vs:
            s = vx * wx + vy * wy
            if s > 0 or (s == 0 and wx * vy - wy * vx >= 0):
                total += 1
        return total

    dirs = set()
    for vx, vy in vs:
        if vx or vy:
            g = math.gcd(vx, vy)
            dirs.add((-vy // g, vx // g))
            dirs.add((vy // g, -vx // g))
    best, best_dir = len(pts), None
    for w in dirs:
        c = count(*w)
        if c < best:
            best, best_dir = c, w
            if best < stop_below:
                break
    return best, best_dir


def centerpoint_planar(ps: PointSet) -> Point:
    """First candidate point of halfplane depth >= ceil(n/3) that is not an
    input point.

    Candidates are all pairwise line intersections in lexicographic
    line-pair order, generated as they are tested, so the scan holds no
    table of lines; two lines through a common input point meet at that
    point, so such a pair is skipped before any arithmetic. Every halfplane
    `_depth` finds with fewer than ceil(n/3) = m points is kept, as its
    inner normal w and thr, the m-th largest projection p.w: any closed
    halfplane containing q bounds q's depth, so the kept halfplane rejects
    exactly the candidates q with q.w > thr. Along the line a + t u the
    kept halfplanes leave one window lo <= t <= hi, empty when a halfplane
    parallel to the line holds it whole; it is computed again only when a
    halfplane is kept, and a candidate outside it is rejected by
    cross-multiplying its t. Only a candidate no kept halfplane rejects
    gets the full `_depth`.
    """
    if ps.dim != 2:
        raise DimensionMismatch("centerpoint_planar requires d=2")
    n = len(ps)
    if n == 0:
        raise SizeOutOfRange("empty point set has no centerpoint")
    m = -(-n // 3)  # ceil
    pts, denom = ps.frame
    input_set = set(pts)
    shallow = []  # (wx, wy, thr) of halfplanes with fewer than m points

    def deep(qx, qy, qd):
        """q as a point if it is not an input point and deep enough; a
        shallow halfplane found on the way is kept. A candidate met again
        on a later line pair needs no cache: `_depth` gives it the same
        verdict, and keeping its halfplane twice changes no window."""
        if qd == 1 and (qx, qy) in input_set:
            return None
        depth, w = _depth(qx, qy, qd, pts, m)
        if depth >= m:
            return (Fraction(qx, qd * denom), Fraction(qy, qd * denom))
        wx, wy = w
        shallow.append((wx, wy, sorted(x * wx + y * wy for x, y in pts)[n - m]))
        return None

    def window(ax, ay, ux, uy):
        """(lo, hi) bounds on t, each (num, den) with den > 0 or None when
        unbounded, outside which a kept halfplane rejects a + t u; None
        when the window is empty."""
        lo = hi = None
        for wx, wy, thr in shallow:
            # rejected exactly when t * s > r
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

    for j, k in combinations(range(n), 2):
        (ax, ay), (bx, by) = pts[j], pts[k]
        ux, uy = bx - ax, by - ay
        kept = len(shallow)
        bounds = window(ax, ay, ux, uy)
        # the later line pairs in order: none holds j, and one that holds k
        # meets this line at an input point
        for i, h in combinations(range(j + 1, n), 2):
            if bounds is None:
                break
            if i == k or h == k:
                continue
            (cx, cy), (ex, ey) = pts[i], pts[h]
            vx, vy = ex - cx, ey - cy
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
    raise GeneralPositionViolated(
        "no candidate centerpoint found (degenerate configuration)"
    )


def birch_partition_planar(ps: PointSet, r: int) -> Partition:
    """Partition 3r planar points into r triples around an exact centerpoint.

    Points are sorted by angle around the centerpoint o, as the integer
    vectors p - o of `ps.frame` scaled by o's homogeneous weight (a positive
    scale keeps every angle and tie), and grouped as {i, i+r, i+2r}. By
    Birch's theorem every triple contains o: were the counter-clockwise gap
    from p_i to p_{i+r} over pi, a closed halfplane through o inside that
    gap would hold only the points sorted strictly between them, at most
    r - 1 < depth(o). Ties on a ray keep their stable order, and o is never
    an input point. A triple missing o is therefore a bug, which
    `barycentric_witness` raises as InternalError. Only a set with no
    candidate centerpoint (e.g. three points) falls back to brute force.
    """
    if ps.dim != 2:
        raise DimensionMismatch("birch_partition_planar requires d=2")
    n = len(ps)
    if n != 3 * r:
        raise SizeOutOfRange(f"need exactly 3r points, got n={n}, r={r}")
    try:
        o = centerpoint_planar(ps)
    except GeneralPositionViolated:
        return tverberg_partition_bruteforce(ps, r)
    qx, qy, qd = _query(o, ps)
    order = angular_order([(x * qd - qx, y * qd - qy) for x, y in ps.frame[0]])
    parts = [(order[i], order[i + r], order[i + 2 * r]) for i in range(r)]
    return Partition(parts, barycentric_witness(o, parts, ps))


def bounded_partition(ps: PointSet, r: int) -> Partition:
    """Size-bounded partition into r parts sharing a point: the planar fast
    path for d=2 with n=3r, brute force otherwise."""
    if ps.dim == 2 and len(ps) == 3 * r:
        return birch_partition_planar(ps, r)
    return tverberg_partition_bruteforce(ps, r)


def extend_partition(partition: Partition, leftover: Sequence[int], ps: PointSet) -> Partition:
    """Insert leftover points one at a time, preserving pairwise crossings.

    A point inside some hull joins the first such part; otherwise it joins
    the first part, by index, whose grown hull is inclusion-minimal (no
    other grown hull is a proper subset of it), and the search stops there.
    After every insertion the crossings of the grown part with every other
    full-dimensional part are re-verified exactly; no other pair changed,
    so a partition whose full pairs all cross keeps them crossing. Each
    part's membership test is prepared once per call. A leftover index
    outside 0..n-1, repeated or already in a part raises ValueError.
    """
    if partition.witness is None:
        raise ValueError("extend_partition needs a witness")
    d = ps.dim
    o = partition.witness.point
    q = _query(o, ps)
    parts = [tuple(p) for p in partition.parts]
    weights = [list(w) for w in partition.witness.weights]
    _check_indices(leftover, ps)
    if len(set(leftover)) < len(leftover) or {i for p in parts for i in p} & set(leftover):
        raise ValueError("a leftover index is repeated or already in a part")
    pts = ps.frame[0]
    test = cache(lambda part: _hull_test(part, ps))
    for idx in sorted(leftover):
        target = next((i for i, part in enumerate(parts) if test(part)((*pts[idx], 1))), None)
        if target is None:
            grown = [part + (idx,) for part in parts]

            def inside(i, j):
                """Whether grown part j's hull lies in grown part i's."""
                return all(map(test(grown[i]), ((*pts[v], 1) for v in grown[j])))

            # i is inclusion-minimal iff no grown hull is a proper subset of it
            target = next(
                i
                for i in range(len(parts))
                if not any(
                    inside(i, j) and not inside(j, i)
                    for j in range(len(parts))
                    if j != i
                )
            )
        parts[target] += (idx,)
        weights[target].append(Fraction(0))
        if len(parts[target]) < d + 1:
            continue
        # only pairs with the grown part can have changed
        for j, part in enumerate(parts):
            if j == target or len(part) < d + 1:
                continue
            a, b = sorted((target, j))
            verdict = _classify(parts[a], parts[b], q, test(parts[a]), test(parts[b]), pts)
            if verdict.kind != "crossing":
                raise InternalError(
                    f"inserting point {idx} broke crossing of parts "
                    f"{parts[a]} / {parts[b]} ({verdict.kind})"
                )
    return Partition(parts, Witness(o, weights), size_bounded=False)
