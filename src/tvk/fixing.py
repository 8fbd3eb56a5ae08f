"""Pair classification, parity and cocycle checks, unnesting, and the
terminating fixing loop.

Two simplices whose hulls share a point either cross or are nested; the
fixing loop repeatedly repartitions the 2(d+1) points of a nested pair into
a crossing pair with the same common point, and instruments the strictly
decreasing measure that forces termination. Membership is `lp._hull_test`'s;
the point-count measure reads a simplex's facet rows once per count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Optional

from .errors import (
    BudgetExceeded,
    DegenerateSimplex,
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    SizeOutOfRange,
)
from .geometry import (
    Point,
    PointSet,
    _facets,
    _query,
    mk_point,
    require_general_position,
    simplex_volume,
)
from .lp import (
    Partition,
    _check_indices,
    _hull_test,
    barycentric_witness,
    canonical_parts,
    hull_contains,
)


@dataclass
class PairClass:
    """Trichotomy verdict for two hulls sharing (or not) a common point."""

    kind: str  # "crossing" | "nested" | "no_common_point"
    inner: Optional[tuple] = None
    outer: Optional[tuple] = None


def classify_pair(a, b, ps: PointSet, o: Point) -> PairClass:
    """Classify two disjoint parts of any size relative to a candidate point o.

    NoCommonPoint when o misses either hull; Nested when one part's points
    all lie in the other's closed hull; Crossing otherwise: for d >= 2,
    where a hull's boundary is connected, the boundaries meet, and in d = 1
    the segments overlap without nesting. Each part's membership test is
    prepared once (`lp._hull_test`) and asked about o, then about the other
    part's points; o enters as `geometry._query(o, ps)`, which callers that
    classify many pairs at one o build once and pass in.
    """
    a, b = tuple(sorted(a)), tuple(sorted(b))
    o = _query(o, ps)
    in_a, in_b = _hull_test(a, ps), _hull_test(b, ps)
    if not (in_a(o) and in_b(o)):
        return PairClass("no_common_point")
    pts = ps.frame[0]
    if all(in_b((*pts[i], 1)) for i in a):
        return PairClass("nested", inner=a, outer=b)
    if all(in_a((*pts[i], 1)) for i in b):
        return PairClass("nested", inner=b, outer=a)
    return PairClass("crossing")


def _require_origin_setup(ps: PointSet, o: Point):
    d = ps.dim
    if len(ps) != 2 * (d + 1):
        raise SizeOutOfRange(
            f"need exactly 2(d+1)={2 * (d + 1)} points, got {len(ps)}"
        )
    require_general_position(PointSet(d, [*ps.points, o]))


def _splits(indices, d: int):
    """Complementary (d+1)-splits (F, G) of the sorted indices, F holding the
    first one, in F's lexicographic order."""
    for rest in combinations(indices[1:], d):
        f = (indices[0],) + rest
        yield f, tuple(i for i in indices if i not in f)


def enumerate_origin_pairs(ps: PointSet, o: Point) -> list:
    """All complementary (d+1)-set partitions {F, G} with o in both hulls.

    Canonical order: F is the side containing index 0, listed by F's
    lexicographic order.
    """
    o = mk_point(o)
    _require_origin_setup(ps, o)
    q = _query(o, ps)
    return [
        (f, g)
        for f, g in _splits(range(len(ps)), ps.dim)
        if hull_contains(q, f, ps) and hull_contains(q, g, ps)
    ]


def parity_check(ps: PointSet, o: Point):
    """Count origin-containing complementary pairs; the count must be even.

    Returns (count, True); an odd count raises InternalError since it would
    indicate a predicate bug.
    """
    count = len(enumerate_origin_pairs(ps, o))
    if count % 2 != 0:
        raise InternalError(f"odd origin-pair count {count}")
    return count, True


@dataclass
class CocycleResult:
    ok: bool
    offending: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def cocycle_check(ps: PointSet, o: Point) -> CocycleResult:
    """For every (d+2)-subset M, the number of (d+1)-subsets of M whose hull
    contains o must be 0 or 2."""
    o = mk_point(o)
    d = ps.dim
    require_general_position(PointSet(d, [*ps.points, o]))
    n = len(ps)
    member = {f: hull_contains(o, f, ps) for f in combinations(range(n), d + 1)}
    for m in combinations(range(n), d + 2):
        count = sum(1 for f in combinations(m, d + 1) if member[f])
        if count not in (0, 2):
            return CocycleResult(False, m)
    return CocycleResult(True)


# --- unnesting ---------------------------------------------------------------


def unnest_pair(t1, t2, ps: PointSet, o: Point):
    """Repartition two origin-sharing (d+1)-sets into a crossing pair.

    Already-crossing inputs are returned unchanged. For a nested input, the
    parity of origin pairs guarantees a second pair over the same 2(d+1)
    points, and only one pair can realize the unique outer hull, so a
    crossing pair exists. It returns the first split (F, G) of the union,
    F holding its smallest index and taken in lexicographic order, that is
    not the input and that `classify_pair` calls crossing.
    """
    t1, t2 = tuple(sorted(t1)), tuple(sorted(t2))
    o = mk_point(o)
    verdict = classify_pair(t1, t2, ps, o)
    if verdict.kind == "no_common_point":
        raise GeneralPositionViolated("common point missing; unnesting undefined")
    if verdict.kind == "crossing":
        return t1, t2
    union = sorted(t1 + t2)
    _require_origin_setup(ps.take(union), o)
    q = _query(o, ps)
    for f, g in _splits(union, ps.dim):
        if f not in (t1, t2) and classify_pair(f, g, ps, q).kind == "crossing":
            return f, g
    raise InternalError(
        "no crossing repartition exists: contradicts the parity argument"
    )


# --- fixing loop -------------------------------------------------------------


def count_interior_points(simplex, ps: PointSet) -> int:
    """Points of ps strictly inside the simplex's hull: those p of the frame
    where every facet row (`geometry._facets`, built once) has the sign of
    full at (p, 1). A vertex is on its own facets, so it never counts. An
    index outside 0..n-1 raises ValueError, a vertex count other than d+1
    DimensionMismatch and affinely dependent vertices DegenerateSimplex."""
    _check_indices(simplex, ps)
    if len(simplex) != ps.dim + 1:
        raise DimensionMismatch(f"need d+1={ps.dim + 1} vertices, got {len(simplex)}")
    pts = ps.frame[0]
    facets = _facets([pts[i] for i in simplex])
    if facets is None:
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    rows, full = facets
    return sum(all(full * sum(map(mul, row, p), row[-1]) > 0 for row in rows) for p in pts)


@dataclass
class FixStep:
    fixed: tuple  # part indices at the time of the fix
    before: list
    after: list


@dataclass
class FixTrace:
    measure: str = "volume"
    steps: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)


def _measure(part, ps: PointSet, measure: str) -> Fraction:
    """A simplex's volume, or the number of points strictly inside it."""
    if measure == "volume":
        return simplex_volume([ps.points[i] for i in part])
    return Fraction(count_interior_points(part, ps))


def _measure_vector(parts, d: int, size) -> list:
    """The sizes of the full-dimensional parts, largest first."""
    return sorted((size(p) for p in parts if len(p) == d + 1), reverse=True)


def fix_all(
    partition: Partition,
    ps: PointSet,
    measure: str = "volume",
    budget: Optional[int] = None,
):
    """Unnest nested pairs until every full-dimensional pair crosses.

    The witness point is left untouched and part sizes are preserved. Each
    step must measure both new parts below the nested pair's outer one and
    strictly decrease the sorted measure vector in lexicographic order;
    either violation is a bug and raises InternalError. Each part is
    measured once per call, as a step changes two parts. An explicit
    budget that runs out raises BudgetExceeded with the partial trace, and
    an unknown measure raises ValueError before the first step.
    """
    if measure not in ("volume", "point-count"):
        raise ValueError(f"unknown measure {measure!r}")
    if partition.witness is None:
        raise ValueError("fix_all needs a witness")
    d = ps.dim
    o = partition.witness.point
    q = _query(o, ps)
    parts = canonical_parts(partition.parts)
    trace = FixTrace(measure=measure)
    # a step changes two parts, so verdicts and measures are kept by part contents
    verdicts, measures = {}, {}

    def size(part):
        if part not in measures:
            measures[part] = _measure(part, ps, measure)
        return measures[part]

    while True:
        full = [i for i, p in enumerate(parts) if len(p) == d + 1]
        for i, j in combinations(full, 2):
            key = (parts[i], parts[j])
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = classify_pair(*key, ps, q)
            if verdict.kind == "no_common_point":
                raise ValueError("fix_all needs a witness inside every part")
            if verdict.kind == "nested":
                break
        else:
            break
        if budget is not None and trace.iterations >= budget:
            raise BudgetExceeded(
                f"fixing needs more than {budget} steps",
                partition=Partition(parts, barycentric_witness(o, parts, ps)),
                trace=trace,
            )
        # a step's parts are the next step's, so its measure is the last after
        before = trace.steps[-1].after if trace.steps else _measure_vector(parts, d, size)
        s1, s2 = unnest_pair(parts[i], parts[j], ps, o)
        outer = size(verdict.outer)
        if any(size(s) >= outer for s in (s1, s2)):
            raise InternalError("replacement simplex not smaller than the outer one")
        parts[i], parts[j] = s1, s2
        parts = canonical_parts(parts)
        after = _measure_vector(parts, d, size)
        if not after < before:
            raise InternalError(
                f"measure vector did not drop lexicographically: {before} -> {after}"
            )
        trace.steps.append(FixStep((i, j), before, after))
    witness = barycentric_witness(o, parts, ps)
    return Partition(parts, witness, size_bounded=partition.size_bounded), trace
