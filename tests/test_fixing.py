import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvk import fixing
from tvk.errors import (
    BudgetExceeded,
    DegenerateSimplex,
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    SizeOutOfRange,
)
from tvk.generate import random_extension, random_point_set
from tvk.geometry import (
    PointSet,
    _barycentric,
    orientation,
    require_general_position,
    simplex_volume,
)
from tvk.lp import Witness, _check_indices, barycentric_witness, canonical_parts, hull_contains
from tvk.fixing import (
    PairClass,
    classify_pair,
    cocycle_check,
    count_interior_points,
    enumerate_origin_pairs,
    fix_all,
    parity_check,
    unnest_pair,
)
from tvk.tverberg import Partition, bounded_partition
from tvk.apps import crossing_simplices, refine_witness
from tvk.fileio import trace_payload

from cocycles import (
    cocycle_generator_masks,
    delta_cocycle,
    disjoint_pair_count,
    generated_cocycles,
    is_cocycle,
    mask_disjoint_pair_count,
    mask_to_family,
)
from conftest import HEXAGON, NESTED_SIX, NINE_ONE_FIX, lp_hull_contains
from swap_witness import swap_witness_planar

ORIGIN2 = (F(0), F(0))

# six points in an open halfplane off the origin: no triple collinear, no two
# on a line through the origin
HALFPLANE_SIX = [(5, 1), (7, 2), (4, 3), (9, 5), (6, 7), (3, 8)]


def nested_six_ps():
    return PointSet(2, NESTED_SIX)


# --- classification ---------------------------------------------------------


def test_classify_nested_spec_triangles():
    # collinear-with-origin apexes are fine for classification
    ps = PointSet(2, [(10, -10), (-10, -10), (0, 10), (1, -1), (-1, -1), (0, 1)])
    v = classify_pair((0, 1, 2), (3, 4, 5), ps, ORIGIN2)
    assert v.kind == "nested"
    assert v.inner == (3, 4, 5) and v.outer == (0, 1, 2)


def test_classify_crossing_mirror():
    ps = PointSet(2, [(4, 0), (-2, 3), (-2, -3), (-4, 0), (2, 3), (2, -3)])
    assert classify_pair((0, 1, 2), (3, 4, 5), ps, ORIGIN2).kind == "crossing"


def test_classify_no_common_point():
    ps = PointSet(2, [(10, 10), (11, 10), (10, 11), (-10, -10), (-11, -10), (-10, -11)])
    assert classify_pair((0, 1, 2), (3, 4, 5), ps, ORIGIN2).kind == "no_common_point"


def ref_pair_verdict(a, b, ps, o):
    """The trichotomy with every membership test the rational LP
    (`conftest.lp_hull_contains`)."""
    a, b = tuple(sorted(a)), tuple(sorted(b))
    if not (lp_hull_contains(o, a, ps) and lp_hull_contains(o, b, ps)):
        return "no_common_point", None, None
    if all(lp_hull_contains(ps.points[i], b, ps) for i in a):
        return "nested", a, b
    if all(lp_hull_contains(ps.points[i], a, ps) for i in b):
        return "nested", b, a
    return "crossing", None, None


def _convex_combination(draw, points):
    ws = [draw(st.integers(min_value=0, max_value=3)) for _ in points]
    if not any(ws):
        ws[0] = 1
    total = sum(ws)
    return tuple(
        sum(F(w, total) * p[c] for w, p in zip(ws, points)) for c in range(len(points[0]))
    )


@st.composite
def pair_case(draw):
    """Two disjoint parts of 1..d+3 points in d=2,3, and a point o.

    Parts are often centred (their last point cancels the others, so the
    origin is their centroid) and b is sometimes drawn inside a's hull, so
    that every verdict is common; o is the origin, a point of b's hull or a
    lattice point that may miss both. A part of d+1 points is often flat
    (collinear in the plane, coplanar in d=3), so that every rule of the
    membership test decides some case: facet rows, the planar halfplane
    test and the LP. Small coordinates make dependent and boundary cases
    common too.
    """
    d = draw(st.sampled_from([2, 3]))
    size = st.one_of(st.just(d + 1), st.integers(min_value=1, max_value=d + 3))
    ka, kb = draw(size), draw(size)
    centred = draw(st.sampled_from([True, True, False]))
    flat = draw(st.sampled_from([True, False, False]))

    def part(k):
        coord = st.integers(min_value=-6, max_value=6)
        pts = [tuple(draw(st.lists(coord, min_size=d, max_size=d))) for _ in range(k)]
        if centred:
            pts[-1] = tuple(-sum(p[c] for p in pts[:-1]) for c in range(d))
        if flat and k == d + 1:
            # the last point in the affine hull of the first d
            ts = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(d - 1)]
            pts[-1] = tuple(
                pts[0][c] + sum(t * (p[c] - pts[0][c]) for t, p in zip(ts, pts[1:]))
                for c in range(d)
            )
        return pts

    pa = part(ka)
    if draw(st.booleans()):
        pb = [_convex_combination(draw, pa) for _ in range(kb)]
    else:
        pb = part(kb)
    where = draw(st.sampled_from(["origin", "in b", "lattice"]))
    if where == "origin":
        o = (0,) * d
    elif where == "in b":
        o = _convex_combination(draw, pb)
    else:
        o = tuple(draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)))
    order = draw(st.permutations(range(ka + kb)))
    points = [None] * (ka + kb)
    for slot, p in zip(order, pa + pb):
        points[slot] = p
    return PointSet(d, points), tuple(order[:ka]), tuple(order[ka:]), o


@settings(max_examples=400)
@given(pair_case())
def test_classify_pair_matches_lp_reference(case):
    ps, a, b, o = case
    v = classify_pair(a, b, ps, o)
    assert (v.kind, v.inner, v.outer) == ref_pair_verdict(a, b, ps, o)


# --- origin pairs / parity -----------------------------------------------------


def oracle_origin_pairs(ps, o):
    """Independent enumeration via LP hull membership (no barycentric path)."""
    d = ps.dim
    n = len(ps)
    out = []
    for rest in combinations(range(1, n), d):
        f = (0,) + rest
        g = tuple(i for i in range(n) if i not in f)
        if lp_hull_contains(o, f, ps) and lp_hull_contains(o, g, ps):
            out.append((f, g))
    return out


def test_enumerate_hexagon_pairs():
    ps = PointSet(2, HEXAGON)
    pairs = enumerate_origin_pairs(ps, ORIGIN2)
    assert ((0, 2, 4), (1, 3, 5)) in pairs
    assert len(pairs) % 2 == 0 and len(pairs) >= 2
    assert pairs == oracle_origin_pairs(ps, ORIGIN2)


def test_enumerate_nested_six_pairs():
    ps = nested_six_ps()
    pairs = enumerate_origin_pairs(ps, ORIGIN2)
    assert ((0, 1, 2), (3, 4, 5)) in pairs
    assert pairs == oracle_origin_pairs(ps, ORIGIN2)
    assert len(pairs) % 2 == 0


def test_parity_empty_when_halfplane():
    ps = PointSet(2, HALFPLANE_SIX)
    count, even = parity_check(ps, ORIGIN2)
    assert count == 0 and even


def test_origin_setup_requires_2d_plus_2_points():
    ps = PointSet(2, HEXAGON[:5])
    with pytest.raises(SizeOutOfRange):
        enumerate_origin_pairs(ps, ORIGIN2)
    with pytest.raises(SizeOutOfRange):
        swap_witness_planar(ps, ORIGIN2)


def test_parity_requires_general_position():
    ps = PointSet(2, [(1, 1), (2, 2), (-1, 3), (5, 1), (1, 5), (-2, -3)])
    with pytest.raises(GeneralPositionViolated):
        parity_check(ps, ORIGIN2)  # (1,1),(2,2) collinear with origin


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**6))
def test_parity_random_d2(seed):
    ps = random_extension(PointSet(2, [ORIGIN2]), 6, seed=seed, bound=300).take(range(1, 7))
    count, even = parity_check(ps, ORIGIN2)
    assert even and count % 2 == 0


# --- cocycle -------------------------------------------------------------------


def test_cocycle_hexagon():
    assert cocycle_check(PointSet(2, HEXAGON), ORIGIN2).ok


def test_cocycle_check_reports_the_first_offending_subset(monkeypatch):
    # with only (0, 1, 2) holding o, the first 4-subset counts one, not 0 or 2
    ps = random_point_set(2, 6, seed=3)
    monkeypatch.setattr(fixing, "hull_contains", lambda o, f, ps: tuple(f) == (0, 1, 2))
    assert cocycle_check(ps, (F(1, 7), F(1, 11))) == fixing.CocycleResult(False, (0, 1, 2, 3))


def test_cocycle_halfplane_all_zero():
    ps = PointSet(2, HALFPLANE_SIX)
    assert cocycle_check(ps, ORIGIN2).ok


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=10**6))
def test_cocycle_random(d, seed):
    rng = random.Random(seed)
    n = rng.randint(d + 2, 9)
    ps = random_extension(PointSet(d, [(0,) * d]), n, seed=seed, bound=300)
    ps = ps.take(range(1, n + 1))
    assert cocycle_check(ps, (0,) * d).ok


# --- abstract cocycles ------------------------------------------------------------


def test_delta_generator_is_cocycle():
    universe = list(range(6))
    fam = delta_cocycle(universe, (0, 1))
    assert is_cocycle(fam, universe, 3)
    assert len(fam) == 4


def test_generated_families_are_cocycles_k2():
    universe = list(range(4))
    for fam in generated_cocycles(universe, 2):
        assert is_cocycle(fam, universe, 2)
        assert disjoint_pair_count(fam, universe) % 2 == 0


def test_mask_helpers_agree_with_sets():
    n, k = 6, 3
    subsets, gens = cocycle_generator_masks(n, k)
    rng = random.Random(0)
    for _ in range(50):
        mask = 0
        for g in gens:
            if rng.random() < 0.5:
                mask ^= g
        fam = mask_to_family(mask, subsets)
        assert is_cocycle(fam, range(n), k)
        assert mask_disjoint_pair_count(mask, subsets, n) == disjoint_pair_count(
            fam, range(n)
        )


# --- unnesting ---------------------------------------------------------------------


def test_unnest_nested_pair():
    ps = nested_six_ps()
    s1, s2 = unnest_pair((0, 1, 2), (3, 4, 5), ps, ORIGIN2)
    assert sorted(s1 + s2) == [0, 1, 2, 3, 4, 5]
    assert classify_pair(s1, s2, ps, ORIGIN2).kind == "crossing"
    for part in (s1, s2):
        assert hull_contains(ORIGIN2, part, ps)
    outer_vol = simplex_volume([ps.points[i] for i in (0, 1, 2)])
    for part in (s1, s2):
        assert simplex_volume([ps.points[i] for i in part]) < outer_vol


def test_unnest_idempotent_on_crossing():
    ps = nested_six_ps()
    s1, s2 = unnest_pair((0, 1, 2), (3, 4, 5), ps, ORIGIN2)
    assert unnest_pair(s1, s2, ps, ORIGIN2) == (s1, s2)


def test_unnest_concrete_repartition():
    # nested (red) pair turns into a crossing (blue) pair over the same points
    ps = nested_six_ps()
    s1, s2 = unnest_pair((0, 1, 2), (3, 4, 5), ps, ORIGIN2)
    assert {frozenset(s1), frozenset(s2)} != {frozenset((0, 1, 2)), frozenset((3, 4, 5))}


def test_fix_all_rejects_a_witness_outside_a_part():
    ps = nested_six_ps()
    thirds = [F(1, 3)] * 3
    far = Partition([(0, 1, 2), (3, 4, 5)], Witness((F(1000), F(1000)), [thirds, thirds]))
    with pytest.raises(ValueError):
        fix_all(far, ps)


def test_fix_all_rejects_a_partition_without_a_witness():
    with pytest.raises(ValueError, match="fix_all needs a witness"):
        fix_all(Partition([(0, 1, 2), (3, 4, 5)]), nested_six_ps())


def ref_unnest_pair(t1, t2, ps, o):
    """The earlier rule: walk the origin pairs of a sub-PointSet of the union,
    map them back to ps's indices and take the first crossing one other than
    the input, with the part holding the smallest index first."""
    t1, t2 = tuple(sorted(t1)), tuple(sorted(t2))
    union = sorted(t1 + t2)
    input_pair = {frozenset(t1), frozenset(t2)}
    for f, g in enumerate_origin_pairs(ps.take(union), o):
        fa = tuple(union[j] for j in f)
        ga = tuple(union[j] for j in g)
        if {frozenset(fa), frozenset(ga)} == input_pair:
            continue
        if classify_pair(fa, ga, ps, o).kind == "crossing":
            return (fa, ga) if fa[0] < ga[0] else (ga, fa)
    return None


def nested_case(d, seed):
    """A nested pair of (d+1)-sets around the origin, in general position with
    it, scattered at random indices among up to three other points."""
    rng = random.Random(seed)
    o = (0,) * d

    def simplex(scale, jitter):
        corners = [tuple(scale * (c == k) for c in range(d)) for k in range(d)]
        corners.append((-scale,) * d)
        return [tuple(x + rng.randint(-jitter, jitter) for x in p) for p in corners]

    while True:
        pts = simplex(rng.randint(60, 120), 30) + simplex(rng.randint(4, 20), 12)
        pts += [tuple(rng.randint(-500, 500) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        order = rng.sample(range(len(pts)), len(pts))
        points = [None] * len(pts)
        for slot, p in zip(order, pts):
            points[slot] = p
        ps = PointSet(d, points)
        t1, t2 = tuple(order[: d + 1]), tuple(order[d + 1 : 2 * d + 2])
        try:
            require_general_position(PointSet(d, [*(points[i] for i in t1 + t2), o]))
        except GeneralPositionViolated:
            continue
        if classify_pair(t1, t2, ps, o).kind == "nested":
            return ps, t1, t2, o


@settings(max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=10**6))
def test_unnest_matches_the_origin_pair_search(d, seed):
    ps, t1, t2, o = nested_case(d, seed)
    expected = ref_unnest_pair(t1, t2, ps, o)
    assert expected is not None
    assert unnest_pair(t1, t2, ps, o) == expected
    assert unnest_pair(t2, t1, ps, o) == expected


def test_unnest_without_a_repartition_is_an_internal_error(monkeypatch):
    # parity guarantees a crossing repartition; finding none is a bug
    monkeypatch.setattr(fixing, "classify_pair", lambda a, b, ps, o: PairClass("nested"))
    with pytest.raises(InternalError):
        unnest_pair((0, 1, 2), (3, 4, 5), nested_six_ps(), ORIGIN2)


# --- planar swap construction ---------------------------------------------------------


def test_swap_witness_hexagon():
    ps = PointSet(2, HEXAGON)
    p, pp, matching = swap_witness_planar(ps, ORIGIN2)
    counted = enumerate_origin_pairs(ps, ORIGIN2)
    assert set(matching) == set(counted)
    for k, v in matching.items():
        assert v != k and matching[v] == k


def test_swap_witness_halfplane_empty_matching():
    ps = PointSet(2, HALFPLANE_SIX)
    p, pp, matching = swap_witness_planar(ps, ORIGIN2)
    assert matching == {}
    assert 0 <= p < 6 and 0 <= pp < 6 and p != pp


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_swap_witness_involution_random(seed):
    ps = random_extension(PointSet(2, [ORIGIN2]), 6, seed=seed, bound=200).take(range(1, 7))
    p, pp, matching = swap_witness_planar(ps, ORIGIN2)
    counted = enumerate_origin_pairs(ps, ORIGIN2)
    assert len(matching) == len(counted)
    for k, v in matching.items():
        assert v != k and matching[v] == k
    # the matching is an independent proof that the count is even
    assert parity_check(ps, ORIGIN2) == (len(counted), True)


# --- fixing loop ------------------------------------------------------------------------


def _partition_with_witness(parts, ps, seed=0):
    w = refine_witness(parts, ps, seed=seed)
    return Partition(list(parts), w)


def test_fix_all_identity_on_crossing():
    ps = PointSet(2, [(4, 0), (-2, 3), (-2, -3), (-4, 0), (2, 3), (2, -3)])
    part = _partition_with_witness([(0, 1, 2), (3, 4, 5)], ps)
    fixed, trace = fix_all(part, ps)
    assert trace.iterations == 0
    assert fixed.parts == part.parts
    assert fixed.witness.point == part.witness.point


def test_fix_all_single_step_nested_pair():
    ps = nested_six_ps()
    part = _partition_with_witness([(0, 1, 2), (3, 4, 5)], ps)
    fixed, trace = fix_all(part, ps)
    assert trace.iterations == 1
    assert classify_pair(*fixed.parts, ps, fixed.witness.point).kind == "crossing"
    assert fixed.witness.point == part.witness.point  # witness untouched
    step = trace.steps[0]
    assert step.after < step.before


def test_fix_all_nine_points_one_fix():
    ps = PointSet(2, NINE_ONE_FIX)
    part = _partition_with_witness([(0, 1, 2), (3, 4, 5), (6, 7, 8)], ps)
    fixed, trace = fix_all(part, ps)
    assert trace.iterations == 1
    o = fixed.witness.point
    for a, b in combinations(fixed.parts, 2):
        assert classify_pair(a, b, ps, o).kind == "crossing"


def test_fix_all_point_count_measure():
    ps = PointSet(2, NINE_ONE_FIX)
    part = _partition_with_witness([(0, 1, 2), (3, 4, 5), (6, 7, 8)], ps)
    fixed, trace = fix_all(part, ps, measure="point-count")
    assert trace.measure == "point-count"
    assert trace.iterations >= 1
    for step in trace.steps:
        assert step.after < step.before
    o = fixed.witness.point
    for a, b in combinations(fixed.parts, 2):
        assert classify_pair(a, b, ps, o).kind == "crossing"


def test_fix_all_measures_once_per_step_and_once_up_front(monkeypatch):
    calls = []
    measure = fixing._measure_vector
    monkeypatch.setattr(
        fixing, "_measure_vector", lambda *args: calls.append(args) or measure(*args)
    )
    rep = crossing_simplices(random_point_set(2, 24, 22))
    assert rep.trace.iterations == 2
    assert len(calls) == 3
    assert trace_payload(rep.trace) == [
        {
            "fixed": [2, 4],
            "volumes_before": ["273832373/2", "220168789/2", "84881685/1", "54828594/1",
                               "78416859/2", "22872270/1", "29173761/2", "8750543/1"],
            "volumes_after": ["273832373/2", "84881685/1", "139305993/2", "54828594/1",
                              "78416859/2", "23694835/1", "22872270/1", "8750543/1"],
        },
        {
            "fixed": [3, 7],
            "volumes_before": ["273832373/2", "84881685/1", "139305993/2", "54828594/1",
                               "78416859/2", "23694835/1", "22872270/1", "8750543/1"],
            "volumes_after": ["273832373/2", "139305993/2", "54828594/1", "40956365/1",
                              "78416859/2", "25813263/1", "23694835/1", "22872270/1"],
        },
    ]


def test_fix_all_budget_exceeded():
    ps = nested_six_ps()
    part = _partition_with_witness([(0, 1, 2), (3, 4, 5)], ps)
    with pytest.raises(BudgetExceeded) as err:
        fix_all(part, ps, budget=0)
    assert err.value.trace.iterations == 0
    fixed, trace = fix_all(part, ps, budget=1)
    assert trace.iterations == 1


def test_fix_all_triple_nested_needs_three_fixes():
    from conftest import NINE_TRIPLE_NESTED

    ps = PointSet(2, NINE_TRIPLE_NESTED)
    parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    for a, b in combinations(parts, 2):
        assert classify_pair(a, b, ps, ORIGIN2).kind == "nested"
    part = _partition_with_witness(parts, ps)
    for measure in ("volume", "point-count"):
        fixed, trace = fix_all(part, ps, measure=measure)
        assert trace.iterations == 3
        o = fixed.witness.point
        for a, b in combinations(fixed.parts, 2):
            assert classify_pair(a, b, ps, o).kind == "crossing"
    # a budget of 1 leaves a partial single-step trace
    with pytest.raises(BudgetExceeded) as err:
        fix_all(part, ps, budget=1)
    assert err.value.trace.iterations == 1


def test_fix_all_preserves_part_sizes():
    # sizes (3, 3, 1): the singleton pins the witness; only full parts are fixed
    single = (F(1, 13), F(1, 19))
    ps = PointSet(2, NINE_ONE_FIX[:6] + [single])
    parts = [(0, 1, 2), (3, 4, 5), (6,)]
    from tvk.lp import common_point

    w = common_point(parts, ps)
    assert w is not None and w.point == single
    fixed, trace = fix_all(Partition(parts, w), ps)
    assert trace.iterations == 1
    assert sorted(len(p) for p in fixed.parts) == [1, 3, 3]
    assert fixed.witness.point == single


def test_fix_all_checks_the_replacement_under_point_count(monkeypatch):
    # a replacement that counts more interior points than the outer part is
    # caught by the step check, before the measure vector is compared
    real = fixing.count_interior_points
    nested = {(0, 1, 2), (3, 4, 5)}
    monkeypatch.setattr(
        fixing,
        "count_interior_points",
        lambda simplex, ps: real(simplex, ps) if tuple(simplex) in nested else 10,
    )
    ps = nested_six_ps()
    part = _partition_with_witness([(0, 1, 2), (3, 4, 5)], ps)
    with pytest.raises(InternalError, match="replacement simplex not smaller than the outer one"):
        fix_all(part, ps, measure="point-count", budget=8)


# --- differential: the fixing loop against the earlier one ---------------------------------


def ref_measure_vector(parts, ps, measure):
    full = [p for p in parts if len(p) == ps.dim + 1]
    if measure == "volume":
        values = [simplex_volume([ps.points[i] for i in p]) for p in full]
    else:
        values = [F(count_interior_points(p, ps)) for p in full]
    return sorted(values, reverse=True)


def ref_unnest(t1, t2, ps, o):
    """The split walk over the union of a nested pair, written out."""
    union = sorted(t1 + t2)
    for rest in combinations(union[1:], ps.dim):
        f = (union[0],) + rest
        g = tuple(i for i in union if i not in f)
        if f not in (t1, t2) and classify_pair(f, g, ps, o).kind == "crossing":
            return f, g
    raise AssertionError("no crossing repartition")


def ref_fix_all(partition, ps, measure, budget=None):
    """The earlier fixing loop: a flagged double loop over the pairs, a
    volume-only check of the replacement, and the measure vector written
    out per measure."""
    d = ps.dim
    o = partition.witness.point
    parts = canonical_parts(partition.parts)
    trace = fixing.FixTrace(measure=measure)
    while True:
        full = [i for i, p in enumerate(parts) if len(p) == d + 1]
        nested_at = None
        for a in range(len(full)):
            for b in range(a + 1, len(full)):
                i, j = full[a], full[b]
                verdict = classify_pair(parts[i], parts[j], ps, o)
                if verdict.kind == "nested":
                    nested_at = (i, j, verdict)
                    break
            if nested_at:
                break
        if nested_at is None:
            break
        if budget is not None and trace.iterations >= budget:
            raise BudgetExceeded(
                f"fixing needs more than {budget} steps",
                partition=Partition(parts, barycentric_witness(o, parts, ps)),
                trace=trace,
            )
        i, j, verdict = nested_at
        before = ref_measure_vector(parts, ps, measure)
        s1, s2 = ref_unnest(parts[i], parts[j], ps, o)
        if measure == "volume":
            outer = simplex_volume([ps.points[k] for k in verdict.outer])
            assert all(simplex_volume([ps.points[k] for k in s]) < outer for s in (s1, s2))
        parts[i], parts[j] = s1, s2
        parts = canonical_parts(parts)
        after = ref_measure_vector(parts, ps, measure)
        assert after < before
        trace.steps.append(fixing.FixStep((i, j), before, after))
    witness = barycentric_witness(o, parts, ps)
    return Partition(parts, witness, size_bounded=partition.size_bounded), trace


def budget_outcome(run, budget):
    try:
        return "done", run(budget)
    except BudgetExceeded as err:
        return str(err), (err.partition, err.trace)


def assert_fixes_as_the_earlier_loop(partition, ps):
    """Both measures, with no budget and with every budget up to the step
    count: equal parts, witnesses, steps and BudgetExceeded payloads.
    Returns the step counts."""
    steps = []
    for measure in ("volume", "point-count"):
        fixed, trace = fix_all(partition, ps, measure=measure)
        assert (fixed, trace) == ref_fix_all(partition, ps, measure)
        for budget in range(trace.iterations + 1):
            assert budget_outcome(
                lambda b: fix_all(partition, ps, measure=measure, budget=b), budget
            ) == budget_outcome(lambda b: ref_fix_all(partition, ps, measure, b), budget)
        steps.append(trace.iterations)
    return steps


# (r, seed) of planar n=3r inputs whose pipeline partition takes fixing steps
PLANAR_STEP_CASES = [(6, 0), (7, 44), (8, 22), (9, 0), (10, 31), (11, 4)]


@pytest.mark.parametrize("r,seed", PLANAR_STEP_CASES)
def test_fix_all_matches_the_earlier_loop_in_the_plane(r, seed):
    ps = random_point_set(2, 3 * r, seed=seed)
    parts = bounded_partition(ps, r).parts
    steps = assert_fixes_as_the_earlier_loop(_partition_with_witness(parts, ps, seed), ps)
    assert min(steps) >= 1


def test_fix_all_matches_the_earlier_loop_on_three_nested_triangles():
    from conftest import NINE_TRIPLE_NESTED

    ps = PointSet(2, NINE_TRIPLE_NESTED)
    partition = _partition_with_witness([(0, 1, 2), (3, 4, 5), (6, 7, 8)], ps)
    assert assert_fixes_as_the_earlier_loop(partition, ps) == [3, 3]


@pytest.mark.parametrize("seed", range(6))
def test_fix_all_matches_the_earlier_loop_in_space(seed):
    # random d=3 inputs rarely start nested, so the nested pairs are built
    ps, t1, t2, o = nested_case(3, seed)
    partition = Partition([t1, t2], barycentric_witness(o, [t1, t2], ps))
    assert assert_fixes_as_the_earlier_loop(partition, ps) == [1, 1]


# --- interior counts ----------------------------------------------------------------------


def test_count_interior_points():
    ps = PointSet(2, [(0, 0), (1, 0), (0, 1)])
    assert count_interior_points((0, 1, 2), ps) == 0
    ps2 = nested_six_ps()
    assert count_interior_points((0, 1, 2), ps2) >= 3  # inner vertices inside outer


def barycentric_interior_count(simplex, ps):
    """`fixing.count_interior_points` as it was before it read facet rows
    once: every point but the vertices gets its Fraction weights from
    `geometry._barycentric`, and counts when all of them are positive."""
    _check_indices(simplex, ps)
    pts = ps.frame[0]
    verts = [pts[i] for i in simplex]
    weights = (_barycentric((*p, 1), verts) for i, p in enumerate(pts) if i not in simplex)
    return sum(1 for ws in weights if ws is not None and all(c > 0 for c in ws))


def interior_count_sets():
    """Seeded general-position sets in d = 2 and d = 3 at several bounds,
    each also with rational coordinates, and small grids on which points
    often lie on a simplex's facets."""
    rng = random.Random(8)
    for d, n in ((2, 14), (3, 10)):
        for bound in (4, 10, 1000):
            ps = random_point_set(d, n, seed=bound, bound=bound)
            yield ps
            yield PointSet(d, [tuple(F(c, 3) + F(1, 5) for c in p) for p in ps.points])
        for _ in range(3):
            grid = {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)}
            yield PointSet(d, sorted(grid))


def test_count_interior_points_matches_the_barycentric_count():
    """On every (d+1)-subset the facet-row count equals the per-point
    weight count; affinely dependent vertices raise DegenerateSimplex."""
    simplices = boundary = 0
    for ps in interior_count_sets():
        for simplex in combinations(range(len(ps)), ps.dim + 1):
            if orientation([ps.points[i] for i in simplex]) == 0:
                with pytest.raises(DegenerateSimplex):
                    count_interior_points(simplex, ps)
                continue
            count = count_interior_points(simplex, ps)
            assert count == barycentric_interior_count(simplex, ps)
            simplices += 1
            others = [i for i in range(len(ps)) if i not in simplex]
            boundary += not count and any(hull_contains(i, simplex, ps) for i in others)
    assert simplices > 3000
    assert boundary > 50  # points on a facet and none inside: only the strict test decides


def test_count_interior_points_needs_d_plus_1_independent_vertices():
    ps = PointSet(2, [(0, 0), (1, 1), (2, 2), (4, 0), (0, 4)])
    for simplex in ((0, 3), (0, 1, 3, 4), ()):
        with pytest.raises(DimensionMismatch):
            count_interior_points(simplex, ps)
    for simplex in ((0, 1, 2), (0, 0, 3)):
        with pytest.raises(DegenerateSimplex):
            count_interior_points(simplex, ps)
    assert count_interior_points((0, 3, 4), ps) == 1  # (1, 1); (2, 2) is on an edge


def test_count_interior_points_rejects_an_index_outside_the_set():
    # as hull_contains does: -1 is not read as the last point
    ps = random_point_set(2, 9, seed=3)
    for simplex in ((0, 1, -1), (0, 1, 99), (9, 1, 2)):
        with pytest.raises(ValueError, match="an index lies outside 0..8"):
            count_interior_points(simplex, ps)


def test_classify_nested_in_a_four_point_part():
    # a triangle around the origin inside a square: the outer part has d+2 points
    ps = PointSet(2, [(-5, -5), (5, -5), (5, 5), (-5, 5), (2, -1), (-1, 2), (-1, -1)])
    v = classify_pair((6, 4, 5), (0, 1, 2, 3), ps, ORIGIN2)
    assert v.kind == "nested"
    assert v.inner == (4, 5, 6) and v.outer == (0, 1, 2, 3)


@pytest.mark.parametrize("measure", ["volume", "point-count"])
def test_fix_all_measures_each_part_once(monkeypatch, measure):
    # a step changes two parts, so the parts of one call are measured once each
    calls = []
    size = fixing._measure
    monkeypatch.setattr(fixing, "_measure", lambda *args: calls.append(args[0]) or size(*args))
    ps = random_point_set(2, 3 * 9, seed=0)
    partition = _partition_with_witness(bounded_partition(ps, 9).parts, ps, 0)
    fixed, trace = fix_all(partition, ps, measure=measure)
    assert trace.iterations >= 1
    assert (fixed, trace) == ref_fix_all(partition, ps, measure)
    assert len(calls) == len(set(calls)) > 9
