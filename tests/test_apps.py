import random
import re
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvk import apps, fixing, lp, tverberg
from tvk.errors import (
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    SizeOutOfRange,
)
from tvk.fileio import partition_from_payload, partition_payload
from tvk.generate import random_extension, random_point_set
from tvk.geometry import (
    PointSet,
    gp_violations_with_extra,
    in_general_position,
    orientation,
)
from tvk.lp import Witness, hull_contains, witness_violations
from tvk.fixing import enumerate_origin_pairs
from tvk.tverberg import Partition
from tvk.apps import (
    FaceLinkVerdict,
    LINKING_COUNTEREXAMPLE_POINTS,
    crossing_simplices,
    crossing_tverberg,
    refine_witness,
    segments_intersect_3d,
    tetrahedra_face_linked,
    triangles_linked,
    verify_crossing_partition,
    verify_linking_counterexample,
)

from conftest import (
    HEXAGON,
    NESTED_SIX,
    NINE_ONE_FIX,
    NINE_TRIPLE_NESTED,
    lp_hull_contains,
    ref_containment,
)


def test_crossing_nine_points_r3():
    ps = PointSet(2, NINE_ONE_FIX)
    rep = crossing_tverberg(ps, 3, seed=0)
    assert len(rep.partition.parts) == 3
    assert verify_crossing_partition(ps, rep.partition).ok
    for i, j in combinations(range(3), 2):
        assert rep.verdicts[i][j] == "crossing"


def test_crossing_six_points_one_fix_via_bounded_pipeline():
    # exercised at the fixing level: the bounded pipeline on the nested pair
    # needs exactly one repartition step
    from tvk.fixing import fix_all

    ps = PointSet(2, NESTED_SIX)
    w = refine_witness([(0, 1, 2), (3, 4, 5)], ps, seed=0)
    fixed, trace = fix_all(Partition([(0, 1, 2), (3, 4, 5)], w), ps)
    assert trace.iterations == 1
    assert verify_crossing_partition(ps, fixed).ok


def test_crossing_pipeline_six_points():
    ps = PointSet(2, NESTED_SIX)
    rep = crossing_tverberg(ps, 2, seed=0)
    assert verify_crossing_partition(ps, rep.partition).ok
    assert rep.verdicts[0][1] == "crossing"


def test_refine_witness_nudges_a_witness_off_a_spanned_line(monkeypatch):
    # the relative-interior witness of these two triangles lies on a line
    # through two of the six points, so one seeded nudge moves it off
    ps = PointSet(2, [(3, -1), (1, 3), (-3, 1), (1, 2), (2, 0), (-3, -1)])
    calls = []
    real = apps._nudge_directions

    def spying(small_parts, ps):
        calls.append(small_parts)
        return real(small_parts, ps)

    monkeypatch.setattr(apps, "_nudge_directions", spying)
    rep = crossing_tverberg(ps, 2)
    assert calls == [[]]
    assert rep.partition.parts == [(0, 2, 3), (1, 4, 5)]
    assert rep.partition.witness.point == (F(4123, 6144), F(2057, 1536))
    assert gp_violations_with_extra(list(ps.points), rep.partition.witness.point) == []
    assert verify_crossing_partition(ps, rep.partition).ok


def test_refine_witness_nudges_along_a_sub_dimensional_part(monkeypatch):
    # the start (0, 0) lies on the segment (6, 7), on the line x + 4y = 0,
    # and on the line through points 2 and 5, so the nudge must stay on the
    # segment's line to keep the witness in that part
    ps = PointSet(2, [(-3, -1), (3, -1), (0, 4), (-2, 3), (2, 3), (0, -5), (-4, 1), (8, -2)])
    parts = [(0, 1, 2), (3, 4, 5), (6, 7)]
    assert in_general_position(ps) == []

    def start_at_origin(parts, ps):
        return lp.barycentric_witness((0, 0), parts, ps)

    monkeypatch.setattr(apps, "relative_interior_witness", start_at_origin)
    w = refine_witness(parts, ps, seed=0)
    x, y = w.point
    assert (x, y) == (F(-9, 256), F(9, 1024))
    assert x + 4 * y == 0
    assert gp_violations_with_extra(list(ps.points[:6]), w.point) == []
    assert witness_violations(w, parts, ps) == []


@pytest.mark.parametrize(
    "d, n, seed, parts, message",
    [
        (2, 7, 869267, [(0, 1, 5), (2, 4), (3, 6)], "no full-dimensional common region"),
        (3, 12, 453395, [(0, 1, 2, 5), (3, 4, 6, 10), (7, 8, 9, 11)],
         "no full-dimensional common region"),
        (2, 10, 900309, [(0, 1), (2, 4, 6), (3, 7, 8), (5, 9)],
         "witness is pinned to a degenerate affine subspace"),
    ],
)
def test_refine_witness_refuses_parts_without_a_generic_common_point(d, n, seed, parts, message):
    # gate-passing small-grid inputs whose first partition cannot be refined
    # (the open bug of the crossing pipeline on such inputs)
    ps = random_point_set(d, n, seed=seed, bound=3)
    assert in_general_position(ps) == []
    with pytest.raises(GeneralPositionViolated, match=message):
        refine_witness(parts, ps)


def test_refine_witness_skips_a_nudge_that_breaks_general_position(monkeypatch):
    ps = random_point_set(2, 9, seed=353, bound=3)
    found = []
    real = apps.gp_violations_with_extra
    monkeypatch.setattr(
        apps, "gp_violations_with_extra", lambda *a: found.append(real(*a)) or found[-1]
    )
    rep = crossing_tverberg(ps, 3)
    # the start and the first nudge are both on a spanned line
    assert [bool(v) for v in found] == [True, True, False]
    assert rep.partition.parts == [(0, 1, 6), (2, 3, 4), (5, 7, 8)]
    assert rep.partition.witness.point == (F(-131, 256), F(2039, 6144))
    assert verify_crossing_partition(ps, rep.partition).ok


def test_refine_witness_skips_a_nudge_outside_a_hull(monkeypatch):
    # the start (2, 1) is on the edge from point 3 to point 4, so a nudge
    # to the wrong side of that edge leaves the second triangle
    ps = PointSet(2, [(0, 0), (10000, 0), (0, 4), (1, -3), (3, 5), (-2, 3)])
    parts = [(0, 1, 2), (3, 4, 5)]

    def start_on_an_edge(parts, ps):
        return lp.barycentric_witness((2, 1), parts, ps)

    queries, found = [], []
    real_query, real_gp = apps._query, apps.gp_violations_with_extra
    monkeypatch.setattr(apps, "relative_interior_witness", start_on_an_edge)
    monkeypatch.setattr(apps, "_query", lambda *a: queries.append(a) or real_query(*a))
    monkeypatch.setattr(
        apps, "gp_violations_with_extra", lambda *a: found.append(real_gp(*a)) or found[-1]
    )
    w = refine_witness(parts, ps, seed=0)
    # the start is on a spanned line, and every nudge before the accepted
    # one failed a hull test
    assert [bool(v) for v in found] == [True, False]
    assert len(queries) == 23
    assert w.point == (F(3191, 4096), F(13193, 8192))
    assert witness_violations(w, parts, ps) == []


def test_crossing_d3_counterexample_points():
    ps = PointSet(3, LINKING_COUNTEREXAMPLE_POINTS)
    rep = crossing_tverberg(ps, 2, seed=0)
    assert verify_crossing_partition(ps, rep.partition).ok
    assert sorted(len(p) for p in rep.partition.parts) == [4, 4]


def test_crossing_size_gate():
    ps = random_point_set(2, 5, seed=0)
    with pytest.raises(SizeOutOfRange):
        crossing_tverberg(ps, 3)  # needs >= 7 points


def test_crossing_degenerate_rejected():
    ps = PointSet(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    with pytest.raises(GeneralPositionViolated):
        crossing_tverberg(ps, 2)


def test_crossing_oversized_input_extends():
    ps = random_point_set(2, 8, seed=42)  # r=2 core of 6, 2 leftovers
    rep = crossing_tverberg(ps, 2, seed=0)
    assert sum(len(p) for p in rep.partition.parts) == 8
    assert not rep.partition.size_bounded
    assert verify_crossing_partition(ps, rep.partition).ok


def test_crossing_simplices_counts():
    for n, expect in ((9, 3), (11, 3), (7, 2)):
        ps = random_point_set(2, n, seed=100 + n)
        rep = crossing_simplices(ps, seed=0)
        assert len(rep.partition.parts) == expect
        assert all(len(p) == 3 for p in rep.partition.parts)
        assert len(rep.discarded) == n % 3
        assert verify_crossing_partition(ps, rep.partition).ok


def test_crossing_simplices_discard_choice():
    ps = random_point_set(2, 10, seed=77)
    rep = crossing_simplices(ps, seed=0, discard=[0])
    assert rep.discarded == [0]
    assert all(0 not in p for p in rep.partition.parts)
    with pytest.raises(SizeOutOfRange):
        crossing_simplices(ps, discard=[0, 1])  # wrong count


def test_crossing_simplices_d3():
    ps = PointSet(3, LINKING_COUNTEREXAMPLE_POINTS)
    rep = crossing_simplices(ps, seed=0)
    assert len(rep.partition.parts) == 2
    assert all(len(p) == 4 for p in rep.partition.parts)


# --- face linking -------------------------------------------------------------


def test_tetrahedra_face_linked_true():
    # tetrahedra built around the linked-triangle pair
    pts = [
        (3, 0, 0), (-3, 2, 0), (-3, -2, 0), (0, 1, 50),
        (1, 0, 2), (1, 0, -2), (6, 0, 1), (7, 50, 3),
    ]
    ps = PointSet(3, pts)
    assert tetrahedra_face_linked((0, 1, 2, 3), (4, 5, 6, 7), ps) == FaceLinkVerdict.LINKED


def test_tetrahedra_face_linked_false_far_apart():
    pts = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (100, 0, 0), (101, 0, 0), (100, 1, 0), (100, 0, 1),
    ]
    ps = PointSet(3, pts)
    assert tetrahedra_face_linked((0, 1, 2, 3), (4, 5, 6, 7), ps) == FaceLinkVerdict.UNLINKED


def test_tetrahedra_faces_intersect_verdict():
    pts = [
        (0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4),
        (1, 1, 0), (5, 1, 0), (1, 5, 0), (1, 1, 4),
    ]
    ps = PointSet(3, pts)
    assert (
        tetrahedra_face_linked((0, 1, 2, 3), (4, 5, 6, 7), ps)
        == FaceLinkVerdict.FACES_INTERSECT
    )


# --- built-in counterexample -------------------------------------------------------


def oracle_origin_pairs_lp(ps, o):
    out = []
    n = len(ps)
    for rest in combinations(range(1, n), 3):
        f = (0,) + rest
        g = tuple(i for i in range(n) if i not in f)
        if lp_hull_contains(o, f, ps) and lp_hull_contains(o, g, ps):
            out.append((f, g))
    return out


def test_counterexample_points_in_general_position_with_origin():
    ps = PointSet(3, [*LINKING_COUNTEREXAMPLE_POINTS, (0, 0, 0)])
    assert in_general_position(ps) == []


def test_counterexample_report():
    rep = verify_linking_counterexample()
    assert rep.origin_pair_count == 2  # frozen from the LP oracle below
    assert rep.origin_pair_count % 2 == 0
    assert rep.linked_pairs == 0
    assert not rep.falsified
    ps = PointSet(3, LINKING_COUNTEREXAMPLE_POINTS)
    assert rep.origin_pairs == oracle_origin_pairs_lp(ps, (F(0), F(0), F(0)))


@pytest.mark.parametrize(
    "verdict, linked, intersecting, falsified",
    [(FaceLinkVerdict.LINKED, 2, 0, True), (FaceLinkVerdict.FACES_INTERSECT, 0, 2, False)],
)
def test_counterexample_counts_each_verdict(monkeypatch, verdict, linked, intersecting, falsified):
    # a linked pair falsifies the report; pairs whose faces meet are only counted
    monkeypatch.setattr(apps, "tetrahedra_face_linked", lambda a, b, ps: verdict)
    rep = verify_linking_counterexample()
    assert (rep.linked_pairs, rep.faces_intersect_pairs) == (linked, intersecting)
    assert rep.falsified is falsified


def test_counterexample_negated_is_identical(monkeypatch):
    base = verify_linking_counterexample()
    negated = [tuple(-c for c in p) for p in LINKING_COUNTEREXAMPLE_POINTS]
    monkeypatch.setattr(apps, "LINKING_COUNTEREXAMPLE_POINTS", negated)
    rep = verify_linking_counterexample()
    assert rep.origin_pair_count == base.origin_pair_count
    assert rep.linked_pairs == base.linked_pairs == 0


def test_counterexample_shifted_origin_empty():
    ps = PointSet(3, LINKING_COUNTEREXAMPLE_POINTS)
    pairs = enumerate_origin_pairs(ps, (1000, 1000, 1000))
    assert pairs == []


# --- verifier ------------------------------------------------------------------------


def test_verifier_rejects_nested_partition():
    ps = PointSet(2, NESTED_SIX)
    w = refine_witness([(0, 1, 2), (3, 4, 5)], ps, seed=0)
    bad = Partition([(0, 1, 2), (3, 4, 5)], w)
    rep = verify_crossing_partition(ps, bad)
    assert not rep.ok
    assert any("do not cross" in v for v in rep.violations)


def test_verifier_rejects_wrong_witness():
    ps = PointSet(2, NINE_ONE_FIX)
    good = crossing_tverberg(ps, 3, seed=0).partition
    wrong = Witness((F(10**6), F(10**6)), good.witness.weights)
    bad = Partition(good.parts, wrong)
    rep = verify_crossing_partition(ps, bad)
    assert not rep.ok


def test_verifier_rejects_overlap_and_size():
    ps = PointSet(2, NINE_ONE_FIX)
    good = crossing_tverberg(ps, 3, seed=0).partition
    bad = Partition([(0, 1, 2), (2, 3, 4)], good.witness, size_bounded=True)
    rep = verify_crossing_partition(ps, bad)
    assert any("appears in two parts" in v for v in rep.violations)
    bad2 = Partition([(0, 1, 2, 3), (4, 5, 6)], good.witness, size_bounded=True)
    rep2 = verify_crossing_partition(ps, bad2)
    assert any("size bound" in v for v in rep2.violations)


def test_verifier_reports_malformed_partitions_without_raising():
    ps = PointSet(2, NINE_ONE_FIX)
    good = crossing_tverberg(ps, 3, seed=0).partition
    cases = [
        ("indices outside", [(0, 1, 99), (3, 4, 5), (6, 7, 8)]),
        ("indices outside", [(-1, 1, 2), (3, 4, 5), (6, 7, 8)]),
        ("repeats an index", [(0, 0, 2), (3, 4, 5), (6, 7, 8)]),
        ("empty part", [(), (3, 4, 5), (6, 7, 8)]),
    ]
    for message, parts in cases:
        rep = verify_crossing_partition(ps, Partition(parts, good.witness))
        assert any(message in v for v in rep.violations), (message, rep.violations)
    rep = verify_crossing_partition(ps, Partition(good.parts))
    assert rep.violations == ["partition has no witness"]
    lifted = Witness(good.witness.point + (F(0),), good.witness.weights)
    rep = verify_crossing_partition(ps, Partition(good.parts, lifted))
    assert any("coordinates, expected 2" in v for v in rep.violations)
    rows = good.witness.weights
    long_row = Witness(good.witness.point, [rows[0] + [F(0)]] + rows[1:])
    rep = verify_crossing_partition(ps, Partition(good.parts, long_row))
    assert any("weights for 3 points" in v for v in rep.violations)
    flat = PointSet(2, [(0, 0), (2, 0), (4, 0), (1, 1), (3, -1), (2, 5)])
    thirds = [F(1, 3)] * 3
    on_line = Partition([(0, 1, 2), (3, 4, 5)], Witness((2, 0), [thirds, thirds]))
    rep = verify_crossing_partition(flat, on_line)
    assert any("degenerate" in v for v in rep.violations)


def test_verifier_rejects_a_partition_with_no_parts():
    # no part means no hull to hold the witness, wherever it is
    ps = PointSet(2, [(0, 0), (4, 1), (1, 5)])
    for o in ((1, 1), (100, -7)):
        rep = verify_crossing_partition(ps, Partition([], Witness(o, [])))
        assert rep.violations == ["partition has no parts"]


def test_verifier_rejects_weights_that_do_not_sum_to_one():
    # positive weights 2/3 reproduce the witness (0, 0) in both triangles,
    # and every other check passes, but each row sums to 2
    ps = PointSet(2, [(3, 0), (-3, 2), (0, -2), (0, 3), (-2, -3), (2, 0)])
    parts = [(0, 1, 2), (3, 4, 5)]
    w = Witness((0, 0), [[F(2, 3)] * 3, [F(2, 3)] * 3])
    expected = ["part 0: weights sum to 2, not 1", "part 1: weights sum to 2, not 1"]
    assert witness_violations(w, parts, ps) == expected
    assert verify_crossing_partition(ps, Partition(parts, w)).violations == expected


def test_verifier_rejects_a_weight_of_minus_one_third():
    # (-1/3, 2/3, 2/3) sums to 1 and reproduces (2, 2), outside the triangle
    ps = PointSet(2, [(0, 0), (3, 0), (0, 3)])
    w = Witness((2, 2), [[F(-1, 3), F(2, 3), F(2, 3)]])
    assert witness_violations(w, [(0, 1, 2)], ps) == ["part 0: negative weight"]


def test_verify_degenerate_simplex_against_a_larger_part():
    # a collinear triple through the witness paired with a square around it:
    # the verdict is "degenerate" whatever the partner's size
    ps = PointSet(2, [(-2, 0), (1, 0), (2, 0), (-1, -1), (1, -1), (1, 1), (-1, 1)])
    weights = [[F(1, 2), F(0), F(1, 2)], [F(1, 4)] * 4]
    unbounded = Partition(
        [(0, 1, 2), (3, 4, 5, 6)], Witness((0, 0), weights), size_bounded=False
    )
    rep = verify_crossing_partition(ps, unbounded)
    assert rep.verdicts[0][1] == "degenerate"
    assert rep.violations == ["parts (0, 1, 2) and (3, 4, 5, 6) do not cross (degenerate)"]


@lru_cache(maxsize=None)
def valid_reports():
    """Verified size-bounded outputs whose witness weights are all positive."""
    out = []
    for d, n, r, seed in ((2, 6, 2, 1), (2, 9, 3, 2), (3, 8, 2, 3), (2, 8, 3, 4)):
        ps = random_point_set(d, n, seed=seed)
        part = crossing_tverberg(ps, r, seed=0).partition
        assert all(w > 0 for row in part.witness.weights for w in row)
        out.append((ps, part))
    return out


def _mutate(kind, parts, weights, point, n, draw):
    """One mutation of a valid report that must make it invalid."""
    i = draw(st.integers(0, len(parts) - 1))
    k = draw(st.integers(0, len(parts[i]) - 1))
    j = draw(st.integers(0, len(parts) - 1).filter(lambda j: j != i))
    l = draw(st.integers(0, len(parts[j]) - 1))
    if kind == "swap":
        parts[i][k], parts[j][l] = parts[j][l], parts[i][k]
    elif kind == "duplicate":
        parts[i][k] = parts[j][l]
    elif kind == "duplicate within a part":
        parts[i].append(parts[i][k])
        weights[i].append(F(0))
    elif kind == "drop":
        del parts[i][k]
    elif kind == "out of range":
        parts[i][k] = draw(st.sampled_from([n, n + 7, 99, -1, -n]))
    elif kind == "boolean index":
        parts[i][k] = draw(st.booleans())
    elif kind == "bump weight":
        weights[i][k] += draw(st.fractions(min_value=F(1, 1000), max_value=3))
    elif kind == "long weight row":
        weights[i].append(F(0))
    elif kind == "negative weight":
        weights[i][k] = -weights[i][k]
    elif kind == "missing weight row":
        del weights[i]
    elif kind == "move witness":
        c = draw(st.integers(0, len(point) - 1))
        point[c] += draw(st.fractions(min_value=F(1, 1000), max_value=3))
    elif kind == "lift witness":
        point.append(F(0))


@given(
    st.integers(0, 3),
    st.sampled_from(
        [
            "swap",
            "duplicate",
            "duplicate within a part",
            "drop",
            "out of range",
            "boolean index",
            "bump weight",
            "long weight row",
            "negative weight",
            "missing weight row",
            "move witness",
            "lift witness",
        ]
    ),
    st.data(),
)
def test_verifier_flags_every_mutation(which, kind, data):
    ps, good = valid_reports()[which]
    parts = [list(p) for p in good.parts]
    weights = [list(row) for row in good.witness.weights]
    point = list(good.witness.point)
    _mutate(kind, parts, weights, point, len(ps), data.draw)
    bad = Partition(good.parts, Witness(tuple(point), weights))
    bad.parts = [tuple(p) for p in parts]  # as mutated, not re-canonicalised
    rep = verify_crossing_partition(ps, bad)
    assert rep.violations
    message = {"negative weight": "negative weight", "missing weight row": "weight rows for"}
    if kind in message:
        assert any(message[kind] in v for v in rep.violations)


@given(st.integers(0, 3), st.sampled_from(["false", "true", 0, 1, None, [], {}]))
def test_report_with_a_non_boolean_size_bound_is_malformed(which, value):
    ps, good = valid_reports()[which]
    payload = partition_payload(good, ps.dim)
    assert verify_crossing_partition(ps, partition_from_payload(payload)).ok
    with pytest.raises(ValueError, match="size_bounded"):
        partition_from_payload({**payload, "size_bounded": value})


def test_simplices_verify_each_result_once(monkeypatch):
    calls = {"verify": 0, "pair": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    verify, pair = apps.verify_crossing_partition, apps._classify
    monkeypatch.setattr(apps, "verify_crossing_partition", counting("verify", verify))
    monkeypatch.setattr(apps, "_classify", counting("pair", pair))
    ps = random_point_set(2, 14, seed=6)
    rep = crossing_simplices(ps)
    assert calls == {"verify": 1, "pair": 4 * 3 // 2}
    assert all(rep.verdicts[i][j] == "crossing" for i, j in combinations(range(4), 2))


@pytest.mark.parametrize("r, k", [(3, 2), (4, 3), (5, 6)])
def test_planar_extension_runs_almost_no_lp(monkeypatch, r, k):
    """In the plane only the witness refinement solves LPs: membership
    tests for parts of any size are integer predicates."""
    solves = []
    solve = lp.solve_feasibility

    def counting(prob):
        solves.append(prob)
        return solve(prob)

    monkeypatch.setattr(lp, "solve_feasibility", counting)
    rep = crossing_tverberg(random_point_set(2, 3 * r + k, seed=r + k), r)
    assert max(map(len, rep.partition.parts)) > 3
    assert 1 <= len(solves) < 5


# seeded shapes of the planar workloads: planar-scale (crossing_simplices,
# n = 33..35), planar-extend (n = 3r + k) and bruteforce-planar (n = 7, r = 3)
PLANAR_WITNESS_RUNS = [
    *[(crossing_simplices, n, None, seed) for n in (33, 34, 35) for seed in (0, 4)],
    *[(crossing_tverberg, 3 * r + k, r, seed) for r, k in ((4, 3), (5, 6)) for seed in (1, 2)],
    *[(crossing_tverberg, 7, 3, seed) for seed in range(6)],
]


def count_witness_solves(monkeypatch):
    """Per call of `relative_interior_witness` (through `apps`), the LP
    solves it runs."""
    solves, per_call = [], []
    solve, witness = lp.solve_feasibility, apps.relative_interior_witness

    def counting(prob):
        solves.append(prob)
        return solve(prob)

    def witness_counting(parts, ps):
        before = len(solves)
        found = witness(parts, ps)
        per_call.append(len(solves) - before)
        return found

    monkeypatch.setattr(lp, "solve_feasibility", counting)
    monkeypatch.setattr(apps, "relative_interior_witness", witness_counting)
    return per_call


@pytest.mark.parametrize("pipeline, n, r, seed", PLANAR_WITNESS_RUNS)
def test_every_planar_witness_runs_one_lp(monkeypatch, pipeline, n, r, seed):
    per_call = count_witness_solves(monkeypatch)
    ps = random_point_set(2, n, seed=seed)
    pipeline(*(ps,) if r is None else (ps, r))
    assert per_call == [1]


def test_planar_witness_at_an_infeasible_first_shift_runs_one_lp(monkeypatch):
    # n = 120, seed 1: 40 triangles whose first shift, t = 1/6, is infeasible
    per_call = count_witness_solves(monkeypatch)
    ps = random_point_set(2, 120, seed=1)
    parts = tverberg.birch_partition_planar(ps, 40).parts
    assert lp.common_point(parts, ps) is not None
    apps.relative_interior_witness(parts, ps)
    assert per_call == [1]


def test_an_infeasible_lp_where_the_shrunk_parts_meet_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(lp, "solve_feasibility", lambda prob: lp.LPResult(False))
    ps = random_point_set(2, 9, seed=1)
    parts = tverberg.birch_partition_planar(ps, 3).parts
    with pytest.raises(InternalError, match="meet, yet their LP is infeasible"):
        lp.relative_interior_witness(parts, ps)


@pytest.mark.parametrize("n, seed", [(6, 1), (7, 2), (8, 3)])
def test_bruteforce_d3_solves_every_common_point_through_the_solver(monkeypatch, n, seed):
    solves, per_call = [], []
    solve, common = lp.solve_feasibility, tverberg.common_point

    def counting(prob):
        solves.append(prob)
        return solve(prob)

    def common_counting(parts, ps):
        before = len(solves)
        witness = common(parts, ps)
        per_call.append(len(solves) - before)
        return witness

    monkeypatch.setattr(lp, "solve_feasibility", counting)
    monkeypatch.setattr(tverberg, "common_point", common_counting)
    crossing_tverberg(random_point_set(3, n, seed=seed), 2)
    assert per_call and per_call == [1] * len(per_call)
    assert len(solves) > len(per_call)  # the witness refinement solves too


def test_failed_verification_is_an_internal_error(monkeypatch):
    def failing(ps, partition):
        return apps.VerificationReport(["forced violation"])

    monkeypatch.setattr(apps, "verify_crossing_partition", failing)
    ps = PointSet(2, NINE_ONE_FIX)
    for run in (lambda: crossing_tverberg(ps, 3), lambda: crossing_simplices(ps)):
        with pytest.raises(InternalError, match="forced violation"):
            run()


def test_bruteforce_without_a_partition_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(tverberg, "common_point", lambda parts, ps: None)
    with pytest.raises(InternalError):
        tverberg.tverberg_partition_bruteforce(random_point_set(2, 5, seed=1), 2)


def test_fixing_without_a_measure_drop_is_an_internal_error(monkeypatch):
    ps = PointSet(2, NESTED_SIX)
    w = refine_witness([(0, 1, 2), (3, 4, 5)], ps, seed=0)
    monkeypatch.setattr(fixing, "_unnest", lambda t1, t2, ps, o, test: (t1, t2))
    for measure in ("volume", "point-count"):
        with pytest.raises(InternalError):
            # a budget, so that a loop that misses the drop ends in
            # BudgetExceeded instead of running on
            fixing.fix_all(
                Partition([(0, 1, 2), (3, 4, 5)], w), ps, measure=measure, budget=8
            )


def test_a_measure_vector_that_does_not_drop_is_an_internal_error(monkeypatch):
    # the triple-nested nine points take one fixing step at r=2; a measure
    # vector that reads the same before and after it must raise
    monkeypatch.setattr(fixing, "_measure_vector", lambda *args: [1])
    with pytest.raises(InternalError, match="measure vector did not drop"):
        apps.crossing_tverberg(PointSet(2, NINE_TRIPLE_NESTED), 2)


def unknown_measure_rejected_before_fixing(monkeypatch, ps, r):
    classified = []
    classify = fixing.classify_pair
    monkeypatch.setattr(
        fixing, "classify_pair", lambda *args: classified.append(args) or classify(*args)
    )
    with pytest.raises(ValueError, match="unknown measure 'bogus'"):
        apps.crossing_tverberg(ps, r, measure="bogus")
    assert classified == []


def test_unknown_measure_is_rejected_without_a_nested_pair(monkeypatch):
    # no fixing step runs here, so only an up-front check can see the measure
    unknown_measure_rejected_before_fixing(monkeypatch, random_point_set(2, 6, seed=3), 2)


def test_unknown_measure_is_rejected_before_the_first_fixing_step(monkeypatch):
    unknown_measure_rejected_before_fixing(monkeypatch, random_point_set(2, 9, seed=33), 3)


def test_simplices_discard_out_of_range():
    ps = random_point_set(2, 7, seed=3)
    for discard in ([99], [7], [-1]):
        with pytest.raises(SizeOutOfRange):
            crossing_simplices(ps, discard=discard)


def test_simplices_discard_repeated_or_not_an_integer():
    # eight points leave two to discard, seven leave one
    eight, seven = random_point_set(2, 8, seed=3), random_point_set(2, 7, seed=3)
    cases = [
        (eight, [0, 0], "0"),
        (eight, [0, 0, 1], "0"),
        (eight, [2, 1, 2], "2"),
        (seven, [True], "True"),
        (seven, [F(1)], "Fraction(1, 1)"),
        (seven, [1.0], "1.0"),
    ]
    for ps, discard, name in cases:
        message = rf"^discarded index {re.escape(name)} is repeated or not an integer$"
        with pytest.raises(SizeOutOfRange, match=message):
            crossing_simplices(ps, discard=discard)


# --- extension acceptance shape -----------------------------------------------------


def test_extension_random_insertions_keep_crossing():
    ps = random_point_set(2, 9, seed=9)
    rep = crossing_tverberg(ps, 3, seed=0)
    grown = random_extension(ps, 3, seed=10)
    from tvk.tverberg import extend_partition

    out = extend_partition(rep.partition, [9, 10, 11], grown)
    assert verify_crossing_partition(grown, out).ok


class OldRuleRaised(Exception):
    """The earlier rule gave up on a contact it took for degenerate."""


def wrapping_pierce_parity(curve, surface):
    """`apps._curve_pierce_parity` as it was before it rotated the curve up
    front (it rotated inside the run loop when a run of in-plane vertices
    wrapped around the end) and before it read every contact through the
    disjointness of the boundaries: it raised on a crossing on an edge
    line, on a curve vertex on the surface boundary and on a run of
    in-plane vertices with mixed statuses."""
    sides = [orientation(list(surface) + [v]) for v in curve]
    if all(s == 0 for s in sides):
        return 0
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
            raise OldRuleRaised("edge crossing through the surface boundary")
        if s1 == s2 == s3:
            parity ^= 1
    i = 0
    while i < n:
        if sides[i] != 0:
            i += 1
            continue
        if i == 0 and sides[-1] == 0:
            k = next(j for j in range(n) if sides[j] != 0)
            sides = sides[k:] + sides[:k]
            curve = list(curve[k:]) + list(curve[:k])
            i = 0
            continue
        j = i
        while j < n and sides[j] == 0:
            j += 1
        statuses = [ref_containment(curve[m], list(surface)) for m in range(i, j)]
        if "on_boundary" in statuses:
            raise OldRuleRaised("curve vertex on the surface boundary")
        kinds = set(statuses)
        if len(kinds) > 1:
            raise OldRuleRaised("in-plane edge would cross the surface boundary")
        if kinds == {"interior"} and sides[i - 1] != sides[j % n]:
            parity ^= 1
        i = j
    return parity


def old_rule(curve, surface):
    """The earlier parity, or None where it raised."""
    try:
        return wrapping_pierce_parity(curve, surface)
    except OldRuleRaised:
        return None


def boxes_meet(e, f):
    """Whether the bounding boxes of two segments meet: segments whose boxes
    are disjoint are disjoint."""
    return all(
        min(a[c], b[c]) <= max(x[c], y[c]) for (a, b), (x, y) in ((e, f), (f, e)) for c in range(3)
    )


def disjoint_pairs(draw, count):
    """The first `count` triangle pairs from `draw` whose boundary curves
    are disjoint, the precondition of the pierce parity."""
    out = []
    while len(out) < count:
        t1, t2 = draw()
        edges1 = [(t1[i], t1[i - 1]) for i in range(3)]
        edges2 = [(t2[i], t2[i - 1]) for i in range(3)]
        if not any(
            boxes_meet(e, f) and segments_intersect_3d(*e, *f) for e in edges1 for f in edges2
        ):
            out.append((t1, t2))
    return out


def disjoint_triangle_pairs(seed, count, bound=2):
    """The first `count` seeded triangle pairs on the grid [-bound, bound]^3
    whose boundary curves are disjoint."""
    rng = random.Random(seed)
    tri = lambda: [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(3)]
    return disjoint_pairs(lambda: (tri(), tri()), count)


def test_pierce_parity_matches_the_wrapping_version():
    wrapped = compared = 0
    for t1, t2 in disjoint_triangle_pairs(11, 10000):
        for curve, surface in ((t1, t2), (t2, t1)):
            expect = old_rule(curve, surface)
            if expect is not None:  # where it raised, see the test below
                assert apps._curve_pierce_parity(curve, surface) == expect
                compared += 1
            sides = [orientation(list(surface) + [v]) for v in curve]
            wrapped += sides[0] == sides[-1] == 0 and any(sides)
    assert wrapped > 50  # the old in-loop rotation ran this often
    assert compared > 18000


def in_plane_vertex_pairs(seed, count):
    """The first `count` seeded pairs with disjoint boundary curves whose
    curve has a vertex b in the surface's plane: b = sum w_i s_i / sum w_i
    over the surface's vertices s_i, with w_i in -1..3, so b is inside, on
    an edge line or outside; the other two curve vertices and the surface
    lie on the grid [-2, 2]^3."""
    rng = random.Random(seed)
    point = lambda: tuple(rng.randint(-2, 2) for _ in range(3))

    def draw():
        surface = [point(), point(), point()]
        ws = [rng.randint(-1, 3) for _ in range(3)]
        ws[0] += not sum(ws)
        b = tuple(F(sum(w * s[c] for w, s in zip(ws, surface)), sum(ws)) for c in range(3))
        k = rng.randrange(3)
        curve = [point(), b, point()]
        return curve[k:] + curve[:k], surface

    return disjoint_pairs(draw, count)


def test_pierce_parity_at_an_in_plane_vertex_matches_the_wrapping_version():
    """At a curve vertex b in the surface's plane, between curve vertices
    strictly on either side, the parity asks whether the line from the
    curve's vertex on the positive side through b passes through the
    triangle; the earlier rule asked the reference's containment of b.
    Every such direction where the earlier rule did not raise must agree,
    on the grid [-1, 1]^3 and on pairs built with a vertex in the plane."""
    vertex = compared = inside = 0
    pairs = disjoint_triangle_pairs(31, 10000, bound=1) + in_plane_vertex_pairs(37, 4000)
    for t1, t2 in pairs:
        for curve, surface in ((t1, t2), (t2, t1)):
            sides = [orientation(list(surface) + [v]) for v in curve]
            if not ({1, -1} <= set(sides) and 0 in sides):
                continue
            vertex += 1
            expect = old_rule(curve, surface)
            if expect is not None:
                assert apps._curve_pierce_parity(curve, surface) == expect
                compared += 1
                inside += ref_containment(curve[sides.index(0)], list(surface)) == "interior"
    assert vertex > 2500 and compared > 0.9 * vertex
    assert inside > 400  # b inside the triangle: the branch's passages


def test_linking_where_the_old_rule_raised_matches_a_generic_perturbation():
    """Where the earlier rule raised, the verdict is the earlier rule's on
    a generic perturbation of the pair by at most 1e-9 per coordinate.
    Disjoint boundaries of triangles on the grid [-2, 2]^3 lie much further
    apart, so the perturbation keeps them disjoint and keeps their link."""
    rng = random.Random(5)
    raised = 0
    for t1, t2 in disjoint_triangle_pairs(21, 2000):
        if old_rule(t1, t2) is not None and old_rule(t2, t1) is not None:
            continue
        raised += 1
        for _ in range(5):
            m1, m2 = (
                [tuple(c + F(rng.randint(-1000, 1000), 10**12) for c in p) for p in t]
                for t in (t1, t2)
            )
            parities = {old_rule(m1, m2), old_rule(m2, m1)}
            if None not in parities:
                break
        else:
            pytest.fail(f"no generic perturbation of {t1}, {t2} in five draws")
        assert len(parities) == 1
        assert triangles_linked(t1, t2) == (parities == {1})
    assert raised > 40  # the earlier rule raised on about one pair in twenty


def side(p0, p1, p2, p3):
    """Sign of det[p1 - p0, p2 - p0, p3 - p0], expanded in place: the
    orientation of four points in R^3, without the kernel's scaling."""
    (a, b, c), (d, e, f), (g, h, i) = ([x - y for x, y in zip(p, p0)] for p in (p1, p2, p3))
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (det > 0) - (det < 0)


def run_scan_pierce_parity(curve, surface):
    """`apps._curve_pierce_parity` as it was written for any closed polygon,
    on a determinant of its own: it rotated the curve to start at a vertex
    off the surface's plane, and read each run of in-plane vertices by its
    first vertex and the sides of the vertices that flank the run."""
    orientation = lambda pts: side(*pts)  # the kernel's name, so the copy reads as it was
    sides = [orientation(list(surface) + [v]) for v in curve]
    k = next((i for i, s in enumerate(sides) if s), None)
    if k is None:
        return 0
    sides = sides[k:] + sides[:k]
    curve = list(curve[k:]) + list(curve[:k])
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
        if s1 == s2 == s3 != 0:
            parity ^= 1
    i = 0
    while i < n:
        if sides[i] != 0:
            i += 1
            continue
        j = i
        while j < n and sides[j] == 0:
            j += 1
        inside = hull_contains(curve[i], (0, 1, 2), PointSet(3, surface))
        if sides[i - 1] != sides[j % n] and inside:
            parity ^= 1
        i = j
    return parity


def test_pierce_parity_of_two_passages_matches_the_run_scan():
    """The triangle rule agrees with the general-curve run scan, in both
    argument orders, on 20,000 pairs with disjoint boundaries: on the grid
    [-2, 2]^3, with a collinear triangle, and with rational coordinates in
    sixths. The run scan reads the rational pairs in integers, six times
    larger: scaling moves no point across a plane or an edge line."""
    rng = random.Random(23)
    point = lambda b: tuple(rng.choices(range(-b, b + 1), k=3))
    tri = lambda b: [point(b), point(b), point(b)]

    def collinear():
        p, v = point(2), point(1)
        if v == (0, 0, 0):
            v = (1, 0, 0)
        return [tuple(c + k * e for c, e in zip(p, v)) for k in rng.sample(range(-2, 3), 3)]

    sixths = lambda t: [tuple(F(c, 6) for c in p) for p in t]
    kinds = [
        (lambda: (tri(2), tri(2)), 10000, list),
        (lambda: (collinear(), tri(2)), 5000, list),
        (lambda: (tri(12), tri(12)), 5000, sixths),
    ]
    at_a_vertex = linked = 0
    for draw, count, scale in kinds:
        for t1, t2 in disjoint_pairs(draw, count):
            for curve, surface in ((t1, t2), (t2, t1)):
                parity = apps._curve_pierce_parity(scale(curve), scale(surface))
                assert parity == run_scan_pierce_parity(curve, surface)
                if parity:
                    linked += 1
                    at_a_vertex += 0 in [side(*surface, v) for v in curve]
    assert at_a_vertex > 120  # a passage at a curve vertex in the plane
    assert linked > 3000


# --- public raises that no other test or workload reaches -----------------------

TRIANGLES = [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 5), (1, 0, 5), (0, 1, 5)]


def nudges_exhausted(monkeypatch):
    # every candidate is rejected, as if it lay on a hyperplane of d points
    monkeypatch.setattr(apps, "gp_violations_with_extra", lambda points, extra: [(0,)])
    refine_witness([(0, 2, 4), (1, 3, 5)], PointSet(2, HEXAGON))


def parities_differ(monkeypatch):
    parities = iter([0, 1])
    monkeypatch.setattr(apps, "_curve_pierce_parity", lambda curve, surface: next(parities))
    triangles_linked(*TRIANGLES)


APPS_RAISES = {
    "refine_witness gives up after 512 nudges": (
        nudges_exhausted,
        GeneralPositionViolated,
        "no generic common point found after 512 seeded attempts",
    ),
    "crossing_simplices on fewer than d+1 points": (
        lambda mp: crossing_simplices(PointSet(2, [(0, 0), (1, 0)])),
        SizeOutOfRange,
        r"need at least d\+1=3 points, got 2",
    ),
    "triangles_linked outside R^3": (
        lambda mp: triangles_linked([(0, 0), (1, 0), (0, 1)], TRIANGLES[1]),
        DimensionMismatch,
        r"defined in R\^3 only",
    ),
    "triangles_linked with the parities differing": (
        parities_differ,
        InternalError,
        "linking parity differs between directions",
    ),
    "tetrahedra_face_linked outside R^3": (
        lambda mp: tetrahedra_face_linked((0, 1, 2), (3, 4, 5), PointSet(2, HEXAGON)),
        SizeOutOfRange,
        r"face linking is defined in R\^3 only",
    ),
}


@pytest.mark.parametrize("call, error, message", APPS_RAISES.values(), ids=APPS_RAISES)
def test_apps_public_raises(monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(monkeypatch)
