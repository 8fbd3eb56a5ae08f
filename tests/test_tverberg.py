import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvk import tverberg
from tvk.errors import (
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    SizeOutOfRange,
)
from tvk.fixing import PairClass
from tvk.generate import random_extension, random_point_set
from tvk.geometry import PointSet, _query
from tvk.lp import Witness, common_point, hull_contains, witness_violations
from tvk.tverberg import (
    Partition,
    _depth,
    birch_partition_planar,
    centerpoint_planar,
    extend_partition,
    tverberg_partition_bruteforce,
)

from conftest import HEXAGON, NESTED_SIX, lp_hull_contains, ref_depth, ref_radon


def witness_in_all_hulls(partition, ps):
    o = partition.witness.point
    return all(hull_contains(o, part, ps) for part in partition.parts)


# --- radon ---------------------------------------------------------------------
# On d+2 points in general position the Radon partition is the one
# partition into two parts whose hulls meet, so the search returns it.


def radon(ps):
    p = tverberg_partition_bruteforce(ps, 2)
    assert p == ref_radon(ps)
    return p


def test_radon_square():
    ps = PointSet(2, [(0, 0), (1, 1), (1, 0), (0, 1)])
    p = radon(ps)
    assert p.parts == [(0, 1), (2, 3)]
    assert p.witness.point == (F(1, 2), F(1, 2))


def test_radon_interior_point():
    ps = PointSet(2, [(0, 0), (2, 0), (0, 2), (F(1, 2), F(1, 2))])
    p = radon(ps)
    assert p.parts == [(0, 1, 2), (3,)]
    assert p.witness.point == (F(1, 2), F(1, 2))


def test_radon_d1():
    ps = PointSet(1, [(-1,), (0,), (5,)])
    p = radon(ps)
    assert p.parts == [(0, 2), (1,)]
    assert p.witness.point == (F(0),)


def test_radon_wrong_size():
    with pytest.raises(SizeOutOfRange):
        tverberg_partition_bruteforce(PointSet(2, [(0, 0), (1, 0), (0, 1)]), 2)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**6))
def test_radon_witness_in_both_hulls(d, seed):
    ps = random_point_set(d, d + 2, seed=seed, bound=500)
    p = radon(ps)
    assert witness_in_all_hulls(p, ps)
    assert witness_violations(p.witness, p.parts, ps) == []


# --- canonical enumeration -------------------------------------------------------


def canonical_partitions(n, r, max_size):
    """Reference enumerator: unordered partitions of 0..n-1 into r nonempty
    parts of size <= max_size, each part anchored at its smallest element
    and the candidate parts in lexicographic tuple order."""

    def rec(remaining, parts_left):
        if not remaining:
            if parts_left == 0:
                yield ()
            return
        if parts_left == 0:
            return
        if len(remaining) > parts_left * max_size or len(remaining) < parts_left:
            return
        anchor = remaining[0]
        rest = remaining[1:]

        def extend(prefix, start):
            part = (anchor,) + prefix
            left = [x for x in rest if x not in prefix]
            yield from (
                (part,) + tail for tail in rec(tuple(left), parts_left - 1)
            )
            if len(part) < max_size:
                for i in range(start, len(rest)):
                    yield from extend(prefix + (rest[i],), i + 1)

        yield from extend((), 0)

    yield from rec(tuple(range(n)), r)


def test_enumeration_canonical_order_d1():
    got = list(canonical_partitions(4, 2, 2))
    assert got == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]


def test_enumeration_counts():
    # 6 points, 2 parts of size <= 3: sizes (3,3) only -> C(5,2) = 10
    assert len(list(canonical_partitions(6, 2, 3))) == 10
    # 8 points into 2 tetrahedra: C(7,3) = 35
    assert len(list(canonical_partitions(8, 2, 4))) == 35


# --- brute force ------------------------------------------------------------------


def test_bruteforce_d1_first_canonical():
    ps = PointSet(1, [(-2,), (-1,), (1,), (2,)])
    p = tverberg_partition_bruteforce(ps, 2)
    assert p.parts == [(0, 2), (1, 3)]
    assert witness_in_all_hulls(p, ps)


def test_bruteforce_hexagon_plus_center():
    ps = PointSet(2, HEXAGON + [(F(1, 23), F(1, 29))])
    p = tverberg_partition_bruteforce(ps, 3)
    assert len(p.parts) == 3
    assert all(len(part) <= 3 for part in p.parts)
    assert witness_in_all_hulls(p, ps)


def test_bruteforce_five_random_points_r2():
    ps = random_point_set(2, 5, seed=11)
    p = tverberg_partition_bruteforce(ps, 2)
    assert all(len(part) <= 3 for part in p.parts)
    assert witness_in_all_hulls(p, ps)


def test_bruteforce_gate():
    ps = random_point_set(2, 15, seed=0)
    with pytest.raises(SizeOutOfRange):
        tverberg_partition_bruteforce(ps, 5)


def first_by_lp(ps, r):
    """The brute force with an LP on every candidate that passes no filter."""
    for parts in canonical_partitions(len(ps), r, ps.dim + 1):
        witness = common_point(parts, ps)
        if witness is not None:
            return Partition(list(parts), witness)


def boxes_meet(parts, ps):
    return all(
        max(min(ps.points[i][c] for i in part) for part in parts)
        <= min(max(ps.points[i][c] for i in part) for part in parts)
        for c in range(ps.dim)
    )


# every valid r per dimension up to the shapes where an LP on every
# candidate stays fast; the gate shapes (d=2 r=5, d=3 r=4) follow on seeds
# where it is fast, and the partition goldens pin them too
RANDOM_SHAPES = [
    (d, n, r)
    for d, max_r in ((1, 5), (2, 4), (3, 3))
    for r in range(1, max_r + 1)
    for n in range((d + 1) * (r - 1) + 1, (d + 1) * r + 1)
]


@pytest.mark.parametrize("d, n, r", RANDOM_SHAPES)
def test_bruteforce_matches_an_lp_on_every_candidate(d, n, r):
    for seed in (n, 100 + n):
        ps = random_point_set(d, n, seed=seed, bound=60)
        assert tverberg_partition_bruteforce(ps, r) == first_by_lp(ps, r)


# gate shapes on seeds where the reference reaches its winner within 150
# candidates; in d=3 the pair LPs reject candidates there
GATE_CASES = [
    (3, 14, 4, 60, 12),
    (3, 14, 4, 60, 22),
    (3, 14, 4, 10000, 14),
    (3, 14, 4, 10000, 34),
    (2, 13, 5, 60, 17),
    (2, 14, 5, 60, 10),
    (2, 14, 5, 10000, 30),
]


@pytest.mark.parametrize("d, n, r, bound, seed", GATE_CASES)
def test_bruteforce_matches_an_lp_on_every_candidate_at_the_gate(
    monkeypatch, d, n, r, bound, seed
):
    ps = random_point_set(d, n, seed=seed, bound=bound)
    expected = first_by_lp(ps, r)
    missed = []

    def counting(parts, ps):
        witness = common_point(parts, ps)
        if witness is None:
            missed.append(len(parts))
        return witness

    monkeypatch.setattr(tverberg, "common_point", counting)
    assert tverberg_partition_bruteforce(ps, r) == expected
    assert (2 in missed) == (d == 3)


# degenerate inputs off the plane (the planar ones are among
# PLANAR_BRUTEFORCE_CASES)
DEGENERATE_CASES = [
    # repeated points on a line
    (PointSet(1, [(0,), (0,), (1,), (1,), (2,)]), 3),
    (PointSet(1, [(3,), (1,), (3,), (2,), (1,), (2,), (3,)]), 4),
    # the unit cube, a planar grid in space, collinear rows, a repeated point
    (PointSet(3, [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]), 2),
    (PointSet(3, [(x, y, 0) for x in range(3) for y in range(3)]), 3),
    (PointSet(3, [(x, y, 2 * y) for y in range(3) for x in range(3)] + [(1, 1, 5)]), 3),
    (PointSet(3, [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (0, 0, 0), (1, 1, 1)]), 2),
]


@pytest.mark.parametrize("ps, r", DEGENERATE_CASES)
def test_bruteforce_matches_an_lp_on_every_candidate_when_degenerate(ps, r):
    assert tverberg_partition_bruteforce(ps, r) == first_by_lp(ps, r)


@st.composite
def grid_instance(draw):
    """Points on a small integer grid, repeats allowed, at a size with a
    valid r."""
    d = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=2, max_value={1: 4, 2: 3, 3: 2}[d]))
    n = draw(st.integers(min_value=(d + 1) * (r - 1) + 1, max_value=(d + 1) * r))
    coord = st.integers(min_value=0, max_value=2)
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    return PointSet(d, points), r


@settings(max_examples=80)
@given(grid_instance())
def test_bruteforce_matches_an_lp_on_every_candidate_on_grids(case):
    ps, r = case
    assert tverberg_partition_bruteforce(ps, r) == first_by_lp(ps, r)


@pytest.mark.parametrize("n, r", [(5, 2), (6, 2), (7, 2), (8, 2), (9, 3), (10, 3), (12, 3)])
def test_d3_runs_one_lp_per_box_surviving_candidate_below_r4(monkeypatch, n, r):
    # every sub-family of r-1 or r parts belongs to this candidate alone,
    # so the final LP decides it
    ps = random_point_set(3, n, seed=n, bound=60)
    expected = first_by_lp(ps, r)
    survivors = []
    for parts in canonical_partitions(n, r, 4):
        if boxes_meet(parts, ps):
            survivors.append(parts)
        if list(parts) == expected.parts:
            break
    checked = []

    def counting(parts, ps):
        checked.append(tuple(parts))
        return common_point(parts, ps)

    monkeypatch.setattr(tverberg, "common_point", counting)
    assert tverberg_partition_bruteforce(ps, r) == expected
    assert checked == survivors


PLANAR_BRUTEFORCE_CASES = [
    *((random_point_set(2, n, seed=seed), r) for n, r, seed in [
        (4, 2, 0), (6, 2, 1), (7, 3, 2), (7, 3, 5), (9, 3, 3), (10, 4, 4)
    ]),
    # degenerate inputs: grids, rows of collinear points, repeated points
    (PointSet(2, [(x, y) for x in range(3) for y in range(3)]), 3),
    (PointSet(2, [(x, y) for y in range(2) for x in range(4)][:7]), 3),
    (PointSet(2, [(0, 0), (2, 0), (0, 2), (0, 0), (1, 1)]), 2),
    (PointSet(2, [(x, y) for x in range(4) for y in range(3)][:10]), 4),
    (PointSet(2, [(x, y) for y in range(2) for x in range(5)]), 4),
    (PointSet(2, [(0, 0), (2, 0), (0, 2), (0, 0), (1, 1), (2, 2), (0, 0)]), 3),
]


@pytest.mark.parametrize("ps, r", PLANAR_BRUTEFORCE_CASES)
def test_planar_bruteforce_runs_one_lp_on_the_same_winner(monkeypatch, ps, r):
    expected = first_by_lp(ps, r)
    checked = []

    def counting(parts, ps):
        checked.append(parts)
        return common_point(parts, ps)

    monkeypatch.setattr(tverberg, "common_point", counting)
    assert tverberg_partition_bruteforce(ps, r) == expected
    assert checked == [tuple(expected.parts)]


@pytest.mark.parametrize("d, n, r", [(1, 6, 3), (2, 7, 3), (2, 10, 4)])
def test_infeasible_final_lp_after_a_complete_screen_is_an_internal_error(
    monkeypatch, d, n, r
):
    # in d <= 2 no sub-family test runs an LP, so the screen is complete
    # and the first survivor's LP must be feasible
    calls = []

    def infeasible(parts, ps):
        calls.append(parts)
        return None

    monkeypatch.setattr(tverberg, "common_point", infeasible)
    with pytest.raises(InternalError, match="Helly"):
        tverberg_partition_bruteforce(random_point_set(d, n, seed=n), r)
    assert len(calls) == 1


def test_infeasible_lps_in_space_end_in_an_internal_error(monkeypatch):
    monkeypatch.setattr(tverberg, "common_point", lambda parts, ps: None)
    with pytest.raises(InternalError, match="no partition found"):
        tverberg_partition_bruteforce(random_point_set(3, 8, seed=1), 2)


def test_infeasible_final_lp_is_an_internal_error_under_python_O():
    script = (
        "from tvk import tverberg\n"
        "from tvk.errors import InternalError\n"
        "from tvk.generate import random_point_set\n"
        "tverberg.common_point = lambda parts, ps: None\n"
        "try:\n"
        "    tverberg.tverberg_partition_bruteforce(random_point_set(2, 7, seed=7), 3)\n"
        "except InternalError as exc:\n"
        "    print(type(exc).__name__, 'Helly' in str(exc))\n"
    )
    src = str(Path(tverberg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "InternalError True\n", "")


# --- centerpoint ------------------------------------------------------------------


def depth_oracle_at_least(q, ps, m):
    """q has depth >= m iff q lies in the hull of every (n-m+1)-subset."""
    n = len(ps)
    for sub in combinations(range(n), n - m + 1):
        if not lp_hull_contains(q, sub, ps):
            return False
    return True


def test_centerpoint_triangle():
    # the lines through three points meet only at the points, which are
    # never candidates
    ps = PointSet(2, [(0, 0), (9, 0), (0, 9)])
    with pytest.raises(GeneralPositionViolated, match="no candidate centerpoint"):
        centerpoint_planar(ps)


def test_centerpoint_hexagon_plus_center():
    ps = PointSet(2, HEXAGON + [(F(1, 23), F(1, 29))])
    o = centerpoint_planar(ps)
    d = ref_depth(o, ps.points)
    assert d >= 3  # ceil(7/3)
    assert depth_oracle_at_least(o, ps, d)


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=10**6))
def test_centerpoint_nine_random(seed):
    ps = random_point_set(2, 9, seed=seed, bound=1000)
    o = centerpoint_planar(ps)
    assert ref_depth(o, ps.points) >= 3
    assert depth_oracle_at_least(o, ps, 3)


def test_depth_agrees_with_oracle_exactly():
    ps = random_point_set(2, 8, seed=5, bound=100)
    for q in [(F(1), F(2)), ps.points[3], (F(-7, 3), F(5, 2)), (F(999), F(0))]:
        d = _depth(*_query(q, ps), ps.frame[0], 0)[0]
        assert d == ref_depth(q, ps.points)
        assert depth_oracle_at_least(q, ps, d)
        if d < len(ps):
            assert not depth_oracle_at_least(q, ps, d + 1)


# --- planar fast path --------------------------------------------------------------


def test_birch_hexagon_interleaved():
    ps = PointSet(2, HEXAGON)
    p = birch_partition_planar(ps, 2)
    assert p.parts == [(0, 2, 4), (1, 3, 5)]
    assert witness_in_all_hulls(p, ps)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10**6))
def test_birch_nine_random(seed):
    ps = random_point_set(2, 9, seed=seed, bound=1000)
    p = birch_partition_planar(ps, 3)
    assert sorted(len(part) for part in p.parts) == [3, 3, 3]
    assert witness_in_all_hulls(p, ps)
    assert witness_violations(p.witness, p.parts, ps) == []


def test_birch_output_is_bruteforce_acceptable():
    # the witness check is the acceptance contract; cross-check against LP
    ps = random_point_set(2, 9, seed=123, bound=500)
    p = birch_partition_planar(ps, 3)
    w = common_point(p.parts, ps)
    assert w is not None


def test_birch_falls_back_to_bruteforce_without_a_centerpoint(monkeypatch):
    def no_centerpoint(ps):
        raise GeneralPositionViolated("no candidate centerpoint found")

    ps = random_point_set(2, 9, seed=0)
    birch = birch_partition_planar(ps, 3)
    expected = tverberg_partition_bruteforce(ps, 3)
    assert birch.parts != expected.parts  # the result shows which path ran
    monkeypatch.setattr(tverberg, "centerpoint_planar", no_centerpoint)
    p = birch_partition_planar(ps, 3)
    assert (p.parts, p.witness) == (expected.parts, expected.witness)
    assert witness_violations(p.witness, p.parts, ps) == []


def test_birch_triple_missing_the_centerpoint_is_an_internal_error(monkeypatch):
    # Birch's theorem puts a point of depth >= r in every triple, so a
    # point outside every triple can only come from a centerpoint bug
    ps = random_point_set(2, 9, seed=0)
    monkeypatch.setattr(tverberg, "centerpoint_planar", lambda ps: (F(10**6), F(10**6)))
    with pytest.raises(InternalError, match="not in the hull of part"):
        birch_partition_planar(ps, 3)


# --- extension ---------------------------------------------------------------------


def _crossing_pair_partition():
    from tvk.apps import refine_witness
    from tvk.fixing import fix_all

    ps = PointSet(2, NESTED_SIX)
    w = refine_witness([(0, 1, 2), (3, 4, 5)], ps, seed=0)
    fixed, _ = fix_all(Partition([(0, 1, 2), (3, 4, 5)], w), ps)
    return ps, fixed


def test_extend_empty_identity():
    ps, fixed = _crossing_pair_partition()
    out = extend_partition(fixed, [], ps)
    assert out.parts == fixed.parts


def test_extend_interior_point_joins_containing_part():
    ps, fixed = _crossing_pair_partition()
    ps2 = PointSet(2, list(ps.points) + [(F(1, 13), F(1, 19))])  # near origin: inside some hull
    out = extend_partition(fixed, [6], ps2)
    assert sorted(len(p) for p in out.parts) == [3, 4]
    assert not out.size_bounded


def test_extend_outside_point_keeps_crossing():
    from tvk.apps import verify_crossing_partition

    ps, fixed = _crossing_pair_partition()
    ps2 = PointSet(2, list(ps.points) + [(61, 59)])
    out = extend_partition(fixed, [6], ps2)
    assert verify_crossing_partition(ps2, out).ok


def test_extend_rejects_a_partition_without_a_witness():
    ps = random_point_set(2, 9, seed=3)
    with pytest.raises(ValueError, match="extend_partition needs a witness"):
        extend_partition(Partition([(0, 1, 2), (3, 4, 5)]), [6, 7, 8], ps)


def test_extend_rejects_bad_leftover_indices():
    from tvk.apps import crossing_tverberg

    ps = random_point_set(2, 9, seed=3)
    partition = crossing_tverberg(ps.take(range(6)), 2).partition
    for leftover, message in (
        ([0], "repeated or already in a part"),  # point 0 is placed
        ([7, 7], "repeated or already in a part"),
        ([6, 9], "an index lies outside 0..8"),
        ([-1, 7], "an index lies outside 0..8"),
    ):
        with pytest.raises(ValueError, match=message):
            extend_partition(partition, leftover, ps)
    grown = extend_partition(partition, [6, 7, 8], ps)
    assert sorted(i for part in grown.parts for i in part) == list(range(9))


def test_extend_to_equal_grown_hulls_takes_the_first_part():
    # two coincident points make both grown hulls the same segment, so each
    # lies inside the other and only the reverse test keeps part 0 minimal
    ps = PointSet(2, [(0, 0), (0, 0), (5, 2)])
    partition = Partition([(0,), (1,)], Witness((0, 0), [[1], [1]]))
    assert extend_partition(partition, [2], ps).parts == [(0, 2), (1,)]


def ref_extension_parts(parts, leftover, ps):
    """The parts extend_partition builds when each target comes from the full
    r x r containment matrix of the grown hulls (the earlier rule), and the
    targets that matrix chose."""
    parts = [tuple(p) for p in parts]
    r = len(parts)
    by_matrix = []
    for idx in sorted(leftover):
        holding = [i for i, part in enumerate(parts) if hull_contains(ps.points[idx], part, ps)]
        if holding:
            target = holding[0]
        else:
            grown = [part + (idx,) for part in parts]
            contains = [
                [
                    i != j and all(hull_contains(ps.points[v], grown[i], ps) for v in grown[j])
                    for j in range(r)
                ]
                for i in range(r)
            ]
            minimal = [
                i
                for i in range(r)
                if not any(contains[i][j] and not contains[j][i] for j in range(r) if j != i)
            ]
            target = minimal[0]
            by_matrix.append(target)
        parts[target] += (idx,)
    return parts, by_matrix


def test_extend_targets_match_the_containment_matrix_rule():
    from tvk.apps import crossing_tverberg, verify_crossing_partition

    by_matrix = []
    for (d, r, k), seed in product([(2, 3, 4), (2, 4, 6), (3, 2, 4)], range(8)):
        ps = random_point_set(d, (d + 1) * r, seed=seed)
        partition = crossing_tverberg(ps, r, seed=0).partition
        grown = random_extension(ps, k, seed=seed + 100)
        leftover = list(range(len(ps), len(grown)))
        out = extend_partition(partition, leftover, grown)
        expected, targets = ref_extension_parts(partition.parts, leftover, grown)
        assert out.parts == expected
        assert verify_crossing_partition(grown, out).ok
        by_matrix += targets
    # the matrix rule ran, and sometimes passed over a non-minimal first part
    assert by_matrix and max(by_matrix) > 0


def _three_part_extension():
    from tvk.apps import crossing_tverberg

    ps = random_point_set(2, 9, seed=9)
    return crossing_tverberg(ps, 3, seed=0).partition, random_extension(ps, 3, seed=10)


def test_extend_classifies_only_pairs_with_the_grown_part(monkeypatch):
    partition, grown = _three_part_extension()
    real, calls = tverberg._classify, []

    def recording(a, b, *args):
        calls.append(a + b)
        return real(a, b, *args)

    monkeypatch.setattr(tverberg, "_classify", recording)
    extend_partition(partition, [9, 10, 11], grown)
    # k insertions times r - 1 partners, each pair holding the new point
    assert len(calls) == 3 * 2
    assert all(idx in pair for idx, pair in zip([9, 9, 10, 10, 11, 11], calls))


def test_extend_raises_when_a_pair_with_the_grown_part_breaks(monkeypatch):
    partition, grown = _three_part_extension()
    real = tverberg._classify

    def broken_at_10(a, b, *args):
        if 10 in a + b:
            return PairClass("nested", inner=a, outer=b)
        return real(a, b, *args)

    monkeypatch.setattr(tverberg, "_classify", broken_at_10)
    broke = r"inserting point 10 broke crossing of parts .* \(nested\)"
    with pytest.raises(InternalError, match=broke):
        extend_partition(partition, [9, 10, 11], grown)


SPATIAL = PointSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
TVERBERG_RAISES = {
    "brute force with r = 0": (
        lambda: tverberg_partition_bruteforce(PointSet(2, HEXAGON), 0),
        SizeOutOfRange,
        "r must be at least 1",
    ),
    "centerpoint_planar beyond the plane": (
        lambda: centerpoint_planar(SPATIAL),
        DimensionMismatch,
        "centerpoint_planar requires d=2",
    ),
    "centerpoint_planar of no points": (
        lambda: centerpoint_planar(PointSet(2, [])),
        SizeOutOfRange,
        "empty point set has no centerpoint",
    ),
    "birch_partition_planar beyond the plane": (
        lambda: birch_partition_planar(SPATIAL, 1),
        DimensionMismatch,
        "birch_partition_planar requires d=2",
    ),
    "birch_partition_planar with n != 3r": (
        lambda: birch_partition_planar(PointSet(2, HEXAGON), 3),
        SizeOutOfRange,
        "need exactly 3r points, got n=6, r=3",
    ),
}


@pytest.mark.parametrize("call, error, message", TVERBERG_RAISES.values(), ids=TVERBERG_RAISES)
def test_tverberg_public_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
