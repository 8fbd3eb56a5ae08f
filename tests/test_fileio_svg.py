import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from tvk import fileio
from tvk.cli import main
from tvk.errors import DimensionMismatch
from tvk.generate import random_point_set
from tvk.geometry import PointSet
from tvk.svg import render_partition
from tvk.apps import crossing_tverberg

from conftest import NINE_ONE_FIX, lp_hull_contains

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parse_points_formats():
    text = """
    # a comment
    1/2 -3/4
    0.25 2   # trailing comment

    -7 0.125
    """
    ps = fileio.parse_points(text)
    assert ps.dim == 2
    assert ps.points[0] == (F(1, 2), F(-3, 4))
    assert ps.points[1] == (F(1, 4), F(2))
    assert ps.points[2] == (F(-7), F(1, 8))  # decimals are exact


def test_parse_points_ragged_rejected():
    with pytest.raises(DimensionMismatch):
        fileio.parse_points("1 2\n3 4 5\n")


def test_parse_points_garbage_rejected():
    with pytest.raises(ValueError):
        fileio.parse_points("1 banana\n")


def test_points_roundtrip():
    ps = PointSet(2, [(F(1, 3), -2), (5, F(7, 11))])
    again = fileio.parse_points(fileio.format_points(ps))
    assert again.points == ps.points


def test_rat_string_roundtrip():
    for q in (F(0), F(5), F(-3, 7), F(10**12, 13)):
        assert fileio.parse_rat(fileio.fmt_rat(q)) == q


def test_partition_payload_roundtrip():
    ps = PointSet(2, NINE_ONE_FIX)
    rep = crossing_tverberg(ps, 3, seed=0)
    payload = fileio.partition_payload(rep.partition, ps.dim)
    back = fileio.partition_from_payload(payload)
    assert back.parts == rep.partition.parts
    assert back.witness.point == rep.partition.witness.point
    assert back.witness.weights == rep.partition.witness.weights


def test_trace_payload_roundtrip():
    ps = PointSet(2, NINE_ONE_FIX[:8])  # brute force, one fixing step
    rep = crossing_tverberg(ps, 3, seed=0)
    assert rep.trace.iterations == 1
    rows = fileio.trace_payload(rep.trace)
    assert [[fileio.parse_rat(v) for v in row["volumes_before"]] for row in rows] == [
        s.before for s in rep.trace.steps
    ]
    assert [[fileio.parse_rat(v) for v in row["volumes_after"]] for row in rows] == [
        s.after for s in rep.trace.steps
    ]


def test_json_deterministic():
    ps = PointSet(2, NINE_ONE_FIX)
    rep1 = crossing_tverberg(ps, 3, seed=0)
    rep2 = crossing_tverberg(ps, 3, seed=0)
    p1 = fileio.dump_json(fileio.partition_payload(rep1.partition, 2))
    p2 = fileio.dump_json(fileio.partition_payload(rep2.partition, 2))
    assert p1 == p2


def test_svg_renders_and_is_deterministic():
    ps = PointSet(2, NINE_ONE_FIX)
    rep = crossing_tverberg(ps, 3, seed=0)
    a = render_partition(ps, rep.partition)
    b = render_partition(ps, rep.partition)
    assert a == b
    assert a.count("<polygon") == 3
    assert a.count("<circle") == 9
    assert "<line" in a  # witness cross marker
    assert 'width="800"' in a


def test_svg_rejects_3d():
    ps = PointSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    from tvk.tverberg import Partition

    with pytest.raises(DimensionMismatch):
        render_partition(ps, Partition([(0, 1, 2, 3)]))


def polygons_and_dots(svg):
    """Each polygon's vertices and each point's dot, as the rendered strings."""
    polygons = [p.split() for p in re.findall(r'<polygon points="([^"]*)"', svg)]
    dots = [f"{x},{y}" for x, y in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)]
    return polygons, dots


def test_svg_outlines_an_extended_part_by_its_hull():
    # `tvk gen --d 2 --n 15 --seed 0`, then `tvk crossing --r 4`: the first
    # part has six points, and point 14 lies inside the hull of the others
    ps = random_point_set(2, 15, seed=0)
    rep = crossing_tverberg(ps, 4, seed=0)
    assert rep.partition.parts[0] == (0, 5, 11, 12, 13, 14)
    polygons, dots = polygons_and_dots(render_partition(ps, rep.partition))
    assert len(polygons) == 4
    for part, polygon in zip(rep.partition.parts, polygons):
        hull = [
            i for i in part if not lp_hull_contains(ps.points[i], [j for j in part if j != i], ps)
        ]
        assert sorted(polygon) == sorted(dots[i] for i in hull)
        # drawn in convex order: every turn has one sign
        xy = [tuple(map(float, v.split(","))) for v in polygon]
        turns = [
            (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            for a, b, c in zip(xy, xy[1:] + xy[:1], xy[2:] + xy[:2])
        ]
        assert all(t > 0 for t in turns) or all(t < 0 for t in turns)
    assert len(polygons[0]) == 5 and dots[14] not in polygons[0]


def test_svg_triangle_render_matches_the_golden(tmp_path, capsys):
    # written by the earlier rule, which drew every point of a part
    svg_path = tmp_path / "out.svg"
    code = main(
        ["crossing", "--input", str(GOLDEN / "d2_n12_s3.txt"), "--r", "4", "--svg", str(svg_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert svg_path.read_text() == (GOLDEN / "crossing_d2_n12_r4.svg").read_text()
