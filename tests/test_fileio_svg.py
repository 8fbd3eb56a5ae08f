from fractions import Fraction as F

import pytest

from tvk import fileio
from tvk.errors import DimensionMismatch
from tvk.geometry import PointSet
from tvk.svg import render_partition
from tvk.apps import crossing_tverberg

from conftest import NINE_ONE_FIX


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
