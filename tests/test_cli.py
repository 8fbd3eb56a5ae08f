import json
import os
import subprocess
import sys

import pytest

from tvk import apps, fixing, geometry
from tvk.cli import main
from tvk.fileio import partition_from_payload, parse_points
from tvk.generate import random_point_set
from tvk.lp import witness_violations

from conftest import NESTED_SIX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_text(rows):
    return "\n".join(" ".join(str(c) for c in p) for p in rows) + "\n"


def write_points(path, rows):
    path.write_text(rows_text(rows))


def gen_points(tmp_path, capsys, n):
    path = tmp_path / f"gen{n}.txt"
    code, out, _ = run_cli(capsys, "gen", "--d", "2", "--n", str(n), "--seed", "7")
    assert code == 0
    path.write_text(out)
    return path


@pytest.fixture
def nine(tmp_path, capsys):
    return gen_points(tmp_path, capsys, 9)


@pytest.fixture
def seven(tmp_path, capsys):
    return gen_points(tmp_path, capsys, 7)


def test_gen_deterministic(tmp_path, capsys):
    c1, out1, _ = run_cli(capsys, "gen", "--d", "2", "--n", "12", "--seed", "7")
    c2, out2, _ = run_cli(capsys, "gen", "--d", "2", "--n", "12", "--seed", "7")
    assert c1 == c2 == 0
    assert out1 == out2
    c3, out3, _ = run_cli(capsys, "gen", "--d", "2", "--n", "12", "--seed", "8")
    assert out3 != out1


def test_partition_command(nine, capsys):
    code, out, _ = run_cli(capsys, "partition", "--input", str(nine), "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert len(data["parts"]) == 3
    assert data["witness"] is not None


def test_crossing_command_with_svg(nine, tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    out_path = tmp_path / "crossing.json"
    code, _, _ = run_cli(
        capsys,
        "crossing", "--input", str(nine), "--r", "3",
        "--svg", str(svg_path), "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["parts"]) == 3
    assert all(v == "crossing" for row in data["verdicts"] for v in row if v)
    assert svg_path.read_text().count("<polygon") == 3
    # byte-identical on rerun
    before = out_path.read_bytes()
    run_cli(
        capsys,
        "crossing", "--input", str(nine), "--r", "3",
        "--svg", str(svg_path), "--out", str(out_path),
    )
    assert out_path.read_bytes() == before


def test_verify_roundtrip(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    code, out, _ = run_cli(capsys, "verify", "--input", str(nine), "--report", str(out_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_accepts_reordered_parts_with_their_weights(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    # parts reversed and each part rotated, every weight moved with its index
    data["parts"] = [p[1:] + p[:1] for p in reversed(data["parts"])]
    rows = data["witness"]["weights"]
    data["witness"]["weights"] = [w[1:] + w[:1] for w in reversed(rows)]
    out_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", "--input", str(nine), "--report", str(out_path))
    assert code == 0, out
    assert json.loads(out)["ok"] is True


def test_verify_detects_tampering(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["witness"]["point"] = ["999999/1", "999999/1"]
    out_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", "--input", str(nine), "--report", str(out_path))
    assert code == 5
    assert json.loads(out)["ok"] is False


COVER = "the parts and the discarded points do not cover 0..{} once each"


def test_verify_requires_the_parts_to_cover_the_points(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    good = json.loads(out_path.read_text())
    witness, weights = good["witness"], good["witness"]["weights"]
    for data in (
        # a part dropped with its weight row, every part dropped
        {**good, "parts": good["parts"][:-1], "witness": {**witness, "weights": weights[:-1]}},
        {**good, "parts": [], "witness": {**witness, "weights": []}},
        # a placed point also listed as discarded
        {**good, "discarded": [0]},
        {**good, "discarded": [True]},
    ):
        out_path.write_text(json.dumps(data))
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(nine), "--report", str(out_path)
        )
        assert code == 5
        assert COVER.format(8) in json.loads(out)["violations"]


def test_verify_rejects_a_report_with_no_parts(tmp_path, capsys):
    points = tmp_path / "three.txt"
    write_points(points, [(0, 0), (4, 1), (1, 5)])
    report = tmp_path / "empty.json"
    report.write_text(json.dumps({
        "parts": [],
        "witness": {"point": ["1/1", "1/1"], "weights": []},
        "discarded": [0, 1, 2],
    }))
    code, out, _ = run_cli(capsys, "verify", "--input", str(points), "--report", str(report))
    assert code == 5
    assert json.loads(out)["violations"] == ["partition has no parts"]


def test_verify_reports_a_missing_witness(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    out_path.write_text(json.dumps({**json.loads(out_path.read_text()), "witness": None}))
    code, out, _ = run_cli(capsys, "verify", "--input", str(nine), "--report", str(out_path))
    assert code == 5
    assert json.loads(out)["violations"] == ["partition has no witness"]


def test_verify_reads_the_discarded_points(seven, tmp_path, capsys):
    out_path = tmp_path / "simplices.json"
    run_cli(capsys, "crossing", "--input", str(seven), "--simplices", "--out", str(out_path))
    good = json.loads(out_path.read_text())
    assert good["discarded"] == [6]
    for discarded, expect in (([6], 0), ([], 5), ([5], 5), (6, 64)):
        out_path.write_text(json.dumps({**good, "discarded": discarded}))
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(seven), "--report", str(out_path)
        )
        assert code == expect, discarded
        if expect == 5:
            assert json.loads(out)["violations"] == [COVER.format(6)]


def test_crossing_budget_exceeded(tmp_path, capsys):
    # `tvk gen --d 2 --n 6 --seed 23 --bound 50`: the fast path's triangles
    # are nested, so the first fixing step already exceeds a budget of 0
    path = tmp_path / "six.txt"
    write_points(path, [(49, -13), (-40, -48), (25, -11), (4, -2), (17, -5), (-34, 42)])
    code, out, err = run_cli(
        capsys, "crossing", "--input", str(path), "--r", "2", "--budget", "0"
    )
    assert code == 4
    data = json.loads(out)
    assert (data["error"], data["trace"], data["parts"]) == (
        "budget_exceeded", [], [[0, 1, 5], [2, 3, 4]]
    )
    assert "budget exceeded" in err


def test_budget_exceeded_brute_force(tmp_path, capsys):
    # d=3 always brute-forces; this nested 3D pair needs one fixing step
    rows = [
        (100, -90, -80), (-95, -100, -70), (7, 105, -60), (3, 4, 200),
        (2, -3, -1), (-1, -2, -1), (1, 1, -1), (0, 0, 3),
    ]
    path = tmp_path / "nested3.txt"
    write_points(path, rows)
    code0, out0, _ = run_cli(capsys, "crossing", "--input", str(path), "--r", "2")
    assert code0 == 0
    assert len(json.loads(out0)["trace"]) == 1
    code, out, err = run_cli(
        capsys, "crossing", "--input", str(path), "--r", "2", "--budget", "0"
    )
    assert code == 4
    assert "budget" in err


def test_degenerate_exit_and_perturb(tmp_path, capsys):
    path = tmp_path / "degen.txt"
    write_points(path, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    code, _, err = run_cli(capsys, "partition", "--input", str(path), "--r", "2")
    assert code == 2
    code2, out, _ = run_cli(
        capsys, "partition", "--input", str(path), "--r", "2", "--perturb"
    )
    assert code2 == 0
    assert json.loads(out)["perturbed"] is True


@pytest.mark.parametrize("command", ["crossing", "partition"])
@pytest.mark.parametrize(
    "rows, code",
    [
        ([(0, 0), (0, 0)], 2),  # coincident points in the plane
        ([(0, 0, 0), (1, 1, 1), (2, 2, 2)], 2),  # collinear points in space
        ([(0, 0), (1, 0)], 0),
        ([(0, 0, 0), (1, 1, 1), (2, 2, 3)], 0),
    ],
)
def test_general_position_gate_covers_at_most_d_points(tmp_path, capsys, command, rows, code):
    # n <= d points have no (d+1)-subset, but they can still be dependent
    path = tmp_path / "few.txt"
    write_points(path, rows)
    got, out, err = run_cli(capsys, command, "--input", str(path), "--r", "1")
    assert got == code
    assert ("degenerate input" in err) == (code == 2)
    assert (out == "") == (code == 2)


def test_failed_point_generation_is_degenerate_input(capsys):
    # three integer values in [-1, 1] cannot hold five distinct points
    code, out, err = run_cli(capsys, "gen", "--d", "1", "--n", "5", "--bound", "1")
    assert code == 2
    assert out == ""
    assert "degenerate input" in err


def test_partition_takes_the_planar_fast_path(tmp_path, capsys):
    # n = 15 = 3r is above the brute-force gate of 14 points
    path = tmp_path / "gen15.txt"
    code, out, _ = run_cli(capsys, "gen", "--d", "2", "--n", "15", "--seed", "3")
    assert code == 0
    path.write_text(out)
    code, out, _ = run_cli(capsys, "partition", "--input", str(path), "--r", "5")
    assert code == 0
    partition = partition_from_payload(json.loads(out))
    assert len(partition.parts) == 5
    ps = parse_points(path.read_text())
    assert witness_violations(partition.witness, partition.parts, ps) == []


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "crossing", "--input", "nope.txt", "--r", "0")
    assert code == 64
    code, _, _ = run_cli(capsys, "partition", "--input", str(tmp_path / "missing.txt"), "--r", "2")
    assert code == 64


def test_size_gate_exit(tmp_path, capsys):
    rows = [(0, 0), (1, 0), (0, 1), (5, 5), (9, 1)]
    path = tmp_path / "five.txt"
    write_points(path, rows)
    code, _, err = run_cli(capsys, "crossing", "--input", str(path), "--r", "3")
    assert code == 3


@pytest.mark.parametrize("d, n, r", [(3, 15, 4), (2, 16, 6)])
def test_brute_force_gate_names_what_the_fast_path_takes(tmp_path, capsys, d, n, r):
    # both sizes admit a partition but exceed the brute-force gate, and
    # neither is planar with n = 3r, so no fast path exists for them
    path = tmp_path / "points.txt"
    code, out, _ = run_cli(capsys, "gen", "--d", str(d), "--n", str(n), "--seed", "3")
    assert code == 0
    path.write_text(out)
    code, out, err = run_cli(capsys, "crossing", "--input", str(path), "--r", str(r))
    assert code == 3
    assert out == ""
    assert "gated at 14 points" in err
    assert "takes only d=2 and n=3r" in err
    assert "use the planar fast path" not in err


def test_parity_and_cocycle_commands(tmp_path, capsys):
    path = tmp_path / "six.txt"
    write_points(path, NESTED_SIX)
    code, out, _ = run_cli(capsys, "parity", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["even"] is True and data["count"] % 2 == 0
    code, out, _ = run_cli(capsys, "cocycle", "--input", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


SIX = [(3, 1), (-2, 2), (-1, -3), (4, -2), (-4, -1), (1, 4)]
GRID = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize(
    "text, argv, code, expect",
    [
        (
            rows_text(GRID), ["crossing", "--r", "2", "--perturb"], 0,
            {"perturbed": True, "original_points": [[f"{x}/1", f"{y}/1"] for x, y in GRID]},
        ),
        (rows_text(SIX), ["parity", "--point", "1/7,1/11"], 0, {"count": 2, "even": True}),
        (rows_text(SIX), ["cocycle", "--point", "1/7,1/11"], 0, {"ok": True}),
        (rows_text(SIX), ["parity", "--point", "1,2,3"], 64, "point has 3 coordinates"),
        (rows_text(SIX), ["partition", "--r", "0"], 64, "--r must be a positive integer"),
        (rows_text([(x, y, x * y) for x, y in SIX]), ["link"], 64, "exactly 8 points in R^3"),
        ("1 2\n3\n", ["crossing", "--r", "1"], 64, "cannot parse"),
        ("# only a comment\n", ["crossing", "--r", "1"], 64, "no points in input"),
    ],
)
def test_command_outcomes(tmp_path, capsys, text, argv, code, expect):
    # a JSON subset on success, an error line naming the cause otherwise
    path = tmp_path / "points.txt"
    path.write_text(text)
    got, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
    assert got == code
    if code == 0:
        data = json.loads(out)
        assert {k: data[k] for k in expect} == expect
    else:
        assert out == ""
        assert expect in err and len(err.strip().splitlines()) == 1


def test_fs_command(capsys):
    code, out, _ = run_cli(capsys, "fs")
    assert code == 0
    data = json.loads(out)
    assert data["origin_pair_count"] >= 2
    assert data["origin_pair_count"] % 2 == 0
    assert data["linked_pairs"] == 0
    assert data["falsified"] is False


def test_fs_command_exits_5_when_a_pair_is_linked(monkeypatch, capsys):
    monkeypatch.setattr(apps, "tetrahedra_face_linked", lambda a, b, ps: apps.FaceLinkVerdict.LINKED)
    code, out, _ = run_cli(capsys, "fs")
    assert code == 5
    data = json.loads(out)
    assert data["linked_pairs"] == 2 and data["falsified"] is True


def test_cocycle_command_exits_5_with_the_offending_subset(tmp_path, capsys, monkeypatch):
    # with only (0, 1, 2) holding o, the first 4-subset counts one, not 0 or 2
    path = tmp_path / "six.txt"
    path.write_text(rows_text(random_point_set(2, 6, seed=3).points))
    monkeypatch.setattr(fixing, "hull_contains", lambda o, f, ps: tuple(f) == (0, 1, 2))
    code, out, _ = run_cli(capsys, "cocycle", "--input", str(path), "--point", "1/7,1/11")
    assert code == 5
    data = json.loads(out)
    assert data["ok"] is False and data["offending"] == [0, 1, 2, 3]


def test_link_command(tmp_path, capsys):
    rows = [
        (3, 0, 0), (-3, 2, 0), (-3, -2, 0), (0, 1, 50),
        (1, 0, 2), (1, 0, -2), (6, 0, 1), (7, 50, 3),
    ]
    path = tmp_path / "tets.txt"
    write_points(path, rows)
    code, out, _ = run_cli(capsys, "link", "--input", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "linked"


def test_link_with_a_crossing_on_an_edge_line(tmp_path, capsys):
    # the edge (2,0,-1)-(2,0,1) crosses the plane z=0 of the face 0 1 2 at
    # (2,0,0): on the line through the face's edge 0-1, outside the face
    rows = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 5),
        (2, 0, -1), (2, 0, 1), (5, 3, 7), (9, 9, -3),
    ]
    path = tmp_path / "tets.txt"
    write_points(path, rows)
    code, out, err = run_cli(capsys, "link", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "unlinked"


def test_discard_not_an_integer_is_a_usage_error(seven, capsys):
    code, _, err = run_cli(
        capsys, "crossing", "--input", str(seven), "--simplices", "--discard", "x"
    )
    assert code == 64
    assert "Traceback" not in err


def test_discard_out_of_range_is_a_size_gate(seven, capsys):
    for bad in ("99", "7", "-1"):
        code, _, err = run_cli(
            capsys, "crossing", "--input", str(seven), "--simplices", "--discard", bad
        )
        assert code == 3, (bad, err)


def test_discard_repeated_is_a_size_gate(tmp_path, capsys):
    eight = gen_points(tmp_path, capsys, 8)
    for bad in ("0,0,1", "0,0", "3,1,3"):
        code, out, err = run_cli(
            capsys, "crossing", "--input", str(eight), "--simplices", "--discard", bad
        )
        assert (code, out) == (3, ""), (bad, err)
        assert f"discarded index {bad[0]} is repeated" in err


def test_verify_malformed_report_is_a_usage_error(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    good = json.loads(out_path.read_text())
    broken = [
        {**good, "parts": 5},
        {k: v for k, v in good.items() if k != "parts"},
        {**good, "witness": {"weights": good["witness"]["weights"]}},
        {**good, "witness": {**good["witness"], "point": [1, 2]}},
        {**good, "parts": [[0, "a"]]},
        {**good, "size_bounded": "false"},
        {**good, "size_bounded": 1},
        [1, 2, 3],
    ]
    for data in broken:
        out_path.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "verify", "--input", str(nine), "--report", str(out_path)
        )
        assert code == 64, (data, err)


def test_verify_bad_indices_and_witness_are_violations(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    good = json.loads(out_path.read_text())
    parts = [list(p) for p in good["parts"]]
    parts[0][0] = 99
    booleans = [[True if i == 1 else i for i in p] for p in good["parts"]]
    assert "true" in json.dumps(booleans)  # JSON true is not the index 1
    lifted = {**good["witness"], "point": good["witness"]["point"] + ["0/1"]}
    for data in (
        {**good, "parts": parts},
        {**good, "parts": booleans},
        {**good, "witness": lifted},
    ):
        out_path.write_text(json.dumps(data))
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(nine), "--report", str(out_path)
        )
        assert code == 5
        assert json.loads(out)["violations"]


def test_verify_negative_and_missing_weights_are_violations(nine, tmp_path, capsys):
    out_path = tmp_path / "crossing.json"
    run_cli(capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(out_path))
    good = json.loads(out_path.read_text())
    weights = good["witness"]["weights"]
    negative = [["-" + weights[0][0], *weights[0][1:]], *weights[1:]]
    for rows, message in (
        (negative, "part 0: negative weight"),
        (weights[:-1], "witness has 2 weight rows for 3 parts"),
    ):
        out_path.write_text(json.dumps({**good, "witness": {**good["witness"], "weights": rows}}))
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(nine), "--report", str(out_path)
        )
        assert code == 5
        assert message in json.loads(out)["violations"]


def test_parity_wrong_point_count_is_a_size_gate(tmp_path, capsys):
    path = tmp_path / "nine.txt"
    write_points(path, NESTED_SIX + [(3, 7), (-8, 5), (6, 11)])
    code, _, err = run_cli(capsys, "parity", "--input", str(path))
    assert code == 3
    assert "size gate" in err


def test_bad_point_option_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "six.txt"
    write_points(path, NESTED_SIX)
    code, _, _ = run_cli(capsys, "parity", "--input", str(path), "--point", "a,b")
    assert code == 64


def test_unwritable_out_path_is_a_usage_error(nine, tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "crossing", "--input", str(nine), "--r", "3", "--out", str(missing)
    )
    assert code == 64
    assert out == ""
    assert "cannot write" in err and len(err.strip().splitlines()) == 1


def test_unwritable_svg_path_is_a_usage_error(nine, tmp_path, capsys):
    missing = tmp_path / "missing" / "x.svg"
    code, out, err = run_cli(
        capsys, "crossing", "--input", str(nine), "--r", "3", "--svg", str(missing)
    )
    assert code == 64
    assert out == ""  # no JSON goes out before the SVG is written
    assert "cannot write" in err and len(err.strip().splitlines()) == 1


def test_svg_outside_the_plane_is_rejected_before_any_output(tmp_path, capsys):
    path = tmp_path / "d3.txt"
    code, out, _ = run_cli(capsys, "gen", "--d", "3", "--n", "8", "--seed", "2")
    path.write_text(out)
    svg_path = tmp_path / "x.svg"
    code, out, err = run_cli(
        capsys, "crossing", "--input", str(path), "--r", "2", "--svg", str(svg_path)
    )
    assert code == 64
    assert out == ""
    assert "--svg requires d=2" in err
    assert not svg_path.exists()


@pytest.mark.parametrize("bound", ["-4", "0"])
def test_nonpositive_bound_is_a_usage_error(capsys, bound):
    code, out, err = run_cli(capsys, "gen", "--d", "2", "--n", "5", "--bound", bound)
    assert code == 64
    assert out == ""
    assert "--bound" in err and len(err.strip().splitlines()) == 1


def test_failed_internal_check_exits_5(nine, capsys, monkeypatch):
    def failing(ps, partition):
        return apps.VerificationReport(["forced violation"])

    monkeypatch.setattr(apps, "verify_crossing_partition", failing)
    code, out, err = run_cli(capsys, "crossing", "--input", str(nine), "--r", "3")
    assert code == 5
    assert out == ""
    assert "forced violation" in err


def test_console_entrypoint_subprocess(tmp_path):
    env = dict(os.environ)
    res = subprocess.run(
        [sys.executable, "-m", "tvk", "gen", "--d", "1", "--n", "4", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    assert len(res.stdout.strip().splitlines()) == 4


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DEGENERATE_MESSAGE = "affinely dependent (d+1)-subsets; perturb the input or fix the data"


def degenerate_seven(tmp_path, capsys):
    """Seven planar points; only the last, the midpoint of points 0 and 1,
    breaks general position."""
    path = gen_points(tmp_path, capsys, 6)
    (x0, y0), (x1, y1) = parse_points(path.read_text()).points[:2]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{(x0 + x1) / 2} {(y0 + y1) / 2}\n")
    return path


def test_budget_exceeded_payload_goes_to_out(tmp_path, capsys):
    out_path = tmp_path / "x.json"
    code, out, err = run_cli(
        capsys, "crossing", "--input", os.path.join(GOLDEN, "eight_one_fix.txt"),
        "--r", "3", "--budget", "0", "--out", str(out_path),
    )
    assert code == 4
    assert out == ""
    assert json.loads(out_path.read_text())["error"] == "budget_exceeded"
    assert "budget exceeded" in err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--r", "3", "--budget", "-1"], "--budget"),
        (["--r", "3", "--discard", "0"], "--discard requires --simplices"),
        (["--r", "3", "--simplices"], "--r and --simplices"),
    ],
)
def test_inconsistent_crossing_options_are_usage_errors(nine, capsys, options, message):
    code, out, err = run_cli(capsys, "crossing", "--input", str(nine), *options)
    assert code == 64
    assert out == ""
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["crossing", "--input", os.path.join(GOLDEN, "d2_n12_s3.txt"), "--r", "4"],
        ["crossing", "--input", os.path.join(GOLDEN, "d2_n12_s3.txt"), "--simplices"],
        ["partition", "--input", os.path.join(GOLDEN, "d2_n7_s1.txt"), "--r", "3"],
    ],
)
def test_general_position_is_scanned_once(capsys, monkeypatch, argv):
    points = parse_points(open(argv[2], encoding="utf-8").read()).points
    full_scans = []
    scan = geometry.in_general_position

    def counted(ps):
        if ps.points == points:
            full_scans.append(ps)
        return scan(ps)

    for name, module in list(sys.modules.items()):  # every binding of the scan
        if name.startswith("tvk") and getattr(module, "in_general_position", None) is scan:
            monkeypatch.setattr(module, "in_general_position", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(full_scans) == 1


def test_simplices_ignore_a_degenerate_discarded_point(tmp_path, capsys):
    path = degenerate_seven(tmp_path, capsys)
    ps = parse_points(path.read_text())
    code, _, err = run_cli(capsys, "partition", "--input", str(path), "--r", "2")
    assert code == 2  # the whole input is degenerate
    for options in ([], ["--discard", "6"]):
        code, out, err = run_cli(
            capsys, "crossing", "--input", str(path), "--simplices", *options
        )
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["discarded"] == [6]
        assert apps.verify_crossing_partition(ps, partition_from_payload(data)).ok


def test_degenerate_crossing_input_reports_the_shared_message(tmp_path, capsys):
    path = degenerate_seven(tmp_path, capsys)
    code, out, err = run_cli(capsys, "crossing", "--input", str(path), "--r", "2")
    assert (code, out) == (2, "")
    assert err == f"tvk: degenerate input: 1 {DEGENERATE_MESSAGE}\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, 0), (0, 0)], "the 2 points 0, 1 are affinely dependent"),
        ([(0, 0, 0), (1, 1, 1), (2, 2, 2)], "the 3 points 0, 1, 2 are affinely dependent"),
    ],
)
def test_degenerate_input_of_at_most_d_points_names_the_points(tmp_path, capsys, rows, message):
    path = tmp_path / "few.txt"
    write_points(path, rows)
    code, out, err = run_cli(capsys, "crossing", "--r", "1", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"tvk: degenerate input: {message}; perturb the input or fix the data\n"


@pytest.mark.parametrize(
    "options, exit_code",
    [
        (["--r", "0"], 64),
        (["--r", "2", "--budget", "-3"], 64),
        (["--r", "3"], 3),  # r=3 needs (d+1)(r-1)+1 = 7 points
        (["--simplices", "--discard", "0,1,2"], 3),
    ],
)
def test_degenerate_input_reports_usage_and_size_checks_first(
    tmp_path, capsys, options, exit_code
):
    path = tmp_path / "five.txt"
    write_points(path, [(0, 0), (1, 0), (2, 0), (0, 1), (5, 3)])
    code, out, err = run_cli(capsys, "crossing", "--input", str(path), *options)
    assert (code, out) == (exit_code, "")
    assert len(err.strip().splitlines()) == 1
