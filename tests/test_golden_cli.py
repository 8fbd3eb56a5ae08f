"""CLI output pinned byte for byte against committed goldens.

Each case runs `tvk` in-process on a point file in tests/golden/ (or on
no file, for `tvk fs`) and compares stdout with the committed JSON next
to it; each `tvk gen` case compares the generated point file with a
committed one. The goldens were written by an earlier build of the CLI
and are the reference: a mismatch means the partitions, witnesses,
traces, verdicts or serialisation changed.
"""
from pathlib import Path

from tvk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden JSON name, point file or None, CLI arguments after --input)
CASES = [
    ("partition_d2_n7_r3", "d2_n7_s1.txt", ["partition", "--r", "3"]),
    ("partition_d3_n8_r2", "d3_n8_s2.txt", ["partition", "--r", "2"]),
    # at the 14-point brute-force gate (points from `tvk gen --seed 9` / `--seed 7`)
    ("partition_d3_n14_r4", "d3_n14_s9.txt", ["partition", "--r", "4"]),
    ("partition_d2_n14_r5", "d2_n14_s7.txt", ["partition", "--r", "5"]),
    ("crossing_d2_n12_r4", "d2_n12_s3.txt", ["crossing", "--r", "4"]),
    ("crossing_d2_n15_r4", "d2_n15_s4.txt", ["crossing", "--r", "4"]),
    ("crossing_d3_n8_r2", "d3_n8_s5.txt", ["crossing", "--r", "2"]),
    # rational coordinates beyond the plane (den = 231): the LPs' row scales
    ("partition_d3_n8_rational_r2", "d3_n8_s1_rational.txt", ["partition", "--r", "2"]),
    ("crossing_d3_n8_rational_r2", "d3_n8_s1_rational.txt", ["crossing", "--r", "2"]),
    ("crossing_one_fix_r3", "eight_one_fix.txt", ["crossing", "--r", "3"]),
    ("crossing_nested_d3_r2", "nested_d3.txt", ["crossing", "--r", "2"]),
    (
        "crossing_nested_d3_r2_point_count",
        "nested_d3.txt",
        ["crossing", "--r", "2", "--measure", "point-count"],
    ),
    (
        "crossing_triple_nested_r2_point_count",
        "nine_triple_nested.txt",
        ["crossing", "--r", "2", "--measure", "point-count"],
    ),
    ("simplices_d2_n14", "d2_n14_s6.txt", ["crossing", "--simplices"]),
    (
        "simplices_d2_n14_discard_0_5",
        "d2_n14_s6.txt",
        ["crossing", "--simplices", "--discard", "0,5"],
    ),
    # the linking verdicts and the built-in counterexample
    ("link_linked", "link_linked.txt", ["link"]),
    ("link_edge_line", "link_edge_line.txt", ["link"]),
    ("link_faces_intersect", "link_faces_intersect.txt", ["link"]),
    ("fs", None, ["fs"]),
]


# (golden point file, `tvk gen` arguments)
GEN_CASES = [
    ("gen_d1_n6_s0.txt", ["--d", "1", "--n", "6", "--seed", "0"]),
    ("gen_d1_n8_s3.txt", ["--d", "1", "--n", "8", "--seed", "3"]),
    ("gen_d2_n10_s1.txt", ["--d", "2", "--n", "10", "--seed", "1"]),
    ("gen_d2_n14_s5.txt", ["--d", "2", "--n", "14", "--seed", "5"]),
    ("gen_d2_n8_s2_b5.txt", ["--d", "2", "--n", "8", "--seed", "2", "--bound", "5"]),
    ("gen_d3_n9_s2.txt", ["--d", "3", "--n", "9", "--seed", "2"]),
    ("gen_d3_n12_s4.txt", ["--d", "3", "--n", "12", "--seed", "4"]),
]


def run_case(points, args, capsys):
    command, *rest = args
    source = [] if points is None else ["--input", str(GOLDEN / points)]
    code = main([command, *source, *rest])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_matches_goldens(capsys):
    mismatched = []
    for name, points, args in CASES:
        code, out, err = run_case(points, args, capsys)
        expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        if (code, out, err) != (0, expected, ""):
            mismatched.append(name)
    assert mismatched == []


def test_gen_matches_goldens(capsys):
    mismatched = []
    for name, args in GEN_CASES:
        code = main(["gen", *args])
        captured = capsys.readouterr()
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        if (code, captured.out, captured.err) != (0, expected, ""):
            mismatched.append(name)
    assert mismatched == []
