"""Command-line front end.

Exit codes: 0 ok, 2 degenerate input (including a failed perturbation or
point generation), 3 size gate, 4 budget exceeded, 5 verification failure
(including a report whose parts and discards miss or repeat a point) or
failed internal check, 64 usage error (including an unwritable output
path). Output is machine-readable JSON on stdout (or --out); diagnostics
are single lines on stderr. All randomness is seeded, so identical
configs produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import fileio, svg
from .apps import (
    crossing_simplices,
    crossing_tverberg,
    tetrahedra_face_linked,
    verify_crossing_partition,
    verify_linking_counterexample,
)
from .errors import (
    BudgetExceeded,
    GeneralPositionViolated,
    PerturbationFailed,
    SizeOutOfRange,
    TvkError,
)
from .fixing import cocycle_check, parity_check
from .generate import random_point_set
from .geometry import (
    PointSet,
    in_general_position,
    mk_point,
    perturb,
    require_general_position,
)
from .tverberg import bounded_partition

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_SIZE_GATE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _index_list(raw: str):
    """--discard value: comma-separated point indices (empty: the default)."""
    try:
        return [int(t) for t in raw.split(",") if t.strip()] if raw else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _build_parser() -> _Parser:
    p = _Parser(prog="tvk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, needs_input=True, seeded=False):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        if needs_input:
            sp.add_argument("--input", required=True, help="point file")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="write JSON here instead of stdout")
        return sp

    sp = command("partition", cmd_partition, "size-bounded common-point partition", seeded=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--perturb", action="store_true")

    sp = command("crossing", cmd_crossing, "crossing partition pipeline", seeded=True)
    sp.add_argument("--r", type=int)
    sp.add_argument("--simplices", action="store_true",
                    help="run the floor(n/(d+1)) crossing-simplices variant")
    sp.add_argument("--measure", choices=["volume", "point-count"], default="volume")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--perturb", action="store_true")
    sp.add_argument("--discard", type=_index_list,
                    help="comma-separated indices to drop (simplices mode)")
    sp.add_argument("--svg", dest="svg_path", help="render the result (d=2 only)")

    sp = command("verify", cmd_verify, "re-verify a crossing/partition JSON report")
    sp.add_argument("--report", required=True, help="JSON produced by crossing/partition")

    sp = command("parity", cmd_parity, "origin-pair parity of 2(d+1) points")
    sp.add_argument("--point", help="candidate point, comma-separated (default origin)")

    sp = command("cocycle", cmd_cocycle, "cocycle property of origin-containing subsets")
    sp.add_argument("--point", help="candidate point, comma-separated (default origin)")

    command("link", cmd_link, "face-linking verdict for two tetrahedra (8 points)")
    command("fs", cmd_fs, "verify the built-in 8-point linking counterexample",
            needs_input=False)

    sp = command("gen", cmd_gen, "seeded general-position point generator",
                 needs_input=False, seeded=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bound", type=int, default=10000)
    return p


def _read_points(path: str) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fileio.parse_points(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, TvkError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc


def _output(text: str, path: Optional[str]):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(payload, out_path: Optional[str]):
    _output(fileio.dump_json(payload), out_path)


def _perturbed(ps, args):
    """(ps, None); under --perturb with a degenerate ps, its seeded jitter and
    the payload fields that record the original points."""
    if not args.perturb or not in_general_position(ps):
        return ps, None
    moved = perturb(ps, args.seed)
    return moved, {
        "perturbed": True,
        "original_points": [[fileio.fmt_rat(c) for c in p] for p in ps.points],
    }


def _parse_point(raw, dim):
    if raw is None:
        return mk_point([0] * dim)
    try:
        coords = [fileio.parse_rat(t) for t in raw.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse point {raw!r}: {exc}") from exc
    if len(coords) != dim:
        raise UsageError(f"point has {len(coords)} coordinates, expected {dim}")
    return mk_point(coords)


def cmd_partition(args: argparse.Namespace) -> int:
    ps = _read_points(args.input)
    if args.r < 1:
        raise UsageError("--r must be a positive integer")
    ps, extra = _perturbed(ps, args)
    if not args.perturb:  # bounded_partition has no gate of its own
        require_general_position(ps)
    partition = bounded_partition(ps, args.r)
    payload = fileio.partition_payload(
        partition,
        ps.dim,
        {
            "command": "partition",
            "n": len(ps),
            "r": args.r,
            "seed": args.seed,
            "points": [[fileio.fmt_rat(c) for c in p] for p in ps.points],
        },
    )
    if extra:
        payload.update(extra)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_crossing(args: argparse.Namespace) -> int:
    if args.simplices and args.r is not None:
        raise UsageError("--r and --simplices exclude each other")
    if not args.simplices and (args.r is None or args.r < 1):
        raise UsageError("--r must be a positive integer (or use --simplices)")
    if args.discard is not None and not args.simplices:
        raise UsageError("--discard requires --simplices")
    if args.budget is not None and args.budget < 0:
        raise UsageError("--budget must be a nonnegative integer")
    ps = _read_points(args.input)
    if args.svg_path and ps.dim != 2:
        raise UsageError("--svg requires d=2")
    ps, extra = _perturbed(ps, args)  # the pipeline is the general-position gate
    try:
        if args.simplices:
            report = crossing_simplices(
                ps,
                measure=args.measure,
                budget=args.budget,
                seed=args.seed,
                discard=args.discard,
            )
        else:
            report = crossing_tverberg(
                ps, args.r, measure=args.measure, budget=args.budget, seed=args.seed
            )
    except BudgetExceeded as exc:
        payload = {
            "command": "crossing",
            "error": "budget_exceeded",
            "trace": fileio.trace_payload(exc.trace),
            "parts": [list(p) for p in exc.partition.parts],
        }
        _emit(payload, args.out)
        print(f"tvk: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    r = len(report.partition.parts)
    payload = fileio.partition_payload(
        report.partition,
        ps.dim,
        {
            "command": "crossing",
            "n": len(ps),
            "r": r,
            "seed": args.seed,
            "measure": report.trace.measure,
            "trace": fileio.trace_payload(report.trace),
            "verdicts": report.verdicts,
            "discarded": report.discarded,
            "points": [[fileio.fmt_rat(c) for c in p] for p in ps.points],
        },
    )
    if extra:
        payload.update(extra)
    if args.svg_path:  # first, so an unwritable --svg path leaves no JSON behind
        _output(svg.render_partition(ps, report.partition, report.discarded), args.svg_path)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    ps = _read_points(args.input)
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        partition = fileio.partition_from_payload(data)
        discarded = data.get("discarded", [])
        if not isinstance(discarded, list):
            raise ValueError(f"malformed report: discarded is {discarded!r}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {args.report}: {exc}") from exc
    violations = verify_crossing_partition(ps, partition).violations
    placed = [*(i for part in partition.parts for i in part), *discarded]
    if not all(type(i) is int for i in placed) or sorted(placed) != list(range(len(ps))):
        violations.append(
            f"the parts and the discarded points do not cover 0..{len(ps) - 1} once each"
        )
    _emit({"command": "verify", "ok": not violations, "violations": violations}, args.out)
    return EXIT_VERIFY if violations else EXIT_OK


def cmd_parity(args: argparse.Namespace) -> int:
    ps = _read_points(args.input)
    o = _parse_point(args.point, ps.dim)
    count, even = parity_check(ps, o)
    _emit({"command": "parity", "count": count, "even": even}, args.out)
    return EXIT_OK


def cmd_cocycle(args: argparse.Namespace) -> int:
    ps = _read_points(args.input)
    o = _parse_point(args.point, ps.dim)
    result = cocycle_check(ps, o)
    payload = {
        "command": "cocycle",
        "ok": result.ok,
        "offending": list(result.offending) if result.offending else None,
    }
    _emit(payload, args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY


def cmd_link(args: argparse.Namespace) -> int:
    ps = _read_points(args.input)
    if ps.dim != 3 or len(ps) != 8:
        raise UsageError("link needs exactly 8 points in R^3 (two tetrahedra)")
    verdict = tetrahedra_face_linked((0, 1, 2, 3), (4, 5, 6, 7), ps)
    _emit({"command": "link", "verdict": verdict.value}, args.out)
    return EXIT_OK


def cmd_fs(args: argparse.Namespace) -> int:
    report = verify_linking_counterexample()
    payload = {
        "command": "fs",
        "origin_pair_count": report.origin_pair_count,
        "origin_pairs": [[list(f), list(g)] for f, g in report.origin_pairs],
        "linked_pairs": report.linked_pairs,
        "faces_intersect_pairs": report.faces_intersect_pairs,
        "falsified": report.falsified,
    }
    _emit(payload, args.out)
    return EXIT_OK if not report.falsified else EXIT_VERIFY


def cmd_gen(args: argparse.Namespace) -> int:
    if args.d < 1 or args.n < 1 or args.bound < 1:
        raise UsageError("--d, --n and --bound must be positive integers")
    ps = random_point_set(args.d, args.n, args.seed, bound=args.bound)
    _output(fileio.format_points(ps), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"tvk: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GeneralPositionViolated, PerturbationFailed) as exc:
        print(f"tvk: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SizeOutOfRange as exc:
        print(f"tvk: size gate: {exc}", file=sys.stderr)
        return EXIT_SIZE_GATE
    except TvkError as exc:
        print(f"tvk: error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
