"""Point-file parsing and JSON serialization.

Point files: one point per line, whitespace-separated coordinates, each a
decimal literal or p/q; '#' starts a comment, blank lines are ignored, and
decimals are parsed as exact base-10 rationals.

JSON: rationals are serialized as "p/q" strings to preserve exactness, and
nothing time-dependent is ever written, so identical inputs give
byte-identical output.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .fixing import FixTrace
from .geometry import PointSet, rat
from .lp import Partition, Witness


def fmt_rat(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s: str) -> Fraction:
    return rat(s.strip())


def parse_points(text: str) -> PointSet:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(parse_rat(tok) for tok in line.split()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: cannot parse point: {exc}") from exc
    if not rows:
        raise ValueError("no points in input")
    return PointSet(len(rows[0]), rows)


def format_points(ps: PointSet) -> str:
    lines = [" ".join(str(c) for c in p) for p in ps.points]
    return "\n".join(lines) + "\n"


def witness_payload(w: Optional[Witness]):
    if w is None:
        return None
    return {
        "point": [fmt_rat(c) for c in w.point],
        "weights": [[fmt_rat(x) for x in row] for row in w.weights],
    }


def witness_from_payload(data) -> Optional[Witness]:
    if data is None:
        return None
    return Witness(
        tuple(parse_rat(c) for c in data["point"]),
        [[parse_rat(x) for x in row] for row in data["weights"]],
    )


def trace_payload(trace: Optional[FixTrace]):
    if trace is None:
        return []
    return [
        {
            "fixed": list(step.fixed),
            "volumes_before": [fmt_rat(v) for v in step.before],
            "volumes_after": [fmt_rat(v) for v in step.after],
        }
        for step in trace.steps
    ]


def partition_payload(partition: Partition, dim: int, extra=None) -> dict:
    out = {
        "dim": dim,
        "parts": [list(p) for p in partition.parts],
        "witness": witness_payload(partition.witness),
        "size_bounded": partition.size_bounded,
    }
    if extra:
        out.update(extra)
    return out


def partition_from_payload(data) -> Partition:
    """Partition read back from a report; ValueError when it is malformed."""
    try:
        size_bounded = data.get("size_bounded", True)
        if not isinstance(size_bounded, bool):
            raise ValueError(f"malformed report: size_bounded is {size_bounded!r}")
        return Partition(
            [tuple(p) for p in data["parts"]],
            witness_from_payload(data.get("witness")),
            size_bounded=size_bounded,
        )
    except (AttributeError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from exc


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
