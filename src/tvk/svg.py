"""Deterministic SVG rendering of planar partitions.

Fixed 800x800 viewport, bounding-box fit with a 5% margin, one unfilled
colored polygon per part, input points as dots, the witness as a cross
marker. No timestamps or random ids: identical inputs render identical
bytes.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch
from .geometry import PointSet, angular_order, longest_side
from .lp import Partition, hull_contains

VIEW = 800
MARGIN = Fraction(5, 100)

PALETTE = [
    "#c0392b",
    "#2980b9",
    "#27ae60",
    "#8e44ad",
    "#d35400",
    "#16a085",
    "#7f8c8d",
    "#f39c12",
    "#2c3e50",
    "#e84393",
]


def _fit(ps: PointSet):
    lo_x = min(p[0] for p in ps.points)
    lo_y = min(p[1] for p in ps.points)
    span = longest_side(ps.points)
    pad = span * MARGIN
    span += 2 * pad
    scale = Fraction(VIEW) / span

    def to_screen(p):
        x = (p[0] - lo_x + pad) * scale
        y = VIEW - (p[1] - lo_y + pad) * scale
        return float(x), float(y)

    return to_screen


def render_partition(ps: PointSet, partition: Partition, discarded=None) -> str:
    if ps.dim != 2:
        raise DimensionMismatch("SVG rendering is planar only")
    to_screen = _fit(ps)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff"/>',
    ]
    for k, part in enumerate(partition.parts):
        color = PALETTE[k % len(PALETTE)]
        ordered = _ccw_hull_order([ps.points[i] for i in _hull_vertices(part, ps)])
        coords = " ".join(
            f"{x:.3f},{y:.3f}" for x, y in (to_screen(p) for p in ordered)
        )
        out.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    skip = set(discarded or [])
    for i, p in enumerate(ps.points):
        x, y = to_screen(p)
        fill = "#bbbbbb" if i in skip else "#000000"
        out.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="{fill}"/>')
        out.append(
            f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" font-size="12" '
            f'font-family="monospace">{i}</text>'
        )
    if partition.witness is not None:
        x, y = to_screen(partition.witness.point)
        arm = 7
        out.append(
            f'<line x1="{x - arm:.3f}" y1="{y:.3f}" x2="{x + arm:.3f}" y2="{y:.3f}" '
            'stroke="#000000" stroke-width="2"/>'
        )
        out.append(
            f'<line x1="{x:.3f}" y1="{y - arm:.3f}" x2="{x:.3f}" y2="{y + arm:.3f}" '
            'stroke="#000000" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _hull_vertices(part, ps: PointSet) -> list:
    """The part's points outside the hull of its points elsewhere."""
    return [
        i
        for i in part
        if not hull_contains(ps.points[i], [j for j in part if ps.points[j] != ps.points[i]], ps)
    ]


def _ccw_hull_order(points):
    """Hull vertices in drawing order: angular order around their centroid,
    and a point at the centroid (the one point of a part) last."""
    n = len(points)
    c = (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n)
    moved = [p for p in points if p != c]
    order = angular_order([(p[0] - c[0], p[1] - c[1]) for p in moved])
    return [moved[i] for i in order] + [p for p in points if p == c]
