"""The benchmark's workloads: which pipeline runs on which input shapes.

Each workload cycles through a fixed list of shapes (d, n, r); instance i
has shape ``shapes[i % len(shapes)]`` and points from
``tvk.generate.random_point_set`` under the seed ``instance_seed(seed, i)``.

The shapes are sized so that a run holds enough instances for its median
to move little when only the seed changes; BENCHMARK.json says why each
workload is there and README.md why the sizes are what they are.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    d: int
    n: int
    r: int


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "crossing_simplices" or "crossing_tverberg"
    shapes: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # Birch fast path; n covers every residue mod 3, so the discard runs.
        Workload(
            "planar-scale",
            "crossing_simplices",
            tuple(Shape(2, n, n // 3) for n in (33, 34, 35)),
        ),
        # n = 3r + k: fast path on the first 3r points, then extension.
        Workload(
            "planar-extend",
            "crossing_tverberg",
            tuple(Shape(2, 3 * r + k, r) for r in (4, 5) for k in range(3, 7)),
        ),
        # d=3 never takes the fast path.
        Workload(
            "bruteforce-d3",
            "crossing_tverberg",
            tuple(Shape(3, n, 2) for n in (6, 7, 8)),
        ),
        # n != 3r, so the planar fast path is skipped.
        Workload(
            "bruteforce-planar",
            "crossing_tverberg",
            (Shape(2, 7, 3),),
        ),
    )
}


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index
