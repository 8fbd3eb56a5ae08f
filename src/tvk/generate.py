"""Seeded random rational point sets in guaranteed general position."""
from __future__ import annotations

import random
from typing import Optional

from .errors import PerturbationFailed
from .geometry import PointSet, gp_violations_with_extra, mk_point

# candidate draws allowed before point generation gives up
MAX_TRIES = 10000


def random_point_set(d: int, n: int, seed: int, bound: int = 10000) -> PointSet:
    """n integer-coordinate points in R^d, no d+1 on a common hyperplane.

    Candidates are drawn uniformly from [-bound, bound]^d and rejected when
    they would violate general position against the accepted points.
    Deterministic for a fixed seed.
    """
    pts = _draw(random.Random(seed), d, [], n, bound)
    if pts is None:
        raise PerturbationFailed(
            f"could not place {n} general-position points (seed={seed})"
        )
    return PointSet(d, pts)


def random_extension(ps: PointSet, k: int, seed: int, bound: int = 10000) -> PointSet:
    """ps plus k fresh points, keeping the whole set in general position."""
    pts = _draw(random.Random(seed), ps.dim, ps.points, k, bound)
    if pts is None:
        raise PerturbationFailed(
            f"could not extend by {k} general-position points (seed={seed})"
        )
    return PointSet(ps.dim, pts)


def _draw(rng, d, pool, k, bound) -> Optional[list]:
    """pool plus k candidates drawn from [-bound, bound]^d and kept when they
    leave the pool in general position; None once MAX_TRIES draws are spent
    or every grid point was drawn, and at once when k exceeds
    d * (2 * bound + 1): in general position each grid slice x_1 = c holds
    at most d points. A repeated draw is skipped unscanned: a rejected
    candidate stays rejected as the pool grows, and an accepted one now
    coincides with a pooled point."""
    if k > d * (2 * bound + 1):
        return None
    pts = list(pool)
    target = len(pts) + k
    drawn = set()
    tries = 0
    while len(pts) < target:
        tries += 1
        if tries > MAX_TRIES or len(drawn) == (2 * bound + 1) ** d:
            return None
        cand = mk_point(tuple(rng.randint(-bound, bound) for _ in range(d)))
        if cand in drawn:
            continue
        drawn.add(cand)
        if gp_violations_with_extra(pts, cand):
            continue
        pts.append(cand)
    return pts
