#!/usr/bin/env python3
"""SHA-256 digests of the pipeline's JSON output on the benchmark shapes.

Two checkouts whose digests agree give byte-identical partitions,
witnesses, fixing traces and verdicts on these inputs. Instance i of a
workload has shape ``shapes[i % len(shapes)]`` and points from
``random_point_set`` under the seed ``seed * 1_000_000 + i``, as in
``tvkbench/workloads.py``. Prints one line per workload, then the digest
of their digests in that order, then ``rational``: the digest of the same
instances, in the same order, each translated by ``SHIFT``. A translation
keeps general position, and it gives every instance a point frame with a
denominator, which the benchmark's integer points never have. It is kept
out of ``combined``.

Usage: python scripts/output_digest.py [--seed 7] [--instances N]
"""
import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tvk.apps import crossing_simplices, crossing_tverberg
from tvk.fileio import dump_json, partition_payload, trace_payload
from tvk.generate import random_point_set
from tvk.geometry import PointSet

# name: (pipeline, shapes as (d, n, r), default instance count)
WORKLOADS = {
    "planar-scale": ("crossing_simplices", [(2, n, n // 3) for n in (33, 34, 35)], 150),
    "planar-extend": (
        "crossing_tverberg",
        [(2, 3 * r + k, r) for r in (4, 5) for k in range(3, 7)],
        150,
    ),
    "bruteforce-d3": ("crossing_tverberg", [(3, n, 2) for n in (6, 7, 8)], 300),
    "bruteforce-planar": ("crossing_tverberg", [(2, 7, 3)], 300),
}
# d=3 with n = 4r+k: the extension tests membership in parts of five points,
# which only `hull_contains`' LP rule decides; no workload above reaches it
EXTENDED = {
    "d3-extend": (
        "crossing_tverberg",
        [(3, 4 * r + k, r) for r in (2, 3) for k in (1, 2)],
        200,
    ),
}

# the translation of the "rational" digest, its first d entries in R^d
SHIFT = (Fraction(1, 3), Fraction(-2, 7), Fraction(3, 11))


def payloads(name, seed, count, shifted=False):
    """The serialised output of the first `count` instances, in order,
    each translated by SHIFT when `shifted`."""
    pipeline, shapes, _ = {**WORKLOADS, **EXTENDED}[name]
    for i in range(count):
        d, n, r = shapes[i % len(shapes)]
        ps = random_point_set(d, n, seed=seed * 1_000_000 + i)
        if shifted:
            ps = PointSet(d, [tuple(c + s for c, s in zip(p, SHIFT)) for p in ps.points])
        if pipeline == "crossing_simplices":
            rep = crossing_simplices(ps)
        else:
            rep = crossing_tverberg(ps, r)
        extra = {"trace": trace_payload(rep.trace), "verdicts": rep.verdicts}
        yield dump_json(partition_payload(rep.partition, d, extra)).encode()


def digests(seed, count=None):
    """{workload: hex digest} plus "combined", the digest of the workload
    digests' bytes in turn, and "rational", the digest of every workload's
    translated outputs in turn, then "d3-extend"; `count` overrides every
    default count."""
    out = {}
    combined, rational = hashlib.sha256(), hashlib.sha256()
    for name, (_, _, default) in WORKLOADS.items():
        n = default if count is None else count
        h = hashlib.sha256()
        for blob in payloads(name, seed, n):
            h.update(blob)
        combined.update(h.digest())
        out[name] = h.hexdigest()
        for blob in payloads(name, seed, n, shifted=True):
            rational.update(blob)
    out["combined"] = combined.hexdigest()
    out["rational"] = rational.hexdigest()
    for name, (_, _, default) in EXTENDED.items():
        h = hashlib.sha256()
        for blob in payloads(name, seed, default if count is None else count):
            h.update(blob)
        out[name] = h.hexdigest()
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--instances", type=int, default=None,
                    help="instances per workload (default 150/150/300/300/200)")
    args = ap.parse_args()
    for name, value in digests(args.seed, args.instances).items():
        print(f"{name:<18} {value}")


if __name__ == "__main__":
    main()
