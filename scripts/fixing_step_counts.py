#!/usr/bin/env python3
"""Measure how many fixing steps the crossing pipeline needs.

How often do random inputs start nested? Runs seeded batches under both
measures and prints a small table. The measure only checks each step, it
never picks the nested pair or the split, so both rows must show the same
step distribution; the script exits 1 when they differ.

Usage: python scripts/fixing_step_counts.py [--d 2] [--r 4] [--instances 50] [--seed 0]
"""
import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tvk.apps import crossing_tverberg, verify_crossing_partition
from tvk.generate import random_point_set


def run_batch(d, r, instances, seed, measure):
    counts = Counter()
    elapsed = 0.0
    for i in range(instances):
        ps = random_point_set(d, (d + 1) * r, seed=seed + i)
        t0 = time.perf_counter()
        rep = crossing_tverberg(ps, r, measure=measure, seed=seed + i)
        elapsed += time.perf_counter() - t0
        report = verify_crossing_partition(ps, rep.partition)
        if not report.ok:
            sys.exit(f"verification failed (seed {seed + i}, {measure}): {report.violations}")
        counts[rep.trace.iterations] += 1
    return counts, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--r", type=int, default=4)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"d={args.d} r={args.r} n={(args.d + 1) * args.r} instances={args.instances}")
    dists = []
    for measure in ("volume", "point-count"):
        counts, elapsed = run_batch(args.d, args.r, args.instances, args.seed, measure)
        dists.append(counts)
        total = sum(k * v for k, v in counts.items())
        dist = " ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        print(
            f"  measure={measure:<11} steps total={total:<4} "
            f"distribution[steps:instances]={dist}  ({elapsed:.1f}s)"
        )
    if dists[0] != dists[1]:
        sys.exit("the step distributions differ between the measures")


if __name__ == "__main__":
    main()
