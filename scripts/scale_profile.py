#!/usr/bin/env python3
"""Per-stage wall time and peak RSS of planar `crossing_simplices` at scale.

Each n runs in a fresh Python process, so one size's memory does not carry
into the next one's peak. The process builds `random_point_set(2, n, seed)`
and runs `crossing_simplices` on it once, with its stages timed by wrapping
their `tvk.apps` bindings: the general-position gate
(`require_general_position`), the partition (`bounded_partition`), the
witness (`refine_witness`), fixing (`fix_all`) and the verification
(`verify_crossing_partition`). After each stage it reads the peak RSS of
the process (`resource.getrusage`, ru_maxrss, in KiB on Linux) and the LP
solves the stage ran (`lp.solve_feasibility`): the witness runs exactly
one, since each of its shifts is decided first by clipping the shrunk
parts (`geometry._planar_hulls_meet`, timed in total below the table).
Nothing in the package is changed; the pipeline's own verification still
checks the result.

Usage: python3 scripts/scale_profile.py [--n 480 960] [--seed 1] [--measure volume]
"""
import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

STAGES = (
    ("gate", "require_general_position"),
    ("partition", "bounded_partition"),
    ("witness", "refine_witness"),
    ("fixing", "fix_all"),
    ("verify", "verify_crossing_partition"),
)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def profile(n: int, seed: int, measure: str) -> None:
    """Run one instance in this process and print its stage table."""
    from tvk import apps, lp
    from tvk.generate import random_point_set

    solves, decisions = [], []
    solve, meet = lp.solve_feasibility, lp._planar_hulls_meet

    def counted_solve(prob):
        solves.append(None)  # keeping prob would hold the LP and raise the peak RSS
        return solve(prob)

    def timed_meet(hulls):
        start = time.perf_counter()
        result = meet(hulls)
        decisions.append(time.perf_counter() - start)
        return result

    lp.solve_feasibility, lp._planar_hulls_meet = counted_solve, timed_meet
    rows = []
    for label, name in STAGES:
        real = getattr(apps, name)

        def timed(*args, real=real, label=label, **kwargs):
            start, before = time.perf_counter(), len(solves)
            result = real(*args, **kwargs)
            seconds = time.perf_counter() - start
            rows.append((label, seconds, peak_rss_mib(), len(solves) - before))
            return result

        setattr(apps, name, timed)
    ps = random_point_set(2, n, seed)
    start = time.perf_counter()
    report = apps.crossing_simplices(ps, measure=measure)
    total = time.perf_counter() - start
    print(
        f"n={n} seed={seed} measure={measure}: {len(report.partition.parts)} triangles, "
        f"{report.trace.iterations} fixing steps, {total:.2f} s in crossing_simplices"
    )
    print(f"  {'stage':<10} {'wall_s':>8} {'peak_rss_mib':>13} {'lp_solves':>10}")
    for label, seconds, rss, lps in rows:
        print(f"  {label:<10} {seconds:>8.3f} {rss:>13.1f} {lps:>10}")
    print(f"  witness shift decisions: {len(decisions)} in {sum(decisions):.3f} s")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--n", type=int, nargs="+", default=[480, 960])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--measure", choices=("volume", "point-count"), default="volume")
    ap.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.in_process:
        for n in args.n:
            profile(n, args.seed, args.measure)
        return 0
    for n in args.n:
        child = [sys.executable, __file__, "--in-process", "--n", str(n)]
        child += ["--seed", str(args.seed), "--measure", args.measure]
        if subprocess.run(child).returncode:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
