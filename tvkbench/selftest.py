#!/usr/bin/env python3
"""Self-tests of the benchmark harness on a small fixed input.

    python3 tvkbench/selftest.py

Checks that two traced runs give exactly the same call and event counts,
that traced and untraced runs give the same output digest, that calls
through re-exported bindings (``tverberg.common_point``,
``apps.fix_all``) are seen, and that every binding of the ``tvk``
package is the original object again after a traced run. Exits 1 and
lists the failed checks otherwise.
"""
from __future__ import annotations

import sys
from contextlib import nullcontext

import run
from tracer import Tracer, package_modules, unrestored_bindings
from workloads import Shape, Workload

# One instance per pipeline branch: brute force in d=2 and d=3, the planar
# fast path with a discarded point, and extension of an oversized input.
CASES = (
    (Workload("bf-planar", "crossing_tverberg", (Shape(2, 8, 3),)), 5),
    (Workload("bf-d3", "crossing_tverberg", (Shape(3, 8, 2),)), 8),
    (Workload("simplices", "crossing_simplices", (Shape(2, 10, 3),)), 6),
    (Workload("extend", "crossing_tverberg", (Shape(2, 15, 4),)), 7),
)


def bindings():
    return {
        (mod.__name__, name): obj
        for mod in package_modules()
        for name, obj in vars(mod).items()
    }


def collect(tvk, tracer=None):
    """Samples and output digests of every case, traced when a tracer is
    given (then unverified), and the objects bound at
    ``tverberg.common_point`` and ``apps.fix_all`` during the run."""
    instances = [(w, run.build(tvk, run.generate(tvk, w, seed, 0))) for w, seed in CASES]
    with tracer or nullcontext():
        seen = (tvk.tverberg.common_point, tvk.apps.fix_all)
        runs = [
            run.run_loop(tvk, w, [inst], None, check=tracer is None)
            for w, inst in instances
        ]
    samples = [x for xs, _ in runs for x in xs]
    return samples, [outputs for _, outputs in runs], seen


def main() -> int:
    tvk = run.import_tvk()
    failures = []

    def check(ok, message):
        if not ok:
            failures.append(message)

    before = bindings()
    plain, plain_outputs, _ = collect(tvk)
    for sample in plain:
        check(sample.failure is None, f"seed {sample.seed}: {sample.failure}")

    counts = []
    for attempt in range(2):
        tracer = Tracer()
        _, traced_outputs, (common_point, fix_all) = collect(tvk, tracer)
        after = bindings()
        check(not unrestored_bindings(), f"run {attempt}: wrappers left behind")
        check(
            after.keys() == before.keys()
            and all(after[k] is before[k] for k in before),
            f"run {attempt}: a binding differs from the original after restore",
        )
        check(
            getattr(common_point, "tvkbench_traced", None) == "lp.common_point"
            and getattr(fix_all, "tvkbench_traced", None) == "fixing.fix_all",
            f"run {attempt}: re-exported bindings were not wrapped",
        )
        check(
            traced_outputs == plain_outputs,
            f"run {attempt}: traced digest differs from the untraced one",
        )
        c = tracer.deterministic_counts()
        check(c.get("tverberg.partitions_lp_checked", 0) > 0, "brute-force LPs not seen")
        check(c.get("lp.common_point", 0) > 0, "common_point calls via tverberg not seen")
        check(c.get("fixing.fix_all", 0) == len(CASES), "fix_all calls via apps not seen")
        check(c.get("tverberg.extend_partition", 0) == 1, "extension not seen")
        check(c.get("geometry.orientation", 0) > 0, "orientation counter not seen")
        check(
            "geometry.orientation" not in tracer.spans,
            "a count-only predicate got a span",
        )
        counts.append(c)
    check(counts[0] == counts[1], "deterministic counters differ between two traced runs")
    diff = sorted(
        k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k)
    )
    if diff:
        print(f"counters that differ: {diff}")

    for message in failures:
        print(f"FAIL {message}")
    print(f"selftest {'failed' if failures else 'ok'}: {len(counts[0])} counters compared")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
