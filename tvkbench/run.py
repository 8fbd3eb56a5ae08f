#!/usr/bin/env python3
"""Closed-loop benchmark of the tvk crossing-partition pipelines.

    python3 tvkbench/run.py --workload planar-scale --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ``tvk`` is imported from ``src/``. One
caller runs one pipeline call at a time on a stream of seeded inputs
(``workloads.py``) until the calls have been busy for ``--seconds``.
``TVK_THREADS`` is removed from the environment, so the brute force uses
its default single worker.

Times are wall times scaled to a fixed host speed: a pure-Python kernel
(``hostspeed.py``) is timed between the calls, and each call's time is
multiplied by ``hostspeed.REFERENCE_S`` over the kernel's time around it.
This takes out the slow phases of a shared host, which stretch the kernel
and tvk alike.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs
a third of the time untraced, then the same instances untraced again and
once more with every public function of the layer modules wrapped
(``tracer.py``), and prints the per-layer metrics of the traced pass,
normalised per instance. All three passes must give identical outputs.

Every output is checked outside the timed call: the independent verifier
``apps.verify_crossing_partition``, the part count r, and that exactly the
expected points are used. Human-readable lines come first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import hostspeed
from tracer import Tracer, unrestored_bindings
from workloads import WORKLOADS, Shape, Workload, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
SEGMENT_S = 0.1  # call time between two timings of the host kernel
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SLOWEST = 3

# Prints the import time and the host kernel's time around it; the first
# kernel run warms the interpreter up and is not used.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import hostspeed as h; "
    "h.kernel_seconds(); k = h.kernel_seconds(); t = time.perf_counter(); "
    "import tvk; s = time.perf_counter() - t; print(s, (k + h.kernel_seconds()) / 2)"
)


@dataclass
class Instance:
    index: int
    shape: Shape
    seed: int
    coords: list  # integer coordinate tuples
    ps: object = None  # tvk.geometry.PointSet built from coords


@dataclass
class Sample:
    """What is kept of one call: no points or report, so memory stays flat."""

    index: int
    shape: Shape
    seed: int
    wall_s: float
    seconds: Optional[float] = None  # wall_s at reference speed, see run_loop
    fix_steps: Optional[int] = None
    failure: Optional[str] = None  # why the call raised or its output is wrong


def import_tvk():
    if not (SRC / "tvk" / "__init__.py").is_file():
        sys.exit(f"tvkbench: no tvk sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import tvk
    import tvk.fileio  # the package does not import its serialisation module

    if Path(tvk.__file__).resolve().parent != SRC / "tvk":
        sys.exit(f"tvkbench: imported tvk from {tvk.__file__}, not {SRC}")
    return tvk


# --- inputs and set-up ---------------------------------------------------


def generate(tvk, workload: Workload, seed: int, index: int) -> Instance:
    shape = workload.shapes[index % len(workload.shapes)]
    s = instance_seed(seed, index)
    points = tvk.generate.random_point_set(shape.d, shape.n, seed=s).points
    return Instance(index, shape, s, [tuple(int(c) for c in p) for p in points])


def build(tvk, instance: Instance) -> Instance:
    instance.ps = tvk.geometry.PointSet(instance.shape.d, instance.coords)
    return instance


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    seconds, kernel = map(float, done.stdout.split())
    return hostspeed.scale(seconds, kernel)


def build_seconds(tvk, first_round) -> float:
    before = hostspeed.kernel_seconds()
    t0 = time.perf_counter()
    for inst in first_round:
        tvk.geometry.PointSet(inst.shape.d, inst.coords)
    seconds = time.perf_counter() - t0
    return hostspeed.scale(seconds, (before + hostspeed.kernel_seconds()) / 2)


def setup_seconds(tvk, first_round) -> float:
    """Median import time plus median time to build one round of PointSets."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = [build_seconds(tvk, first_round) for _ in range(SETUP_REPEATS)]
    return statistics.median(imports) + statistics.median(builds)


def instance_stream(tvk, workload: Workload, seed: int, first_round):
    """Instances in index order; the first round was generated in set-up."""
    start = len(first_round)
    rest = (generate(tvk, workload, seed, i) for i in itertools.count(start))
    for inst in itertools.chain(first_round, rest):
        yield build(tvk, inst)


# --- the closed loop -----------------------------------------------------


def call_pipeline(tvk, workload: Workload, inst: Instance):
    # looked up on every call, so the tracer's wrappers are used when installed
    if workload.pipeline == "crossing_simplices":
        return tvk.apps.crossing_simplices(inst.ps)
    return tvk.apps.crossing_tverberg(inst.ps, inst.shape.r)


def payload_json(tvk, inst: Instance, report) -> str:
    return tvk.fileio.dump_json(
        tvk.fileio.partition_payload(
            report.partition,
            inst.shape.d,
            {
                "n": inst.shape.n,
                "r": inst.shape.r,
                "seed": inst.seed,
                "measure": report.trace.measure,
                "trace": tvk.fileio.trace_payload(report.trace),
                "verdicts": report.verdicts,
                "discarded": report.discarded,
            },
        )
    )


def run_loop(tvk, workload: Workload, instances, budget: Optional[float], check=True):
    """One caller: each call starts after the previous returned.

    Stops before the next instance once the calls have been busy for
    ``budget`` wall seconds (``None``: run every given instance).
    Serialising and, with ``check``, verifying each output happen between
    calls and are not timed; only the samples and the output digest are
    kept. The host kernel is timed before the first call and after every
    SEGMENT_S of call time; the calls in between get ``seconds`` scaled by
    the mean of the two kernel times. Returns (samples, hex SHA-256 over
    the serialised outputs).
    """
    samples = []
    busy = 0.0
    outputs = hashlib.sha256()
    kernel = hostspeed.kernel_seconds()
    segment = []

    def close_segment():
        nonlocal kernel
        after = hostspeed.kernel_seconds()
        for x in segment:
            x.seconds = hostspeed.scale(x.wall_s, (kernel + after) / 2)
        kernel = after
        segment.clear()

    for inst in instances:
        if budget is not None and busy >= budget:
            break
        start = time.perf_counter()
        try:
            report, error = call_pipeline(tvk, workload, inst), None
        except Exception as exc:  # a failed instance is counted, not fatal
            report, error = None, repr(exc)
        wall = time.perf_counter() - start
        busy += wall
        sample = Sample(inst.index, inst.shape, inst.seed, wall, failure=error)
        samples.append(sample)
        segment.append(sample)
        if report is None:
            outputs.update(f"error {error}\n".encode())
        else:
            outputs.update(payload_json(tvk, inst, report).encode())
            sample.fix_steps = report.trace.iterations
            sample.failure = failure(tvk, workload, inst, report) if check else None
        if sum(x.wall_s for x in segment) >= SEGMENT_S:
            close_segment()
    if segment:
        close_segment()
    return samples, outputs.hexdigest()


def failure(tvk, workload: Workload, inst: Instance, report) -> Optional[str]:
    """Why the output is wrong, or None."""
    d, n, r = inst.shape.d, inst.shape.n, inst.shape.r
    parts = report.partition.parts
    if threading.active_count() > 1:
        # work left running between calls would slow the host kernel too
        return "threads still running after the call"
    check = tvk.apps.verify_crossing_partition(inst.ps, report.partition)
    if not check.ok:
        return f"verifier: {check.violations[:3]}"
    if len(parts) != r:
        return f"{len(parts)} parts, expected {r}"
    used = sorted(i for part in parts for i in part)
    if workload.pipeline == "crossing_simplices":
        expected_discard = list(range(n - n % (d + 1), n))
        if report.discarded != expected_discard:
            return f"discarded {report.discarded}, expected {expected_discard}"
        if any(len(part) != d + 1 for part in parts):
            return "a part is not a simplex"
        expected = [i for i in range(n) if i not in expected_discard]
    else:
        expected = list(range(n))
    if used != expected:
        return "the parts do not use exactly the expected points"
    return None


# --- metrics -------------------------------------------------------------


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, m: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, per traced instance."""
    span, count = tr.spans, tr.counts

    def calls(key):
        return ("count/inst", ratio(tr.calls(key), m))

    def busy(key):
        return ("s/inst", ratio(span[key].busy, m))

    def self_s(key):
        return ("s/inst", ratio(span[key].self_time, m))

    enumerated = count["tverberg.iter_bounded_partitions.items"]
    checked = count["tverberg.partitions_lp_checked"]
    out = {
        "apps.refine_witness.self_s": self_s("apps.refine_witness"),
        "apps.refine_witness.calls": calls("apps.refine_witness"),
        "apps.verify_crossing_partition.calls": calls("apps.verify_crossing_partition"),
        "apps.verify_crossing_partition.busy_s": busy("apps.verify_crossing_partition"),
        "geometry.in_general_position.busy_s": busy("geometry.in_general_position"),
        "geometry.orientation.calls": calls("geometry.orientation"),
        "geometry.point_in_simplex.calls": calls("geometry.point_in_simplex"),
        "geometry.gp_violations_with_extra.calls": calls("geometry.gp_violations_with_extra"),
        "geometry.barycentric_coordinates.calls": calls("geometry.barycentric_coordinates"),
        "geometry.simplex_volume.calls": calls("geometry.simplex_volume"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.solve_unique.calls": calls("linalg.solve_unique"),
        "lp.solve_feasibility.calls": calls("lp.solve_feasibility"),
        "lp.solve_feasibility.busy_s": busy("lp.solve_feasibility"),
        "lp.solve_feasibility.feasible_ratio": (
            "ratio",
            ratio(count["lp.solve_feasibility.feasible"], tr.calls("lp.solve_feasibility")),
        ),
        "lp.common_point.calls": calls("lp.common_point"),
        "lp.common_point.busy_s": busy("lp.common_point"),
        "lp.relative_interior_witness.busy_s": busy("lp.relative_interior_witness"),
        "lp.relative_interior_witness.solves_per_call": (
            "solves/call",
            ratio(
                count["lp.relative_interior_witness.solves"],
                tr.calls("lp.relative_interior_witness"),
            ),
        ),
        "lp.hull_membership.calls": calls("lp.hull_membership"),
        "lp.hull_membership.busy_s": busy("lp.hull_membership"),
        "lp.hull_contains.calls": calls("lp.hull_contains"),
        "tverberg.tverberg_partition_bruteforce.self_s": self_s(
            "tverberg.tverberg_partition_bruteforce"
        ),
        "tverberg.partitions_enumerated": ("count/inst", ratio(enumerated, m)),
        "tverberg.partitions_lp_checked": ("count/inst", ratio(checked, m)),
        "tverberg.box_pruned_ratio": ("ratio", ratio(enumerated - checked, enumerated)),
        "tverberg.lp_hit_ratio": (
            "ratio",
            ratio(count["tverberg.partitions_lp_hits"], checked),
        ),
        "tverberg.centerpoint_planar.busy_s": busy("tverberg.centerpoint_planar"),
        "tverberg.birch_partition_planar.busy_s": busy("tverberg.birch_partition_planar"),
        "tverberg.birch_fallbacks": (
            "count/inst",
            ratio(count["tverberg.birch_fallbacks"], m),
        ),
        "tverberg.extend_partition.self_s": self_s("tverberg.extend_partition"),
        "fixing.fix_all.self_s": self_s("fixing.fix_all"),
        "fixing.steps": ("count/inst", ratio(count["fixing.steps"], m)),
        "fixing.classify_pair.calls": calls("fixing.classify_pair"),
        "fixing.classify_pair.busy_s": busy("fixing.classify_pair"),
        "fixing.hull_pair_verdict.calls": calls("fixing.hull_pair_verdict"),
        "fixing.unnest_pair.busy_s": busy("fixing.unnest_pair"),
        "fileio.dump_json.busy_s": busy("fileio.dump_json"),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in out.items()}


# --- environment ---------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, tvk_threads: Optional[str]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "TVK_THREADS": tvk_threads,
        "workload_seed": seed,
    }


# --- entry point ---------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    tvk_threads = os.environ.pop("TVK_THREADS", None)
    tvk = import_tvk()
    workload = WORKLOADS[args.workload]
    print(f"tvkbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, tvk_threads), sort_keys=True))

    first_round = [generate(tvk, workload, args.seed, i) for i in range(len(workload.shapes))]
    stream = instance_stream(tvk, workload, args.seed, first_round)
    if args.trace:
        return traced_run(tvk, workload, stream, args.seed, args.seconds)
    return untraced_run(tvk, workload, stream, args.seconds, setup_seconds(tvk, first_round))


def report_failures(samples) -> int:
    failed = [x for x in samples if x.failure is not None]
    for x in failed:
        print(f"FAILED instance {x.index} (seed {x.seed}): {x.failure}")
    return len(failed)


def untraced_run(tvk, workload, stream, seconds, setup_s) -> int:
    samples, outputs = run_loop(tvk, workload, stream, seconds)
    failed = report_failures(samples)
    times = [x.seconds for x in samples]
    tail_s, tail_pct = tail(times)
    metrics = {
        "instance_p50_s": {"value": statistics.median(times), "unit": "s"},
        "instance_tail_s": {"value": tail_s, "unit": "s"},
        "throughput_ips": {"value": (len(samples) - failed) / sum(times), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"instance_tail_s is p{tail_pct:.1f} of {len(times)} samples")
    walls = [x.wall_s for x in samples]
    print(f"unscaled wall time: p50 {statistics.median(walls):.6g} s, "
          f"throughput {(len(samples) - failed) / sum(walls):.6g} 1/s")
    print(f"failed_frac {ratio(failed, len(samples)):.6g} ({failed} of {len(samples)})")
    slowest = sorted(samples, key=lambda x: -x.seconds)[:SLOWEST]
    print("slowest " + json.dumps([
        {
            "d": x.shape.d,
            "n": x.shape.n,
            "r": x.shape.r,
            "seed": x.seed,
            "seconds": round(x.seconds, 6),
            "fix_steps": x.fix_steps,
        }
        for x in slowest
    ]))
    print(f"digest sha256:{outputs} over {len(samples)} instances")
    emit(not failed, len(samples), failed, metrics)
    return 1 if failed else 0


def traced_run(tvk, workload, stream, seed, seconds) -> int:
    plain, plain_outputs = run_loop(tvk, workload, stream, seconds / 3)

    def again():
        return [build(tvk, generate(tvk, workload, seed, x.index)) for x in plain]

    # The overhead baseline is an untraced pass under the traced pass's
    # conditions: after the first pass has warmed the interpreter up, on
    # inputs built beforehand, with no checks between the calls.
    base, base_outputs = run_loop(tvk, workload, again(), None, check=False)
    with Tracer() as tracer:
        bound = tracer.binding_count
        traced, traced_outputs = run_loop(tvk, workload, again(), None, check=False)
    left = unrestored_bindings()
    failed = report_failures(plain)
    same = plain_outputs == base_outputs == traced_outputs
    untraced_busy = sum(x.seconds for x in base)
    overhead = sum(x.seconds for x in traced) - untraced_busy
    print(f"digest untraced sha256:{plain_outputs} traced sha256:{traced_outputs} "
          f"over {len(plain)} instances: {'equal' if same else 'DIFFERENT'}")
    print(f"tracing overhead {overhead:.4f} s over {untraced_busy:.4f} s untraced "
          f"({100 * ratio(overhead, untraced_busy):.1f}%), {bound} bindings wrapped")
    if left:
        print(f"UNRESTORED bindings: {left}")
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = {"value": ratio(overhead, len(traced)), "unit": "s/inst"}
    metrics["trace.instances"] = {"value": float(len(traced)), "unit": "count"}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    top = sorted(tracer.spans.items(), key=lambda kv: -kv[1].self_time)[:12]
    print("top self time: " + ", ".join(f"{k} {v.self_time:.3f}s" for k, v in top))
    correct = not failed and same and not left
    emit(correct, len(plain), failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
