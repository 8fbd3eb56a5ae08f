"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is an exact rational predicate; there are no tolerances. Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import random
import time
from itertools import combinations

import pytest

from tvk.cli import main as cli_main
from tvk.generate import random_extension, random_point_set
from tvk.geometry import PointSet
from tvk.fixing import cocycle_check, fix_all, parity_check
from tvk.lp import hull_contains, witness_violations
from tvk.tverberg import Partition, extend_partition, tverberg_partition_bruteforce
from tvk.apps import (
    crossing_simplices,
    crossing_tverberg,
    refine_witness,
    verify_crossing_partition,
    verify_linking_counterexample,
)

from cocycles import cocycle_generator_masks, mask_disjoint_pair_count
from conftest import NESTED_SIX, NINE_ONE_FIX, ref_radon


def _report(name, elapsed, detail=""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s) {detail}".rstrip())


# --- criterion 1: parity ------------------------------------------------------


def test_criterion_1_parity_suite():
    t0 = time.time()
    runs = 0
    for d in (1, 2, 3):
        origin = (0,) * d
        for i in range(500):
            ps = random_extension(PointSet(d, [origin]), 2 * (d + 1), seed=10_000 * d + i)
            ps = ps.take(range(1, len(ps)))
            count, even = parity_check(ps, origin)
            assert even and count % 2 == 0
            runs += 1
    elapsed = time.time() - t0
    assert runs == 1500
    assert elapsed < 30, f"parity suite took {elapsed:.1f}s (budget 30s)"
    _report("1 parity d=1,2,3 x500", elapsed)


# --- criterion 2: cocycle ------------------------------------------------------


def test_criterion_2_cocycle_suite():
    t0 = time.time()
    for d in (2, 3):
        origin = (0,) * d
        rng = random.Random(d)
        for i in range(200):
            n = rng.randint(d + 2, 10)
            ps = random_extension(PointSet(d, [origin]), n, seed=20_000 * d + i)
            ps = ps.take(range(1, n + 1))
            assert cocycle_check(ps, origin).ok
    elapsed = time.time() - t0
    assert elapsed < 60, f"cocycle suite took {elapsed:.1f}s (budget 60s)"
    _report("2 cocycle d=2,3 x200", elapsed)


# --- criterion 3: abstract even pairing -----------------------------------------


def test_criterion_3_abstract_even_pairing():
    t0 = time.time()
    checked = 0
    for k in (2, 3):
        n = 2 * k
        subsets, gens = cocycle_generator_masks(n, k)
        seen = set()
        for mask_bits in range(2 ** len(gens)):
            fam = 0
            for g_idx, g in enumerate(gens):
                if mask_bits >> g_idx & 1:
                    fam ^= g
            if fam in seen:
                continue
            seen.add(fam)
            assert mask_disjoint_pair_count(fam, subsets, n) % 2 == 0
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10, f"even-pairing suite took {elapsed:.1f}s (budget 10s)"
    _report("3 abstract even pairing k=2,3", elapsed, f"cocycles={checked}")


# --- criterion 4 (+6, +9 share the outputs) -------------------------------------


@pytest.fixture(scope="module")
def criterion4_runs():
    d2 = []
    t0 = time.time()
    for r in range(2, 9):
        for i in range(50):
            seed = 40_000 + 100 * r + i
            ps = random_point_set(2, 3 * r, seed=seed)
            rep = crossing_tverberg(ps, r, seed=seed)
            assert verify_crossing_partition(ps, rep.partition).ok, (r, i)
            d2.append((ps, rep))
    d2_elapsed = time.time() - t0
    t1 = time.time()
    d3 = []
    for r in (2, 3):
        for i in range(50):
            seed = 50_000 + 100 * r + i
            ps = random_point_set(3, 4 * r, seed=seed)
            rep = crossing_tverberg(ps, r, seed=seed)
            assert verify_crossing_partition(ps, rep.partition).ok, (r, i)
            d3.append((ps, rep))
    d3_elapsed = time.time() - t1
    return d2, d3, d2_elapsed, d3_elapsed


def test_criterion_4_end_to_end(criterion4_runs):
    d2, d3, d2_elapsed, d3_elapsed = criterion4_runs
    assert len(d2) == 350 and len(d3) == 100
    assert d2_elapsed < 120, f"d=2 suite took {d2_elapsed:.1f}s (budget 120s)"
    assert d3_elapsed < 600, f"d=3 suite took {d3_elapsed:.1f}s (budget 600s)"
    fixes2 = sum(rep.trace.iterations for _, rep in d2)
    fixes3 = sum(rep.trace.iterations for _, rep in d3)
    _report(
        "4 end-to-end d=2 r=2..8, d=3 r=2,3 x50",
        d2_elapsed + d3_elapsed,
        f"fixes d2={fixes2} d3={fixes3}",
    )


# --- criterion 5: floor(n/3) crossing triangles -----------------------------------


def test_criterion_5_crossing_triangles_desk_scale():
    t0 = time.time()
    for n in range(7, 26):
        ps = random_point_set(2, n, seed=60_000 + n)
        rep = crossing_simplices(ps, seed=n)
        parts = rep.partition.parts
        assert len(parts) == n // 3
        assert all(len(p) == 3 for p in parts)
        assert verify_crossing_partition(ps, rep.partition).ok
        o = rep.partition.witness.point
        from tvk.fixing import classify_pair

        for a, b in combinations(parts, 2):
            assert classify_pair(a, b, ps, o).kind == "crossing"
        assert n // 3 > n // 6  # strictly beats the halved baseline for n >= 7
    elapsed = time.time() - t0
    _report("5 floor(n/3) triangles n=7..25", elapsed)


# --- criterion 6: termination instrumentation --------------------------------------


def test_criterion_6_lexicographic_decrease(criterion4_runs):
    t0 = time.time()
    d2, d3, _, _ = criterion4_runs
    steps = 0
    for _, rep in d2 + d3:
        for step in rep.trace.steps:
            assert step.after < step.before  # strict decreasing-lex drop
            steps += 1
    # deliberately nested instances under both measures
    for measure in ("volume", "point-count"):
        for rows, parts in (
            (NESTED_SIX, [(0, 1, 2), (3, 4, 5)]),
            (NINE_ONE_FIX, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]),
        ):
            ps = PointSet(2, rows)
            w = refine_witness(parts, ps, seed=0)
            fixed, trace = fix_all(Partition(list(parts), w), ps, measure=measure)
            assert trace.iterations >= 1
            for step in trace.steps:
                assert step.after < step.before
            steps += trace.iterations
    # random instances under the point-count measure terminate as well
    for i in range(10):
        ps = random_point_set(2, 12, seed=61_000 + i)
        rep = crossing_tverberg(ps, 4, measure="point-count", seed=i)
        assert verify_crossing_partition(ps, rep.partition).ok
        steps += rep.trace.iterations
    elapsed = time.time() - t0
    _report("6 strict lex decrease (both measures)", elapsed, f"steps={steps}")


# --- criterion 7: built-in counterexample verification -------------------------------


def test_criterion_7_linking_counterexample():
    t0 = time.time()
    rep = verify_linking_counterexample()
    elapsed = time.time() - t0
    assert rep.origin_pair_count >= 2
    assert rep.origin_pair_count % 2 == 0
    assert rep.linked_pairs == 0
    assert not rep.falsified
    assert elapsed < 5, f"counterexample run took {elapsed:.1f}s (budget 5s)"
    _report("7 8-point linking counterexample", elapsed,
            f"pairs={rep.origin_pair_count} linked=0")


# --- criterion 8: Radon correctness ---------------------------------------------------


def test_criterion_8_radon_correctness():
    # d+2 points in general position have one partition into two parts whose
    # hulls meet, the Radon partition, so the search must return it
    t0 = time.time()
    for d in (1, 2, 3, 4):
        for i in range(200):
            ps = random_point_set(d, d + 2, seed=70_000 * d + i, bound=2000)
            p = tverberg_partition_bruteforce(ps, 2)
            assert p == ref_radon(ps)
            assert witness_violations(p.witness, p.parts, ps) == []
            for part in p.parts:
                assert hull_contains(p.witness.point, part, ps)
    elapsed = time.time() - t0
    assert elapsed < 10, f"radon suite took {elapsed:.1f}s (budget 10s)"
    _report("8 radon d=1..4 x200", elapsed)


# --- criterion 9: extension preserves crossings ----------------------------------------


def test_criterion_9_extension(criterion4_runs):
    t0 = time.time()
    d2, _, _, _ = criterion4_runs
    small = [(ps, rep) for ps, rep in d2 if len(rep.partition.parts) <= 4]
    rng = random.Random(90)
    runs = 0
    for i in range(100):
        ps, rep = small[i % len(small)]
        k = 1 + rng.randint(0, 3)
        grown = random_extension(ps, k, seed=80_000 + i)
        partition = rep.partition
        n0 = len(ps)
        current = partition
        for j in range(k):
            current = extend_partition(current, [n0 + j], grown)
            assert verify_crossing_partition(grown, current).ok, (i, j)
        runs += 1
    elapsed = time.time() - t0
    assert runs == 100
    _report("9 extension 100 runs, 1-4 insertions", elapsed)


# --- criterion 10: determinism ----------------------------------------------------------


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.time()
    gen_a = tmp_path / "a.txt"
    gen_b = tmp_path / "b.txt"
    assert cli_main(["gen", "--d", "2", "--n", "9", "--seed", "3",
                     "--out", str(gen_a)]) == 0
    assert cli_main(["gen", "--d", "2", "--n", "9", "--seed", "3",
                     "--out", str(gen_b)]) == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()
    out_a = tmp_path / "ca.json"
    out_b = tmp_path / "cb.json"
    for out in (out_a, out_b):
        assert cli_main(["crossing", "--input", str(gen_a), "--r", "3",
                         "--seed", "5", "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    fs_a = tmp_path / "fa.json"
    fs_b = tmp_path / "fb.json"
    for out in (fs_a, fs_b):
        assert cli_main(["fs", "--out", str(out)]) == 0
    assert fs_a.read_bytes() == fs_b.read_bytes()
    capsys.readouterr()
    elapsed = time.time() - t0
    _report("10 byte-identical reruns", elapsed)
