"""Each scan over pairs or families of parts prepares each part's membership
test (`lp._hull_test`) at most once per call: `fix_all` with the walks of
its steps, the independent verifier and extension; the planar brute force
builds none. Builds are counted through every module binding of `_hull_test`."""
from collections import Counter

import pytest

from tvk import apps, fixing, lp, tverberg
from tvk.generate import random_extension, random_point_set
from tvk.lp import Partition
from tvk.tverberg import _Search, bounded_partition, extend_partition


@pytest.fixture
def builds(monkeypatch):
    """The parts, sorted, whose membership test is built, with their counts."""
    counts, real = Counter(), lp._hull_test

    def counting(indices, ps):
        counts[tuple(sorted(indices))] += 1
        return real(indices, ps)

    for module in (lp, fixing, apps, tverberg):
        monkeypatch.setattr(module, "_hull_test", counting)
    return counts


def scan(builds, fn, *args):
    """fn's result and the builds of that one call."""
    builds.clear()
    result = fn(*args)
    return result, Counter(builds)


def test_fix_all_prepares_each_part_once(builds):
    # n = 33, seed 4 takes three fixing steps
    ps = random_point_set(2, 33, seed=4)
    parts = bounded_partition(ps, 11).parts
    witness = apps.refine_witness(parts, ps)
    (_, trace), built = scan(builds, fixing.fix_all, Partition(parts, witness), ps)
    assert trace.iterations == 3
    assert max(built.values()) == 1
    # the 11 parts, and the walk's splits up to the crossing one of each step
    assert len(built) > 11 + 2 * 3


def test_verifier_prepares_each_part_once(builds):
    ps = random_point_set(2, 33, seed=4)
    partition = apps.crossing_simplices(ps).partition
    report, built = scan(builds, apps.verify_crossing_partition, ps, partition)
    assert report.ok
    assert built == Counter(partition.parts)


def test_extension_prepares_each_part_once(builds):
    ps = random_point_set(2, 9, seed=9)
    partition = apps.crossing_tverberg(ps, 3, seed=0).partition
    grown = random_extension(ps, 3, seed=10)
    extended, built = scan(builds, extend_partition, partition, [9, 10, 11], grown)
    assert len(extended.parts) == 3
    assert max(built.values()) == 1


def test_planar_brute_force_prepares_no_hull_test(builds):
    # the bruteforce-planar shape: d = 2, r = 3, n = 7, no fast path; the
    # search clips the parts' frame points and builds no membership test
    ps = random_point_set(2, 7, seed=1)
    found, built = scan(builds, _Search(ps, 3).first)
    assert found is not None
    assert not built


@pytest.mark.parametrize("seed", [0, 4])
def test_planar_scale_scans_prepare_each_part_once(builds, monkeypatch, seed):
    """On a planar-scale instance (n = 33) no scan of the pipeline builds a
    part's test twice; seed 4 takes three fixing steps, seed 0 none."""
    per_scan = []
    for name in ("fix_all", "verify_crossing_partition"):
        real = getattr(apps, name)

        def scanned(*args, real=real, **kwargs):
            builds.clear()
            result = real(*args, **kwargs)
            per_scan.append(Counter(builds))
            return result

        monkeypatch.setattr(apps, name, scanned)
    apps.crossing_simplices(random_point_set(2, 33, seed=seed))
    assert len(per_scan) == 2  # fix_all, then the pipeline's one verification
    assert all(max(built.values()) == 1 for built in per_scan)
