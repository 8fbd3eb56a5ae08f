"""Abstract cocycles over index sets, used only by the tests.

A k-cochain is a family of k-subsets of a finite universe; it is a cocycle
when every (k+1)-subset contains an even number of its members. The
frozenset functions are the readable reference; the bitmask functions
enumerate every cocycle on small universes quickly (XOR of generators is
symmetric difference of families).
"""
from itertools import combinations
from typing import Iterable, Sequence


def delta_cocycle(universe: Sequence[int], d_set: Sequence[int]) -> frozenset:
    """Generator cocycle: all k-sets containing the fixed (k-1)-set."""
    d_set = frozenset(d_set)
    rest = [v for v in universe if v not in d_set]
    return frozenset(d_set | {v} for v in rest) if rest else frozenset()


def is_cocycle(family: Iterable[frozenset], universe: Sequence[int], k: int) -> bool:
    fam = set(frozenset(f) for f in family)
    for m in combinations(universe, k + 1):
        count = sum(1 for f in combinations(m, k) if frozenset(f) in fam)
        if count % 2 != 0:
            return False
    return True


def generated_cocycles(universe: Sequence[int], k: int):
    """All symmetric-difference sums of delta generators, as frozensets of k-sets."""
    gens = [delta_cocycle(universe, d) for d in combinations(universe, k - 1)]
    seen = set()
    for mask in range(2 ** len(gens)):
        fam = frozenset()
        for i, g in enumerate(gens):
            if mask >> i & 1:
                fam = fam ^ g
        if fam not in seen:
            seen.add(fam)
            yield fam


def disjoint_pair_count(family: Iterable[frozenset], universe: Sequence[int]) -> int:
    """Number of unordered pairs {F, G} in the family with F, G disjoint."""
    fam = set(frozenset(f) for f in family)
    total = 0
    for f, g in combinations(sorted(fam, key=sorted), 2):
        if not (f & g):
            total += 1
    return total


def cocycle_generator_masks(n: int, k: int):
    """Bitmask form of the generator cocycles over universe range(n).

    Returns (subsets, gens): `subsets` lists all k-subsets, and each
    generator is an int whose bits select the k-sets containing one fixed
    (k-1)-set.
    """
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    gens = []
    for d in combinations(range(n), k - 1):
        mask = 0
        for v in range(n):
            if v not in d:
                mask |= 1 << index[tuple(sorted(d + (v,)))]
        gens.append(mask)
    return subsets, gens


def mask_disjoint_pair_count(mask: int, subsets, n: int) -> int:
    """Complementary-pair count of a bitmask family on a 2k-element universe."""
    index = {s: i for i, s in enumerate(subsets)}
    full = frozenset(range(n))
    total = 0
    for i, s in enumerate(subsets):
        comp = tuple(sorted(full - frozenset(s)))
        j = index[comp]
        if i < j and (mask >> i & 1) and (mask >> j & 1):
            total += 1
    return total


def mask_to_family(mask: int, subsets):
    return frozenset(frozenset(subsets[i]) for i in range(len(subsets)) if mask >> i & 1)
