"""The planar swap construction behind the parity of origin pairs, used
only by the tests as an independent proof that the count is even."""
from tvk.errors import GeneralPositionViolated, InternalError
from tvk.fixing import _require_origin_setup, enumerate_origin_pairs
from tvk.geometry import Point, PointSet, angular_order, mk_point, vsub


def swap_witness_planar(ps: PointSet, o: Point):
    """Two angularly consecutive same-side points and the swap matching.

    Mirrors the six points through o; two circularly consecutive directions
    of the same color must exist, and swapping the corresponding original
    points between parts matches the counted origin partitions in pairs.
    Returns (p, p_prime, matching) with the matching as a dict on canonical
    (F, G) pairs.
    """
    if ps.dim != 2:
        raise GeneralPositionViolated("swap construction is planar only")
    o = mk_point(o)
    _require_origin_setup(ps, o)
    n = len(ps)
    vectors = []
    owner = []  # (original index, is_mirror)
    for i, p in enumerate(ps.points):
        vectors.append(vsub(p, o))
        owner.append((i, False))
    for i, p in enumerate(ps.points):
        vectors.append(tuple(-c for c in vsub(p, o)))
        owner.append((i, True))
    order = angular_order(vectors)
    pair = None
    for k in range(len(order)):
        a, b = order[k], order[(k + 1) % len(order)]
        if owner[a][1] == owner[b][1]:
            pair = (owner[a][0], owner[b][0])
            break
    if pair is None:
        raise InternalError("alternating colors would force mirrored duplicates")
    p, p_prime = sorted(pair)
    counted = enumerate_origin_pairs(ps, o)
    matching = {}
    key = {frozenset((frozenset(f), frozenset(g))): (f, g) for f, g in counted}
    for f, g in counted:
        fs, gs = set(f), set(g)
        if p in fs and p_prime in fs or p in gs and p_prime in gs:
            raise InternalError(
                "consecutive same-side points inside one origin triple: predicate bug"
            )
        fs2 = (fs - {p}) | {p_prime} if p in fs else (fs - {p_prime}) | {p}
        gs2 = (gs - {p_prime}) | {p} if p_prime in gs else (gs - {p}) | {p_prime}
        image = key.get(frozenset((frozenset(fs2), frozenset(gs2))))
        if image is None:
            raise InternalError("swap left the counted set: predicate bug")
        matching[(f, g)] = image
    return p, p_prime, matching
