import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, settings

from tvk.errors import DegenerateSimplex
from tvk.lp import FeasibilityProblem, Partition, Witness, solve_feasibility

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


# shared concrete fixtures, all verified exactly in the tests that use them

# nested pair: big triangle around the origin, small asymmetric triangle inside
NESTED_SIX = [(10, -10), (-10, -10), (F(1, 3), 10), (2, -3), (-1, -2), (F(1, 7), 1)]

# rational perturbation of the regular hexagon, general position with origin
HEXAGON = [
    (1, 0),
    (F(1, 2), F(7, 8)),
    (-F(1, 2), F(8, 9)),
    (-1, F(1, 17)),
    (-F(5, 9), -F(9, 10)),
    (F(5, 8), -F(8, 9)),
]

# three triangles sharing the origin: outer/inner nested, a thin sliver
# crossing both candidates for exactly one fixing step
NINE_ONE_FIX = [
    (100, -90),
    (-95, -100),
    (F(7, 2), 105),
    (2, -3),
    (-1, -2),
    (F(1, 7), 1),
    (200, 3),
    (-199, -1),
    (F(1, 5), -F(1, 11)),
]

# three concentric triangles around the origin: all three pairs start nested,
# and the loop needs three fixes under either measure
NINE_TRIPLE_NESTED = [
    (100, -90),
    (-95, -100),
    (F(7, 2), 105),
    (20, -17),
    (-19, -21),
    (F(3, 4), 23),
    (2, -3),
    (-1, -2),
    (F(1, 7), 1),
]


@pytest.fixture
def origin2():
    return (F(0), F(0))


# --- references that share no code with the predicates they check -------------


def lp_hull_contains(p, idx, ps):
    """Membership by the phase-1 LP over the rational points, none of
    `hull_contains`' rules: p = sum w_j P_j, sum w_j = 1, w >= 0."""
    pts = [ps.points[j] for j in idx]
    a = [[q[c] for q in pts] for c in range(ps.dim)] + [[1] * len(pts)]
    return solve_feasibility(FeasibilityProblem(a, [*p, 1])).feasible


def ref_eliminate(aug, ncols):
    """Plain Gauss-Jordan elimination over Fractions on the first `ncols`
    columns of `aug`, in place: (rows, pivot columns, product of the pivots
    times the sign of the row swaps)."""
    nrows = len(aug)
    pivots = []
    flip, prod = 1, F(1)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            aug[row], aug[piv] = aug[piv], aug[row]
            flip = -flip
        p = aug[row][col]
        prod *= p
        aug[row] = [v / p for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return aug, pivots, flip * prod


def ref_solve_unique(a_rows, b):
    """A x = b by `ref_eliminate`: ("unique", x), ("inconsistent", None)
    when no solution exists, or ("underdetermined", None) when it is not
    unique."""
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [[F(v) for v in r] + [F(b[i])] for i, r in enumerate(a_rows)]
    aug, pivots, _ = ref_eliminate(aug, ncols)
    if any(aug[r][ncols] != 0 for r in range(len(pivots), len(aug))):
        return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    x = [F(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return "unique", x


def ref_containment(p, verts):
    """Containment of p in the simplex on the vertices by `ref_solve_unique`
    of sum w_i v_i = p, sum w_i = 1: "outside" off the affine hull (checked
    before uniqueness) or with a negative weight, "on_boundary" with a zero
    weight, "interior" otherwise. A consistent system with more than one
    solution raises DegenerateSimplex."""
    rows = [[v[c] for v in verts] for c in range(len(p))]
    rows.append([1] * len(verts))
    status, w = ref_solve_unique(rows, [*p, 1])
    if status == "underdetermined":
        raise DegenerateSimplex("reference: dependent vertices")
    if status == "inconsistent" or any(c < 0 for c in w):
        return "outside"
    return "on_boundary" if 0 in w else "interior"


def ref_depth(q, points):
    """Halfplane depth of the planar point q: the fewest points in a closed
    halfplane through q. The count changes only where the boundary line
    meets a point p != q, so the halfplanes with a normal w perpendicular
    to p - q are tried, tilted toward either end of the line: a point on
    the line counts when it lies toward the tilt. Coordinates are scaled
    to integers by the lcm of their denominators."""
    vs = [(F(x) - q[0], F(y) - q[1]) for x, y in points]
    scale = math.lcm(*[c.denominator for v in vs for c in v])
    vs = [(int(x * scale), int(y * scale)) for x, y in vs]
    at_q = vs.count((0, 0))
    best = len(vs)
    for vx, vy in vs:
        if (vx, vy) == (0, 0):
            continue
        # one pass serves w = (-vy, vx) and -w, each tilted either way
        above = below = ahead = behind = 0
        for ux, uy in vs:
            s = vx * uy - vy * ux
            if s:
                above += s > 0
                below += s < 0
            else:
                t = ux * vx + uy * vy
                ahead += t > 0
                behind += t < 0
        best = min(best, at_q + min(above, below) + min(ahead, behind))
    return best


def ref_radon(ps):
    """The Radon partition of d+2 points in general position from the
    Fraction nullspace of [P; 1]: its one basis vector a has no zero entry,
    and the points with a_i > 0 and those with a_i < 0 meet at
    sum_{a_i > 0} a_i p_i / sum_{a_i > 0} a_i."""
    n = len(ps)
    rows = [[F(p[c]) for p in ps.points] for c in range(ps.dim)] + [[F(1)] * n]
    pivots = []  # reduced row echelon form, one pivot column per row
    for col in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[k])]
        pivots.append(col)
    assert len(pivots) == n - 1, "the points are not in general position"
    free = next(c for c in range(n) if c not in pivots)
    a = [F(0)] * n
    a[free] = F(1)
    for k, col in enumerate(pivots):
        a[col] = -rows[k][free]
    pos = [i for i in range(n) if a[i] > 0]
    neg = [i for i in range(n) if a[i] < 0]
    assert len(pos) + len(neg) == n, "a zero coefficient: not in general position"
    total = sum(a[i] for i in pos)
    o = tuple(sum(a[i] * ps.points[i][c] for i in pos) / total for c in range(ps.dim))
    weights = [[a[i] / total for i in pos], [-a[i] / total for i in neg]]
    return Partition([pos, neg], Witness(o, weights))
