"""Exact rational feasibility LP and convex-hull intersection certificates.

The solver is a phase-1 simplex with Bland's rule, so it terminates on every
input and is deterministic for a fixed variable order. Its tableau is
fraction-free and condensed: a row stores only its nonbasic columns, as
integers, with its basic entry as its positive scale, and every pivot
divides the rows it changes by their gcd. The LPs built here read their rows
from `PointSet.frame`, so Fractions appear only in the returned x and
Witness. Only feasibility is supported; nothing here optimizes.
`hull_contains` is the one membership predicate, for a point; `_hull_test`
prepares it for a part, once per call of each scan over many parts. It has
three rules: the signs of the facet rows (`geometry._facets`) for d+1
affinely independent points in every d, an integer halfplane test for other
planar parts, and the LP for other parts beyond the plane.
`barycentric_witness` alone reads the weights, `geometry._barycentric`.
`relative_interior_witness` halves a shift until its LP is feasible; in the
plane it decides each shift exactly first, by clipping the shrunk parts
(`geometry._planar_hulls_meet`), so it runs one LP, at the first feasible
shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from . import linalg
from .errors import DimensionMismatch, InternalError
from .geometry import (
    Point,
    PointSet,
    _barycentric,
    _facets,
    _in_planar_hull,
    _planar_hulls_meet,
    _query,
    mk_point,
    rat,
)

ZERO = Fraction(0)
# relative_interior_witness halves its positivity threshold at most this often
MAX_HALVINGS = 64


@dataclass(init=False)
class FeasibilityProblem:
    """Equality system A x = b with x >= 0 on every variable; entries go
    through `geometry.rat`, so floats raise TypeError. Each row [a | b] is
    scaled to integers once: `rows[i]` is `scales[i]` > 0 times row i."""

    rows: list
    scales: list

    def __init__(self, a, b):
        width = {len(row) for row in a}
        if len(width) > 1:
            raise DimensionMismatch("ragged constraint matrix")
        if len(a) != len(b):
            raise DimensionMismatch("matrix/rhs row count mismatch")
        scaled = [linalg._int_row([*map(rat, row), rat(v)]) for row, v in zip(a, b)]
        self.rows = [row for row, _ in scaled]
        self.scales = [scale for _, scale in scaled]


def _integer_problem(rows, scales) -> FeasibilityProblem:
    """FeasibilityProblem of integer rows given with their scales."""
    prob = FeasibilityProblem.__new__(FeasibilityProblem)
    prob.rows, prob.scales = rows, scales
    return prob


@dataclass
class LPResult:
    feasible: bool
    x: Optional[list] = None


def solve_feasibility(prob: FeasibilityProblem) -> LPResult:
    """Phase-1 simplex with Bland's rule; exact, never cycles.

    The tableau is fraction-free (Edmonds, J. Res. NBS 1967; Applegate,
    Cook, Dash and Espinoza, Oper. Res. Lett. 2007) and condensed: a basic
    column is a unit column, so a row stores only the nonbasic ones, slot s
    holding variable `cols[s]`, and row i is `diag[i]` > 0, its basic
    entry, times its rational row. A pivot on slot s and row k turns every
    other row a with f = a[s] != 0 into p*a - f*b over the gcd of its
    entries and its diag, b row k and p its entry in s, and gives row k the
    diag p. When an artificial leaves, slot s goes, since artificials never
    re-enter, and the last slot takes its place. When a structural v
    leaves, v takes slot s: its column held diag[k] in row k and 0 in every
    other row, so a changed row gets -f * diag[k]. A row the pivot changes
    must keep a right-hand side >= 0 and a diag > 0, as phase 1 keeps them,
    or InternalError is raised. Slots are not in variable order, so Bland's
    rule enters the smallest label with a positive reduced cost. It reads
    only signs and per-row ratios, which a positive diag keeps, so the
    pivots and x are those of the rational tableau: x[var] is its row's
    right-hand side over its diag. The caller's problem is left unchanged.
    """
    m = len(prob.rows)
    if m == 0:
        return LPResult(True, [])
    n = len(prob.rows[0]) - 1
    # rows with b >= 0 as their last entry; artificial i is basis label
    # n + i, and its column is never stored: artificials never re-enter
    tab = [[-x for x in row] if row[n] < 0 else row[:] for row in prob.rows]
    diag = list(prob.scales)
    basis = [n + i for i in range(m)]
    cols = list(range(n))
    # reduced costs z_j - c_j for minimizing the artificial sum, as the last
    # row: the sum of the rational rows, with the lcm of their scales as diag
    lcm = math.lcm(*diag)
    weights = [lcm // s for s in diag]
    tab.append([sum(map(mul, weights, col)) for col in zip(*tab)])
    diag.append(lcm)
    while True:
        s = None
        for j, c in enumerate(tab[m][:-1]):
            if c > 0 and (s is None or cols[j] < entering):
                s, entering = j, cols[j]
        if s is None:
            break
        # Bland's ratio test, cross-multiplied: every coefficient is positive
        k = None
        for i in range(m):
            coef = tab[i][s]
            if coef > 0:
                if k is not None:
                    lhs, rhs = tab[i][-1] * den, num * coef
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[k]):
                        continue
                k, num, den = i, tab[i][-1], coef
        if k is None:
            raise InternalError("phase-1 objective unbounded: malformed tableau")
        b, dk, leaving = tab[k], diag[k], basis[k]
        p, drop = b[s], leaving >= n
        for r, a in enumerate(tab):
            f = a[s]
            if f and r != k:
                row = [p * x - f * y for x, y in zip(a, b)]
                if drop:
                    row[s] = row[-2]
                    del row[-2]
                else:
                    row[s] = -f * dk
                d = p * diag[r]
                g = math.gcd(d, *row)
                if g > 1:
                    row = [x // g for x in row]
                    d //= g
                if row[-1] < 0 or d <= 0:
                    raise InternalError("a pivot left a row with b < 0 or a scale <= 0")
                tab[r], diag[r] = row, d
            elif drop and r != k:
                a[s] = a[-2]
                del a[-2]
        basis[k], diag[k] = entering, p
        if drop:
            # the artificial's slot goes, and the last slot takes its place
            b[s] = b[-2]
            del b[-2]
            cols[s] = cols[-1]
            cols.pop()
        else:
            b[s], cols[s] = dk, leaving
    if any(tab[i][-1] for i in range(m) if basis[i] >= n):
        return LPResult(False, None)
    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tab[i][-1], diag[i])
    return LPResult(True, x)


@dataclass
class Witness:
    """Common point of several hulls with per-part barycentric certificates;
    the point and the weights go through `geometry.rat`."""

    point: Point
    weights: list  # one weight list per part, aligned with the part's indices

    def __post_init__(self):
        self.point = mk_point(self.point)
        self.weights = [[rat(w) for w in ws] for ws in self.weights]


@dataclass
class Partition:
    """Disjoint index sets over a PointSet, optionally with a witness.

    Parts are kept canonical: each part sorted ascending, parts ordered by
    smallest element, and the witness weight rows reordered with them. A
    witness shaped unlike the parts is left as given for the verifier to
    report. `size_bounded` records whether the partition claims the
    at-most-(d+1) size bound.
    """

    parts: list
    witness: Optional[Witness] = None
    size_bounded: bool = True

    def __post_init__(self):
        w = self.witness
        if w is None or [len(ws) for ws in w.weights] != [len(p) for p in self.parts]:
            self.parts = canonical_parts(self.parts)
            return
        paired = canonical_parts(zip(p, ws) for p, ws in zip(self.parts, w.weights))
        self.parts = [tuple(i for i, _ in part) for part in paired]
        self.witness = Witness(w.point, [[x for _, x in part] for part in paired])


def canonical_parts(parts) -> list:
    out = [tuple(sorted(p)) for p in parts]
    out.sort(key=lambda p: p[:1])
    return out


def barycentric_witness(o: Point, parts, ps: PointSet) -> Witness:
    """Witness at o with exact barycentric weights in every (simplex) part.

    Callers have established that o lies in every part, so a part missing o
    is a bug and raises InternalError.
    """
    q, pts = _query(o, ps), ps.frame[0]
    weights = []
    for part in parts:
        coords = _barycentric(q, [pts[i] for i in part])
        if coords is None or any(c < 0 for c in coords):
            raise InternalError(f"witness point is not in the hull of part {tuple(part)}")
        weights.append(coords)
    return Witness(o, weights)


def witness_violations(witness: Witness, parts: Sequence[Sequence[int]], ps: PointSet) -> list:
    """Exact re-check of a witness certificate; empty list means valid.
    Over integers and apart from `_decode_witness`: weights m_j / D
    reproduce o_c = u / v when v * sum_j m_j P_j[c] = u * D * den (frame P)."""
    out = []
    if len(witness.weights) != len(parts):
        return [f"witness has {len(witness.weights)} weight rows for {len(parts)} parts"]
    pts, den = ps.frame
    o = witness.point
    for i, (part, ws) in enumerate(zip(parts, witness.weights)):
        if len(ws) != len(part):
            out.append(f"part {i}: {len(ws)} weights for {len(part)} points")
            continue
        lcm = math.lcm(*[w.denominator for w in ws])
        ms = [w.numerator * (lcm // w.denominator) for w in ws]
        if any(m < 0 for m in ms):
            out.append(f"part {i}: negative weight")
        if sum(ms) != lcm:
            out.append(f"part {i}: weights sum to {sum(ws)}, not 1")
        if len(o) != ps.dim or any(
            u.denominator * sum(m * pts[j][c] for m, j in zip(ms, part))
            != u.numerator * lcm * den
            for c, u in enumerate(o)
        ):
            out.append(f"part {i}: weighted combination does not reproduce the point")
    return out


def _common_point_problem(parts, ps: PointSet) -> FeasibilityProblem:
    """Encode intersection of hulls: A lambda = b with lambda >= 0. One
    0/1 convexity row per part (scale 1), then d rows of `ps.frame` (scale
    den) per later part equating its combination with the first part's."""
    pts, den = ps.frame
    cols = sum(map(len, parts))
    rows, off = [], 0
    for part in parts:
        row = [0] * (cols + 1)
        row[off:off + len(part)] = [1] * len(part)
        row[cols] = 1
        rows.append(row)
        off += len(part)
    first = [pts[j] for j in parts[0]]
    off = len(first)
    for part in parts[1:]:
        for c in range(ps.dim):
            row = [0] * (cols + 1)
            row[:len(first)] = [p[c] for p in first]
            row[off:off + len(part)] = [-pts[j][c] for j in part]
            rows.append(row)
        off += len(part)
    return _integer_problem(rows, [1] * len(parts) + [den] * (len(rows) - len(parts)))


def _decode_witness(x, parts, ps: PointSet, q: int = 0) -> Witness:
    """Witness from a vertex x of _common_point_problem (lambda = x) or of
    its shift by 1/q (lambda = (x + 1) / q), over one common denominator."""
    den = math.lcm(*[v.denominator for v in x])
    nums = [v.numerator * (den // v.denominator) for v in x]
    if q:
        nums = [v + den for v in nums]
        den *= q
        x = [Fraction(v, den) for v in nums]
    pts, scale = ps.frame
    first = [pts[j] for j in parts[0]]
    point = tuple(
        Fraction(sum(v * p[c] for v, p in zip(nums, first)), den * scale)
        for c in range(ps.dim)
    )
    weights, pos = [], 0
    for part in parts:
        weights.append(x[pos:pos + len(part)])
        pos += len(part)
    return Witness(point, weights)


def _disjoint_parts(parts, ps: PointSet) -> list:
    """The parts as tuples; no parts, an empty part, an index outside
    0..n-1 or an index in two parts raises ValueError."""
    parts = [tuple(p) for p in parts]
    if not parts:
        raise ValueError("no parts")
    seen = set()
    for p in parts:
        if not p:
            raise ValueError("empty part")
        if seen & set(p):
            raise ValueError("parts are not disjoint")
        seen |= set(p)
    _check_indices(seen, ps)
    return parts


def _check_indices(idx, ps: PointSet):
    """Raise ValueError unless every index lies in 0..n-1."""
    if idx and (min(idx) < 0 or max(idx) >= len(ps)):
        raise ValueError(f"an index lies outside 0..{len(ps) - 1}")


def common_point(parts: Sequence[Sequence[int]], ps: PointSet) -> Optional[Witness]:
    """Witness for a common point of the parts' convex hulls, or None.

    The witness point is read off the first basic feasible solution; no
    interiority is attempted here.
    """
    parts = _disjoint_parts(parts, ps)
    res = solve_feasibility(_common_point_problem(parts, ps))
    if not res.feasible:
        return None
    return _decode_witness(res.x, parts, ps)


def _shrunk(verts, q: int) -> list:
    """The integer points (q - k) p + S of a part of k frame points p with
    sum S; for q >= k, their hull is the set of the points sum lambda_j p_j
    with every lambda_j >= 1/q, scaled by q."""
    k = len(verts)
    sums = [sum(col) for col in zip(*verts)]
    return [tuple((q - k) * c + s for c, s in zip(p, sums)) for p in verts]


def relative_interior_witness(parts, ps: PointSet) -> Optional[Witness]:
    """Witness with every barycentric weight strictly positive.

    Parts are checked as `common_point` checks them. Feasibility of
    {lambda >= t} is monotone in t, so a shrinking-t loop finds a strictly
    positive certificate whenever one exists (down to 2^-MAX_HALVINGS of
    the starting threshold). Every t is 1/q, and lambda = (mu + 1) / q
    solves A lambda = b exactly when A mu = q b - A 1: only the integer
    right-hand side changes, and the pivots are those at t. In the plane
    each shift is decided exactly first, by whether the shrunk parts
    (`_shrunk`) meet (`geometry._planar_hulls_meet`), and halved without an
    LP while they miss; so the LP runs once, at the first feasible shift,
    and returns the vertex it returns without the decision. An LP that is
    infeasible where the parts meet raises InternalError. Beyond the plane
    every shift is solved.
    """
    parts = _disjoint_parts(parts, ps)
    q = 2 * max(map(len, parts))
    prob = _common_point_problem(parts, ps)
    # b and A 1, row by row; each shift rewrites the right-hand sides in place
    sides = [(row[-1], sum(row) - row[-1]) for row in prob.rows]
    planar = ps.dim == 2
    if planar:
        pts = ps.frame[0]
        verts = [[pts[i] for i in part] for part in parts]
    for _ in range(MAX_HALVINGS):
        if planar and not _planar_hulls_meet([_shrunk(vs, q) for vs in verts]):
            q *= 2
            continue
        for row, (b, s) in zip(prob.rows, sides):
            row[-1] = q * b - s
        res = solve_feasibility(prob)
        if res.feasible:
            return _decode_witness(res.x, parts, ps, q)
        if planar:
            raise InternalError(
                f"the parts shrunk to weights >= 1/{q} meet, yet their LP is infeasible"
            )
        q *= 2
    return None


def _hull_test(indices: Sequence[int], ps: PointSet):
    """The predicate q in conv({ps[i] : i in indices}) over homogeneous
    points q = (x_1, ..., x_d, w), w > 0, of `ps.frame`, for callers that
    test many points against one part: the indices are checked, the frame
    vertices taken and the rule chosen once per part. The rules are those
    of `hull_contains`. An index outside 0..n-1 raises ValueError."""
    _check_indices(indices, ps)
    pts, den = ps.frame
    verts = [pts[i] for i in indices]
    facets = _facets(verts) if len(verts) == ps.dim + 1 else None
    if facets is not None:
        rows, full = facets
        if full < 0:
            rows = [[-c for c in row] for row in rows]
        if ps.dim != 2:
            return lambda q: all(sum(map(mul, row, q)) >= 0 for row in rows)
        # the same rule unrolled in the plane: 0.3 us a query against 1.2 us
        # for the generic form, 7% of planar-scale's throughput (CHANGES.md)
        (a, b, c), (e, f, g), (h, i, j) = rows

        def in_triangle(q):
            x, y, w = q
            return (
                a * x + b * y + c * w >= 0
                and e * x + f * y + g * w >= 0
                and h * x + i * y + j * w >= 0
            )

        return in_triangle
    if ps.dim == 2:
        return lambda q: _in_planar_hull(q, verts)

    def lp_rule(q):
        *x, w = q
        rows = [[*(w * v[c] for v in verts), x[c]] for c in range(ps.dim)]
        rows.append([1] * (len(verts) + 1))
        return solve_feasibility(_integer_problem(rows, [w * den] * ps.dim + [1])).feasible

    return lp_rule


def hull_contains(p: Point, indices: Sequence[int], ps: PointSet) -> bool:
    """Exact test p in conv({ps[i] : i in indices}), the one membership
    predicate, and `_hull_test(indices, ps)` applied to `_query(p, ps)`,
    the homogeneous point (x, w) of `ps.frame`. Three rules: d+1 affinely
    independent points, in every d, decide by the signs of their facet
    rows (`geometry._facets`) against their determinant's; other planar
    parts, of any size, by the integer halfplane test
    `geometry._in_planar_hull`; other parts beyond the plane by the LP
    w P lambda = x, sum lambda = 1 over the frame points P, whose
    coordinate rows have scale w * den. An index outside 0..n-1 in the
    part raises ValueError."""
    return _hull_test(indices, ps)(_query(p, ps))
