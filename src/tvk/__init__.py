"""Exact-arithmetic crossing partitions of finite point sets.

Construction of partitions whose convex hulls share a common point and
whose full-dimensional hull boundaries pairwise intersect, plus the exact
predicates, parity/cocycle checks, and independent verifiers behind them.
All coordinates are rationals and every computation is exact.
"""

from .errors import (
    BudgetExceeded,
    DegenerateSimplex,
    DimensionMismatch,
    GeneralPositionViolated,
    InternalError,
    PerturbationFailed,
    SizeOutOfRange,
    TrianglesIntersect,
    TvkError,
)
from .geometry import (
    Point,
    PointSet,
    in_general_position,
    orientation,
    perturb,
    simplex_volume,
)
from .lp import (
    FeasibilityProblem,
    LPResult,
    Partition,
    Witness,
    common_point,
    hull_contains,
    solve_feasibility,
)
from .tverberg import (
    birch_partition_planar,
    centerpoint_planar,
    extend_partition,
    tverberg_partition_bruteforce,
)
from .fixing import (
    FixTrace,
    classify_pair,
    cocycle_check,
    count_interior_points,
    enumerate_origin_pairs,
    fix_all,
    parity_check,
    unnest_pair,
)
from .apps import (
    CrossingReport,
    FaceLinkVerdict,
    LINKING_COUNTEREXAMPLE_POINTS,
    crossing_simplices,
    crossing_tverberg,
    tetrahedra_face_linked,
    triangles_linked,
    verify_crossing_partition,
    verify_linking_counterexample,
)
from .generate import random_point_set

__version__ = "0.1.0"
