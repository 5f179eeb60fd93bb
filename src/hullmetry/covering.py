"""Covering numbers: greedy and exact covers, packing certificates, volume sandwich.

Convention throughout: closed balls, centers restricted to the covered set.
Greedy tie-breaks go to the lowest index so every result is reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import HullmetryError, ParamOutOfRange, TooLarge, Unsupported, check_positive
from .geometry import Polytope, unit_ball_volume, volume_det, _points_of
from .minkowski import as_body, hull_ratio
from . import sampling

EXACT_COVER_CAP = 24


@dataclass
class CoveringReport:
    epsilon: float
    n_greedy: int
    n_packing: int
    centers: np.ndarray = field(repr=False)


def _gonzalez(pts: np.ndarray, stop: float, tree: cKDTree | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-point traversal (Gonzalez 1985) down to insertion radius ``stop``.

    Returns the pick order and each pick's insertion radius, its distance to
    the earlier picks (inf for the first); the radii never increase. A pick is
    made while its radius exceeds ``stop``, so the greedy eps-cover for any
    eps >= stop is the prefix of picks with radius > eps. Distances are numpy
    row norms of C-contiguous rows. After the first pick every distance to
    the picks is at most the new pick's radius, so only the points within
    that radius of it, found by a cKDTree (``tree``, when the caller has
    one of these points), can move closer. A distance that overflows float64
    raises ParamOutOfRange.
    """
    pts = np.ascontiguousarray(pts)
    tree = cKDTree(pts) if tree is None else tree
    mind = np.full(len(pts), np.inf)
    order: list[int] = []
    radii: list[float] = []
    while True:
        far = int(np.argmax(mind))  # argmax takes the lowest index on ties
        radius = float(mind[far])
        if radius <= stop:
            break
        order.append(far)
        radii.append(radius)
        if math.isinf(radius):  # the first pick
            mind = np.linalg.norm(pts - pts[far], axis=1)
            if not np.isfinite(mind).all():  # else every pass is a first pick
                raise ParamOutOfRange("distances between the points overflow float64")
            continue
        # every mind is <= radius, so no point farther than radius can change
        idx = np.asarray(tree.query_ball_point(pts[far], radius * (1 + 1e-12)), dtype=np.intp)
        d = np.linalg.norm(pts[idx] - pts[far], axis=1)
        mind[idx] = np.minimum(mind[idx], d)
    return np.array(order, dtype=np.intp), np.array(radii)


def _greedy_centers(pts: np.ndarray, epsilon: float) -> np.ndarray:
    """Indices of the farthest-point greedy epsilon-cover centers, in pick order."""
    return _gonzalez(pts, epsilon)[0]


def greedy_cover(cloud, epsilon: float) -> CoveringReport:
    """Farthest-point greedy cover; an upper bound on the covering number.

    The cover and the packing count share one cKDTree of the points.
    """
    check_positive("epsilon", epsilon)
    pts = np.ascontiguousarray(_points_of(cloud))
    tree = cKDTree(pts)
    centers = _gonzalez(pts, epsilon, tree)[0]
    return CoveringReport(
        epsilon=float(epsilon),
        n_greedy=len(centers),
        n_packing=packing_number(pts, epsilon, tree),
        centers=pts[centers],
    )


def exact_cover_small(cloud, epsilon: float) -> int:
    """Minimum number of closed epsilon-balls centered at cloud points covering it.

    The 0/1 program min sum(x) subject to W x >= 1, W = (cdist <= epsilon), solved
    by scipy's milp; capped at EXACT_COVER_CAP points. HullmetryError unless the
    solve ends optimal with a cover.
    """
    check_positive("epsilon", epsilon)
    pts = _points_of(cloud)
    n = len(pts)
    if n > EXACT_COVER_CAP:
        raise TooLarge(f"exact cover capped at {EXACT_COVER_CAP} points, got {n}")
    from scipy.optimize import milp  # loads scipy.fft: only the calls pay for it

    within = cdist(pts, pts) <= epsilon
    res = milp(np.ones(n), constraints=(within, 1, np.inf), integrality=np.ones(n), bounds=(0, 1))
    if res.status != 0 or not within[:, np.round(res.x) == 1].any(axis=1).all():
        raise HullmetryError(f"exact cover: milp ended without an optimal cover ({res.message})")
    return int(np.round(res.x).sum())


def packing_number(cloud, epsilon: float, tree: cKDTree | None = None) -> int:
    """Size of the greedy maximal epsilon-separated subset (pairwise distance > eps).

    Points are taken in index order; a point is kept unless an earlier kept
    point lies within eps. The points a kept one blocks come from a cKDTree
    ball of radius eps (1 + 1e-12), filtered by the numpy row norm ``<= eps``,
    so a distance of exactly eps is settled by the norm alone. ``tree``, if
    given, is a cKDTree of the same points.
    """
    check_positive("epsilon", epsilon)
    pts = np.ascontiguousarray(_points_of(cloud))
    tree = cKDTree(pts) if tree is None else tree
    blocked = np.zeros(len(pts), dtype=bool)
    count = 0
    for i in range(len(pts)):
        if blocked[i]:
            continue
        count += 1
        idx = np.asarray(tree.query_ball_point(pts[i], epsilon * (1 + 1e-12)), dtype=np.intp)
        blocked[idx[np.linalg.norm(pts[idx] - pts[i], axis=1) <= epsilon]] = True
    return count


def inradius(poly: Polytope) -> float:
    """Chebyshev radius of a convex polytope via linear programming.

    Raises Unsupported for a polytope that is not convex, one with a vertex
    beyond a facet hyperplane by more than rounding.
    """
    _convex_heights(poly)
    from scipy.optimize import linprog  # loads scipy.fft: only the calls pay for it

    n = poly.dim
    normals, offsets = poly.halfspaces
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.column_stack([normals, np.ones(len(normals))]),
        b_ub=offsets,
        bounds=[(None, None)] * n + [(0, None)],
        method="highs",
    )
    if not res.success:
        return 0.0
    return float(res.x[-1])


# linprog (HiGHS) meets each constraint to a feasibility tolerance of 1e-7,
# relative to the data, so inradius may stray that far from the Chebyshev
# radius; the bracket decides only past ten times that
INRADIUS_MARGIN = 1e-6


def _convex_heights(poly: Polytope) -> np.ndarray:
    """Heights ``normals @ vertices.T`` (F, V) of the vertices over the facet planes.

    Raises Unsupported when some vertex lies beyond a facet's hyperplane by
    more than rounding (a thousandth of ``INRADIUS_MARGIN`` times
    1 + max |offset|): the polytope is then not convex, and its halfspaces,
    which face away from the vertex centroid, need not face outward, so they
    do not cut out the body.
    """
    normals, offsets = poly.halfspaces
    heights = normals @ poly.vertices.T
    if len(normals):
        rounding = 1e-3 * INRADIUS_MARGIN * (1.0 + float(np.abs(offsets).max()))
        if not np.all(heights.max(axis=1) <= offsets + rounding):
            raise Unsupported("polytope is not convex: a vertex lies beyond a facet hyperplane")
    return heights


def _inradius_below(poly: Polytope, epsilon: float) -> bool:
    """``inradius(poly) + 1e-12 < epsilon``, decided without linprog where it can be.

    For a convex polytope the Chebyshev radius r lies in [lo, hi]: lo is the
    least facet distance of the vertex centroid, a feasible center, and hi is
    half the least width of the vertices along a facet normal, since an
    inscribed ball fits between the facet and the parallel supporting
    hyperplane across the body. When epsilon is within the margin of the
    bracket, linprog decides. A polytope that is not convex raises
    Unsupported (see :func:`_convex_heights`).
    """
    heights = _convex_heights(poly)
    normals, offsets = poly.halfspaces
    if len(normals):
        margin = INRADIUS_MARGIN * (1.0 + float(np.abs(offsets).max()))
        lo = float((offsets - heights.mean(axis=1)).min())
        hi = 0.5 * float((offsets - heights.min(axis=1)).min())
        if lo + 1e-12 >= epsilon + margin:
            return False
        if hi + 1e-12 < epsilon - margin:
            return True
    return inradius(poly) + 1e-12 < epsilon


def volume_cover_bounds(poly: Polytope, epsilon: float):
    """(lower, upper) volume sandwich for the covering number of a convex body.

    lower = (1/eps)^n Vol(A)/Vol(B); upper = (3/eps)^n Vol(A)/Vol(B) with B the
    unit euclidean ball. The upper form needs eps B to fit inside A (checked by
    the Chebyshev inradius, bracketed in closed form first); when it does
    not, upper is None. A polytope that is not convex raises Unsupported.
    """
    check_positive("epsilon", epsilon)
    n = poly.dim
    vol_a = volume_det(poly.boundary)
    vol_b = unit_ball_volume(n)
    lower = (1.0 / epsilon) ** n * vol_a / vol_b
    if _inradius_below(poly, epsilon):
        return lower, None
    upper = (3.0 / epsilon) ** n * vol_a / vol_b
    return lower, upper


@dataclass(frozen=True)
class HullCoverCertificate:
    epsilon: float
    n_hull: int
    n_body: int
    ratio_R: float
    dim: int
    bound: float
    slack: float
    holds: bool
    body_sample: np.ndarray = field(repr=False, compare=False)


def check_hull_cover_ratio(T, epsilon: float) -> HullCoverCertificate:
    """Certify N(T_h, eps) <= R * 3^n * N(T, eps) on deterministic samples.

    T is coerced by as_body. A body and the hull are sampled at eps/4, a
    finite point set is used as-is; the body sample is kept as ``body_sample``.
    R is hull_ratio of the coerced body (1 for point sets).
    """
    check_positive("epsilon", epsilon)
    A = as_body(T)
    R = hull_ratio(A)
    h = epsilon / 4.0
    body_pts = A.sample(h)
    hull_pts = sampling.sample_hull(A, h)
    n_body = len(_greedy_centers(body_pts, epsilon))
    n_hull = len(_greedy_centers(hull_pts, epsilon))
    bound = R * 3.0**A.dim * n_body
    slack = bound - n_hull
    return HullCoverCertificate(
        epsilon=float(epsilon),
        n_hull=n_hull,
        n_body=n_body,
        ratio_R=float(R),
        dim=A.dim,
        bound=float(bound),
        slack=float(slack),
        holds=bool(slack >= 0.0),
        body_sample=body_pts,
    )
