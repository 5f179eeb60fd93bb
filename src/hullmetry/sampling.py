"""Deterministic sampling of solid bodies and hulls, membership tests, Hausdorff distance."""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInput
from .geometry import Polytope, quickhull, _as_points, _scale_of, TAU_GEOM

SAMPLE_POINT_CAP = 10**6
DEFAULT_AXIS_CELLS = 200
# sample_hull grids a hull of affine rank up to this; above it, it takes a
# combinatorial sample that does not depend on the spacing
MAX_GRID_RANK = 3
EPS = float(np.finfo(float).eps)


def grid_spacing(lo: np.ndarray, hi: np.ndarray, axis_cells: int | None = None) -> float:
    """Uniform spacing so the bounding-box grid stays under the sample cap."""
    extent = np.maximum(hi - lo, 1e-12)
    n = len(extent)
    cells = axis_cells or min(DEFAULT_AXIS_CELLS, int(SAMPLE_POINT_CAP ** (1.0 / n)))
    return float(extent.max() / cells)


def grid_points(lo: np.ndarray, hi: np.ndarray, h: float):
    """Cell centers of the uniform grid with spacing h covering [lo, hi].

    Returns (centers, shape), the centers in row-major order of the cell
    shape. An extent within 1e-9 cells of a whole number of cells gets no
    extra slab of cells. A grid of more than SAMPLE_POINT_CAP cells raises
    DegenerateInput before any array is built.
    """
    shape = tuple(max(int(math.ceil((b - a) / h - 1e-9)), 1) for a, b in zip(lo, hi))
    if math.prod(shape) > SAMPLE_POINT_CAP:
        raise DegenerateInput("sample cap exceeded; coarsen the resolution")
    axes = [a + (np.arange(m) + 0.5) * h for a, m in zip(lo, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1), shape


def membership(poly: Polytope, points: np.ndarray) -> np.ndarray:
    """Point-in-polytope by crossing-number ray casting against the boundary simplices.

    Works for nonconvex bodies; points within tolerance of the boundary count
    as inside. Each ray solves a boundary simplex only for the points in its
    shadow across the ray, widened to cover the tolerance tests and the
    rounding; the points outside it would not score on that simplex (see
    _ray_crossings), so the result is that of solving for every point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = poly.dim
    tau = TAU_GEOM * _scale_of(poly.vertices)
    coords = poly.boundary.simplex_coords()  # (F, n, n)
    # retry directions in case a ray grazes a simplex edge-on
    rng = np.random.default_rng(0xCA57)
    inside = np.zeros(len(pts), dtype=bool)  # a point every ray grazes stays outside
    undecided = np.arange(len(pts))
    for attempt in range(8):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        res, bad = _ray_crossings(pts[undecided], direction, coords, tau)
        ok = ~bad
        inside[undecided[ok]] = res[ok]
        undecided = undecided[bad]
        if len(undecided) == 0:
            break
    return inside


def _ray_crossings(pts: np.ndarray, direction: np.ndarray, coords: np.ndarray, tau: float):
    """Crossing parity per point; flags points with grazing intersections as bad.

    Each simplex solves base + edges @ bary = p + t * direction. A point is
    loose when all its bary > -tau and bsum < 1 + tau: a loose point with
    |t| <= tau is on the boundary, and one with t > tau that is not strict
    (every bary > tau, bsum < 1 - tau) grazes the simplex and is bad. With
    tau >= 0 a strict point is loose, so a simplex solves only for the points
    that can pass the two loose tests. In exact arithmetic, passing them
    makes p + t * direction the combination of the simplex's vertices with
    weights 1 - bsum and bary, which sum to 1 and are each above -tau, so
    their negative parts sum to less than n * tau. In an orthonormal basis U
    across the ray, U p is then that combination of the projected vertices,
    and each coordinate of U p lies within n * tau * width of the vertices'
    range (width: the range's length). The computed tests differ from the
    exact ones by at most E = 16 n^2 eps (1 + cond) |inv| X, from rounding
    in the dot products and the inverse (|.| the max-row-sum norm, X = 2 *
    span bounds |p - base|), and the box is widened by n * (tau + n E) *
    width, by |t| <= 2 |inv| X times the rounding left in U @ direction, and
    by the rounding of the projections. A point outside the widened box
    fails one of the two computed tests, so culling it leaves every flag as
    it was. The bound on the inverse's error needs a well-conditioned
    matrix, so a simplex with cond * eps >= 1e-6 solves for every point.
    The points are sorted by their first projected coordinate, so a
    simplex's candidates are one searchsorted range, filtered by the other
    coordinates.
    """
    m, n = pts.shape
    U = np.linalg.svd(direction[None, :])[2][1:]  # (n-1, n), rows orthogonal to the ray
    proj = pts @ U.T
    order = np.argsort(proj[:, 0], kind="stable")
    pts, proj = pts[order], proj[order]
    span = max(float(np.abs(pts).max(initial=0.0)), float(np.abs(coords).max(initial=0.0)))
    skew = float(np.abs(U @ direction).max(initial=0.0)) + n * EPS
    crossings = np.zeros(m, dtype=int)
    bad = np.zeros(m, dtype=bool)
    on_boundary = np.zeros(m, dtype=bool)
    for simp in coords:
        base = simp[0]
        edges = simp[1:] - base  # (n-1, n)
        # solve base + A @ [b..., t*(-direction)] = p  => [edges^T | -dir] x = p - base
        A = np.column_stack([edges.T, -direction])
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            continue  # simplex parallel to ray direction: resolved by retry if it matters
        rows = slice(None)
        box = _shadow_box(simp @ U.T, A, Ainv, tau, span, skew)
        if box is not None:
            lo, hi = box
            i0 = int(np.searchsorted(proj[:, 0], lo[0], side="left"))
            i1 = int(np.searchsorted(proj[:, 0], hi[0], side="right"))
            rows = slice(i0, i1)
            if n > 2:
                rest = proj[rows, 1:]
                rows = i0 + np.flatnonzero(((rest >= lo[1:]) & (rest <= hi[1:])).all(axis=1))
        sol = (pts[rows] - base) @ Ainv.T
        bary = sol[:, :-1]
        t = sol[:, -1]
        bsum = bary.sum(axis=1)
        strict = (bary > tau).all(axis=1) & (bsum < 1 - tau) & (t > tau)
        loose = (bary > -tau).all(axis=1) & (bsum < 1 + tau)
        crossings[rows] += strict
        on_boundary[rows] |= loose & (np.abs(t) <= tau)
        bad[rows] |= loose & (t > tau) & ~strict
    inside, out_bad = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    inside[order] = (crossings % 2 == 1) | on_boundary
    out_bad[order] = bad & ~on_boundary
    return inside, out_bad


def _shadow_box(V: np.ndarray, A: np.ndarray, Ainv: np.ndarray, tau: float, span: float,
                skew: float):
    """(lo, hi) across the ray holding every point that can pass a simplex's
    weight tests, or None when the simplex is too ill-conditioned to bound.

    V holds the projected vertices, A and Ainv the simplex's system and its
    computed inverse, span the largest coordinate magnitude and skew a bound
    on |U @ direction|; see _ray_crossings for the margin.
    """
    n = len(V)
    norm_inv = float(np.abs(Ainv).sum(axis=1).max())
    cond = float(np.abs(A).sum(axis=1).max()) * norm_inv
    if cond * EPS >= 1e-6:
        return None
    X = 2.0 * span
    E = 16 * n * n * EPS * (1 + cond) * norm_inv * X
    vlo, vhi = V.min(axis=0), V.max(axis=0)
    margin = n * (tau + n * E) * (vhi - vlo) + 2 * norm_inv * X * skew + 4 * n * n * EPS * span
    return vlo - margin, vhi + margin


def sample_polytope(poly: Polytope, h: float | None = None, axis_cells: int | None = None):
    """Interior grid + vertices + boundary sample at spacing h.

    Returns (points, h). Deterministic for fixed inputs.
    """
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    if h is None:
        h = grid_spacing(lo, hi, axis_cells)
    grid, _ = grid_points(lo, hi, h)
    inside = membership(poly, grid)
    boundary = [_sample_simplex(poly.vertices[simp], h) for simp in poly.boundary.simplices]
    return _dedupe(np.vstack([grid[inside], poly.vertices, *boundary])), h


def _sample_simplex(verts: np.ndarray, h: float) -> np.ndarray:
    """Barycentric lattice on a (k-1)-simplex with edge step about h."""
    k = len(verts)
    edge = max(np.linalg.norm(verts[i] - verts[j]) for i in range(k) for j in range(i + 1, k))
    m = max(int(math.ceil(edge / h)), 1)
    # the compositions of m into k parts in lexicographic order, by stars and
    # bars: the gaps between k - 1 bars among m + k - 1 slots
    bars = np.array(list(itertools.combinations(range(m + k - 1), k - 1)), dtype=int)
    parts = np.diff(bars, axis=1, prepend=-1, append=m + k - 1) - 1
    return (parts / m) @ verts


def _dedupe(pts: np.ndarray) -> np.ndarray:
    snapped = np.round(pts, decimals=9)
    _, idx = np.unique(snapped, axis=0, return_index=True)
    return pts[np.sort(idx)]


def affine_basis(points: np.ndarray):
    """Origin and orthonormal basis of the affine hull, via SVD rank detection."""
    pts = _as_points(points)
    origin = pts[0]
    rel = pts - origin
    tau = TAU_GEOM * _scale_of(pts)
    u, s, vt = np.linalg.svd(rel, full_matrices=False)
    rank = int(np.sum(s > max(tau, s[0] * 1e-12 if len(s) else 0)))
    return origin, vt[:rank], rank


def sample_hull(A, h: float) -> np.ndarray:
    """Deterministic sample of the convex hull of a BodyApprox A at spacing h.

    Handles hulls that are lower-dimensional than the ambient space by
    working inside the affine hull. A full-rank hull in dimension up to
    MAX_GRID_RANK is A.hull(), the polytope's cached hull when A has one.
    Above affine dimension MAX_GRID_RANK a coarse combinatorial sample
    (vertices, edge midpoints, centroid) is used, whatever h is.
    """
    pts = A.hull_points()
    origin, basis, rank = affine_basis(pts)
    if rank == 0:
        return pts[:1].copy()
    if rank == 1:
        coords = (pts - origin) @ basis[0]
        lo, hi = float(coords.min()), float(coords.max())
        m = max(int(math.ceil((hi - lo) / h)), 1)
        if m + 1 > SAMPLE_POINT_CAP:
            raise DegenerateInput("sample cap exceeded; coarsen the resolution")
        line = lo + (hi - lo) * np.arange(m + 1) / m
        return origin + np.outer(line, basis[0])
    if rank == pts.shape[1] and rank <= MAX_GRID_RANK:
        return sample_polytope(A.hull(), h=h)[0]
    if rank > MAX_GRID_RANK:
        mids = (pts[:, None, :] + pts[None, :, :]) / 2.0
        mids = mids.reshape(-1, pts.shape[1])
        return _dedupe(np.vstack([pts, mids, pts.mean(axis=0, keepdims=True)]))
    reduced = (pts - origin) @ basis.T
    return origin + sample_polytope(quickhull(reduced), h=h)[0] @ basis


def kd_tree(points: np.ndarray) -> cKDTree:
    """The cKDTree hausdorff_distance queries: sliding-midpoint splits, no
    node compaction. Either build gives the same nearest-neighbour
    distances; this one is cheaper to build."""
    return cKDTree(np.atleast_2d(points), balanced_tree=False, compact_nodes=False)


# every HAUSDORFF_STRIDE-th point of the second sample is probed for the lower bound L
HAUSDORFF_STRIDE = 64


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two finite samples.

    Each sample is a point array or its kd_tree, so a sample compared many
    times is indexed once. Both directions feed one maximum, so each culls
    against a lower bound on it (Taha and Hanbury 2015). An exact query of
    every HAUSDORFF_STRIDE-th point of b gives the first bound L, the
    nearest distance of a real point. The direction from b culls at L and
    returns max(L, its exact result); the direction from a culls at that.
    A point closer than the bound cannot change the maximum, so the result
    is that of querying every point (see _directed_hausdorff) whichever
    sample is b; convexification_gap passes its hull sample.
    """
    ta, tb = (x if isinstance(x, cKDTree) else kd_tree(x) for x in (a, b))
    L = float(ta.query(tb.data[::HAUSDORFF_STRIDE], k=1)[0].max())
    return _directed_hausdorff(ta, tb, _directed_hausdorff(tb, ta, L))


def _directed_hausdorff(source: cKDTree, tree: cKDTree, L: float) -> float:
    """max(L, the largest distance from a point of source to its nearest point of tree).

    This holds for any bound L >= 0. Cut the common bounding box into cells
    of side s = L / sqrt(n) * (1 - 1e-9). A point that shares its cell with a target
    is within sqrt(n) * s < L of it, so its nearest distance is below L and
    cannot change the result; only the other points are queried, and the
    result is the larger of L and their maximum. Cell indices are
    floor((x - lo) / s), which rounding moves by at most 8 eps * span in
    each coordinate (span: the largest coordinate extent), so the cull runs
    only when L * 1e-9 exceeds 16 sqrt(n) eps * span; that also covers the
    rounding of the distances. The cell keys are exact integers while the
    grid has fewer than 2**62 cells. np.isin matches them with a lookup
    table only when the target keys span at most 6 times the point count,
    and by sorting otherwise, so the memory stays in proportion to the
    points.
    """
    q, t = source.data, tree.data
    n = q.shape[1]
    lo = np.minimum(source.mins, tree.mins)
    extent = np.maximum(source.maxes, tree.maxes) - lo
    side = L / math.sqrt(n) * (1 - 1e-9)
    rest = q
    if L * 1e-9 > 16 * math.sqrt(n) * EPS * float(extent.max()):
        dims = [int(d) + 1 for d in np.floor(extent / side)]
        if math.prod(dims) < 2**62:
            # column-major flat key of each point's cell, in exact integers
            strides = np.cumprod([1] + dims[:-1], dtype=np.int64)
            key_q, key_t = (np.floor((x - lo) / side).astype(np.int64) @ strides for x in (q, t))
            rest = q[~np.isin(key_q, key_t)]
    if not len(rest):
        return L
    return max(L, float(tree.query(rest, k=1)[0].max()))
