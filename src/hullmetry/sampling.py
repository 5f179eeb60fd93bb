"""Deterministic sampling of solid bodies and hulls, membership tests, Hausdorff distance."""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInput
from .geometry import Polytope, quickhull, _as_points, _scale_of, TAU_GEOM

SAMPLE_POINT_CAP = 10**6
DEFAULT_AXIS_CELLS = 200


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
    extra slab of cells.
    """
    shape = tuple(max(int(math.ceil((b - a) / h - 1e-9)), 1) for a, b in zip(lo, hi))
    axes = [a + (np.arange(m) + 0.5) * h for a, m in zip(lo, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1), shape


def membership(poly: Polytope, points: np.ndarray) -> np.ndarray:
    """Point-in-polytope by crossing-number ray casting against the boundary simplices.

    Works for nonconvex bodies; points within tolerance of the boundary count
    as inside.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = poly.dim
    tau = TAU_GEOM * _scale_of(poly.vertices)
    coords = poly.boundary.simplex_coords()  # (F, n, n)
    # retry directions in case a ray grazes a simplex edge-on
    rng = np.random.default_rng(0xCA57)
    inside = np.zeros(len(pts), dtype=bool)
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
    if len(undecided):
        inside[undecided] = False
    return inside


def _ray_crossings(pts: np.ndarray, direction: np.ndarray, coords: np.ndarray, tau: float):
    """Crossing parity per point; flags points with grazing intersections as bad."""
    m = len(pts)
    crossings = np.zeros(m, dtype=int)
    bad = np.zeros(m, dtype=bool)
    on_boundary = np.zeros(m, dtype=bool)
    n = coords.shape[2]
    for simp in coords:
        base = simp[0]
        edges = simp[1:] - base  # (n-1, n)
        # solve base + A @ [b..., t*(-direction)] = p  => [edges^T | -dir] x = p - base
        A = np.column_stack([edges.T, -direction])
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            continue  # simplex parallel to ray direction: resolved by retry if it matters
        sol = (pts - base) @ Ainv.T
        bary = sol[:, :-1]
        t = sol[:, -1]
        bsum = bary.sum(axis=1)
        strict = (
            (bary > tau).all(axis=1)
            & (bsum < 1 - tau)
            & (t > tau)
        )
        grazing = (
            (bary > -tau).all(axis=1)
            & (bsum < 1 + tau)
            & (t > -tau)
            & ~strict
        )
        near_face = (
            (bary > -tau).all(axis=1) & (bsum < 1 + tau) & (np.abs(t) <= tau)
        )
        crossings += strict.astype(int)
        on_boundary |= near_face
        bad |= grazing & ~near_face
    inside = (crossings % 2 == 1) | on_boundary
    bad &= ~on_boundary
    return inside, bad


def sample_polytope(poly: Polytope, h: float | None = None, axis_cells: int | None = None):
    """Interior grid + boundary sample + vertices at spacing h.

    Returns (points, h). Deterministic for fixed inputs.
    """
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    if h is None:
        h = grid_spacing(lo, hi, axis_cells)
    grid, _ = grid_points(lo, hi, h)
    if len(grid) > SAMPLE_POINT_CAP:
        raise DegenerateInput("sample cap exceeded; coarsen the resolution")
    inside = membership(poly, grid)
    parts = [grid[inside], poly.vertices]
    parts.append(_sample_boundary(poly, h))
    pts = np.vstack(parts)
    return _dedupe(pts), h


def _sample_boundary(poly: Polytope, h: float) -> np.ndarray:
    out = []
    for simp in poly.boundary.simplices:
        verts = poly.vertices[simp]
        out.append(_sample_simplex(verts, h))
    return np.vstack(out) if out else np.zeros((0, poly.dim))


def _sample_simplex(verts: np.ndarray, h: float) -> np.ndarray:
    """Barycentric lattice on a (k-1)-simplex with edge step about h."""
    k = len(verts)
    edge = max(np.linalg.norm(verts[i] - verts[j]) for i in range(k) for j in range(i + 1, k))
    m = max(int(math.ceil(edge / h)), 1)
    pts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], m, k)
    bary = np.array(pts, dtype=float) / m
    return bary @ verts


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
    working inside the affine hull. A full-rank hull in dimension <= 3 is
    A.hull(), the polytope's cached hull when A has one. For affine
    dimension > 3 a coarse combinatorial sample (vertices, edge midpoints,
    centroid) is used.
    """
    pts = A.hull_points()
    origin, basis, rank = affine_basis(pts)
    if rank == 0:
        return pts[:1].copy()
    if rank == 1:
        coords = (pts - origin) @ basis[0]
        lo, hi = float(coords.min()), float(coords.max())
        m = max(int(math.ceil((hi - lo) / h)), 1)
        line = lo + (hi - lo) * np.arange(m + 1) / m
        return origin + np.outer(line, basis[0])
    if rank == pts.shape[1] and rank <= 3:
        return sample_polytope(A.hull(), h=h)[0]
    if rank > 3:
        mids = (pts[:, None, :] + pts[None, :, :]) / 2.0
        mids = mids.reshape(-1, pts.shape[1])
        return _dedupe(np.vstack([pts, mids, pts.mean(axis=0, keepdims=True)]))
    reduced = (pts - origin) @ basis.T
    return origin + sample_polytope(quickhull(reduced), h=h)[0] @ basis


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite samples."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    ta, tb = cKDTree(a), cKDTree(b)
    d_ab = tb.query(a, k=1)[0].max()
    d_ba = ta.query(b, k=1)[0].max()
    return float(max(d_ab, d_ba))
