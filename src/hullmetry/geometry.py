"""Oriented polytopes, Quickhull, boundary-determinant volumes, and enclosing balls.

A polytope is carried as its closed, outward-oriented simplicial boundary,
whose points are its vertices. Both boundary volume formulas (the
signed-determinant sum and the projected-coordinate sum) are implemented
independently so they can cross-check each other.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, NonOrientable, Unsupported

# Geometric predicate tolerance, absolute on diameter-1 rescaled inputs.
TAU_GEOM = 1e-9
# Relative tolerance for volume comparisons.
TAU_VOL = 1e-9

MAX_HULL_DIM = 8


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of point coordinates")
    # numpy reads True as 1 beside numbers, so a list's entries are read too
    if pts.dtype.kind not in "iuf" or (
            isinstance(points, list) and any(type(x) is bool for row in points for x in row)):
        raise ValueError("point coordinates must be numbers")
    pts = pts.astype(float, copy=False)
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def _scale_of(pts: np.ndarray) -> float:
    """Bounding-box diagonal, used to turn the normalized tolerance absolute."""
    if len(pts) == 0:
        return 1.0
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(max(np.linalg.norm(span), 1.0))


@dataclass(frozen=True)
class PointCloud:
    """Finite point set under the Euclidean metric; the desk-scale stand-in for a space T."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        if len(self.points) == 0:
            raise ValueError("point cloud must be non-empty")


def _points_of(cloud) -> np.ndarray:
    """Coordinates of a PointCloud, or of an array-like of points validated as one."""
    return (cloud if isinstance(cloud, PointCloud) else PointCloud(cloud)).points


@dataclass(frozen=True)
class SimplicialBoundary:
    """Closed outward-oriented set of (n-1)-simplices bounding a polytope.

    ``simplices[f]`` holds the n ordered vertex indices of one oriented
    simplex; coordinates live in ``points``.
    """

    points: np.ndarray
    simplices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        object.__setattr__(self, "simplices", np.asarray(self.simplices, dtype=int))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_simplices(self) -> int:
        return len(self.simplices)

    def simplex_coords(self) -> np.ndarray:
        """(F, n, n) array: coordinates of each simplex's vertices as rows."""
        return self.points[self.simplices]


@dataclass(frozen=True)
class Polytope:
    """A polytope in dimension n, carried as its oriented simplicial boundary."""

    boundary: SimplicialBoundary

    @property
    def vertices(self) -> np.ndarray:
        return self.boundary.points

    @property
    def dim(self) -> int:
        return self.boundary.dim

    @functools.cached_property
    def hull(self) -> "Polytope":
        """Quickhull of the vertices, built once per Polytope."""
        return quickhull(self.vertices)

    @functools.cached_property
    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked unit normals (F, n) and offsets (F,) of the boundary simplices' hyperplanes.

        Each normal faces away from the vertex centroid, so a convex polytope
        is ``{x : normals @ x <= offsets}``. Degenerate simplices are skipped.
        """
        centroid = self.vertices.mean(axis=0)
        _, normals, offsets = _facet_normals(self.vertices, self.boundary.simplices, centroid)
        return normals, offsets

    @functools.cached_property
    def volume_ratio(self) -> float:
        """Vol(hull of vertices) / Vol(body); 1 exactly when the body is convex."""
        vol = volume_det(self.boundary)
        if vol <= 0:
            raise DegenerateInput("polytope volume is zero")
        return volume_det(self.hull.boundary) / vol


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float
    support: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not 0 <= self.radius < math.inf:
            raise ValueError("radius must be finite and nonnegative")


def unit_ball_volume(n: int, radius: float = 1.0) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * radius**n


# ---------------------------------------------------------------------------
# Quickhull
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _minor_cols(d: int) -> np.ndarray:
    """Read-only (d, d-1) table: row i lists the columns kept when column i is deleted."""
    cols = np.array([[j for j in range(d) if j != i] for i in range(d)], dtype=np.intp)
    cols.flags.writeable = False
    return cols


def _facet_normals(pts: np.ndarray, verts, interior: np.ndarray):
    """Unit normals and offsets of the hyperplanes through each row of ``verts``.

    Each normal faces away from ``interior``. Returns ``(kept, normals,
    offsets)``: ``kept`` marks the rows of ``verts`` that are not affinely
    degenerate, and ``normals`` (K, d) and ``offsets`` (K,) hold those rows'
    planes in order. The generalized cross product is expanded in cofactors;
    the d minors of every row are stacked into one ``det`` call, which still
    factors each minor on its own, so a normal does not depend on the rows
    beside it. Its norm, offset and side come from ``np.vecdot``, whose
    float64 loop on contiguous rows is the one-vector dot product's.
    """
    verts = np.asarray(verts, dtype=np.intp).reshape(-1, pts.shape[1])
    d = pts.shape[1]
    bases = pts[verts[:, 0]]
    rows = pts[verts[:, 1:]] - bases[:, None, :]  # (F, d-1, d)
    # det returns the stack in Fortran order; its rows are copied to C order,
    # because a strided vector takes another BLAS dot loop, which sums in
    # another order
    dets = np.ascontiguousarray(np.linalg.det(np.swapaxes(rows[:, :, _minor_cols(d)], 1, 2)))
    dets[:, 1::2] = -dets[:, 1::2]
    # the square root of v @ v is what np.linalg.norm takes of a 1-d vector
    norms = np.sqrt(np.vecdot(dets, dets))
    kept = norms != 0.0
    normals = dets[kept] / norms[kept, None]
    offsets = np.vecdot(normals, bases[kept])
    flip = np.vecdot(normals, interior) > offsets
    normals[flip] = -normals[flip]
    offsets[flip] = -offsets[flip]
    return kept, normals, offsets


def _first_outside(pts, rows, normals, offsets, tau) -> np.ndarray:
    """For each point ``pts[rows[k]]``, the first facet ``j`` (in order) with
    ``normals[j] @ p - offsets[j] > tau``, or -1 if there is none."""
    passes = np.vecdot(pts[rows][:, None, :], normals) - offsets > tau  # (m, k)
    first = passes.argmax(axis=1)
    return np.where(passes[np.arange(len(rows)), first], first, -1)


def _farthest_outside(pts, outside: list[int], normal, offset) -> int:
    """The point of ``outside`` with the largest ``normal @ p - offset``, first on ties."""
    return outside[int(np.argmax(np.vecdot(pts[outside], normal) - offset))]


class _Facet:
    __slots__ = ("verts", "ridges", "normal", "offset", "outside")

    def __init__(self, verts, normal, offset):
        self.verts = verts
        self.ridges = _ridges(verts)
        self.normal = normal
        self.offset = offset
        self.outside: list[int] = []


def _ridges(verts: tuple) -> list[tuple]:
    """Sorted vertex tuples of a facet's ridges, one per omitted vertex."""
    return list(itertools.combinations(sorted(verts), len(verts) - 1))


def _initial_simplex(pts: np.ndarray, tau: float) -> list[int]:
    n = pts.shape[1]
    chosen = [int(np.argmin(pts[:, 0]))]
    # farthest point from the growing affine subspace, ties by lowest index
    basis = np.zeros((0, n))
    origin = pts[chosen[0]]
    for _ in range(n):
        rel = pts - origin
        if len(basis):
            rel = rel - rel @ basis.T @ basis
        dist = np.linalg.norm(rel, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= tau:
            raise DegenerateInput("points are affinely dependent; hull has empty interior")
        chosen.append(far)
        vec = rel[far] / dist[far]
        basis = np.vstack([basis, vec])
    return chosen


def _flat_vertices(facets: list[_Facet], n: int) -> set[int]:
    """Vertices whose incident facet normals do not span R^n.

    Such a vertex lies inside an edge or a face of the hull, so it is a convex
    combination of other vertices. Quickhull makes one when a lowest-index
    tie (in the initial simplex or among equally far apexes) picks the middle
    point of a lattice line.
    """
    verts = np.array([f.verts for f in facets]).ravel()
    normals = np.array([f.normal for f in facets])
    order = np.argsort(verts, kind="stable")
    ids, starts, degree = np.unique(verts[order], return_index=True, return_counts=True)
    owner = order // n
    flat: set[int] = set()
    for k in np.unique(degree):
        group = np.flatnonzero(degree == k)
        if k < n:
            flat.update(ids[group].tolist())
            continue
        rows = owner[starts[group][:, None] + np.arange(k)]
        sigma_min = np.linalg.svd(normals[rows], compute_uv=False)[:, -1]
        flat.update(ids[group[sigma_min <= TAU_GEOM]].tolist())
    return flat


def _hull_facets(pts: np.ndarray, tau: float) -> list[_Facet]:
    """Live facets of the Quickhull of ``pts``, in creation order.

    The ridge adjacency of the live facets is kept incrementally: a new facet
    adds its ridges, a dead one removes them (and its slot in ``facets`` is
    cleared), and the horizon is read off the ridges of the visible facets
    alone. An iteration therefore costs in proportion to the facets it
    replaces, not to the whole hull.

    A point is outside a facet when ``normal @ p - offset > tau``, that one
    dot product exactly. The outside sets and the apex take all their tests
    in one ``np.vecdot`` call each (:func:`_first_outside`,
    :func:`_farthest_outside`), which gives the same bits, so the decisions
    and their order are those of a point-by-point loop.
    """
    n = pts.shape[1]
    init = _initial_simplex(pts, tau)
    interior = pts[init].mean(axis=0)

    facets: list[_Facet | None] = []  # by id; None once the facet is dead
    ridge_map: dict[tuple, list[int]] = {}  # ridge -> ids of the live facets holding it

    def add_facets(verts: list[tuple], normals, offsets, candidates: list[int]) -> None:
        # new facets, then each candidate point goes to the first it is outside of
        fids = []
        for v, normal, offset in zip(verts, normals, offsets.tolist()):
            fid = len(facets)
            facet = _Facet(v, normal, offset)
            for ridge in facet.ridges:
                ridge_map.setdefault(ridge, []).append(fid)
            facets.append(facet)
            fids.append(fid)
        if fids and candidates:
            first = _first_outside(pts, np.array(candidates), normals, offsets, tau)
            for idx, j in zip(candidates, first.tolist()):
                if j >= 0:
                    facets[fids[j]].outside.append(idx)

    def kill_facet(fid: int) -> None:
        for ridge in facets[fid].ridges:
            members = ridge_map[ridge]
            members.remove(fid)
            if not members:
                del ridge_map[ridge]
        facets[fid] = None

    verts = [tuple(init[i] for i in range(n + 1) if i != omit) for omit in range(n + 1)]
    kept, normals, offsets = _facet_normals(pts, verts, interior)
    if not kept.all():
        raise DegenerateInput("initial simplex facet is degenerate")
    add_facets(verts, normals, offsets, sorted(set(range(len(pts))) - set(init)))

    # Facets before the cursor are dead or have no outside points; neither
    # can change, because only facets created later receive points.
    cursor = 0
    while True:
        # first live facet (by creation order) with outside points
        while cursor < len(facets) and not (facets[cursor] and facets[cursor].outside):
            cursor += 1
        if cursor == len(facets):
            break
        pick = cursor
        f = facets[pick]
        apex = _farthest_outside(pts, f.outside, f.normal, f.offset)

        apex_pt = pts[apex]
        visible = {pick}
        stack = [pick]
        while stack:
            for ridge in facets[stack.pop()].ridges:
                for nb in ridge_map[ridge]:
                    if nb in visible:
                        continue
                    h = facets[nb]
                    if h.normal @ apex_pt - h.offset > tau:
                        visible.add(nb)
                        stack.append(nb)

        horizon = []
        for fid in visible:
            for ridge in facets[fid].ridges:
                members = ridge_map[ridge]
                if len(members) == 2 and (members[0] in visible) != (members[1] in visible):
                    horizon.append(ridge)
        horizon.sort()

        orphan: list[int] = []
        for fid in visible:
            orphan.extend(facets[fid].outside)
            kill_facet(fid)
        orphan = sorted(set(orphan) - {apex})

        verts = [ridge + (apex,) for ridge in horizon]
        kept, normals, offsets = _facet_normals(pts, verts, interior)
        add_facets([v for v, k in zip(verts, kept) if k], normals, offsets, orphan)

    return [f for f in facets if f is not None]


def quickhull(cloud: PointCloud | np.ndarray) -> Polytope:
    """Convex hull with consistently oriented simplicial boundary.

    Points within the predicate tolerance of a facet hyperplane count as on
    it; ties in farthest-point selection break toward the lowest index, so
    the construction is deterministic. The ridge adjacency is maintained
    incrementally (see :func:`_hull_facets`), so the cost follows the facets
    created rather than growing with the square of the hull size. Each
    iteration's new facet normals come from one stacked ``det``, and the
    outside sets and the apex from batched ``np.vecdot`` calls, whose
    float64 loop on contiguous rows is the one-vector dot product's, so the
    triangulation is that of a point-by-point loop, bit for bit. The points
    are taken in C order, so the result does not depend on the input's
    memory layout. Every returned vertex is an extreme point: a tie-broken
    pick that lands inside a hull face is dropped and the hull rebuilt from
    the remaining vertices.

    The hull is not delegated to Qhull (``scipy.spatial.ConvexHull``): Qhull
    triangulates coplanar faces differently (it splits a cube's squares
    along the other diagonals), which changes the boundary samples drawn
    from the hull and with them the certified values in ``results.json``.
    """
    pts = np.ascontiguousarray(_points_of(cloud))
    n = pts.shape[1]
    if n < 2:
        raise Unsupported("hull computation needs ambient dimension >= 2")
    if n > MAX_HULL_DIM:
        raise Unsupported(f"hull computation capped at dimension {MAX_HULL_DIM}")
    if len(pts) < n + 1:
        raise DegenerateInput("need at least n+1 points in R^n")
    tau = TAU_GEOM * _scale_of(pts)

    while True:
        live = _hull_facets(pts, tau)
        hull_idx = sorted({v for f in live for v in f.verts})
        flat = _flat_vertices(live, n)
        if not flat:
            break
        # A tie made a point inside a hull face a vertex; the hull of the
        # other vertices is the same body, so rebuild from those alone.
        pts = pts[sorted(set(hull_idx) - flat)]

    remap = {old: new for new, old in enumerate(hull_idx)}
    vertices = pts[hull_idx]
    centroid = vertices.mean(axis=0)
    simplices = np.array([[remap[v] for v in f.verts] for f in live], dtype=int)
    flip = np.linalg.det(vertices[simplices] - centroid) < 0
    simplices[flip, :2] = simplices[flip, 1::-1]
    simplices_arr = np.array(sorted(simplices.tolist()), dtype=int)
    return Polytope(SimplicialBoundary(vertices, simplices_arr))


# ---------------------------------------------------------------------------
# Boundary triangulation of vertex+facet input
# ---------------------------------------------------------------------------


def _perm_parity(seq) -> int:
    """Sign of the permutation that sorts ``seq``: -1 for an odd number of inversions."""
    seq = list(seq)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions % 2 else 1


def _ridge_signature(simplex) -> list[tuple[tuple, int]]:
    """(sorted ridge, induced orientation sign) for each (n-2)-face."""
    out = []
    for omit in range(len(simplex)):
        ridge = simplex[:omit] + simplex[omit + 1 :]
        sign = (-1) ** omit * _perm_parity(ridge)
        out.append((tuple(sorted(ridge)), sign))
    return out


def triangulate_facets(vertices, facets) -> SimplicialBoundary:
    """Fan-triangulate facet polygons into a closed outward-oriented boundary.

    Each facet is fanned from its lowest-index vertex. Facets may come with
    arbitrary orientations; they are made globally consistent by propagation
    and flipped outward so the enclosed volume is positive.
    """
    pts = _as_points(vertices)
    n = pts.shape[1]
    tris: list[list[int]] = []
    for facet in facets:
        facet = list(facet)
        if len(facet) < n:
            raise ValueError("facet has too few vertices")
        if len(facet) == n:
            tris.append(facet)
            continue
        if n != 3:
            raise Unsupported("polygonal facets only supported in dimension 3")
        k = facet.index(min(facet))
        cyc = facet[k:] + facet[:k]
        for j in range(1, len(cyc) - 1):
            tris.append([cyc[0], cyc[j], cyc[j + 1]])

    # orient consistently by BFS over shared ridges
    ridge_owners: dict[tuple, list[tuple[int, int]]] = {}
    for t_idx, tri in enumerate(tris):
        for ridge, sign in _ridge_signature(tri):
            ridge_owners.setdefault(ridge, []).append((t_idx, sign))
    for ridge, owners in ridge_owners.items():
        if len(owners) != 2:
            raise NonOrientable(f"boundary not closed: ridge {ridge} in {len(owners)} simplices")

    flip = [None] * len(tris)
    for start in range(len(tris)):
        if flip[start] is not None:
            continue
        flip[start] = False
        stack = [start]
        while stack:
            t_idx = stack.pop()
            for ridge, sign in _ridge_signature(tris[t_idx]):
                eff = -sign if flip[t_idx] else sign
                for other, osign in ridge_owners[ridge]:
                    if other == t_idx:
                        continue
                    want_flip = osign == eff  # opposite induced orientations required
                    if flip[other] is None:
                        flip[other] = want_flip
                        stack.append(other)
                    elif flip[other] != want_flip:
                        raise NonOrientable("facet orientations cannot be made consistent")

    oriented = []
    for t_idx, tri in enumerate(tris):
        tri = list(tri)
        if flip[t_idx]:
            tri[0], tri[1] = tri[1], tri[0]
        oriented.append(tri)

    boundary = SimplicialBoundary(pts, np.array(oriented, dtype=int))
    vol = volume_det(boundary)
    scale = _scale_of(pts)
    if abs(vol) <= TAU_GEOM * scale**n:
        raise DegenerateInput("boundary encloses no volume")
    if vol < 0:
        flipped = boundary.simplices.copy()
        flipped[:, [0, 1]] = flipped[:, [1, 0]]
        boundary = SimplicialBoundary(pts, flipped)
    return boundary


def polytope_from_facets(vertices, facets) -> Polytope:
    return Polytope(triangulate_facets(vertices, facets))


# ---------------------------------------------------------------------------
# Volume formulas
# ---------------------------------------------------------------------------


def volume_det(boundary: SimplicialBoundary) -> float:
    """Sum over boundary simplices of det(v_1,...,v_n)/n! (vertices as columns)."""
    dets = np.linalg.det(np.swapaxes(boundary.simplex_coords(), 1, 2))
    return float(dets.sum() / math.factorial(boundary.dim))


def volume_projected(boundary: SimplicialBoundary) -> float:
    """Second boundary formula: project out the last coordinate, weight by its mean.

    Sign factor (-1)^(n-1); agrees with :func:`volume_det` on every closed
    outward-oriented boundary, which the tests assert.
    """
    coords = boundary.simplex_coords()  # (F, n, n)
    n = boundary.dim
    mean_last = coords[:, :, -1].mean(axis=1)
    mats = np.empty((len(coords), n, n))
    mats[:, 0, :] = 1.0
    mats[:, 1:, :] = np.swapaxes(coords[:, :, :-1], 1, 2)
    dets = np.linalg.det(mats)
    total = float((mean_last * dets).sum() / math.factorial(n - 1))
    return (-1) ** (n - 1) * total


# ---------------------------------------------------------------------------
# Minimum enclosing ball
# ---------------------------------------------------------------------------

_WELZL_DIM_CAP = 10


def _circumball(points: np.ndarray, support: list[int]) -> tuple[np.ndarray, float]:
    """Smallest ball with every support point (rows of ``points``) on its sphere."""
    sup = points[support]
    if len(support) == 1:
        return sup[0], 0.0
    Q = sup[1:] - sup[0]
    gram = 2.0 * Q @ Q.T
    rhs = np.einsum("ij,ij->i", Q, Q)
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    center = sup[0] + lam @ Q
    # sqrt is correctly rounded and monotone: the max of the square roots
    diff = sup - center
    return center, math.sqrt(np.vecdot(diff, diff).max())


def _welzl(points: np.ndarray, tau: float) -> tuple[np.ndarray, float, list[int]]:
    """Gärtner's pivoting loop over Welzl's move-to-front recursion; (center, radius, support).

    The support is a list of at most d + 1 row indices of ``points``. Each
    step takes the point k farthest from the centre, in one ``np.vecdot``
    pass over all points, and stops once k lies within r + tau. Otherwise
    the next ball is the move-to-front ball of the support with k on its
    sphere, which has at most d + 2 points to visit; the loop stops too when
    that ball is no larger, which only rounding brings about. A point is
    outside a ball when its distance to the centre exceeds r + tau.
    """
    dim = points.shape[1]

    def dist(p, c):
        diff = p - c
        return np.sqrt(np.vecdot(diff, diff))

    # the ball of order[:m] with ``boundary`` on its sphere; a point that
    # joins the support moves to the front, so the support is boundary + order[:size]
    def move_to_front(order: list[int], m: int, boundary: list[int]):
        c, r = _circumball(points, boundary)
        size = 0
        if len(boundary) == dim + 1:
            return c, r, size
        for i in range(m):
            if dist(points[order[i]], c) > r + tau:
                c, r, size = move_to_front(order, i, boundary + [order[i]])
                order.insert(0, order.pop(i))
                size += 1
        return c, r, size

    center, radius, support, last = points[0].copy(), 0.0, [0], -1.0
    while radius > last:
        far = dist(points, center)
        k = int(far.argmax())
        if not far[k] > radius + tau:
            break
        last = radius
        center, radius, size = move_to_front(support, len(support), [k])
        support = [k] + support[:size]
    return center, radius, support


def min_enclosing_ball(cloud: PointCloud | np.ndarray) -> Ball:
    """Smallest ball containing all points, in dimension at most 10.

    Welzl's move-to-front recursion under Gärtner's pivoting (see
    :func:`_welzl`): the recursion only ever visits the current support and
    the farthest point, so a repeated point needs no dedupe and the points
    need no shuffle. The reported radius covers every point. The points are
    taken in C order, so the result does not depend on the input's memory
    layout. Raises :class:`Unsupported` above dimension 10, and
    :class:`DegenerateInput` when the squared distances overflow and the
    radius is not finite.
    """
    pts = np.ascontiguousarray(_points_of(cloud))
    if pts.shape[1] > _WELZL_DIM_CAP:
        raise Unsupported(f"enclosing ball capped at dimension {_WELZL_DIM_CAP}")
    tau = TAU_GEOM * _scale_of(pts)
    center, radius, sup = _welzl(pts, tau)
    # report the radius that certifiably covers everything
    radius = max(radius, float(np.max(np.linalg.norm(pts - center, axis=1))))
    if not math.isfinite(radius):
        raise DegenerateInput("squared distances overflow float64: the enclosing ball has no finite radius")
    return Ball(center, radius, support=pts[sup])


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def load_body(source) -> Polytope:
    """Polytope from {"dim": n, "vertices": [[...]], "facets": [[i,...],...]}."""
    doc = _load_doc(source)
    vertices = _declared_points(doc, "vertices")
    facets = doc.get("facets")
    if facets:
        bad = [i for facet in facets for i in facet if type(i) is not int]
        if bad:
            raise ValueError(f"facet indices must be integers, got {bad[0]!r}")
        return polytope_from_facets(vertices, facets)
    return quickhull(vertices)


def load_cloud(source) -> PointCloud:
    """PointCloud from {"dim": n, "points": [[...]]}; an optional "metric" must be "euclidean"."""
    doc = _load_doc(source)
    cloud = PointCloud(_declared_points(doc, "points"))
    metric = doc.get("metric", "euclidean")
    if metric != "euclidean":
        raise Unsupported(f"metric {metric!r} not implemented")
    return cloud


def _declared_points(doc: dict, key: str) -> np.ndarray:
    pts = _as_points(doc[key])
    if type(doc["dim"]) is not int:
        raise ValueError(f"dim must be an integer, got {doc['dim']!r}")
    if pts.shape[1] != doc["dim"]:
        raise ValueError("declared dim disagrees with point coordinates")
    return pts


def _load_doc(source):
    if isinstance(source, dict):
        return source
    text = Path(source).read_text() if not str(source).lstrip().startswith("{") else str(source)
    return json.loads(text)
