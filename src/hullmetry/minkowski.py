"""Minkowski sums, scaled averages A(k), convexification traces, reverse-BM checks.

Bodies come in three flavors: polytopes, summed exactly when both are convex
and rasterized to occupancy grids otherwise, the grids themselves, and finite
point sets, summed with each other by direct enumeration. All paths are
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput, DimensionMismatch, NonpositiveScale, ParamOutOfRange, TooLarge, Unsupported,
    check_positive,
)
from .geometry import (
    Polytope,
    SimplicialBoundary,
    min_enclosing_ball,
    quickhull,
    unit_ball_volume,
    volume_det,
    _as_points,
    _points_of,
)
from . import sampling

POINTS_CAP = 250_000


@dataclass(frozen=True)
class GridBody:
    """Occupancy-grid body: cell (i,...) has center origin + (i + 1/2) h.

    The set cells are held as runs along the last axis. ``edges`` are flat
    indices into the shape widened by one cell on the last axis (_wide): a
    run of cells [s, e) of a line starts at s and stops at e, the widening
    cell if the run ends the line. Starts and stops alternate in increasing
    order, a start first. The occupancy array is built only where cells are
    read.
    """

    origin: np.ndarray
    h: float
    shape: tuple
    edges: np.ndarray

    @staticmethod
    def from_occ(origin, h: float, occ: np.ndarray) -> "GridBody":
        """The grid of the 0/1 array occ."""
        # where occ padded with an empty cell at each end of a line changes value
        changes = np.empty(_wide(occ.shape), dtype=bool)
        changes[..., 0], changes[..., -1] = occ[..., 0], occ[..., -1]
        np.not_equal(occ[..., 1:], occ[..., :-1], out=changes[..., 1:-1])
        return GridBody(origin, h, occ.shape, np.flatnonzero(changes))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def occ(self) -> np.ndarray:
        """The 0/1 occupancy array, a byte a cell: set from each start to its stop."""
        flips = np.zeros(math.prod(_wide(self.shape)), dtype=bool)
        flips[self.edges] = True
        return np.logical_xor.accumulate(flips, out=flips).reshape(_wide(self.shape))[..., :-1]

    def cell_centers(self) -> np.ndarray:
        idx = np.argwhere(self.occ)
        return self.origin + (idx + 0.5) * self.h

    def volume(self) -> float:
        return float((self.edges[1::2] - self.edges[0::2]).sum()) * self.h**self.dim


def _wide(shape: tuple) -> tuple:
    """shape widened by one cell on the last axis, where a run that ends a line stops."""
    return shape[:-1] + (shape[-1] + 1,)


@dataclass(frozen=True)
class BodyApprox:
    """A compact body: a Polytope (convex or solid), an occupancy grid or a finite set."""

    kind: str  # "convex" | "solid" | "grid" | "points"
    poly: Polytope | None = None  # convex and solid
    grid: GridBody | None = None
    points: np.ndarray | None = None  # finite set
    axis_cells: int | None = None  # None: sampling.grid_spacing picks the resolution

    @property
    def dim(self) -> int:
        return self.grid.dim if self.kind == "grid" else self.hull_points().shape[1]

    @staticmethod
    def from_polytope(poly: Polytope, axis_cells: int | None = None) -> "BodyApprox":
        convex = poly.volume_ratio <= 1.0 + 1e-9
        return BodyApprox("convex" if convex else "solid", poly=poly, axis_cells=axis_cells)

    @staticmethod
    def from_points(points) -> "BodyApprox":
        return BodyApprox("points", points=_as_points(points))

    @staticmethod
    def from_grid(grid: GridBody) -> "BodyApprox":
        return BodyApprox("grid", grid=grid)

    def volume(self) -> float:
        if self.kind == "points":
            return 0.0
        if self.kind == "grid":
            return self.grid.volume()
        return volume_det(self.poly.boundary)

    def polytope(self) -> Polytope:
        """The Polytope that a convex or solid body is."""
        if self.poly is None:
            raise ParamOutOfRange(
                f"{self.kind} bodies have no polyhedral ratio: no polytope to hull or sample"
            )
        return self.poly

    def hull_points(self) -> np.ndarray:
        if self.poly is not None:
            return self.poly.vertices
        if self.kind == "points":
            return self.points
        return self.grid.cell_centers()

    def hull(self) -> Polytope:
        """Quickhull of hull_points(): the polytope's cached hull, if the body has one."""
        return self.poly.hull if self.poly is not None else quickhull(self.hull_points())

    def sample(self, h: float | None = None) -> np.ndarray:
        """Sample points of the body for distance computations."""
        if self.kind == "points":
            return self.points
        if self.kind == "grid":
            return self.grid.cell_centers()
        return sampling.sample_polytope(self.polytope(), h=h, axis_cells=self.axis_cells)[0]

    def natural_spacing(self) -> float:
        if self.kind == "grid":
            return self.grid.h
        pts = self.hull_points()
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return sampling.grid_spacing(lo, hi, self.axis_cells)


def _rasterize(body: BodyApprox, h: float) -> GridBody:
    """The occupancy grid of a convex or solid body at spacing h; a grid body is
    its own grid, at its own spacing only. A finite point set, or a grid at
    another spacing, raises Unsupported, and a body no cell centre of which
    is a member raises DegenerateInput."""
    if body.kind == "grid" and abs(body.grid.h - h) <= 1e-12 * h:
        return body.grid
    if body.poly is None:
        raise Unsupported(f"cannot rasterize a {body.kind} body at spacing {h!r}: only a "
                          f"polytope rasterizes, and a grid only at its own spacing")
    lo = body.poly.vertices.min(axis=0)
    hi = body.poly.vertices.max(axis=0)
    centers, shape = sampling.grid_points(lo, hi, h)
    grid = GridBody.from_occ(lo, h, sampling.membership(body.poly, centers).reshape(shape))
    if len(grid.edges) == 0:
        raise DegenerateInput(f"the {body.kind} body rasterizes to an empty grid at spacing {h!r}")
    return grid


def _dilate(a: GridBody, b: GridBody) -> GridBody:
    """The grid of a + b: cell i + j is occupied when cell i of a and cell j of b are."""
    if abs(a.h - b.h) > 1e-12 * max(a.h, b.h):
        raise ValueError("grid dilation requires equal spacings")
    shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    # each edge keeps its multi-index, in the output's widened layout
    a_edges, b_edges = (
        np.ravel_multi_index(np.unravel_index(g.edges, _wide(g.shape)), _wide(shape)) for g in (a, b)
    )
    return GridBody(a.origin + b.origin + a.h / 2.0, a.h, shape, _dilate_runs(a_edges, b_edges))


# _dilate_runs forms at most this many pairs of runs at once, a block of a's
# runs against all of b's, so its index buffers stay bounded.
_PAIR_BLOCK = 1 << 20


def _dilate_runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The run edges of the dilation of the grid with run edges a by that with b.

    A run of set cells of a along its last axis, cells [sa, ea) of one line,
    and a run of b, cells [sb, eb) of another, sum to cells
    [sa + sb, ea + eb - 1) of the line whose multi-index is the sum of
    theirs. With a and b given in the output shape widened by one cell on
    the last axis, a flat index is linear in the multi-index, so a pair run
    starts at the sum of its two starts and stops at the sum of its two
    stops less one, never past the widening cell that ends its line. The
    dilation is the union of the R_a * R_b pair runs, and its edges, in the
    same layout, are where the count of open pair runs turns positive or
    back to zero.

    The runs of a are counted in blocks, in order: a run and those after it
    that start within b's span of it (b's first start to its last stop), at
    most _PAIR_BLOCK pairs. No later pair starts before the next block's
    first pair, so the counts of the cells before that are final once the
    block is counted in: a running sum, carried over block to block. The
    counts live in a window that slides along the output, at most two spans
    of b and one run of a wide. The pairs open at a cell x are as many as
    the set cells y of b with x - y a set cell of a, so a count never
    exceeds b's cells, which fit in the window: int32 holds it. The time is
    O(R_a R_b + N + blocks * span_b) for N output cells, and the memory is
    proportional to b's span and the output's runs, not to N or to the
    pairs.
    """
    if not (len(a) and len(b)):
        return np.empty(0, dtype=np.intp)
    a_starts, a_stops = a[0::2], a[1::2]
    b_starts, b_stops = b[0::2], b[1::2] - 1
    reach = b[-1] - b[0]
    rows = max(1, _PAIR_BLOCK // len(b_starts))
    depth = np.zeros(2 * reach + (a_stops - a_starts).max(), dtype=np.int32)
    # covered[1 + c]: cell c of the window is in the dilation; covered[0]:
    # the cell before the window is
    covered = np.zeros(len(depth) + 1, dtype=bool)
    # an untyped 1 would send int32 ufunc.at down a casting loop
    one = np.int32(1)
    edges = []
    done, carry, i = a_starts[0] + b_starts[0], 0, 0
    while i < len(a_starts):
        j = min(i + rows, np.searchsorted(a_starts, a_starts[i] + reach, "right"))
        # ufunc.at adds in place; np.bincount would build a span of counts
        np.add.at(depth, (a_starts[i:j, None] + (b_starts - done)).ravel(), one)
        np.subtract.at(depth, (a_stops[i:j, None] + (b_stops - done)).ravel(), one)
        span = a_stops[j - 1] + b_stops[-1] + 1 - done
        # past this block's last stop when a gap between a's runs is wider
        # than b's span: no pair covers the cells in between
        nxt = a_starts[j] + b_starts[0] if j < len(a_starts) else done + span
        m = min(nxt - done, span)
        depth[0] += carry
        np.cumsum(depth[:m], out=depth[:m])
        np.greater(depth[:m], 0, out=covered[1:m + 1])
        edges.append(done + np.flatnonzero(covered[1:m + 1] != covered[:m]))
        carry, covered[0] = depth[m - 1], covered[m]
        depth[:span - m] = depth[m:span]
        depth[span - m:span] = 0
        done, i = nxt, j
    return np.concatenate(edges)


def minkowski_sum(A: BodyApprox, B: BodyApprox) -> BodyApprox:
    """A plus B pointwise. Convex pairs stay exact, the hull of the vertex sums,
    point-set pairs enumerate the sums, and the rest are dilated grids (see _rasterize)."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimensions {A.dim} and {B.dim} differ")
    if A.kind == "convex" and B.kind == "convex":
        a, b = A.poly.vertices, B.poly.vertices
        sums = (a[:, None, :] + b[None, :, :]).reshape(-1, A.dim)
        return BodyApprox("convex", poly=quickhull(sampling._dedupe(sums)), axis_cells=A.axis_cells)
    if A.kind == "points" and B.kind == "points":
        if len(A.points) * len(B.points) > POINTS_CAP:
            raise TooLarge("pairwise sum of point sets exceeds the cap")
        sums = (A.points[:, None, :] + B.points[None, :, :]).reshape(-1, A.dim)
        return BodyApprox.from_points(sampling._dedupe(sums))
    h = max(A.natural_spacing(), B.natural_spacing())
    return BodyApprox.from_grid(_dilate(_rasterize(A, h), _rasterize(B, h)))


def scale_body(A: BodyApprox, s: float) -> BodyApprox:
    check_positive("s", s, NonpositiveScale)
    if A.kind == "points":
        return BodyApprox.from_points(A.points * s)
    if A.kind == "grid":
        g = A.grid
        return BodyApprox.from_grid(GridBody(g.origin * s, g.h * s, g.shape, g.edges))
    scaled = Polytope(SimplicialBoundary(A.poly.vertices * s, A.poly.boundary.simplices))
    return BodyApprox(A.kind, poly=scaled, axis_cells=A.axis_cells)


def minkowski_average(A: BodyApprox, k: int) -> BodyApprox:
    """(1/k) times the k-fold Minkowski sum of A with itself."""
    if k < 1:
        raise ParamOutOfRange("k must be >= 1")
    for _, Ak in _average_sequence(A, k):
        pass
    return Ak


def _average_sequence(A: BodyApprox, k_max: int):
    """Yields (k, A(k)) reusing the running k-fold sum."""
    yield 1, A
    if A.kind == "convex":
        for k in range(2, k_max + 1):
            yield k, A
        return
    if A.kind == "solid":
        # every sum rasterizes A at its own spacing: do it once
        A = BodyApprox.from_grid(_rasterize(A, A.natural_spacing()))
    acc = A
    for k in range(2, k_max + 1):
        acc = minkowski_sum(acc, A)
        yield k, scale_body(acc, 1.0 / k)


def _ball_volume(A: BodyApprox) -> float:
    """Volume of A's circumscribed ball: the minimum enclosing ball of its hull points."""
    return unit_ball_volume(A.dim, min_enclosing_ball(A.hull_points()).radius)


def body_beta(A: BodyApprox) -> float:
    """Circumscribed-ball volume over body volume, from the minimum enclosing ball."""
    vol = A.volume()
    if vol <= 0:
        raise DegenerateInput("beta undefined for a volume-zero body")
    return _ball_volume(A) / vol


@dataclass(frozen=True)
class ConvexificationTrace:
    k: int
    vol_Ak: float
    hausdorff_to_hull: float
    bound_value: float


def convexification_gap(A: BodyApprox, k_max: int):
    """Hausdorff gap of A(k) to the hull and the volume trace for k = 1..k_max.

    Distances are nearest-neighbour (cKDTree) distances between samples
    decimated to a common comparison resolution, so the gaps of successive k
    are comparable.
    """
    if k_max < 1:
        raise ParamOutOfRange("k_max must be >= 1")
    hull_pts = A.hull_points()
    if A.kind == "points":
        fine = min(1.0 / (16.0 * k_max), 0.01) * max(
            1.0, float(np.linalg.norm(hull_pts.max(axis=0) - hull_pts.min(axis=0)))
        )
        hull_sample = sampling.sample_hull(A, h=fine)
        h_cmp = 0.0
    else:
        h_cmp = A.natural_spacing()
        hull_sample = sampling.sample_hull(A, h=h_cmp)

    hull_tree = sampling.kd_tree(hull_sample)
    vols, gaps = [], []
    for k, Ak in _average_sequence(A, k_max):
        if k > 1 and A.kind == "convex":
            # A(k) of a convex body is A itself
            vols.append(vols[0])
            gaps.append(gaps[0])
            continue
        if A.kind == "points":
            pts = Ak.points
        elif Ak.kind == "grid" and Ak.grid.h < h_cmp:
            pts = _decimate(Ak.grid, h_cmp)
        else:
            pts = Ak.sample()
        vols.append(Ak.volume() if A.kind != "points" else 0.0)
        gaps.append(sampling.hausdorff_distance(pts, hull_tree))

    # A(k) has the same convex hull as A, hence the same circumscribed ball
    c2 = measured_c2(vols, _ball_volume(A)) if A.kind != "points" else 1.0
    base_vol = vols[0] if vols else 0.0
    traces = []
    for i, k in enumerate(range(1, k_max + 1)):
        bound = volume_ratio_general_bound(k, c2) if k >= 2 else 1.0
        traces.append(ConvexificationTrace(k, vols[i], gaps[i], bound * base_vol))
    return traces


def _decimate(grid: GridBody, h: float) -> np.ndarray:
    """Centres of the h-cells that the grid's cell centres fall in, in lexicographic order.

    A cell centre floors to coarse index floor((c - lo) / h), with lo the
    lowest occupied centre. Each axis maps its fine indices to coarse ones
    once. The map is monotone, so a run marks the coarse range of its first
    and last cell, less the last-axis coarse cells no fine index maps to (a
    spacing ratio below 1, or within rounding of 1, skips some). Neither
    the fine occupancy nor its centres are built.
    """
    if not len(grid.edges):
        raise DegenerateInput("cannot decimate an empty grid")
    # the multi-index of each run's first and last cell
    firsts, lasts = (np.unravel_index(e, _wide(grid.shape))
                     for e in (grid.edges[0::2], grid.edges[1::2] - 1))
    lo = np.empty(grid.dim)
    starts, shape = [], []
    for j in range(grid.dim):
        base = int(firsts[j].min())
        centres = grid.origin[j] + (np.arange(base, int(lasts[j].max()) + 1) + 0.5) * grid.h
        lo[j] = centres[0]
        coarse = np.floor((centres - lo[j]) / h).astype(int)
        starts.append(coarse[firsts[j] - base])
        shape.append(int(coarse[-1]) + 1)
    hit = np.zeros(shape[-1], dtype=bool)
    hit[coarse] = True
    # count the open ranges along each coarse line, widened like the run edges
    wide = _wide(tuple(shape))
    depth = np.zeros(math.prod(wide), dtype=np.int32)
    np.add.at(depth, np.ravel_multi_index(starts, wide), np.int32(1))
    stops = starts[:-1] + [coarse[lasts[-1] - base] + 1]
    np.subtract.at(depth, np.ravel_multi_index(stops, wide), np.int32(1))
    occ = np.cumsum(depth, out=depth).reshape(wide)[..., :-1] > 0
    return lo + (np.argwhere(occ & hit) + 0.5) * h


def measured_c2(vols: list[float], ball_vol: float) -> float:
    """Empirical C2 from a volume trace, clamped to at least 1.

    beta_k = ball_vol / vols[k-1], with ball_vol the volume of the ball
    circumscribing every A(k); C2 is the largest per-step C1 times the
    largest beta.
    """
    if not vols:
        return 1.0
    betas = [ball_vol / max(v, 1e-300) for v in vols]
    c1 = 0.0
    for k in range(2, len(vols) + 1):
        denom = (k - 1) / k * betas[k - 2] * vols[k - 2] + 1.0 / k * betas[0] * vols[0]
        if denom > 0:
            c1 = max(c1, vols[k - 1] / denom)
    if c1 == 0.0:
        c1 = 1.0 / max(betas[0], 1.0)
    return max(c1 * max(betas), 1.0)


@dataclass(frozen=True)
class RevBMReport:
    lhs_vol: float
    rhs_terms: tuple[float, float]
    empirical_C1: float
    s: float
    t: float
    m: int
    beta_A: float
    beta_B: float


def reverse_bm_sweep(
    A: BodyApprox, B: BodyApprox, s_values, t_values, m_values
) -> list[RevBMReport]:
    """Empirical constants of the circumscribed-ball reverse Brunn-Minkowski
    form, one report per (s, t, m), nested in that order.

    For each case C1 = Vol(sA + tB)^(1/m) / (s (beta_A Vol A)^(1/m) +
    t (beta_B Vol B)^(1/m)), with the linear positioning maps fixed to the
    identity; the harness keeps the largest C1 of a scenario. The volumes
    and betas are computed once, and the Minkowski sum sA + tB once per
    (s, t): neither depends on m. A sum that is not a convex pair is, as in
    minkowski_sum, the dilation of sA and tB rasterized at the larger of
    their spacings; over the (s, t) grid the same (body, scale, spacing)
    triples recur, so each is rasterized once. The cases are validated in
    order, each as a sweep of that case alone would be: a bad s, t or m
    raises ParamOutOfRange before a body without interior raises
    DegenerateInput.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimensions {A.dim} and {B.dim} differ")
    grids = {}

    def sum_volume(s, t):
        sA, tB = scale_body(A, s), scale_body(B, t)
        if sA.kind == tB.kind == "convex":
            return minkowski_sum(sA, tB).volume()
        h = max(sA.natural_spacing(), tB.natural_spacing())
        for key, body in (((id(A), s, h), sA), ((id(B), t, h), tB)):
            if key not in grids:
                grids[key] = _rasterize(body, h)
        return _dilate(grids[id(A), s, h], grids[id(B), t, h]).volume()

    reports = []
    vol_A = vol_B = beta_A = beta_B = None
    for s in s_values:
        for t in t_values:
            lhs_vol = None
            for m in m_values:
                check_positive("s", s)
                check_positive("t", t)
                if m < 1:
                    raise ParamOutOfRange(f"m must be >= 1, got {m!r}")
                if vol_A is None:
                    vol_A, vol_B = A.volume(), B.volume()
                    if vol_A <= 0 or vol_B <= 0:
                        raise DegenerateInput("reverse-BM check needs bodies with interior")
                    beta_A, beta_B = body_beta(A), body_beta(B)
                if lhs_vol is None:
                    lhs_vol = sum_volume(s, t)
                term_a = s * (beta_A * vol_A) ** (1.0 / m)
                term_b = t * (beta_B * vol_B) ** (1.0 / m)
                c1 = lhs_vol ** (1.0 / m) / (term_a + term_b)
                reports.append(RevBMReport(lhs_vol, (term_a, term_b), c1, s, t, m, beta_A, beta_B))
    return reports


def volume_ratio_general_bound(k_h: int, C2: float) -> float:
    """Closed-form upper bound on Vol(A(k_h))/Vol(A) driven by the constant C2.

    The C2 = 1 pole is removable; the limit value is returned there.
    """
    if k_h < 2:
        raise ParamOutOfRange("k_h must be >= 2")
    if not 1.0 <= C2 < math.inf:
        raise ParamOutOfRange(f"C2 must be finite and >= 1, got {C2!r}")
    if abs(C2 - 1.0) <= 1e-12:
        return (2.0 + (k_h - 2.0)) / k_h
    return 2.0 * C2 ** (k_h - 1) / k_h + C2 * (C2 ** (k_h - 2) - 1.0) / (k_h * (C2 - 1.0))


def empirical_general_ratio(A: BodyApprox, k_h: int) -> float:
    """The closed-form bound on Vol(hull(A))/Vol(A) at the C2 measured on the
    volumes of A(1), ..., A(max(k_h, 2))."""
    if k_h < 1:
        raise ParamOutOfRange("k_h must be >= 1")
    if A.volume() <= 0:
        raise DegenerateInput("volume ratio needs a body with interior")
    vols = [Ak.volume() for _, Ak in _average_sequence(A, max(k_h, 2))]
    c2 = measured_c2(vols, _ball_volume(A))
    return volume_ratio_general_bound(max(k_h, 2), c2)


GENERAL_K_H = 8


def as_body(T) -> BodyApprox:
    """T as a BodyApprox: a BodyApprox as is, a Polytope through from_polytope,
    and anything else (a PointCloud, an array of points) as a finite point set."""
    if isinstance(T, BodyApprox):
        return T
    if isinstance(T, Polytope):
        return BodyApprox.from_polytope(T)
    return BodyApprox.from_points(_points_of(T))


def hull_ratio(T, mode: str = "poly") -> float:
    """The volume ratio R = Vol(T_h)/Vol(T) that the hull certificates scale by.

    "poly" is the exact polyhedral ratio; "general" is the closed-form
    reverse Brunn-Minkowski bound at k_h = GENERAL_K_H. T is coerced by
    as_body; finite point sets have R = 1 in either mode.
    """
    if mode not in ("poly", "general"):
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    A = as_body(T)
    if A.kind == "points":
        return 1.0
    if mode == "general":
        return empirical_general_ratio(A, GENERAL_K_H)
    return A.polytope().volume_ratio
