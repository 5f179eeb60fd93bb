"""Chaining functionals over admissible partition sequences, entropy integrals,
Monte Carlo Gaussian suprema, and the hull-comparison certificates.

An admissible sequence is a chain of refining partitions with partition m
holding at most N_m cells, N_0 = 1 and N_m = 2^(2^m) for m >= 1. The
functional is inf over sequences of sup_t sum_m 2^(m/alpha) diam(cell_m(t)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ParamOutOfRange, TooLarge, check_positive
from .geometry import _points_of
from .covering import _gonzalez
from .minkowski import as_body, hull_ratio
from . import sampling

EXACT_CAP = 5
GREEDY_CAP = 4096
# size of every dense block: a pairwise-distance block holds at most TILE²
# entries and a Gaussian product block at most 2 TILE², TILE columns wide
TILE = 512
# diameters this close count as tied when gamma_greedy picks the widest cell
TIE_TOL = 1e-15


def cardinality_limit(m: int) -> int:
    return 1 if m == 0 else 2 ** (2**m)


@dataclass(frozen=True)
class AdmissibleSequence:
    """Chain of refining partitions, each stored as a tuple of index tuples."""

    partitions: tuple

    def validate(self, n_points: int) -> bool:
        prev = None
        for m, part in enumerate(self.partitions):
            cells = [frozenset(c) for c in part]
            if len(cells) > cardinality_limit(m):
                return False
            covered = set().union(*cells) if cells else set()
            if covered != set(range(n_points)):
                return False
            if sum(len(c) for c in cells) != n_points:
                return False
            if prev is not None:
                for cell in cells:
                    if not any(cell <= p for p in prev):
                        return False
            prev = cells
        return True


@dataclass(frozen=True)
class GammaEstimate:
    alpha: float
    value: float
    method: str  # "exact" | "greedy" | "entropy_integral"
    witness: AdmissibleSequence | None = None


@dataclass(frozen=True)
class SupEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int


def _power(base: float, exponent: float, alpha: float) -> float:
    """base ** exponent; ParamOutOfRange naming alpha when it overflows float64."""
    try:
        return base ** exponent
    except OverflowError:
        raise ParamOutOfRange(f"{base!r}^{exponent!r} overflows at alpha={alpha!r}") from None


def gamma_exact_small(cloud, alpha: float) -> GammaEstimate:
    """Exact chaining functional of at most EXACT_CAP = 5 points, in closed form.

    Level 0 is T and costs diam T at every point. Level 2 may be all
    singletons, since N_2 = 16 >= n, and so may level 1 when n <= N_1 = 4:
    then gamma = diam T. Five points in at most four cells put two together,
    so level 1 costs at least 2^(1/alpha) d_min at one of them, which the
    closest pair plus singletons attains: gamma = diam T + 2^(1/alpha) d_min.
    The witness is (T; singletons), or (T; closest pair plus singletons;
    singletons). Distances, or a functional, that overflow float64 raise
    ParamOutOfRange.
    """
    pts = _points_of(cloud)
    n = len(pts)
    if n > EXACT_CAP:
        raise TooLarge(f"exact functional capped at {EXACT_CAP} points, got {n}")
    check_positive("alpha", alpha)
    d = cdist(pts, pts)
    diam = float(d.max())
    if not math.isfinite(diam):
        raise ParamOutOfRange("distances between the points overflow float64")
    top, singletons = (tuple(range(n)),), tuple((k,) for k in range(n))
    if n < EXACT_CAP:
        return GammaEstimate(alpha, diam, "exact", AdmissibleSequence((top, singletons)))
    np.fill_diagonal(d, math.inf)
    i, j = divmod(int(np.argmin(d)), n)  # row-major first, so i < j
    value = diam + _power(2, 1 / alpha, alpha) * float(d[i, j])
    if not math.isfinite(value):
        raise ParamOutOfRange(f"the chaining functional overflows float64 at alpha={alpha!r}")
    pair = tuple(sorted([(i, j)] + [(k,) for k in range(n) if k not in (i, j)]))
    return GammaEstimate(alpha, value, "exact", AdmissibleSequence((top, pair, singletons)))


def gamma_greedy(cloud, alpha: float) -> GammaEstimate:
    """Upper bound on the chaining functional from farthest-point hierarchical splits.

    At each level the widest cell splits at its two farthest points until the
    level's cardinality budget is filled; the cells of each level are then
    ordered by their lowest index. Which cell counts as widest follows a scan
    of the cells in list order with diameters within TIE_TOL of each other
    treated as ties that go to the lower min index (see _widest_cell). That
    rule is not transitive, so it depends on list order as well as on the
    diameters, but it is deterministic.

    A level whose budget is at least n cannot bind, since n points make at
    most n cells: every cell splits until its diameter is 0, and the level
    ends as the classes of equal points, ordered by min index. A split never
    parts equal points, and a cell of distinct points has a positive
    diameter unless their squared differences underflow; so that level is
    built in closed form (_equal_point_classes) and is the last. Where
    underflow is possible the level splits widest-first like any other.
    Distances, or a functional, that overflow float64 raise ParamOutOfRange.
    """
    pts = _points_of(cloud)
    n = len(pts)
    if n > GREEDY_CAP:
        raise TooLarge(f"greedy construction capped at {GREEDY_CAP} points, got {n}")
    check_positive("alpha", alpha)

    # cells stay ascending index arrays, so a cell's min index is cell[0]
    cells = [np.arange(n)]
    diams = [_cell_diam(pts, cells[0])]
    if not math.isfinite(diams[0][0]):
        raise ParamOutOfRange("distances between the points overflow float64")
    totals = np.zeros(n)
    partitions = [tuple((tuple(cells[0].tolist()),))]
    m = 0
    while True:
        wide = [(cell, d[0]) for cell, d in zip(cells, diams) if d[0] > 0]
        if not wide:
            break
        weight = _power(2, m / alpha, alpha)
        for cell, diam in wide:
            totals[cell] += weight * diam
        m += 1
        budget = cardinality_limit(m)
        if budget >= n:
            # no level holds more than n cells, so the budget cannot bind:
            # every cell splits until all diameters are 0, which leaves the
            # classes of equal points and adds nothing to the totals
            classes = _equal_point_classes(pts)
            if classes is not None:
                partitions.append(classes)
                break
        while len(cells) < budget:
            pick = _widest_cell(cells, diams)
            if pick < 0:
                break
            _split(pts, cells, diams, pick)
        order = sorted(range(len(cells)), key=lambda ci: cells[ci][0])
        cells = [cells[ci] for ci in order]
        diams = [diams[ci] for ci in order]
        partitions.append(tuple(tuple(c.tolist()) for c in cells))

    value = float(totals.max())
    if not math.isfinite(value):
        raise ParamOutOfRange(f"the chaining functional overflows float64 at alpha={alpha!r}")
    return GammaEstimate(alpha, value, "greedy", AdmissibleSequence(tuple(partitions)))


# a coordinate gap of at least this squares to a normal double, so two
# points that differ on some axis by it have a positive distance
UNDERFLOW_GAP = 1e-150


def _equal_point_classes(pts: np.ndarray) -> tuple | None:
    """The points' classes of equal rows, ordered by lowest index, indices
    ascending in each; None when some axis has two distinct values less than
    UNDERFLOW_GAP apart, so that two distinct points may be at distance 0.
    """
    gaps = np.diff(np.sort(pts, axis=0), axis=0)
    if np.any((gaps > 0) & (gaps < UNDERFLOW_GAP)):
        return None
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    key = first[inverse.reshape(-1)]  # each point's class, named by its lowest index
    order = np.argsort(key, kind="stable")
    cuts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    flat = order.tolist()
    return tuple(tuple(flat[start:end]) for start, end in zip([0] + cuts, cuts + [len(flat)]))


def _split(pts: np.ndarray, cells: list, diams: list, pick: int) -> None:
    """Split cells[pick] at its farthest pair (a, b): the points no farther
    from a than from b keep the place, the others go to the end.

    The distances are np.linalg.norm's sum of squares and root, without its
    call overhead.
    """
    cell = cells[pick]
    _, ia, ib = diams[pick]
    sub = pts[cell]
    da, db = (np.sqrt(np.add.reduce(d * d, axis=1)) for d in (sub - sub[ia], sub - sub[ib]))
    mask = da <= db
    left, right = cell[mask], cell[~mask]
    cells[pick] = left
    diams[pick] = _cell_diam(pts, left)
    cells.append(right)
    diams.append(_cell_diam(pts, right))


def _widest_cell(cells: list, diams: list) -> int:
    """Index of the widest splittable cell, by one scan of the cells in list order.

    The scan keeps a pick p and, for each cell i of positive diameter, moves
    to i when its diameter exceeds p's by more than TIE_TOL, or lies within
    TIE_TOL of it and cells[i][0] < cells[p][0]; -1 when no cell is splittable.
    """
    pick, top = -1, -math.inf
    for ci, (diam, _, _) in enumerate(diams):
        if diam > 0.0 and (diam > top + TIE_TOL or (
                abs(diam - top) <= TIE_TOL and cells[ci][0] < cells[pick][0])):
            pick, top = ci, diam
    return pick


def _cell_diam(pts: np.ndarray, cell: np.ndarray):
    """(diameter, argmax_i, argmax_j) within a cell; row-major first maximum."""
    if len(cell) < 2:
        return (0.0, 0, 0)
    # max keeps the first of equal tiles; a cell of coincident points gives (0.0, 0, 0)
    return max(_distance_tiles(pts[cell], _first_max), key=lambda tile: tile[0])


def _distance_tiles(pts: np.ndarray, reduce) -> list:
    """reduce(start, cdist(pts[start:stop], pts[start:])) over consecutive row
    blocks [start, stop): the upper triangle of the distance matrix, diagonal
    included, each block as many rows as fit in TILE² distances (at least
    one) and freed before the next. The distances are symmetric bit for bit,
    so the row-major first maximum of the whole matrix lies in this triangle.
    """
    tiles, start = [], 0
    while start < len(pts):
        stop = start + max(TILE * TILE // (len(pts) - start), 1)
        tiles.append(reduce(start, cdist(pts[start:stop], pts[start:])))
        start = stop
    return tiles


def _first_max(start: int, d: np.ndarray) -> tuple[float, int, int]:
    """(value, i, j) of the row-major first maximum of the tile at row start."""
    i, j = divmod(int(np.argmax(d)), d.shape[1])
    return float(d[i, j]), start + i, start + j


def _extremes(start: int, d: np.ndarray) -> tuple[float, float]:
    """Largest distance and smallest positive one (inf if none) of a tile."""
    return float(d.max()), float(d.min(initial=math.inf, where=d > 0))


def entropy_integral(cloud, alpha: float) -> GammaEstimate:
    """Upper Riemann sum of (log N(cloud, eps))^(1/alpha) on a geometric grid.

    Grid ratio 2^(-1/4) from the diameter down to the smallest interpoint
    gap; natural logarithms; the constant tail below the smallest gap is
    added in closed form. N = 1 contributes nothing. One farthest-point
    traversal down to the smallest grid eps gives every N(eps) as the
    number of insertion radii above eps. Distances, or an integral, that
    overflow float64 raise ParamOutOfRange.
    """
    pts = np.unique(_points_of(cloud), axis=0)
    check_positive("alpha", alpha)
    diam, min_gap = _diameter_and_gap(pts)
    if min_gap == 0.0:
        return GammaEstimate(alpha, 0.0, "entropy_integral")

    ratio = 2 ** (-0.25)
    grid = [diam]
    while grid[-1] * ratio > min_gap * (1 + 1e-12):
        grid.append(grid[-1] * ratio)
    if grid[-1] > min_gap * (1 + 1e-12):
        grid.append(min_gap)

    # radii never increase, so N(eps) = #{radius > eps} = n - #{radius <= eps}
    ascending = _gonzalez(pts, grid[-1])[1][::-1]
    covers = len(ascending) - np.searchsorted(ascending, grid, side="right")

    total = 0.0
    for hi, lo, cover in zip(grid, grid[1:], covers[1:].tolist()):
        total += (hi - lo) * (_power(math.log(cover), 1.0 / alpha, alpha) if cover > 1 else 0.0)
    # below the smallest gap every point needs its own ball
    total += grid[-1] * _power(math.log(len(pts)), 1.0 / alpha, alpha)
    if not math.isfinite(total):
        raise ParamOutOfRange(f"the entropy integral overflows float64 at alpha={alpha!r}")
    return GammaEstimate(alpha, total, "entropy_integral")


MC_CHUNK = 4096


def gaussian_sup_mc(cloud, trials: int, seed: int) -> SupEstimate:
    """Monte Carlo estimate of E sup over the cloud of the canonical Gaussian process.

    Per-trial Gaussians come from fixed-size seed-derived chunks, so the
    estimate is independent of any execution partitioning. Each chunk's
    product ``g @ pts.T`` is taken in slices of TILE points and in even row
    blocks of at most 2 TILE² products, all written into one buffer
    allocated for the first chunk, and the slices' row maxima are folded
    with ``np.maximum``. A cloud of at most TILE points is one slice, and
    one of at most 2 TILE² / MC_CHUNK = 128 points one block: the whole
    product. A larger cloud gets the estimate of the tiled product: BLAS may
    round the edge columns of a ragged last slice differently from an
    untiled product. A block of rows rounds like the whole chunk, except a
    single row, which BLAS takes with gemv; an even split leaves no block
    of one row unless the chunk has one.
    """
    pts = _points_of(cloud)
    if trials < 1:
        raise ParamOutOfRange("trials must be >= 1")
    n, d = pts.shape
    ss = np.random.SeedSequence(int(seed))
    n_chunks = (trials + MC_CHUNK - 1) // MC_CHUNK
    children = ss.spawn(n_chunks)
    sups = np.empty(trials)
    width = min(TILE, n)
    max_rows = 2 * TILE * TILE // width  # at least 2 TILE: a split chunk has no one-row block
    buf = np.empty(min(MC_CHUNK, trials, max_rows) * width)
    done = 0
    for child in children:
        take = min(MC_CHUNK, trials - done)
        g = np.random.default_rng(child).standard_normal((take, d))
        blocks = -(-take // max_rows)
        rows = -(-take // blocks)
        for top in range(0, take, rows):
            block = g[top : top + rows]
            out = sups[done + top : done + top + len(block)]
            for start in range(0, n, TILE):
                cols = pts[start : start + TILE]
                prod = buf[: len(block) * len(cols)].reshape(len(block), len(cols))
                np.matmul(block, cols.T, out=prod)
                if start == 0:
                    prod.max(axis=1, out=out)
                else:
                    np.maximum(out, prod.max(axis=1), out=out)
        done += take
    mean = float(sups.mean())
    std_error = float(sups.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SupEstimate(mean, std_error, trials, int(seed))


def l_constant(R: float, n: int, alpha: float) -> float:
    """(log(R 3^n)/log 2 + 1)^(1/alpha), both logarithms natural; ParamOutOfRange
    when it overflows float64."""
    if not (R >= 1.0 and n >= 1 and 0 < alpha < math.inf):
        raise ParamOutOfRange("need R >= 1, n >= 1, alpha > 0")
    return _power(math.log(R * 3.0**n) / math.log(2.0) + 1.0, 1.0 / alpha, alpha)


@dataclass(frozen=True)
class GammaRatioReport:
    gamma_T: float
    gamma_Th: float
    L_bound: float
    R: float
    dim: int
    slack: float


def gamma_ratio_report(gamma_T: float, gamma_Th: float, dim: int, alpha: float,
                       R: float) -> GammaRatioReport:
    """The inequality gamma_Th <= L(R, dim, alpha) * gamma_T, with its slack
    L * gamma_T - gamma_Th; R below 1 is raised to 1."""
    R = float(max(R, 1.0))
    L = l_constant(R, dim, alpha)
    slack = L * gamma_T - gamma_Th
    return GammaRatioReport(
        gamma_T=gamma_T,
        gamma_Th=gamma_Th,
        L_bound=L,
        R=R,
        dim=dim,
        slack=float(slack),
    )


def certify_hull_gamma(T, alpha: float, axis_cells: int = 24) -> GammaRatioReport:
    """Certify gamma_alpha(T_h) <= L * gamma_alpha(T) on deterministic samples.

    T is coerced by as_body: a body is sampled at axis_cells, a finite point
    set is used as-is. Both sides are discretized at one resolution: the
    body's sampling grid, or the point set's nearest-neighbor spacing. R is
    hull_ratio of the coerced body. A point set of more than GREEDY_CAP
    points raises TooLarge before its pairwise distances are taken. The
    hull is sampled at doubling spacings until the sample fits GREEDY_CAP,
    and TooLarge is raised when no spacing makes it fit: at once when the
    hull's affine rank exceeds sampling.MAX_GRID_RANK, where the sample
    ignores the spacing. A hull whose bounding-box diagonal overflows
    float64 raises ParamOutOfRange.
    """
    check_positive("alpha", alpha)
    A = as_body(T)
    # past twice the hull points' bounding-box diagonal the hull sample is the
    # vertices alone: the single grid cell's centre lo + h/2 lies outside the
    # box on every axis, and each boundary simplex keeps only its corners
    diag = float(np.linalg.norm(np.ptp(A.hull_points(), axis=0)))
    if not math.isfinite(diag):
        raise ParamOutOfRange("the hull points' bounding-box diagonal overflows float64")
    R = hull_ratio(A)
    if A.kind == "points":
        pts_T = A.points
        if len(pts_T) > GREEDY_CAP:
            raise TooLarge(f"point set of {len(pts_T)} points exceeds the greedy gamma cap "
                           f"of {GREEDY_CAP}")
        h = _diameter_and_gap(pts_T)[1] or 1.0  # the cloud's own resolution
    else:
        pts_T, h = sampling.sample_polytope(A.polytope(), axis_cells=axis_cells)

    while True:
        hull_pts = sampling.sample_hull(A, h)
        if len(hull_pts) <= GREEDY_CAP:
            break
        if h > 2.0 * diag or sampling.affine_basis(A.hull_points())[2] > sampling.MAX_GRID_RANK:
            raise TooLarge(f"hull sample of {len(hull_pts)} points exceeds the greedy "
                           f"gamma cap at every spacing")
        h *= 2.0
    if len(pts_T) > GREEDY_CAP:
        raise TooLarge("body sample exceeds the greedy gamma cap; coarsen axis_cells")

    g_T = gamma_greedy(pts_T, alpha).value
    # a convex body's hull sample is its own sample
    same = hull_pts.shape == pts_T.shape and hull_pts.tobytes() == pts_T.tobytes()
    g_Th = g_T if same else gamma_greedy(hull_pts, alpha).value
    return gamma_ratio_report(g_T, g_Th, A.dim, alpha, R)


def _diameter_and_gap(pts: np.ndarray) -> tuple[float, float]:
    """Diameter and smallest positive interpoint distance; the gap is 0.0 when there is none.

    Both come from the _distance_tiles blocks, so at most TILE² distances
    (or one row, if longer) are held at once; max and min are exact. A
    diameter that overflows float64 raises ParamOutOfRange.
    """
    tiles = _distance_tiles(pts, _extremes)
    diam = max((t[0] for t in tiles), default=0.0)
    gap = min((t[1] for t in tiles), default=math.inf)
    if not math.isfinite(diam):
        raise ParamOutOfRange("distances between the points overflow float64")
    return diam, gap if gap < math.inf else 0.0


@dataclass(frozen=True)
class TwoSidedReport:
    gamma2: float
    esup: float
    esup_std_error: float
    l_hat: float
    degenerate: bool = False


def certify_mm_two_sided(cloud, trials: int, seed: int) -> TwoSidedReport:
    """Empirical constant of the two-sided comparison between the chaining
    functional and the Gaussian supremum: max(gamma2/Esup, Esup/gamma2).

    Singleton clouds are degenerate (both sides vanish) and are flagged
    rather than scored. A chaining functional or a supremum that overflows
    float64 raises ParamOutOfRange.
    """
    pts = _points_of(cloud)
    if len(pts) < 2 or float(np.linalg.norm(pts - pts[0], axis=1).max()) == 0.0:
        return TwoSidedReport(0.0, 0.0, 0.0, float("nan"), degenerate=True)
    gamma = gamma_greedy(pts, 2.0).value
    sup = gaussian_sup_mc(pts, trials, seed)
    if not (math.isfinite(sup.mean) and math.isfinite(sup.std_error)):
        raise ParamOutOfRange("the Gaussian supremum over the points overflows float64")
    if sup.mean <= 0 or gamma <= 0:
        l_hat = float("inf")
    else:
        l_hat = max(gamma / sup.mean, sup.mean / gamma)
    return TwoSidedReport(gamma, sup.mean, sup.std_error, float(l_hat))
