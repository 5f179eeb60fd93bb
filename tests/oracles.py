"""Independent oracles used to freeze expected values.

Everything here is deliberately written from scratch with brute-force
methods, so it shares no code path with the package under test.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def shoelace(vertices) -> float:
    """Signed-area magnitude of a simple polygon given in boundary order."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))) / 2.0


def polygon_contains(vertices, point, tol=1e-12):
    """Even-odd point-in-polygon test with boundary points counted inside.

    `point` is one (x, y) pair, giving a bool, or an (m, 2) array, giving an
    (m,) bool array by the same rule and tolerance.
    """
    v = np.asarray(vertices, dtype=float)
    if np.ndim(point) == 2:
        return _polygon_contains_many(v, np.asarray(point, dtype=float), tol)
    x, y = float(point[0]), float(point[1])
    n = len(v)
    inside = False
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        # on-segment check
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) <= tol * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
            if min(x1, x2) - tol <= x <= max(x1, x2) + tol and min(y1, y2) - tol <= y <= max(y1, y2) + tol:
                return True
        if (y1 > y) != (y2 > y):
            x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_int > x:
                inside = not inside
    return inside


def _polygon_contains_many(v, pts, tol):
    x, y = pts[:, 0], pts[:, 1]
    on_edge = np.zeros(len(pts), dtype=bool)
    inside = np.zeros(len(pts), dtype=bool)
    for (x1, y1), (x2, y2) in zip(v, np.roll(v, -1, axis=0)):
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        on_edge |= (
            (np.abs(cross) <= tol * max(1.0, abs(x2 - x1) + abs(y2 - y1)))
            & (min(x1, x2) - tol <= x) & (x <= max(x1, x2) + tol)
            & (min(y1, y2) - tol <= y) & (y <= max(y1, y2) + tol)
        )
        if y1 != y2:  # a horizontal edge is never crossed
            straddles = (y1 > y) != (y2 > y)
            x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= straddles & (x_int > x)
    return on_edge | inside


def extreme_points(points) -> list[int]:
    """Indices of points that are not convex combinations of the others.

    A point is interior iff it lies in the hull of some (n+1)-subset of the
    rest (Caratheodory); solved per subset by a least-squares feasibility
    check. Exhaustive, so keep inputs tiny.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    out = []
    for i in range(len(pts)):
        others = [j for j in range(len(pts)) if j != i]
        inside = False
        for subset in combinations(others, min(n + 1, len(others))):
            if _in_simplex(pts[i], pts[list(subset)]):
                inside = True
                break
        if not inside:
            out.append(i)
    return out


def _in_simplex(p, verts) -> bool:
    k = len(verts)
    A = np.vstack([verts.T, np.ones(k)])
    b = np.append(p, 1.0)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.linalg.norm(A @ coef - b) > 1e-9:
        return False
    return bool(np.all(coef >= -1e-9))


def _distance(p, q) -> float:
    """sqrt of the left-to-right sum of the squared coordinate differences;
    each square is a product, which is correctly rounded where ``** 2`` (the
    C library's pow) can be off by an ulp."""
    total = 0.0
    for a, b in zip(p, q):
        t = float(a) - float(b)
        total += t * t
    return math.sqrt(total)


def farthest_pair(points) -> tuple[float, int, int]:
    """(distance, i, j) of the first pair, in row-major order over all ordered
    pairs, at the largest distance; (0.0, 0, 0) when every point coincides."""
    pts = [list(map(float, p)) for p in points]
    best = (0.0, 0, 0)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d = _distance(p, q)
            if d > best[0]:
                best = (d, i, j)
    return best


def smallest_positive_gap(points) -> float:
    """Smallest nonzero distance between two points; 0.0 when there is none."""
    pts = [list(map(float, p)) for p in points]
    gaps = [_distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]]
    positive = [g for g in gaps if g > 0]
    return min(positive) if positive else 0.0


def exhaustive_set_cover(points, epsilon) -> int:
    """Smallest number of closed eps-balls centered at points covering them.

    Pure subset enumeration by increasing size; exponential, for tiny inputs.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    # ball i as a bit mask of the points it covers
    covers = [sum(1 << j for j in range(n) if np.linalg.norm(pts[i] - pts[j]) <= epsilon)
              for i in range(n)]
    everything = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in combinations(covers, size):
            union = 0
            for mask in combo:
                union |= mask
            if union == everything:
                return size
    return n


def all_partitions(items):
    """Every partition of a list, as a list of tuples."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(head,) + part[i]] + part[i + 1 :]
        yield [(head,)] + part


def gamma_by_enumeration(points, alpha) -> float:
    """Chaining functional by direct enumeration of admissible chains (n <= 5).

    Enumerates P1 (at most 4 cells) and P2 refining P1 (at most 16 cells,
    which for n <= 5 is no constraint), finishing with singletons; the
    infimum over admissible sequences is attained on such chains.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    assert n <= 5

    dist = {(a, b): float(np.linalg.norm(pts[a] - pts[b]))
            for a in range(n) for b in range(a + 1, n)}

    def diam(cell):
        if len(cell) < 2:
            return 0.0
        return max(dist[a, b] for a in cell for b in cell if a < b)

    def refinements(partition):
        options = [list(all_partitions(list(cell))) for cell in partition]

        def rec(i, acc):
            if i == len(options):
                yield acc
                return
            for opt in options[i]:
                yield from rec(i + 1, acc + opt)

        yield from rec(0, [])

    best = math.inf
    root = [tuple(range(n))]
    w1 = 2 ** (1 / alpha)
    w2 = 2 ** (2 / alpha)
    for p1 in all_partitions(list(range(n))):
        if len(p1) > 4:
            continue
        for p2 in refinements(p1):
            # cardinality limit 16 at level 2 never binds for n <= 5, and level 3
            # (limit 256) finishes with singletons contributing nothing
            value = 0.0
            for t in range(n):
                c1 = next(c for c in p1 if t in c)
                c2 = next(c for c in p2 if t in c)
                total = diam(tuple(range(n))) + w1 * diam(c1) + w2 * diam(c2)
                value = max(value, total)
            best = min(best, value)
    return best


def widest_by_scan(diams, mins, tie=1e-15) -> int:
    """One pass in list order over cells with positive diameter: a cell takes
    the pick when its diameter exceeds the pick's by more than ``tie``, or lies
    within ``tie`` of it and has a lower min index. -1 when none is positive."""
    pick = -1
    for ci, diam in enumerate(diams):
        if diam <= 0:
            continue
        if pick < 0 or diam > diams[pick] + tie:
            pick = ci
        elif abs(diam - diams[pick]) <= tie and mins[ci] < mins[pick]:
            pick = ci
    return pick


def gamma_greedy_reference(points, alpha, tie=1e-15):
    """(value, partitions) of the greedy farthest-point chaining bound, written plainly.

    Level 0 is one cell; level m >= 1 may hold 2^(2^m) cells. A level starts
    from the previous one (cells ordered by lowest index) and, while under
    budget, splits the widest cell that ``widest_by_scan`` finds. The split
    sends each point to the nearer of the cell's first farthest pair
    (row-major over ordered pairs), ties to the first; the left part keeps
    the cell's place, the right part goes to the end. Every point adds
    2^(m/alpha) times its cell's diameter per level; the value is the
    largest such sum.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)

    def farthest(cell):
        sub = pts[cell]
        d = np.sqrt(((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=2))
        i, j = divmod(int(np.argmax(d)), len(cell))
        return float(d[i, j]), cell[i], cell[j]

    cells = [list(range(n))]
    far = [farthest(cells[0])]
    totals = np.zeros(n)
    partitions = [(tuple(range(n)),)]
    m = 0
    while True:
        for cell, (diam, _, _) in zip(cells, far):
            if diam > 0:
                totals[cell] += 2 ** (m / alpha) * diam
        if all(diam <= 0 for diam, _, _ in far):
            break
        m += 1
        while len(cells) < 2 ** (2**m):
            pick = widest_by_scan([f[0] for f in far], [min(c) for c in cells], tie)
            if pick < 0:
                break
            _, a, b = far[pick]
            left, right = [], []
            for t in cells[pick]:
                da = math.sqrt(float(((pts[t] - pts[a]) ** 2).sum()))
                db = math.sqrt(float(((pts[t] - pts[b]) ** 2).sum()))
                (left if da <= db else right).append(t)
            cells[pick] = left
            far[pick] = farthest(left)
            cells.append(right)
            far.append(farthest(right))
        order = sorted(range(len(cells)), key=lambda ci: min(cells[ci]))
        cells = [cells[ci] for ci in order]
        far = [far[ci] for ci in order]
        partitions.append(tuple(tuple(sorted(c)) for c in cells))
    return float(totals.max()), tuple(partitions)


def antiderivative_log_squared(x) -> float:
    """Antiderivative of (ln t)^2 evaluated at x > 0: x (ln^2 x - 2 ln x + 2)."""
    lx = math.log(x)
    return x * (lx * lx - 2 * lx + 2)


def halfnormal_mean() -> float:
    return math.sqrt(2.0 / math.pi)


def max_two_gaussians_mean() -> float:
    return 1.0 / math.sqrt(math.pi)


def positive_part_gaussian_mean() -> float:
    return 1.0 / math.sqrt(2.0 * math.pi)


def decimate_first_occurrence(origin, h_fine, occ, h):
    """Centres of the h-cells hit by the occupied cell centres of a fine grid.

    Fine cell (i, ...) is centred at origin + (i + 1/2) h_fine. Each occupied
    centre c falls in the coarse cell floor((c - lo) / h), with lo the
    coordinate-wise minimum of the centres. The coarse cells are kept in order
    of first occurrence, one pass over the centres, and returned as the points
    lo + (cell + 1/2) h.
    """
    occ = np.asarray(occ, dtype=bool)
    centres = np.asarray(origin, dtype=float) + (np.argwhere(occ) + 0.5) * h_fine
    lo = centres.min(axis=0)
    seen = {}
    for cell in np.floor((centres - lo) / h).astype(int):
        seen.setdefault(tuple(cell.tolist()), None)
    cells = np.array(list(seen), dtype=int).reshape(-1, occ.ndim)
    return lo + (cells + 0.5) * h


def dilation_reference(a_occ, b_occ):
    """Full dilation of the 0/1 grid a by the 0/1 grid b.

    The result has extent m + n - 1 on each axis, and cell i + j is set for
    every set cell i of a and set cell j of b: a copy of a is OR-ed in at
    every occupied offset j of b.
    """
    a = np.asarray(a_occ, dtype=bool)
    b = np.asarray(b_occ, dtype=bool)
    out = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)), dtype=bool)
    for offset in np.argwhere(b):
        out[tuple(slice(j, j + m) for j, m in zip(offset, a.shape))] |= a
    return out


def farthest_point_reference(points, epsilon):
    """(picks, radii) of the farthest-point greedy epsilon-cover, one full pass per pick.

    Rows are taken as a C-contiguous float array. Every point keeps its
    distance to the nearest pick, starting at inf; the next pick is the
    first point at the largest such distance, its insertion radius, and
    picking stops once that distance is <= epsilon. Distances are numpy
    row norms of all points to the new pick.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    mind = np.full(len(pts), np.inf)
    picks, radii = [], []
    while True:
        far = int(np.argmax(mind))
        if mind[far] <= epsilon:
            return picks, radii
        picks.append(far)
        radii.append(float(mind[far]))
        mind = np.minimum(mind, np.linalg.norm(pts - pts[far], axis=1))


def packing_reference(points, epsilon) -> int:
    """Size of the index-order greedy epsilon-separated subset.

    A point is kept when every earlier kept point is at numpy row-norm
    distance > epsilon, one full pass of distances per kept point.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    mind = np.full(len(pts), np.inf)
    kept = 0
    for i in range(len(pts)):
        if mind[i] > epsilon:
            kept += 1
            mind = np.minimum(mind, np.linalg.norm(pts - pts[i], axis=1))
    return kept


def meb_bruteforce(points):
    """(center, radius) of the smallest enclosing ball, for at most 10 distinct points.

    Every subset of at most d + 1 distinct points proposes its circumcentre
    in its affine hull, from the least-squares solution of the 2 Q Q^T
    system of its differences to its first point. The answer is the
    proposed centre whose farthest point is nearest. Each proposal's radius
    covers every point, so none is below the true one; the ball's own
    support proposes the true centre.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    assert len(pts) <= 10, "brute force over supports is meant for at most 10 points"
    best = (None, math.inf)
    for size in range(1, min(len(pts), pts.shape[1] + 1) + 1):
        for support in combinations(range(len(pts)), size):
            p0, q = pts[support[0]], pts[list(support[1:])] - pts[support[0]]
            lam = np.linalg.lstsq(2.0 * q @ q.T, (q * q).sum(axis=1), rcond=None)[0]
            center = p0 + lam @ q
            radius = float(np.linalg.norm(pts - center, axis=1).max())
            if radius < best[1]:
                best = (center, radius)
    return best


def entropy_integral_reference(points, alpha) -> float:
    """Upper Riemann sum of (log N(eps))^(1/alpha) with one greedy cover per grid eps.

    Over the distinct points: the grid starts at the diameter and shrinks by
    2^(-1/4) while it stays above the smallest positive gap (relative margin
    1e-12), then ends at that gap; N(eps) is the size of
    ``farthest_point_reference`` at each step's lower end, and the gap times
    (log n)^(1/alpha) is added for the scales below it.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    diam = farthest_pair(pts)[0]
    gap = smallest_positive_gap(pts)
    if gap == 0.0:
        return 0.0
    grid = [diam]
    while grid[-1] * 2 ** (-0.25) > gap * (1 + 1e-12):
        grid.append(grid[-1] * 2 ** (-0.25))
    if grid[-1] > gap * (1 + 1e-12):
        grid.append(gap)
    total = 0.0
    for hi, lo in zip(grid, grid[1:]):
        cover = len(farthest_point_reference(pts, lo)[0])
        total += (hi - lo) * (math.log(cover) ** (1.0 / alpha) if cover > 1 else 0.0)
    return total + grid[-1] * math.log(len(pts)) ** (1.0 / alpha)


def hausdorff_reference(a, b, chunk=256) -> float:
    """Symmetric Hausdorff distance by brute force: every pairwise distance,
    as the root of the coordinate-ordered sum of squared differences, a
    chunk of rows at a time."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def directed(src, dst):
        worst = 0.0
        for start in range(0, len(src), chunk):
            diff = src[start : start + chunk, None, :] - dst[None, :, :]
            nearest = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
            worst = max(worst, float(nearest.max()))
        return worst

    return max(directed(a, b), directed(b, a))


def simplex_lattice_reference(verts, h):
    """Barycentric lattice on a (k-1)-simplex with edge step about h.

    m is the longest edge over h, rounded up and at least 1. The weights
    are the k-tuples of non-negative integers summing to m, enumerated
    recursively with each entry running upward, divided by m and mapped
    through the vertices.
    """
    verts = np.asarray(verts, dtype=float)
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
    return (np.array(pts, dtype=float) / m) @ verts


def ray_crossings_reference(pts, direction, coords, tau):
    """(inside, bad) of a ray cast from every point along ``direction``
    against every boundary simplex in ``coords`` (F, n, n), solving for
    every point at every simplex.

    Per simplex: solve base + edges @ bary - t * direction = p. A strict
    crossing has every bary > tau, bsum < 1 - tau and t > tau; a point
    within tau of the simplex (bary > -tau, bsum < 1 + tau, |t| <= tau) is
    on the boundary; a near miss that is neither (t > -tau) makes the point
    bad. Inside means an odd crossing count or on the boundary, and a point
    on the boundary is never bad. A singular system is skipped.
    """
    pts = np.asarray(pts, dtype=float)
    m = len(pts)
    crossings = np.zeros(m, dtype=int)
    bad = np.zeros(m, dtype=bool)
    on_boundary = np.zeros(m, dtype=bool)
    for simp in coords:
        base = simp[0]
        A = np.column_stack([(simp[1:] - base).T, -direction])
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            continue
        sol = (pts - base) @ Ainv.T
        bary, t = sol[:, :-1], sol[:, -1]
        bsum = bary.sum(axis=1)
        strict = (bary > tau).all(axis=1) & (bsum < 1 - tau) & (t > tau)
        grazing = (bary > -tau).all(axis=1) & (bsum < 1 + tau) & (t > -tau) & ~strict
        near_face = (bary > -tau).all(axis=1) & (bsum < 1 + tau) & (np.abs(t) <= tau)
        crossings += strict.astype(int)
        on_boundary |= near_face
        bad |= grazing & ~near_face
    return (crossings % 2 == 1) | on_boundary, bad & ~on_boundary


def _reference_plane(pts, verts, interior):
    """(normal, offset) of the hyperplane through ``pts[verts]``, facing away
    from ``interior``, or None when the vertices are affinely dependent. The
    normal is the cofactor expansion of the generalized cross product: its
    d minors go to ``np.linalg.det`` as one stack; it is scaled to unit
    ``np.linalg.norm`` and flipped when ``normal @ interior > offset``."""
    base = pts[verts[0]]
    rows = pts[list(verts[1:])] - base
    d = pts.shape[1]
    normal = np.linalg.det(np.array([np.delete(rows, i, axis=1) for i in range(d)]))
    normal[1::2] = -normal[1::2]
    norm = np.linalg.norm(normal)
    if norm == 0.0:
        return None
    normal /= norm
    offset = float(normal @ base)
    if normal @ interior > offset:
        return -normal, -offset
    return normal, offset


def _reference_ridges(verts):
    return [tuple(sorted(verts[:k] + verts[k + 1 :])) for k in range(len(verts))]


def _reference_hull_facets(pts, tau):
    """Live facets [verts, normal, offset, outside] of a point-by-point Quickhull."""
    n = pts.shape[1]
    # initial simplex: least first coordinate, then the farthest point from
    # the affine span so far, lowest index on ties
    init = [int(np.argmin(pts[:, 0]))]
    basis = np.zeros((0, n))
    for _ in range(n):
        rel = pts - pts[init[0]]
        if len(basis):
            rel = rel - rel @ basis.T @ basis
        dist = np.linalg.norm(rel, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= tau:
            raise ValueError("points are affinely dependent")
        init.append(far)
        basis = np.vstack([basis, rel[far] / dist[far]])
    interior = pts[init].mean(axis=0)

    def outside(facet, p):
        return facet[1] @ p - facet[2] > tau

    def assign(points, targets):
        for idx in points:
            for facet in targets:
                if outside(facet, pts[idx]):
                    facet[3].append(idx)
                    break

    facets = []  # [verts, normal, offset, outside]; None once dead
    for omit in range(n + 1):
        verts = tuple(init[i] for i in range(n + 1) if i != omit)
        facets.append([verts, *_reference_plane(pts, verts, interior), []])
    assign([i for i in range(len(pts)) if i not in init], facets)

    while True:
        pick = next((k for k, f in enumerate(facets) if f and f[3]), None)
        if pick is None:
            return [f for f in facets if f]
        f = facets[pick]
        apex = f[3][int(np.argmax([f[1] @ pts[i] - f[2] for i in f[3]]))]
        owners = {}
        for k, g in enumerate(facets):
            for ridge in _reference_ridges(g[0]) if g else ():
                owners.setdefault(ridge, []).append(k)
        # the facets the apex sees, connected to pick through shared ridges
        visible, stack = {pick}, [pick]
        while stack:
            for ridge in _reference_ridges(facets[stack.pop()][0]):
                for k in owners[ridge]:
                    if k not in visible and outside(facets[k], pts[apex]):
                        visible.add(k)
                        stack.append(k)
        horizon = sorted(r for r, own in owners.items()
                         if len(own) == 2 and (own[0] in visible) != (own[1] in visible))
        orphans = sorted({i for k in visible for i in facets[k][3]} - {apex})
        for k in visible:
            facets[k] = None
        new = []
        for ridge in horizon:
            plane = _reference_plane(pts, ridge + (apex,), interior)
            if plane is not None:
                new.append([ridge + (apex,), *plane, []])
        facets.extend(new)
        assign(orphans, new)


def quickhull_reference(points):
    """(vertices, simplices) of the Quickhull of ``points``, test by test.

    A point is outside a facet when ``normal @ p - offset > tau``, one
    one-vector dot product, with tau = 1e-9 times the bounding-box diagonal
    (at least 1). The facet with outside points that was made first is
    expanded next, from its first farthest outside point; the new facets
    stand on the sorted horizon ridges, and each orphaned point goes to the
    first new facet it is outside of. A vertex whose incident facet normals
    do not span R^n (least singular value at most 1e-9) lies inside a face:
    the hull is rebuilt without such vertices. Each simplex is ordered so
    that its determinant about the vertex centroid is positive (the first
    two vertices swapped), and the simplices are sorted.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    tau = 1e-9 * float(max(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)), 1.0))
    while True:
        facets = _reference_hull_facets(pts, tau)
        incident = {}
        for verts, normal, _, _ in facets:
            for v in verts:
                incident.setdefault(v, []).append(normal)
        hull_idx = sorted(incident)
        flat = {v for v, normals in incident.items()
                if len(normals) < n or np.linalg.svd(np.array(normals), compute_uv=False)[-1] <= 1e-9}
        if not flat:
            break
        pts = pts[sorted(set(hull_idx) - flat)]
    remap = {old: new for new, old in enumerate(hull_idx)}
    vertices = pts[hull_idx]
    simplices = np.array([[remap[v] for v in f[0]] for f in facets], dtype=int)
    flip = np.linalg.det(vertices[simplices] - vertices.mean(axis=0)) < 0
    simplices[flip, :2] = simplices[flip, 1::-1]
    return vertices, np.array(sorted(simplices.tolist()), dtype=int)


def gaussian_sup_reference(points, trials, seed, chunk=4096, cols=None):
    """(mean, std_error) of max over the points of <g, p>, over ``trials``
    standard Gaussian vectors g. The k-th chunk of ``chunk`` trials (fewer in
    the last) draws its g from the k-th child of ``SeedSequence(seed)`` and
    forms the whole chunk's ``(g @ pts.T).max(axis=1)``; with ``cols``, the
    maximum over the row maxima of ``g @ pts[s : s + cols].T`` for s = 0,
    cols, 2 cols, ..."""
    pts = np.asarray(points, dtype=float)
    cols = cols or len(pts)
    children = np.random.SeedSequence(int(seed)).spawn(-(-trials // chunk))
    sups = []
    for k, child in enumerate(children):
        g = np.random.default_rng(child).standard_normal((min(chunk, trials - k * chunk), pts.shape[1]))
        slices = [(g @ pts[s : s + cols].T).max(axis=1) for s in range(0, len(pts), cols)]
        sups.append(np.max(slices, axis=0))
    sups = np.concatenate(sups)
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(trials))
