import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullmetry import covering, geometry
from hullmetry.chaining import entropy_integral
from hullmetry.errors import HullmetryError, ParamOutOfRange, TooLarge, Unsupported
from hullmetry.covering import (
    _gonzalez,
    _greedy_centers,
    check_hull_cover_ratio,
    exact_cover_small,
    greedy_cover,
    inradius,
    packing_number,
    volume_cover_bounds,
)
from hullmetry.geometry import PointCloud, polytope_from_facets, quickhull, unit_ball_volume
from hullmetry.minkowski import hull_ratio

import bundled
from oracles import exhaustive_set_cover, farthest_point_reference, packing_reference

TWO = np.array([[0.0, 0.0], [1.0, 0.0]])
SQ_VERTS = np.array(bundled.payload("unit_square")["vertices"])


def bundled_poly(sid):
    doc = bundled.payload(sid)
    return polytope_from_facets(np.array(doc["vertices"]), doc["facets"])


def lshape_poly():
    return bundled_poly("lshape")


# ---------------------------------------------------------------------------
# greedy / exact / packing
# ---------------------------------------------------------------------------


def test_greedy_two_points():
    assert greedy_cover(TWO, 1.0).n_greedy == 1
    assert greedy_cover(TWO, 0.4).n_greedy == 2


def test_greedy_covers_everything():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (60, 2))
    rep = greedy_cover(pts, 0.25)
    d = np.linalg.norm(pts[:, None, :] - rep.centers[None, :, :], axis=-1)
    assert (d.min(axis=1) <= 0.25 + 1e-12).all()


def test_greedy_rejects_bad_epsilon():
    with pytest.raises(ParamOutOfRange):
        greedy_cover(TWO, 0.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.5])
@pytest.mark.parametrize(
    "fn", [greedy_cover, packing_number, exact_cover_small, check_hull_cover_ratio]
)
def test_covering_rejects_nonfinite_or_nonpositive_epsilon(fn, epsilon):
    # a nan epsilon used to make the greedy loop pick forever; inf gave 0 centres
    with pytest.raises(ParamOutOfRange):
        fn(TWO, epsilon)


def test_greedy_cover_refuses_distances_that_overflow():
    # every distance was inf, so each pass took the first-pick branch again
    # and the traversal never returned; an alarm fails the test instead
    pts = np.arange(16.0)[:, None] * 1e184

    def timed_out(*_):
        raise TimeoutError("the farthest-point traversal did not return in 10 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        with np.errstate(over="ignore"), pytest.raises(ParamOutOfRange, match="overflow float64"):
            greedy_cover(pts, 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0])
def test_volume_bounds_reject_nonfinite_or_nonpositive_epsilon(epsilon):
    with pytest.raises(ParamOutOfRange):
        volume_cover_bounds(quickhull(SQ_VERTS), epsilon)


@st.composite
def metric_clouds(draw):
    """(points, epsilon): Gaussian clouds, clouds with repeated rows, or dyadic
    lattices with epsilon a multiple of the step, so some distances are exactly
    epsilon; in d = 1, 2, 3 or 8 (numpy's pairwise row sums start at 8
    columns), C- or Fortran-ordered."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 8]))
    n = draw(st.integers(min_value=1, max_value=70))
    kind = draw(st.sampled_from(["gauss", "repeats", "lattice"]))
    if kind == "lattice":
        step = 2.0 ** -draw(st.integers(min_value=0, max_value=3))
        pts = rng.integers(-3, 4, (n, d)) * step
        epsilon = step * draw(st.sampled_from([1, 2]))
    else:
        pts = rng.standard_normal((n, d))
        if kind == "repeats":
            pts = pts[rng.integers(0, max(n // 3, 1), n)]
        epsilon = float(rng.uniform(0.1, 1.5)) * math.sqrt(d)
    if draw(st.booleans()):
        pts = np.asfortranarray(pts)
    return pts, epsilon


@settings(max_examples=150, deadline=None)
@given(metric_clouds())
def test_traversal_and_packing_replay_the_full_pass_loops(cloud):
    pts, eps = cloud
    picks, radii = farthest_point_reference(pts, eps)
    order, got_radii = _gonzalez(pts, eps)
    assert order.tolist() == picks
    assert got_radii.tobytes() == np.array(radii).tobytes()
    rep = greedy_cover(pts, eps)
    assert rep.centers.tobytes() == np.ascontiguousarray(pts)[picks].tobytes()
    assert rep.n_greedy == len(picks)
    assert rep.n_packing == packing_number(pts, eps) == packing_reference(pts, eps)


@settings(max_examples=60, deadline=None)
@given(metric_clouds(), st.lists(st.floats(min_value=1.0, max_value=8.0), min_size=1, max_size=6))
def test_cover_size_is_monotone_and_read_off_one_traversal(cloud, scales):
    pts, eps = cloud
    _, radii = _gonzalez(pts, eps)
    assert (np.diff(radii) <= 0).all()
    sizes = []
    for e in sorted({eps} | {eps * s for s in scales}):
        sizes.append(len(_greedy_centers(pts, e)))
        assert sizes[-1] == int(np.count_nonzero(radii > e))
    assert sizes == sorted(sizes, reverse=True)


def test_exact_singleton():
    assert exact_cover_small(np.array([[0.0, 0.0]]), 0.5) == 1


def test_exact_equilateral_triangle():
    # all pairwise distances are 1 > 0.9, so with centers in the set each
    # ball covers exactly one vertex
    tri = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    assert exact_cover_small(tri, 0.9) == exhaustive_set_cover(tri, 0.9) == 3
    assert exact_cover_small(tri, 1.0) == 1


def test_exact_two_separated_clusters():
    rng = np.random.default_rng(8)
    pts = np.vstack([rng.uniform(-0.05, 0.05, (5, 2)),
                     [10, 0] + rng.uniform(-0.05, 0.05, (5, 2))])
    assert exact_cover_small(pts, 0.2) == 2


def test_exact_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for trial in range(6):
        pts = rng.uniform(0, 1, (9, 2))
        eps = float(rng.uniform(0.15, 0.6))
        assert exact_cover_small(pts, eps) == exhaustive_set_cover(pts, eps)
    # 1 to 24 points in R^1 to R^3, uniform or on a quarter lattice, where
    # many distances equal epsilon exactly; epsilon grows as sqrt(d), which
    # keeps the covers small enough (1 to 14 balls) for subset enumeration
    for trial in range(300):
        n, d = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        pts = rng.uniform(0, 1, (n, d)) if trial % 2 else rng.integers(0, 5, (n, d)) / 4.0
        eps = float(rng.choice([0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.7])) * d**0.5
        assert exact_cover_small(pts, eps) == exhaustive_set_cover(pts, eps)


def test_exact_cover_refuses_a_solve_that_is_not_an_optimal_cover(monkeypatch):
    import scipy.optimize

    tri = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    for status, x in ((1, None), (0, np.array([1.0, 0.0, 0.0]))):
        result = scipy.optimize.OptimizeResult(status=status, x=x, message="stub")
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kw: result)
        with pytest.raises(HullmetryError, match="without an optimal cover"):
            exact_cover_small(tri, 0.9)


def test_exact_cap_enforced():
    pts = np.random.default_rng(0).uniform(0, 1, (25, 2))
    with pytest.raises(TooLarge):
        exact_cover_small(pts, 0.3)


def test_packing_examples():
    assert packing_number(TWO, 0.5) == 2
    assert packing_number(np.array([[0.0, 0.0]]), 0.5) == 1


def test_packing_is_computed_only_on_request(monkeypatch):
    pts = np.random.default_rng(31).uniform(0, 1, (60, 2))
    rep = greedy_cover(pts, 0.3)
    assert rep.n_packing == packing_number(pts, 0.3) == 8

    def refuse(*args, **kwargs):
        raise AssertionError("packing_number called by a caller that only needs n_greedy")

    monkeypatch.setattr(covering, "packing_number", refuse)
    # values recorded when every greedy cover also computed its packing number
    assert entropy_integral(pts, 2.0).value == 1.5998924848873077
    cert = check_hull_cover_ratio(PointCloud(pts), 0.3)
    assert (cert.n_hull, cert.n_body, cert.bound, cert.holds) == (9, 9, 81.0, True)
    cert = check_hull_cover_ratio(lshape_poly(), 0.8)
    assert (cert.n_hull, cert.n_body, cert.bound, cert.holds) == (6, 6, 63.0, True)
    assert exact_cover_small(pts[:14], 0.35) == 5
    with pytest.raises(AssertionError):
        greedy_cover(pts, 0.3)


def test_greedy_cover_builds_one_kd_tree(count_calls):
    # the traversal and the packing count share one tree of the points
    trees = count_calls(covering, "cKDTree")
    rep = greedy_cover(np.random.default_rng(31).uniform(0, 1, (60, 2)), 0.3)
    assert (rep.n_greedy, rep.n_packing) == (9, 8)
    assert len(trees) == 1


def test_packing_sandwich_11_point_grid():
    grid = np.array([[i / 10] for i in range(11)])
    eps = 0.35
    n_exact = exact_cover_small(grid, eps)
    assert packing_number(grid, 2 * eps) <= n_exact <= packing_number(grid, eps)


def test_sandwich_lower_exact_greedy():
    rng = np.random.default_rng(12)
    for _ in range(5):
        pts = rng.uniform(0, 1, (14, 2))
        eps = float(rng.uniform(0.15, 0.5))
        rep = greedy_cover(pts, eps)
        n_exact = exact_cover_small(pts, eps)
        assert packing_number(pts, 2 * eps) <= n_exact <= rep.n_greedy
        # a maximal separated set is itself a cover, so exact N <= P(eps)
        assert n_exact <= packing_number(pts, eps)


def test_subset_monotonicity():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, (16, 2))
    sub = pts[:9]
    for eps in (0.2, 0.35, 0.5):
        assert exact_cover_small(sub, eps) <= exact_cover_small(pts, eps)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_greedy_monotone_in_epsilon(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, (int(rng.integers(5, 40)), 2))
    e1, e2 = sorted(rng.uniform(0.05, 0.8, 2))
    if e1 == e2:
        return
    assert greedy_cover(pts, e1).n_greedy >= greedy_cover(pts, e2).n_greedy


# ---------------------------------------------------------------------------
# volume sandwich
# ---------------------------------------------------------------------------


def test_volume_bounds_unit_ball_formulas():
    ang = 2 * np.pi * np.arange(256) / 256
    ball = quickhull(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    lo, up = volume_cover_bounds(ball, 0.5)
    assert lo == pytest.approx(4.0, rel=2e-3)
    assert up == pytest.approx(36.0, rel=2e-3)
    lo1, up1 = volume_cover_bounds(ball, 1.0)
    assert lo1 == pytest.approx(1.0, rel=2e-3)


def test_volume_bounds_centered_square():
    sq4 = quickhull(np.array([[-2.0, -2.0], [2, -2], [2, 2], [-2, 2]]))
    lo, up = volume_cover_bounds(sq4, 1.0)
    assert lo == pytest.approx(16 / math.pi, rel=1e-9)
    assert up == pytest.approx(144 / math.pi, rel=1e-9)
    assert inradius(sq4) == pytest.approx(2.0, abs=1e-7)


def test_volume_bounds_upper_needs_inball():
    sq = quickhull(SQ_VERTS)
    lo, up = volume_cover_bounds(sq, 0.8)  # inradius is 0.5 < 0.8
    assert up is None
    assert lo == pytest.approx((1 / 0.8) ** 2 / math.pi, rel=1e-9)


def test_volume_cover_bounds_reads_the_cached_halfspaces(count_calls):
    sq = quickhull(SQ_VERTS)
    normals = count_calls(geometry, "_facet_normals")
    volume_cover_bounds(sq, 0.2)
    assert len(normals) == 1  # one batched call for the four edges of the square
    for eps in (0.4, 0.8):
        volume_cover_bounds(sq, eps)
    assert len(normals) == 1


# star-shaped polygons that are not convex, vertices in order; the
# halfspaces of their edges, facing away from the vertex centroid, cut out a
# set that is not the hull of the vertices
NONCONVEX_GATE_BODIES = {
    # linprog finds no Chebyshev ball (inradius 0.0), yet the centroid lies
    # 0.0068 inside every halfspace
    "nonconvex-open": [[1.668, 0.435], [1.188, 1.023], [0.507, 0.912], [1.726, -0.126],
                       [2.12, -1.388], [2.573, -1.177]],
    # inradius 0.787, above half the least width along an edge normal (0.746)
    "nonconvex-wide": [[-2.316, -0.699], [-2.789, 0.453], [-3.325, 0.663], [-2.769, -0.923],
                       [-4.083, -0.735], [-3.11, -1.139], [-3.287, -1.285], [-2.751, -1.17],
                       [-4.289, -1.855], [-3.609, -1.583]],
}


def _gate_body(name):
    if name == "thin_triangle":
        # the centroid lies 0.1 from the long side; the inradius is about 0.15
        return quickhull(np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.3]]))
    if name in NONCONVEX_GATE_BODIES:
        verts = np.array(NONCONVEX_GATE_BODIES[name])
        return polytope_from_facets(verts, [[i, (i + 1) % len(verts)] for i in range(len(verts))])
    kind, seed = name.split("-")
    rng = np.random.default_rng(int(seed))
    dim = 2 if kind == "polygon" else 3
    pts = rng.normal(size=(int(rng.integers(dim + 2, 30)), dim))
    return quickhull(pts * rng.uniform(0.1, 3.0, dim) + rng.uniform(-5.0, 5.0, dim))


GATE_BODIES = ([f"polygon-{s}" for s in range(4)] + [f"polytope-{s}" for s in range(4)]
               + ["thin_triangle"])


@pytest.mark.parametrize("name", GATE_BODIES)
def test_volume_cover_bounds_gate_matches_linprog(name, count_calls):
    # across the closed-form bracket of the Chebyshev radius, and at the
    # radius itself, upper is None exactly when linprog puts it below epsilon
    poly = _gate_body(name)
    radius = inradius(poly)
    normals, offsets = poly.halfspaces
    heights = normals @ poly.vertices.T
    lo = (offsets - heights.mean(axis=1)).min()
    hi = 0.5 * (offsets - heights.min(axis=1)).min()
    assert lo - 1e-9 <= radius <= hi + 1e-9
    epsilons = np.concatenate([np.linspace(lo / 2, 1.5 * hi, 13),
                               radius + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])])
    calls = count_calls(covering, "inradius")
    for eps in epsilons[epsilons > 0]:
        assert (volume_cover_bounds(poly, eps)[1] is None) == (radius + 1e-12 < eps)
    if name == "thin_triangle":
        assert calls  # epsilon between the bounds
    assert len(calls) < len(epsilons)


@pytest.mark.parametrize("name", sorted(NONCONVEX_GATE_BODIES))
def test_inradius_and_volume_cover_bounds_reject_a_nonconvex_polytope(name):
    poly = _gate_body(name)
    with pytest.raises(Unsupported, match="not convex"):
        inradius(poly)
    with pytest.raises(Unsupported, match="not convex"):
        volume_cover_bounds(poly, 0.1)


def test_volume_lower_bound_below_exact_cover():
    # convex sampled bodies: the volume lower bound never exceeds the exact
    # internal covering number
    sq4 = quickhull(np.array([[-2.0, -2.0], [2, -2], [2, 2], [-2, 2]]))
    grid = np.array([[x, y] for x in np.linspace(-2, 2, 4) for y in np.linspace(-2, 2, 4)])
    for eps in (1.0, 1.5, 2.0):
        lo, _ = volume_cover_bounds(sq4, eps)
        assert lo <= exact_cover_small(grid, eps)


# ---------------------------------------------------------------------------
# hull-cover certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.2, 0.4, 0.8])
def test_hull_cover_lshape_holds(eps):
    poly = lshape_poly()
    cert = check_hull_cover_ratio(poly, eps)
    assert cert.holds and cert.slack >= 0
    assert cert.ratio_R == hull_ratio(poly, "poly") == pytest.approx(3.5 / 3, rel=1e-9)


def test_hull_cover_convex_body_equal_counts():
    sq = bundled_poly("unit_square")
    cert = check_hull_cover_ratio(sq, 0.3)
    # convex body: T and its hull sample identically, so the 3^n factor is pure slack
    assert cert.n_hull == cert.n_body
    assert cert.slack >= (3.0**2 - 1) * cert.n_body - 1e-9


def test_hull_cover_two_point_cloud():
    cert = check_hull_cover_ratio(TWO, 0.2)
    assert cert.n_body == 2
    assert cert.n_hull <= math.ceil(1 / (2 * 0.2)) + 2
    assert cert.holds


def test_hull_cover_general_mode_uses_larger_R():
    poly = lshape_poly()
    cert = check_hull_cover_ratio(poly, 0.4)
    R_gen = hull_ratio(poly, "general")
    assert R_gen >= cert.ratio_R
    # the counts do not depend on R: the cover also holds at R_gen
    assert cert.n_hull <= R_gen * 3**2 * cert.n_body


def test_unit_ball_volume_helper():
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2)
