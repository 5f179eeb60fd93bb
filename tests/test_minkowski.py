import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hullmetry import geometry, minkowski, sampling
from hullmetry.chaining import certify_hull_gamma
from hullmetry.errors import (
    DegenerateInput, DimensionMismatch, NonpositiveScale, ParamOutOfRange, Unsupported,
)
from hullmetry.geometry import PointCloud, load_body, polytope_from_facets, quickhull
from hullmetry.harness import Scenario
from hullmetry.minkowski import (
    BodyApprox,
    GridBody,
    as_body,
    body_beta,
    convexification_gap,
    empirical_general_ratio,
    hull_ratio,
    measured_c2,
    minkowski_average,
    minkowski_sum,
    reverse_bm_sweep,
    scale_body,
    volume_ratio_general_bound,
)

import bundled
from oracles import decimate_first_occurrence, dilation_reference, polygon_contains, shoelace

L_DOC = bundled.payload("lshape")
L_VERTS = np.array(L_DOC["vertices"])


def lshape_body(axis_cells=100):
    poly = polytope_from_facets(L_VERTS, L_DOC["facets"])
    return BodyApprox.from_polytope(poly, axis_cells=axis_cells)


def convex_body(points):
    """The convex hull of points, as the one Polytope a convex body is."""
    return BodyApprox.from_polytope(quickhull(np.asarray(points, dtype=float)))


def square_body():
    return convex_body(bundled.payload("unit_square")["vertices"])


def bundled_lshape() -> Scenario:
    return Scenario.from_dict(bundled.scenario("lshape"))


# ---------------------------------------------------------------------------
# sums and scaling
# ---------------------------------------------------------------------------


def test_sum_square_with_itself_doubles():
    s2 = minkowski_sum(square_body(), square_body())
    assert s2.volume() == pytest.approx(4.0, abs=1e-12)
    assert sorted(map(tuple, s2.hull_points().tolist())) == [
        (0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]


def test_sum_of_orthogonal_segments_is_square():
    # the segments thickened to width d: [0,1]x[0,d] + [0,d]x[0,1] = [0,1+d]^2
    d = 0.25
    a = convex_body([[0.0, 0.0], [1.0, 0.0], [1.0, d], [0.0, d]])
    b = convex_body([[0.0, 0.0], [d, 0.0], [d, 1.0], [0.0, 1.0]])
    sq = minkowski_sum(a, b)
    assert sq.volume() == pytest.approx((1.0 + d) ** 2, abs=1e-12)
    assert sorted(map(tuple, sq.hull_points().tolist())) == [
        (0.0, 0.0), (0.0, 1.0 + d), (1.0 + d, 0.0), (1.0 + d, 1.0 + d)]


def test_convex_sum_keeps_its_hull(monkeypatch):
    calls = []
    real = minkowski.quickhull
    monkeypatch.setattr(minkowski, "quickhull", lambda pts: calls.append(1) or real(pts))
    sq = square_body()
    assert minkowski_sum(sq, scale_body(sq, 2.0)).volume() == pytest.approx(9.0, abs=1e-12)
    assert len(calls) == 1


def test_sum_dimension_mismatch():
    a = square_body()
    b = convex_body(bundled.payload("unit_cube")["vertices"])
    with pytest.raises(DimensionMismatch):
        minkowski_sum(a, b)


def test_sum_commutative_and_associative_volumes():
    tri = convex_body([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sq = square_body()
    thin = convex_body([[0.0, 0.0], [0.5, 0.25], [0.25, 0.5]])
    ab = minkowski_sum(tri, sq).volume()
    ba = minkowski_sum(sq, tri).volume()
    assert ab == pytest.approx(ba, rel=1e-12)
    abc1 = minkowski_sum(minkowski_sum(tri, sq), thin).volume()
    abc2 = minkowski_sum(tri, minkowski_sum(sq, thin)).volume()
    assert abc1 == pytest.approx(abc2, rel=1e-12)


def test_sum_commutative_on_grid_path():
    lb = lshape_body(axis_cells=60)
    sq = square_body()
    ab = minkowski_sum(lb, sq)
    ba = minkowski_sum(sq, lb)
    assert ab.volume() == pytest.approx(ba.volume(), rel=1e-9)
    from hullmetry.sampling import hausdorff_distance

    res = max(ab.grid.h, ba.grid.h)
    assert hausdorff_distance(ab.grid.cell_centers(), ba.grid.cell_centers()) <= res


def test_sum_of_a_point_set_with_a_body_or_of_grids_at_two_spacings_is_unsupported():
    # these sums rasterized the point set or re-gridded the finer grid's cell
    # centres, a path that no check, CLI command or average reached
    lb = lshape_body(axis_cells=60)
    two = BodyApprox.from_points(bundled.payload("twopoint")["points"])
    fine = BodyApprox.from_grid(minkowski._rasterize(lb, lb.natural_spacing()))
    coarse = BodyApprox.from_grid(minkowski._rasterize(lb, 2 * lb.natural_spacing()))
    for a, b, kind in ((two, lb, "points"), (lb, two, "points"), (fine, coarse, "grid")):
        with pytest.raises(Unsupported, match=f"cannot rasterize a {kind} body"):
            minkowski_sum(a, b)
    assert minkowski_sum(fine, fine).volume() > 0


def test_forward_brunn_minkowski_on_convex_bodies():
    tri = convex_body([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sq = square_body()
    n = 2
    lhs = minkowski_sum(tri, sq).volume() ** (1 / n)
    rhs = tri.volume() ** (1 / n) + sq.volume() ** (1 / n)
    assert lhs >= rhs - 1e-12


def test_scale_body_volume_law():
    sq = square_body()
    assert scale_body(sq, 2.0).volume() == pytest.approx(4.0, abs=1e-12)
    assert scale_body(sq, 1.0).volume() == pytest.approx(1.0, abs=1e-12)
    lb = lshape_body()
    half = scale_body(lb, 0.5)
    assert half.volume() == pytest.approx(0.75, abs=1e-12)
    assert half.volume() == pytest.approx(shoelace(L_VERTS * 0.5), abs=1e-12)


def test_scale_body_rejects_nonpositive():
    with pytest.raises(NonpositiveScale):
        scale_body(square_body(), 0.0)
    with pytest.raises(NonpositiveScale):
        scale_body(square_body(), -1.0)


def l_prism():
    """The L-shape extruded by 1: a solid 3-D body that is not convex."""
    verts = np.vstack([np.c_[L_VERTS, np.zeros(6)], np.c_[L_VERTS, np.ones(6)]])
    sides = [[i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6] for i in range(6)]
    return polytope_from_facets(verts, [list(range(6)), list(range(6, 12))] + sides)


def test_a_3d_body_without_axis_cells_takes_the_grid_spacing_default():
    # min(200, floor(10**6 ** (1/3))) = 99 cells on the longest axis, so the
    # grid stays under the sample cap
    cube = bundled.payload("unit_cube")
    cases = [(l_prism(), "solid", (99, 99, 50)),
             (polytope_from_facets(np.array(cube["vertices"]), cube["facets"]), "convex",
              (99, 99, 99))]
    for poly, kind, shape in cases:
        body = BodyApprox.from_polytope(poly)
        assert (body.kind, body.dim, body.axis_cells) == (kind, 3, None)
        lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
        h = body.natural_spacing()
        assert h == sampling.grid_spacing(lo, hi)
        assert sampling.grid_points(lo, hi, h)[1] == shape
        assert math.prod(shape) <= sampling.SAMPLE_POINT_CAP


# ---------------------------------------------------------------------------
# Minkowski averages
# ---------------------------------------------------------------------------


def test_average_of_convex_is_fixed_point():
    sq = square_body()
    for k in (1, 2, 5):
        assert minkowski_average(sq, k).volume() == pytest.approx(1.0, abs=1e-12)


def test_average_k1_is_identity():
    lb = lshape_body()
    assert minkowski_average(lb, 1) is lb


def test_average_rejects_bad_k():
    with pytest.raises(ParamOutOfRange):
        minkowski_average(square_body(), 0)


def test_lshape_average2_volume_between_body_and_hull():
    a2 = minkowski_average(lshape_body(), 2)
    vol = a2.volume()
    assert 3.0 < vol < 3.5


def test_lshape_sum_with_itself_is_scaled_average():
    lb = lshape_body(axis_cells=60)
    summed = minkowski_sum(lb, lb)
    avg2 = minkowski_average(lb, 2)
    # A + A = 2 A(2), so volumes relate by 2^n
    assert summed.volume() == pytest.approx(4 * avg2.volume(), rel=1e-9)


def test_lshape_average2_matches_bruteforce_membership():
    # oracle: x is in (A + A)/2 iff some a in A has 2x - a in A, with A the
    # analytic L-shape; area from counting on a fixed grid
    h = 0.05
    xs = np.arange(0.0, 2.0, h) + h / 2
    grid = np.array([[x, y] for x in xs for y in xs])

    a_pts = grid[polygon_contains(L_VERTS, grid)]
    count = sum(bool(polygon_contains(L_VERTS, 2 * x - a_pts).any()) for x in grid)
    oracle_area = count * h * h

    a2 = minkowski_average(lshape_body(), 2)
    assert a2.volume() == pytest.approx(oracle_area, rel=0.04)


def test_two_point_average_is_uniform_grid():
    tp = BodyApprox.from_points([[0.0, 0.0], [1.0, 0.0]])
    for k in (2, 4, 7):
        avg = minkowski_average(tp, k)
        got = sorted(round(p[0], 9) for p in avg.points.tolist())
        assert got == [round(j / k, 9) for j in range(k + 1)]


def test_average_volume_nondecreasing_and_below_hull():
    traces = convexification_gap(lshape_body(), 6)
    vols = [t.vol_Ak for t in traces]
    tol = 0.05
    assert all(b >= a - tol for a, b in zip(vols, vols[1:]))
    assert all(v <= 3.5 + tol for v in vols)
    assert all(t.vol_Ak <= t.bound_value + 1e-9 for t in traces)


# ---------------------------------------------------------------------------
# convexification gaps
# ---------------------------------------------------------------------------


def test_convex_body_has_zero_gap():
    traces = convexification_gap(square_body(), 4)
    for t in traces:
        assert t.hausdorff_to_hull <= 0.02


def test_convex_body_is_sampled_once_for_every_k(count_calls):
    # A(k) of a convex body is A itself: one hull sample and one body sample
    # serve all k, with the volume and gap bits of the k = 1 trace
    calls = count_calls(sampling, "sample_polytope")
    traces = convexification_gap(square_body(), 4)
    assert len(calls) == 2
    (first,) = convexification_gap(square_body(), 1)
    assert [(t.k, t.vol_Ak, t.hausdorff_to_hull) for t in traces] == [
        (k, first.vol_Ak, first.hausdorff_to_hull) for k in range(1, 5)]


def test_two_point_gap_is_half_spacing():
    tp = BodyApprox.from_points([[0.0, 0.0], [1.0, 0.0]])
    traces = convexification_gap(tp, 8)
    for t in traces:
        assert t.hausdorff_to_hull == pytest.approx(1 / (2 * t.k), abs=0.01)


def test_lshape_gap_sequence_decreases():
    traces = convexification_gap(lshape_body(), 8)
    gaps = [t.hausdorff_to_hull for t in traces]
    h = lshape_body().natural_spacing()
    assert all(b <= a + h / 2 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= gaps[0]


def test_convexification_gap_builds_no_fine_cell_centres(count_calls):
    scen = bundled_lshape()
    centres = count_calls(GridBody, "cell_centers")
    traces = convexification_gap(scen.approx, scen.params["k_max"])
    assert len(traces) == 8 and centres == []


@st.composite
def decimation_cases(draw):
    """(grid, occ, h): a random occupancy occ in d = 1..3 padded with empty
    border slabs, its grid at an origin of either sign and a fine spacing
    h/k (k = 2..9), h/r for a non-integer r in (1, 4], or h/r for r in
    [1/4, 1], coarser than h, so that some coarse cells hold no centre."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = rng.random(tuple(draw(st.integers(1, 9)) for _ in range(dim))) < draw(
        st.floats(0.05, 1.0)
    )
    core.flat[rng.integers(core.size)] = True
    pads = [(draw(st.integers(0, 3)), draw(st.integers(0, 3))) for _ in range(dim)]
    occ = np.pad(core, pads)
    origin = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(dim)])
    h = draw(st.floats(0.01, 2.0))
    ratio = draw(st.one_of(st.integers(2, 9), st.floats(1.0, 4.0, exclude_min=True),
                           st.floats(0.25, 1.0)))
    return GridBody.from_occ(origin, h / ratio, occ), occ, h


def _lex_sorted(pts):
    return pts[np.lexsort(pts.T[::-1])]


# at spacing one ulp under h, the centres of cells 1-4 sit 0, 0.75, 1.5 and
# 2.25 (rounded down) past the first: coarse cells 0, 1, 1 and 3, so the
# run's coarse range 0..3 holds cell 2, which no centre falls in
ULP_UNDER_H = np.array([False, True, True, True, True, False])


@settings(max_examples=300, deadline=None)
@given(decimation_cases())
@example((GridBody.from_occ(np.zeros(1), 0.7499999999999999, ULP_UNDER_H), ULP_UNDER_H, 0.75))
def test_decimate_matches_first_occurrence_oracle(case):
    grid, occ, h = case
    got = minkowski._decimate(grid, h)
    want = decimate_first_occurrence(grid.origin, grid.h, occ, h)
    assert got.shape == want.shape
    assert _lex_sorted(got).tobytes() == _lex_sorted(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(decimation_cases())
def test_grid_volume_and_centres_from_runs_equal_the_dense_ones(case):
    # the grids have empty lines (the border slabs) and, at densities near
    # 1, full ones
    grid, occ, _ = case
    assert grid.shape == occ.shape and grid.occ.tobytes() == occ.tobytes()
    assert grid.volume() == float(occ.sum()) * grid.h**occ.ndim
    centres = grid.origin + (np.argwhere(occ) + 0.5) * grid.h
    assert grid.cell_centers().tobytes() == centres.tobytes()


def rasterized_polygon(draw, rng, dim: int, extents) -> np.ndarray:
    """A star-shaped polygon of 3..8 vertices, its cells set where their
    centres lie in it, on a grid of up to 40 cells per axis: few runs per
    line. A 1-D grid is its middle row, a 3-D grid stacks it."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, draw(st.integers(3, 8))))
    radii = rng.uniform(0.3, 1.0, len(angles))
    verts = np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, None]
    verts = (verts + 1.0) / 2.0 * [rows, cols]
    centres = np.argwhere(np.ones((rows, cols), dtype=bool)) + 0.5
    occ = polygon_contains(verts, centres).reshape(rows, cols)
    if dim == 1:
        return occ[rows // 2]
    if dim == 3:
        return np.repeat(occ[None], draw(extents), axis=0)
    return occ


@st.composite
def dilation_pairs(draw):
    """Two (grid, occupancy) pairs of one dimension d = 1..3 and one spacing:
    random, full, single-cell, empty or rasterized-polygon occupancies,
    sometimes with one empty slab, on extents that include 7, 11 and 13 (7
    in 3-D)."""
    dim = draw(st.integers(1, 3))
    h = draw(st.floats(0.01, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extents = st.one_of(st.integers(1, 6), st.sampled_from([7, 11, 13] if dim < 3 else [7]))
    grids = []
    for _ in range(2):
        fill = draw(st.sampled_from(["random", "full", "single", "empty", "polygon"]))
        shape = tuple(draw(extents) for _ in range(dim))
        if fill == "polygon":
            occ = rasterized_polygon(draw, rng, dim, extents)
            shape = occ.shape
        elif fill == "random":
            occ = rng.random(shape) < draw(st.floats(0.05, 0.95))
        elif fill == "full":
            occ = np.ones(shape, dtype=bool)
        else:
            occ = np.zeros(shape, dtype=bool)
            if fill == "single":
                occ.flat[rng.integers(occ.size)] = True
        if draw(st.booleans()):
            axis = draw(st.integers(0, dim - 1))
            occ[(slice(None),) * axis + (draw(st.integers(0, shape[axis] - 1)),)] = False
        origin = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(dim)])
        grids.append((GridBody.from_occ(origin, h, occ), occ))
    return grids


def run_edges(occ, shape):
    """The run edges of occ padded with empty cells to shape, in shape's
    widened layout."""
    padded = np.zeros(shape, dtype=bool)
    padded[tuple(slice(0, n) for n in occ.shape)] = occ
    return GridBody.from_occ(np.zeros(len(shape)), 1.0, padded).edges


@settings(max_examples=200, deadline=None)
@given(dilation_pairs())
def test_dilate_matches_shift_or_oracle(pair):
    (a, a_occ), (b, b_occ) = pair
    got = minkowski._dilate(a, b)
    want = dilation_reference(a_occ, b_occ)
    assert got.shape == want.shape
    assert got.edges.tobytes() == run_edges(want, want.shape).tobytes()
    assert got.occ.dtype == want.dtype and got.occ.tobytes() == want.tobytes()
    # every pairwise sum of cell centres is the centre of an occupied cell
    sums = (a.cell_centers()[:, None, :] + b.cell_centers()[None, :, :]).reshape(-1, a.dim)
    idx = (sums - got.origin) / got.h - 0.5
    cells = np.rint(idx).astype(int)
    assert np.allclose(idx, cells, atol=1e-6)
    assert np.array_equal(np.unique(cells, axis=0), np.argwhere(got.occ).reshape(-1, a.dim))


@settings(max_examples=200, deadline=None)
@given(dilation_pairs())
def test_dilate_in_7_pair_blocks_matches_shift_or_oracle(pair):
    # at 7 pairs a block is one run of a whenever b has 4 runs or more, so
    # most of these sums are counted over several blocks
    (_, a_occ), (_, b_occ) = pair
    want = dilation_reference(a_occ, b_occ)
    with mock.patch.object(minkowski, "_PAIR_BLOCK", 7):
        got = minkowski._dilate_runs(run_edges(a_occ, want.shape), run_edges(b_occ, want.shape))
    assert got.dtype == np.intp
    assert got.tobytes() == run_edges(want, want.shape).tobytes()


def test_bundled_lshape_trace_dilates_by_runs():
    # one run of a per block slides the count window over every run of the
    # trace's sums, up to 834 runs against 120; the grids must not change
    A = bundled_lshape().approx
    trace = [Ak.grid for k, Ak in minkowski._average_sequence(A, 8) if k > 1]
    with mock.patch.object(minkowski, "_PAIR_BLOCK", 1):
        by_run = [Ak.grid for k, Ak in minkowski._average_sequence(A, 8) if k > 1]
    assert len(trace) == 7
    assert all(x.shape == y.shape and x.edges.tobytes() == y.edges.tobytes()
               for x, y in zip(trace, by_run))
    # each sum is the last one dilated by the rasterized body
    a_occ = minkowski._rasterize(A, A.natural_spacing()).occ
    acc_occ = a_occ
    for grid in trace[:2]:
        acc_occ = dilation_reference(acc_occ, a_occ)
        assert grid.shape == acc_occ.shape and grid.occ.tobytes() == acc_occ.tobytes()


def test_solid_3d_prism_sum_dilates_by_counting():
    # 300 runs a side: 90 000 pairs against 39^3 = 59 319 output cells
    occ = np.ones((20, 20, 20), dtype=bool)
    occ[10:, 10:, :] = False
    prism = BodyApprox.from_grid(GridBody.from_occ(np.zeros(3), 0.05, occ))
    twice = minkowski_average(prism, 2)
    want = dilation_reference(occ, occ)
    assert twice.grid.edges.tobytes() == run_edges(want, want.shape).tobytes()
    assert twice.grid.occ.tobytes() == want.tobytes()


def test_dilate_counts_in_a_window_of_b_not_of_the_output():
    # a 2000-cell square by a 10-cell one: 4 million output cells, 20 000
    # pair runs. No cell grid is built: the counts take an int32 window of
    # 2 * 18 099 + 2000 cells, a byte a cell marks which of them are
    # covered, and the output is the edges of its 2009 runs (32 kB).
    shape = (2009, 2009)
    a = run_edges(np.ones((2000, 2000), dtype=bool), shape)
    b = run_edges(np.ones((10, 10), dtype=bool), shape)
    window = 4 * (2 * (b[-1] - b[0]) + 2000)
    tracemalloc.start()
    try:
        got = minkowski._dilate_runs(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = np.arange(2009) * 2010
    assert got.tobytes() == np.column_stack([lines, lines + 2009]).ravel().tobytes()
    assert peak < 2 * (window + got.nbytes)


def test_decimate_a_thin_grid_builds_no_fine_occupancy():
    # 2000 x 2000 cells, one 10-cell run a line at a staggered place, taken
    # to cells 8 times as wide: the fine occupancy alone is 4 MB, the coarse
    # grid 250 x 250
    starts = np.arange(2000) * 2001 + (np.arange(2000) * 37) % 1990
    grid = GridBody(np.array([-1.0, 2.0]), 0.01, (2000, 2000),
                    np.column_stack([starts, starts + 10]).ravel())
    tracemalloc.start()
    try:
        got = minkowski._decimate(grid, 0.08)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = decimate_first_occurrence(grid.origin, grid.h, grid.occ, 0.08)
    assert _lex_sorted(got).tobytes() == _lex_sorted(want).tobytes()
    assert peak < 2.5e6


def test_decimate_rejects_an_empty_grid():
    with pytest.raises(DegenerateInput):
        minkowski._decimate(GridBody.from_occ(np.zeros(2), 0.1, np.zeros((3, 4), bool)), 0.3)


# ---------------------------------------------------------------------------
# reverse Brunn-Minkowski
# ---------------------------------------------------------------------------


def test_revbm_unit_square_exact():
    sq = square_body()
    rep = reverse_bm_sweep(sq, sq, [1.0], [1.0], [1])[0]
    assert rep.lhs_vol == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs_terms[0] == pytest.approx(math.pi / 2, rel=1e-12)
    assert rep.empirical_C1 == pytest.approx(4 / math.pi, abs=1e-9)


def test_revbm_ball_ratio_two():
    ang = 2 * np.pi * np.arange(256) / 256
    ball = convex_body(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    rep = reverse_bm_sweep(ball, ball, [1.0], [1.0], [1])[0]
    # ball + ball = 2 ball and beta = 1, so the constant is 2^(n-1) = 2
    assert rep.empirical_C1 == pytest.approx(2.0, rel=0.01)
    assert rep.beta_A == pytest.approx(1.0, rel=0.01)


def test_revbm_large_m_exponent_limit():
    sq = square_body()
    rep = reverse_bm_sweep(sq, sq, [1.0], [1.0], [64])[0]
    # every volume^(1/m) tends to 1, so the ratio tends to 4^(1/64)/2ish
    expected = 4.0 ** (1 / 64) / (2 * (math.pi / 2) ** (1 / 64))
    assert rep.empirical_C1 == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2])
def test_revbm_algebraic_identity_convex_equal_bodies(s, m):
    sq = square_body()
    rep = reverse_bm_sweep(sq, sq, [s], [s], [m])[0]
    n = 2
    vol, beta = 1.0, math.pi / 2
    expected = (2 * s) ** (n / m) * vol ** (1 / m) / (2 * s * (beta * vol) ** (1 / m))
    assert rep.empirical_C1 == pytest.approx(expected, rel=1e-9)


def test_revbm_rejects_degenerate_and_bad_params():
    seg = BodyApprox.from_points([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateInput):
        reverse_bm_sweep(seg, seg, [1.0], [1.0], [1])
    sq = square_body()
    with pytest.raises(ParamOutOfRange):
        reverse_bm_sweep(sq, sq, [-1.0], [1.0], [1])


def test_revbm_sweep_matches_one_check_per_case():
    body = bundled_lshape().approx
    cases = [(s, t, m) for s in (0.5, 2.0) for t in (1.0, 2.0) for m in (1, 2)]
    sweep = reverse_bm_sweep(body, body, (0.5, 2.0), (1.0, 2.0), (1, 2))
    assert sweep == [reverse_bm_sweep(body, body, [s], [t], [m])[0] for s, t, m in cases]


def test_revbm_sweep_sums_match_one_minkowski_sum_per_pair():
    # the sweep shares rasterizations across (s, t); its sum volumes are
    # those of one minkowski_sum per pair, for one solid body, two solids
    # at different resolutions, and a convex body with a solid one
    lshape, square = lshape_body(axis_cells=40), square_body()
    scales = (0.5, 1.0, 2.0)
    for A, B in ((lshape, lshape), (lshape, lshape_body(axis_cells=30)), (square, lshape)):
        sweep = reverse_bm_sweep(A, B, scales, scales, [1])
        want = [minkowski_sum(scale_body(A, s), scale_body(B, t)).volume()
                for s in scales for t in scales]
        assert [r.lhs_vol for r in sweep] == want


@pytest.mark.parametrize("a, b, s, t, m, lhs_vol, c1", [
    ("lshape", "unit_square", 0.5, 2.0, 2, "0x1.16154c985f070p+3", "0x1.916c073ef9350p-1"),
    ("unit_square", "lshape", 2.0, 0.5, 1, "0x1.16154c985f070p+3", "0x1.621107e949684p+0"),
])
def test_revbm_of_a_convex_and_a_solid_body_keeps_its_bits(a, b, s, t, m, lhs_vol, c1):
    # the one path that rasterizes a scaled convex body, which no bundled
    # record reaches: the sum of a convex and a solid body
    A, B = (BodyApprox.from_polytope(load_body(bundled.payload(sid))) for sid in (a, b))
    assert sorted((A.kind, B.kind)) == ["convex", "solid"]
    rep = reverse_bm_sweep(A, B, [s], [t], [m])[0]
    assert (rep.lhs_vol.hex(), rep.empirical_C1.hex()) == (lhs_vol, c1)


def test_revbm_sweep_raises_where_the_first_bad_case_is():
    seg = BodyApprox.from_points([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ParamOutOfRange):
        reverse_bm_sweep(seg, seg, [1.0], [1.0], [0, 1])
    with pytest.raises(DegenerateInput):
        reverse_bm_sweep(seg, seg, [1.0], [1.0], [1, 0])
    assert reverse_bm_sweep(seg, seg, [1.0], [1.0], []) == []


def test_revbm_fixture_suite_constant_bounded():
    scales = (0.5, 1.0, 2.0)
    bodies = [square_body(), lshape_body(axis_cells=60)]
    worst = max(rep.empirical_C1 for body in bodies
                for rep in reverse_bm_sweep(body, body, scales, scales, (1, 2)))
    assert math.isfinite(worst) and worst <= 10.0


# ---------------------------------------------------------------------------
# general volume-ratio bound
# ---------------------------------------------------------------------------


def test_bound_formula_values():
    assert volume_ratio_general_bound(2, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert volume_ratio_general_bound(3, 2.0) == pytest.approx(10 / 3, abs=1e-12)
    for c2 in (1.5, 3.0, 7.0):
        assert volume_ratio_general_bound(2, c2) == pytest.approx(c2, abs=1e-12)


def test_bound_formula_c2_limit_and_errors():
    assert volume_ratio_general_bound(5, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParamOutOfRange):
        volume_ratio_general_bound(1, 2.0)
    with pytest.raises(ParamOutOfRange):
        volume_ratio_general_bound(3, 0.5)


def test_bound_at_least_one():
    for k in (2, 3, 5, 8):
        for c2 in (1.0 + 1e-9, 1.2, 2.0, 4.0):
            assert volume_ratio_general_bound(k, c2) >= 1.0 - 1e-12


def test_measured_c2_empty_trace_is_one():
    assert measured_c2([], math.pi) == 1.0


@pytest.mark.parametrize("vols", [[2.0], [2.0, 2.0, 2.0]])
def test_measured_c2_constant_trace_is_clamped_to_one(vols):
    # one step with ball_vol < vol gives C1 = 1 and beta = 0.5: only the clamp reaches 1
    assert measured_c2(vols, 1.0) >= 1.0


def test_measured_c2_three_step_by_hand():
    # beta_k = B / v_k, so beta_k * v_k = B and every per-step denominator is
    # (k-1)/k * B + 1/k * B = B: C1 = max(v2, v3) / B = 3.3 / B, and
    # max beta = B / min(v) = B / 3.0, hence C2 = 3.3 / 3.0 = 1.1
    assert measured_c2([3.0, 3.2, 3.3], 2.0 * math.pi) == pytest.approx(1.1, rel=1e-12)


def test_general_ratio_convex_is_one():
    sq = square_body()
    ratio = sq.polytope().volume_ratio
    assert ratio == pytest.approx(1.0, rel=1e-9)
    assert empirical_general_ratio(sq, 4) >= ratio


def test_general_ratio_lshape():
    A = lshape_body()
    ratio = A.polytope().volume_ratio
    assert ratio == pytest.approx(3.5 / 3, rel=1e-9)
    assert empirical_general_ratio(A, 8) >= ratio
    assert hull_ratio(A, "general") >= ratio


def test_general_ratio_of_the_lshape_holds_no_cell_grid_of_a_sum():
    # at the default spacing the k = 8 sum adds a 200^2-cell grid to a
    # 1394^2-cell one: that grid and the 1593^2-cell output alone would take
    # 4.5 MB as cell grids
    lpoly = polytope_from_facets(L_VERTS, L_DOC["facets"])
    tracemalloc.start()
    try:
        ratio = hull_ratio(lpoly, "general")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ratio == 1.7960958752552558
    assert peak < 6e6


def test_general_ratio_rasterizes_a_solid_body_once(count_calls):
    A = bundled_lshape().approx
    assert A.kind == "solid"
    rasters = count_calls(sampling, "membership")
    assert empirical_general_ratio(A, 8) >= A.polytope().volume_ratio
    assert len(rasters) == 1


def test_general_ratio_cshape_grid_oracle():
    # annulus-like C-shape: square ring with a slit
    outer, inner, slit = 2.0, 1.0, 0.4
    verts = np.array(
        [
            [-outer, -outer], [outer, -outer], [outer, outer], [slit / 2, outer],
            [slit / 2, inner], [inner, inner], [inner, -inner], [-inner, -inner],
            [-inner, inner], [-slit / 2, inner], [-slit / 2, outer], [-outer, outer],
        ]
    )
    facets = [[i, (i + 1) % len(verts)] for i in range(len(verts))]
    poly = polytope_from_facets(verts, facets)
    body = BodyApprox.from_polytope(poly, axis_cells=100)

    h = 0.02
    xs = np.arange(-outer, outer, h) + h / 2
    count = int(polygon_contains(verts, np.array([[x, y] for x in xs for y in xs])).sum())
    area_oracle = count * h * h
    hull_area = shoelace(np.array([[-2, -2], [2, -2], [2, 2], [-2, 2]]))

    ratio = body.polytope().volume_ratio
    assert ratio == pytest.approx(hull_area / area_oracle, rel=0.02)
    assert empirical_general_ratio(body, 6) >= ratio


def test_body_beta_matches_geometry():
    assert body_beta(square_body()) == pytest.approx(math.pi / 2, rel=1e-9)


def test_grid_body_has_general_but_no_polyhedral_ratio():
    grid = BodyApprox.from_grid(GridBody.from_occ(np.zeros(2), 0.2, np.ones((5, 5), bool)))
    assert hull_ratio(grid, "general") == 2.285978726592224
    for call in (
        lambda: hull_ratio(grid, "poly"),
        lambda: certify_hull_gamma(grid, 2.0),
    ):
        with pytest.raises(ParamOutOfRange, match="grid bodies have no polyhedral ratio"):
            call()


def test_hull_ratio_of_a_polytope_builds_one_hull(count_calls):
    lpoly = polytope_from_facets(L_VERTS, L_DOC["facets"])
    hulls = [count_calls(geometry, "quickhull"), count_calls(minkowski, "quickhull")]
    assert hull_ratio(lpoly) == pytest.approx(3.5 / 3, rel=1e-9)
    # coercing it again for the general ratio reads the cached volume ratio
    assert hull_ratio(lpoly, "general") >= hull_ratio(lpoly)
    assert sum(map(len, hulls)) == 1


def test_as_body_coerces_each_kind_of_space_once():
    sq = bundled.payload("unit_square")
    square = polytope_from_facets(np.array(sq["vertices"]), sq["facets"])
    lpoly = polytope_from_facets(L_VERTS, L_DOC["facets"])
    assert as_body(square).kind == "convex" and as_body(square).poly is square
    assert as_body(lpoly).kind == "solid" and as_body(lpoly).poly is lpoly
    two = [[0.0, 0.0], [1.0, 0.0]]
    for cloud in (PointCloud(np.array(two)), np.array(two), two):
        body = as_body(cloud)
        assert body.kind == "points" and body.points.tolist() == two
    for body in (square_body(), lshape_body(), BodyApprox.from_points(two)):
        assert as_body(body) is body
