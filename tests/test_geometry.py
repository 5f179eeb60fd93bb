import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hullmetry.errors import DegenerateInput, NonOrientable
from hullmetry.geometry import (
    TAU_GEOM,
    Ball,
    PointCloud,
    _facet_normals,
    _farthest_outside,
    _first_outside,
    load_body,
    load_cloud,
    min_enclosing_ball,
    polytope_from_facets,
    quickhull,
    triangulate_facets,
    unit_ball_volume,
    volume_det,
    volume_projected,
)
from hullmetry.minkowski import BodyApprox, body_beta
from hullmetry.sampling import membership

import bundled
from oracles import _reference_plane, extreme_points, quickhull_reference, shoelace, welzl_reference

L_DOC, SQ_DOC = bundled.payload("lshape"), bundled.payload("unit_square")
L_VERTS, L_FACETS = np.array(L_DOC["vertices"]), L_DOC["facets"]
SQ = np.array(SQ_DOC["vertices"])


def lshape_poly():
    return polytope_from_facets(L_VERTS, L_FACETS)


# ---------------------------------------------------------------------------
# quickhull
# ---------------------------------------------------------------------------


def test_quickhull_drops_interior_point():
    pts = np.vstack([SQ, [[0.5, 0.5]]])
    hull = quickhull(pts)
    assert sorted(map(tuple, hull.vertices.tolist())) == sorted(map(tuple, SQ.tolist()))


def test_quickhull_lshape_matches_bruteforce_extreme_points():
    hull = quickhull(L_VERTS)
    expected = sorted(map(tuple, L_VERTS[extreme_points(L_VERTS)].tolist()))
    assert sorted(map(tuple, hull.vertices.tolist())) == expected
    # pentagon: the reflex corner (1,1) is gone
    assert len(hull.vertices) == 5
    assert (1.0, 1.0) not in map(tuple, hull.vertices.tolist())


def test_quickhull_collinear_raises():
    with pytest.raises(DegenerateInput):
        quickhull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_quickhull_idempotent_on_fixtures():
    others = [np.array(bundled.payload(sid)["vertices"]) for sid in ("unit_cube", "star2d")]
    for verts in [SQ, L_VERTS] + others:
        hull = quickhull(verts)
        again = quickhull(hull.vertices)
        assert sorted(map(tuple, hull.vertices.tolist())) == sorted(
            map(tuple, again.vertices.tolist())
        )


def test_quickhull_contains_inputs():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        pts = rng.standard_normal((30, n))
        hull = quickhull(pts)
        assert membership(hull, pts).all()


def test_quickhull_volume_monotone_under_subsets():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((25, 3))
    big = volume_det(quickhull(pts).boundary)
    small = volume_det(quickhull(pts[:10]).boundary)
    assert big >= small - 1e-12


def test_quickhull_agrees_with_qhull_reference():
    from scipy.spatial import ConvexHull as QHull

    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            pts = rng.standard_normal((n + 12, n))
            ours = quickhull(pts)
            ref = QHull(pts)
            assert volume_det(ours.boundary) == pytest.approx(ref.volume, rel=1e-9)
            assert sorted(map(tuple, ours.vertices.tolist())) == sorted(
                map(tuple, pts[ref.vertices].tolist())
            )


def test_quickhull_handles_duplicates_and_cocircular_points():
    ang = 2 * np.pi * np.arange(12) / 12
    circ = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = np.vstack([circ, circ[:4], [[0.0, 0.0]]])
    hull = quickhull(pts)
    assert len(hull.vertices) == 12
    assert volume_det(hull.boundary) == pytest.approx(12 * 0.5 * math.sin(2 * np.pi / 12))


def test_quickhull_grid_with_coplanar_facets():
    grid = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)], float)
    hull = quickhull(grid)
    assert volume_det(hull.boundary) == pytest.approx(8.0, rel=1e-12)
    assert membership(hull, grid).all()
    # only the 8 corners are extreme, face/edge midpoints are not vertices
    assert len(hull.vertices) == 8


def test_quickhull_drops_a_tie_picked_edge_midpoint():
    # (0, 1) is the first point of least x, so it seeds the initial simplex,
    # yet it is the midpoint of the left edge and no vertex of the square
    pts = np.array([[0, 1], [0, 0], [1, 1], [2, 2], [2, 1], [1, 2], [0, 2], [2, 0], [1, 0]], float)
    hull = quickhull(pts)
    assert sorted(map(tuple, hull.vertices.tolist())) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert volume_det(hull.boundary) == pytest.approx(4.0, rel=1e-12)


def _pinned_clouds():
    rng = np.random.default_rng(101)
    sphere = rng.standard_normal((500, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    g = np.arange(5.0)
    return {
        "sphere500_r3": sphere,
        "gauss300_r5": np.random.default_rng(102).standard_normal((300, 5)),
        "lattice5_r3": np.array([[x, y, z] for x in g for y in g for z in g]),
        "gauss_rounded_r3": np.round(np.random.default_rng(103).standard_normal((400, 3)), 1),
        "gauss1000_r5_t1e4": np.random.default_rng(104).standard_normal((1000, 5)) + 1e4,
        "lattice3_r6": np.stack(np.meshgrid(*[np.arange(3.0)] * 6, indexing="ij"), -1).reshape(-1, 6),
    }


# sha256 of vertices.tobytes() + boundary.simplices.tobytes(). The first four
# were recorded with the Quickhull that rebuilt its ridge map on every
# iteration, the last two with the one that tested every point against every
# facet one dot product at a time. A changed initial simplex, pick order,
# apex, tolerance test, horizon order or outside-set assignment shows up here
# as a different triangulation.
PINNED_HULL_DIGESTS = {
    "sphere500_r3": "5d7c7d83cef50cac0a60f9b3b01a05079ffc35343b6955181e897e6733668241",
    "gauss300_r5": "ced3ec177c8f92c546a2f196430c668c879026a8683cbea4e37534d979b128aa",
    "lattice5_r3": "68db971cf8a2dbb145b90a6b2e0b8f4c299ea268da8e58235d78f9ceb28fd93b",
    "gauss_rounded_r3": "c6b1662d430f746debc8a1d42e659d046b5544b04be2e4868a2f39836a4f3a26",
    "gauss1000_r5_t1e4": "8c3a9a0564a35fe9646533f96eac725b55739c6b92c6cfcf0f86cb4dfe1077ab",
    "lattice3_r6": "bd897b208f3e8a55fccf91d78d71eb1d0f225f82c933924cc4b9d645abba600c",
}


@pytest.mark.parametrize("name", sorted(PINNED_HULL_DIGESTS))
def test_quickhull_output_is_bit_identical_to_pinned(name):
    hull = quickhull(_pinned_clouds()[name])
    digest = hashlib.sha256(hull.vertices.tobytes() + hull.boundary.simplices.tobytes())
    assert digest.hexdigest() == PINNED_HULL_DIGESTS[name]


def _replay_cloud(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((int(rng.integers(d + 2, 8 * d)), d))
    if kind == "gauss":
        return g
    if kind == "sphere":
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if kind == "rounded":
        return np.round(g, 1)
    if kind == "duplicated":
        return np.vstack([g, g[rng.integers(0, len(g), len(g) // 2)]])
    lattice = np.stack(np.meshgrid(*[np.arange(3.0)] * d, indexing="ij"), -1).reshape(-1, d)
    return lattice[np.sort(rng.choice(len(lattice), min(len(lattice), 8 * d), replace=False))]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["gauss", "sphere", "lattice", "rounded", "duplicated"]),
       st.integers(min_value=2, max_value=6), st.booleans())
def test_quickhull_replays_the_point_by_point_loop_bit_for_bit(seed, kind, d, moved):
    # the batched outside sets and apex make the decisions of the reference's
    # one-dot-product-per-test loop, also far from the origin, where the
    # tested values are small differences of large products
    rng = np.random.default_rng(seed)
    pts = _replay_cloud(kind, d, rng)
    if moved:
        pts = pts * 10 ** rng.uniform(0, 6) + rng.uniform(-1e6, 1e6, d)
    if np.linalg.matrix_rank(pts[1:] - pts[0]) < d:
        with pytest.raises(DegenerateInput):
            quickhull(pts)
        return
    hull = quickhull(pts)
    vertices, simplices = quickhull_reference(pts)
    assert hull.vertices.tobytes() == vertices.tobytes()
    assert hull.boundary.simplices.tobytes() == simplices.tobytes()
    fortran = quickhull(np.asfortranarray(pts))
    assert fortran.vertices.tobytes() == vertices.tobytes()
    assert fortran.boundary.simplices.tobytes() == simplices.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=33),
       st.integers(min_value=1, max_value=60))
def test_vecdot_is_the_one_vector_dot_product_bit_for_bit(seed, d, m):
    # the premise of the batched Quickhull and Welzl tests: on C-contiguous
    # rows np.vecdot runs the float64 loop of a 1-d ``a @ b``; d >= 16
    # reaches OpenBLAS's SIMD block. Far from the origin the products cancel.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, d)) * 10 ** rng.uniform(-3, 6) + rng.uniform(-1e4, 1e4, d)
    vectors = rng.standard_normal((m, d))
    one = vectors[0] / np.linalg.norm(vectors[0])
    assert np.vecdot(rows, one).tobytes() == np.array([p @ one for p in rows]).tobytes()
    i, j = rng.integers(0, m, 2 * m).reshape(2, -1)
    pairs = np.vecdot(rows[i], vectors[j])
    assert pairs.tobytes() == np.array([rows[a] @ vectors[b] for a, b in zip(i, j)]).tobytes()
    table = np.vecdot(rows[:, None, :], vectors[: min(m, 5)])
    want = np.array([[p @ v for v in vectors[: min(m, 5)]] for p in rows])
    assert table.tobytes() == want.tobytes()
    diff = rows - rows[m // 2]
    assert np.vecdot(diff, diff).tobytes() == np.array([v @ v for v in diff]).tobytes()


def _exact_case(d: int, seed: int):
    # points far from the origin and unit normals whose planes pass near them
    rng = np.random.default_rng(seed)
    pts = 10.0 * rng.standard_normal((200, d)) + rng.uniform(-1e4, 1e4, d)
    normals = rng.standard_normal((3, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.array([normal @ pts[k] for k, normal in enumerate(normals)])
    exact = np.array([[normal @ p - offset for normal, offset in zip(normals, offsets)] for p in pts])
    return pts, normals, offsets, exact


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_first_outside_decides_every_test_as_the_exact_expression(d):
    pts, normals, offsets, exact = _exact_case(d, d)
    rows = np.arange(len(pts))
    first = np.where((exact > 0).any(axis=1), (exact > 0).argmax(axis=1), -1)
    assert _first_outside(pts, rows, normals, offsets, 0.0).tolist() == first.tolist()
    # thresholds at every exact value and just below it: a value that rounds
    # the other way by one ulp decides the other way
    for j in range(len(normals)):
        for tau in np.concatenate([exact[:, j], np.nextafter(exact[:, j], -np.inf)]):
            got = _first_outside(pts, rows, normals[j : j + 1], offsets[j : j + 1], tau)
            assert got.tolist() == np.where(exact[:, j] > tau, 0, -1).tolist()


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_farthest_outside_picks_the_first_exact_maximum(d):
    # points on one hyperplane: their values differ only by rounding, so a
    # product summed in another order often has another maximum
    rng = np.random.default_rng(100 + d)
    normal = rng.standard_normal(d)
    normal /= np.linalg.norm(normal)
    tangents = rng.standard_normal((300, d))
    pts = 1e4 + tangents - np.outer(tangents @ normal, normal)
    offset = float(normal @ pts[0]) - 1.0
    outside = list(range(len(pts)))
    exact = [normal @ p - offset for p in pts]
    assert _farthest_outside(pts, outside, normal, offset) == int(np.argmax(exact))
    assert _farthest_outside(pts, outside[::-1], normal, offset) == 299 - int(np.argmax(exact[::-1]))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_facet_normals_give_each_plane_the_bits_of_the_reference(d):
    # far from the origin the offsets are small differences of large
    # products, and a norm or offset summed in another order moves their bits
    rng = np.random.default_rng(200 + d)
    pts = 10.0 * rng.standard_normal((60, d)) + rng.uniform(-1e4, 1e4, d)
    verts = [tuple(rng.choice(len(pts), d, replace=False)) for _ in range(300)]
    verts.append((0,) * d)  # affinely degenerate: dropped
    interior = pts.mean(axis=0)
    kept, normals, offsets = _facet_normals(pts, verts, interior)
    planes = [_reference_plane(pts, v, interior) for v in verts]
    assert kept.tolist() == [plane is not None for plane in planes]
    assert normals.tobytes() == np.array([plane[0] for plane in planes if plane]).tobytes()
    assert offsets.tobytes() == np.array([plane[1] for plane in planes if plane]).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from(["random", "lattice"]))
def test_quickhull_vertices_match_extreme_points_property(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    if kind == "random":
        pts = rng.uniform(-1, 1, (int(rng.integers(n + 1, 11)), n))
    else:
        # distinct points of the 3^n lattice: collinear and coplanar subsets abound
        lattice = np.stack(np.meshgrid(*[np.arange(3.0)] * n, indexing="ij"), -1).reshape(-1, n)
        size = int(rng.integers(n + 1, min(len(lattice), 10) + 1))
        pts = lattice[rng.choice(len(lattice), size, replace=False)]
    if np.linalg.matrix_rank(pts[1:] - pts[0]) < n:
        with pytest.raises(DegenerateInput):
            quickhull(pts)
        return
    hull = quickhull(pts)
    expected = sorted(map(tuple, pts[extreme_points(pts)].tolist()))
    assert sorted(map(tuple, hull.vertices.tolist())) == expected


# ---------------------------------------------------------------------------
# boundary triangulation
# ---------------------------------------------------------------------------


def test_triangulate_square_gives_four_edges():
    b = triangulate_facets(SQ, SQ_DOC["facets"], 2)
    assert b.n_simplices == 4


def test_triangulate_cube_gives_twelve_triangles():
    doc = bundled.payload("unit_cube")
    b = triangulate_facets(np.array(doc["vertices"]), doc["facets"], 3)
    assert b.n_simplices == 12
    assert volume_det(b) == pytest.approx(1.0, abs=1e-12)


def test_triangulate_tetrahedron_outward():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    b = triangulate_facets(verts, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], 3)
    assert b.n_simplices == 4
    centroid = verts.mean(axis=0)
    for simp in b.simplices:
        assert np.linalg.det(verts[simp] - centroid) > 0


def test_triangulate_open_boundary_rejected():
    with pytest.raises(NonOrientable):
        triangulate_facets(SQ, [[0, 1], [1, 2], [2, 3]], 2)


def test_triangulate_boundary_of_polytope():
    poly = lshape_poly()
    assert poly.boundary.n_simplices == 6


# ---------------------------------------------------------------------------
# volume formulas
# ---------------------------------------------------------------------------


def test_volume_unit_square():
    poly = polytope_from_facets(SQ, SQ_DOC["facets"])
    assert volume_det(poly.boundary) == pytest.approx(1.0, abs=1e-12)
    assert volume_projected(poly.boundary) == pytest.approx(1.0, abs=1e-12)


def test_volume_standard_simplex():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    hull = quickhull(verts)
    assert volume_det(hull.boundary) == pytest.approx(1 / 6, abs=1e-12)


def test_volume_lshape_matches_shoelace():
    poly = lshape_poly()
    assert volume_det(poly.boundary) == pytest.approx(shoelace(L_VERTS), abs=1e-12)
    assert volume_det(poly.boundary) == pytest.approx(3.0, abs=1e-12)
    assert volume_projected(poly.boundary) == pytest.approx(3.0, abs=1e-12)


def test_volume_formulas_agree_on_random_polytopes():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for _ in range(5):
            hull = quickhull(rng.standard_normal((n + 8, n)))
            vd = volume_det(hull.boundary)
            vp = volume_projected(hull.boundary)
            assert abs(vd - vp) <= 1e-9 * abs(vd)


def test_volume_translation_rotation_invariance():
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((15, 3))
    base = volume_det(quickhull(pts).boundary)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = pts @ q.T + np.array([5.0, -3.0, 11.0])
    rotated = volume_det(quickhull(moved).boundary)
    assert rotated == pytest.approx(base, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_volume_formula_equality_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    hull = quickhull(rng.uniform(-1, 1, (n + 6, n)))
    vd = volume_det(hull.boundary)
    vp = volume_projected(hull.boundary)
    assert abs(vd - vp) <= 1e-9 * max(abs(vd), 1e-30)


# ---------------------------------------------------------------------------
# minimum enclosing ball
# ---------------------------------------------------------------------------


def test_meb_single_point():
    ball = min_enclosing_ball(np.array([[2.0, 3.0]]))
    assert ball.radius == 0.0
    assert np.allclose(ball.center, [2.0, 3.0])


def test_meb_two_points():
    ball = min_enclosing_ball(np.array([[0.0, 0.0], [0.0, 4.0]]))
    assert ball.radius == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(ball.center, [0.0, 2.0])


def test_meb_unit_square():
    ball = min_enclosing_ball(SQ)
    assert np.allclose(ball.center, [0.5, 0.5], atol=1e-9)
    assert ball.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_meb_simplex_not_circumsphere():
    # circumcenter of {0, e1, e2, e3} lies outside the simplex; the true
    # minimum ball is supported by the three basis vectors only
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    ball = min_enclosing_ball(verts)
    assert ball.radius == pytest.approx(math.sqrt(6) / 3, abs=1e-9)


def test_meb_contains_all_and_support_certifies():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        pts = rng.standard_normal((40, n))
        ball = min_enclosing_ball(pts)
        d = np.linalg.norm(pts - ball.center, axis=1)
        assert (d <= ball.radius + 1e-9).all()
        assert ball.support is not None and len(ball.support) <= n + 1
        sup_d = np.linalg.norm(ball.support - ball.center, axis=1)
        assert np.allclose(sup_d, ball.radius, atol=1e-7)
        again = min_enclosing_ball(ball.support)
        assert again.radius == pytest.approx(ball.radius, rel=1e-9)
        # no strictly smaller ball covers the support set
        assert not Ball(again.center, (1 - 1e-6) * ball.radius).contains(ball.support).all()


def test_meb_high_dimension_contains_all():
    pts = np.eye(16)
    ball = min_enclosing_ball(pts)
    d = np.linalg.norm(pts - ball.center, axis=1)
    assert (d <= ball.radius + 1e-9).all()
    # optimum is sqrt(15)/4; the iterative path should be close
    assert ball.radius <= math.sqrt(15) / 4 * 1.05


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=6),
    st.booleans(),
)
def test_meb_covers_every_point_with_support_on_sphere(seed, dim, lattice):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(dim + 1, 60))
    pts = rng.integers(-2, 3, (n, dim)).astype(float) if lattice else rng.standard_normal((n, dim))
    ball = min_enclosing_ball(pts)
    dist = np.linalg.norm(pts - ball.center, axis=1)
    assert (dist <= ball.radius * (1 + 1e-9)).all()
    sup = np.linalg.norm(ball.support - ball.center, axis=1)
    assert (np.abs(sup - ball.radius) <= 1e-9 * ball.radius).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 3, 6, 8, 10]),
    st.sampled_from(["gauss", "repeats", "lattice"]),
    st.booleans(),
)
# a cloud whose radius differs in the last bit between C and Fortran row sums
@example(233, 8, "gauss", True)
def test_meb_replays_the_point_by_point_welzl_scan(seed, dim, kind, fortran):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 45))
    if kind == "lattice":
        pts = rng.integers(-3, 4, (n, dim)) * 0.25
    else:
        pts = rng.standard_normal((n, dim))
        if kind == "repeats":
            pts = pts[rng.integers(0, max(n // 3, 1), n)]
    if fortran:
        pts = np.asfortranarray(pts)
    # min_enclosing_ball scans the C-order copy, whatever the input's layout
    center, radius, support = welzl_reference(np.ascontiguousarray(pts))
    ball = min_enclosing_ball(pts)
    assert ball.center.tobytes() == center.tobytes()
    assert repr(ball.radius) == repr(radius)
    assert ball.support.tobytes() == support.tobytes()
    other = min_enclosing_ball(np.ascontiguousarray(pts) if fortran else np.asfortranarray(pts))
    assert other.center.tobytes() == ball.center.tobytes()
    assert repr(other.radius) == repr(ball.radius)
    assert other.support.tobytes() == ball.support.tobytes()


def _point_on_the_scan_threshold(d: int, above: bool) -> np.ndarray:
    """Rows [p, e1, -e1]: the scan visits p last, against the ball of centre
    0 and radius 1 through the other two. The one-vector norm of p is
    exactly 1 + tau (``above``: the float after it), and the row-wise einsum
    norm rounds to the other side of the test."""
    def edge(pts):  # r + tau, as min_enclosing_ball sums it
        return 1.0 + TAU_GEOM * float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    rng = np.random.default_rng(d)
    for _ in range(20_000):
        u = rng.standard_normal(d)
        pts = np.zeros((3, d))
        pts[0], pts[1, 0], pts[2, 0] = u / np.linalg.norm(u), 1.0, -1.0
        target = edge(pts)
        if above:
            target = float(np.nextafter(target, math.inf))
        pts[0] *= target
        p = pts[0]
        other = math.sqrt(np.einsum("ij,ij->i", p[None], p[None])[0])
        if (math.sqrt(p @ p) == target and edge(pts) == (np.nextafter(target, 0.0) if above else target)
                and (other < target if above else other > target)):
            return pts
    raise AssertionError("no threshold point found")


@pytest.mark.parametrize("d", [2, 3, 6, 10])
@pytest.mark.parametrize("above", [False, True])
def test_welzl_scan_decides_a_point_at_r_plus_tau_exactly(d, above):
    # the scan visits the rows in the seeded order [1, 2, 0]
    assert np.random.default_rng(0x5EED).permutation(3).tolist() == [1, 2, 0]
    pts = _point_on_the_scan_threshold(d, above)
    ball = min_enclosing_ball(pts)
    center, radius, support = welzl_reference(pts)
    assert ball.center.tobytes() == center.tobytes()
    assert repr(ball.radius) == repr(radius)
    assert ball.support.tobytes() == support.tobytes()
    # at exactly r + tau the point is not outside; one float above, it is
    assert (ball.support == pts[0]).all(axis=1).any() == above


# sha256 of center.tobytes() + radius.hex() + support.tobytes(), recorded with
# the Welzl scan that screened its squared distances with einsum and
# confirmed the flagged points one norm at a time. The first is the
# meb_gauss6 shape, the second a cloud at the dimension cap; both recurse
# deep, so a changed scan decision, support order or radius shows up here.
PINNED_MEB_DIGESTS = {
    "gauss800_r6": "1c69e7f07078fe85523b19efc4e596f0fb8026baf6dcb1dd3e39f881a9561046",
    "gauss200_r10": "9d9b264b5c244e69614597d9d2b127867cf03650a1c8828b5b086e3b4bf5c185",
}


@pytest.mark.parametrize("name", sorted(PINNED_MEB_DIGESTS))
def test_meb_output_is_bit_identical_to_pinned(name):
    pts = {
        "gauss800_r6": np.random.default_rng(20240501).standard_normal((800, 6)),
        "gauss200_r10": np.random.default_rng(105).standard_normal((200, 10)),
    }[name]
    ball = min_enclosing_ball(pts)
    digest = hashlib.sha256(ball.center.tobytes() + ball.radius.hex().encode() + ball.support.tobytes())
    assert digest.hexdigest() == PINNED_MEB_DIGESTS[name]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 12])
def test_meb_rejects_overflowing_coordinates(dim):
    # finite coordinates whose squared distances overflow: the ball would
    # have an infinite radius and a one-point support
    pts = np.zeros((3, dim))
    pts[0, 0], pts[1, 0], pts[2, 1] = 1e200, -1e200, 1e200
    with pytest.raises(DegenerateInput, match="overflow"):
        min_enclosing_ball(pts)


@pytest.mark.parametrize("radius", [-1.0, math.inf, math.nan])
def test_ball_rejects_a_radius_that_is_negative_or_not_finite(radius):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Ball(np.zeros(2), radius)


@pytest.mark.parametrize("n", [11, 16])
def test_meb_badoiu_clarkson_branch(n):
    # above dimension 10 the ball comes from the iterative refinement
    pts = np.eye(n)
    ball = min_enclosing_ball(pts)
    assert ball.support is None
    assert ball.contains(pts).all()
    optimum = math.sqrt(1 - 1 / n)
    assert optimum <= ball.radius <= 1.01 * optimum


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------


def test_beta_unit_square():
    poly = polytope_from_facets(SQ, SQ_DOC["facets"])
    assert body_beta(BodyApprox.from_polytope(poly)) == pytest.approx(math.pi / 2, rel=1e-9)


def test_beta_lshape():
    poly = lshape_poly()
    assert body_beta(BodyApprox.from_polytope(poly)) == pytest.approx(math.pi * 2.0 / 3.0, rel=1e-9)


def test_beta_of_finely_sampled_ball_is_one():
    ang = 2 * np.pi * np.arange(512) / 512
    poly = quickhull(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    assert body_beta(BodyApprox.from_polytope(poly)) == pytest.approx(1.0, rel=1e-3)


def test_volume_ratio_poly_convex_is_one():
    for doc in (bundled.payload("unit_square"), bundled.payload("unit_cube")):
        poly = polytope_from_facets(np.array(doc["vertices"]), doc["facets"])
        assert poly.volume_ratio == pytest.approx(1.0, rel=1e-12)


def test_polytope_keeps_its_hull_and_halfspaces():
    poly = lshape_poly()
    assert poly.hull is poly.hull
    assert poly.halfspaces is poly.halfspaces


def test_volume_ratio_poly_lshape():
    assert lshape_poly().volume_ratio == pytest.approx(3.5 / 3.0, rel=1e-9)


def test_volume_ratio_poly_star_matches_shoelace():
    doc = bundled.payload("star2d")
    verts = np.array(doc["vertices"])
    poly = polytope_from_facets(verts, doc["facets"])
    hv = quickhull(verts).vertices
    order = np.argsort(np.arctan2(hv[:, 1] - verts[:, 1].mean(), hv[:, 0] - verts[:, 0].mean()))
    hull_area = shoelace(hv[order])
    assert poly.volume_ratio == pytest.approx(hull_area / shoelace(verts), rel=1e-9)
    assert poly.volume_ratio > 1.0


def test_unit_ball_volume_values():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_ball_volume(2, 0.5) == pytest.approx(math.pi / 4)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def test_load_body_roundtrip(tmp_path):
    path = tmp_path / "l.json"
    path.write_text(json.dumps(L_DOC))
    poly = load_body(path)
    assert volume_det(poly.boundary) == pytest.approx(3.0, abs=1e-12)


def test_load_cloud_checks_dim(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dim": 3, "points": [[0.0, 1.0]]}))
    with pytest.raises(ValueError):
        load_cloud(path)


def test_point_cloud_diameter():
    cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert cloud.diameter() == pytest.approx(5.0)
