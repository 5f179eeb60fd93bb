"""The pruned sampling kernels give the brute-force answers exactly.

hausdorff_distance probes every 64th point of its second sample for a
lower bound, then skips the query points that share a grid cell with a
target; membership solves each boundary simplex only for the points in its
shadow across the ray. Both are compared with the full-work oracles of
tests/oracles.py by exact equality, and each comparison is shown to fail on
a planted mutant of the pruning. The boundary lattice of sample_polytope is
compared bit for bit with a recursive enumeration.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from hullmetry import sampling
from hullmetry.errors import DegenerateInput
from hullmetry.geometry import TAU_GEOM, _scale_of, load_body, quickhull
from hullmetry.harness import Scenario
from hullmetry.minkowski import convexification_gap
from hullmetry.sampling import hausdorff_distance, membership

import bundled
from oracles import hausdorff_reference, ray_crossings_reference, simplex_lattice_reference

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


def hausdorff_pair(seed, dim, kind):
    """Two samples in R^dim: uniform points, uniform points in two clusters
    1000 apart (far more cells than points), points of the
    1/8 lattice (shared points, tied distances), the lattice against its
    copy shifted by half a step, a set against a copy moved by about
    1e-13, where the lower bound is too small for the cell cull, or a
    nested pair: lattice points outside the positive orthant of the cube,
    with its corners, against a denser uniform sample of their hull, the
    cube, so the hull-to-sample direction dominates, as in convexify.
    Scaled and translated far from the origin at random."""
    rng = np.random.default_rng(seed)
    size_a, size_b = (int(k) for k in rng.integers(1, 700, 2))
    if kind in ("random", "clusters"):
        a, b = rng.uniform(-1, 1, (size_a, dim)), rng.uniform(-1, 1, (size_b, dim))
        if kind == "clusters":
            a[::2] += 1000.0
            b[1::2] += 1000.0
    elif kind == "jitter":
        a = rng.uniform(-1, 1, (size_a, dim))
        b = a + rng.uniform(-1e-13, 1e-13, a.shape)
    elif kind == "nested":
        corners = np.array(list(itertools.product((-8, 8), repeat=dim)))
        a = np.vstack([corners, rng.integers(-8, 9, (size_a, dim))])
        a = np.unique(a[(a <= 0).any(axis=1) | (a == 8).all(axis=1)], axis=0) / 8.0
        b = rng.uniform(-1, 1, (4 * size_b, dim))
    else:
        a, b = (np.unique(rng.integers(-8, 9, (k, dim)), axis=0) / 8.0 for k in (size_a, size_b))
        if kind == "offset":
            b = b + 1 / 16
    scale, shift = rng.choice([1.0, 0.125, 64.0]), rng.choice([0.0, -3.0, 1e6])
    return a * scale + shift, b * scale + shift


def hausdorff_agrees(seed, dim, kind) -> bool:
    a, b = hausdorff_pair(seed, dim, kind)
    want = hausdorff_reference(a, b)
    # bit for bit, whichever sample comes first
    return (hausdorff_distance(a, b) == want == hausdorff_distance(sampling.kd_tree(a), b)
            == hausdorff_distance(b, a))


HAUSDORFF_KINDS = ["random", "clusters", "lattice", "offset", "jitter", "nested"]


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 4]), st.sampled_from(HAUSDORFF_KINDS))
def test_hausdorff_matches_brute_force_property(seed, dim, kind):
    assert hausdorff_agrees(seed, dim, kind)


def test_hausdorff_cell_keys_are_exact_past_2_to_the_53():
    # L is about 7.2e-6, so the unit extent of axes 0-2 holds d = 277645
    # cells each and the stride of axis 3 is d**3 > 2**53, an odd number a
    # float rounds down. With that rounded stride, the target in cell
    # (0, 0, 0, 1) would share its key with the query point in cell
    # (d-1, d-1, d-1, 0), which is 0.866 from every target.
    L0 = 7.203450862715679e-06
    q = np.array([[0.5, 0.5, 0.5, 0.0], [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    t = np.array([[0.5 + L0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 0.75 * L0]])
    assert hausdorff_distance(q, t) == hausdorff_reference(q, t) > 0.866


def test_hausdorff_property_fails_without_the_exact_requery(monkeypatch):
    # the planted mutant returns the lower bound it is given and queries
    # none of the points the cull keeps
    def bound_only(source, tree, L):
        return L

    monkeypatch.setattr(sampling, "_directed_hausdorff", bound_only)
    cases = [(seed, dim, kind) for seed in range(4) for dim in (2, 3) for kind in HAUSDORFF_KINDS]
    assert sum(not hausdorff_agrees(*case) for case in cases) >= len(cases) // 2


def test_hausdorff_property_fails_with_a_bound_above_the_first_direction(monkeypatch):
    # the planted mutant seeds the second direction with (1 + 1e-9) times
    # the first direction's result, a bound that is no longer a distance
    # of a real point, so it can exceed the true maximum
    real = sampling._directed_hausdorff
    calls = []

    def inflated(source, tree, L):
        calls.append(L)
        return real(source, tree, L * (1 + 1e-9) if len(calls) % 2 == 0 else L)

    monkeypatch.setattr(sampling, "_directed_hausdorff", inflated)
    cases = [(seed, dim, kind) for seed in range(4) for dim in (2, 3) for kind in HAUSDORFF_KINDS]
    assert sum(not hausdorff_agrees(*case) for case in cases) >= len(cases) // 2


def lshape_convexify_queries(monkeypatch):
    """(points queried, source points) of each cKDTree query and each
    directed Hausdorff pass of the bundled lshape convexify trace."""
    queried, sources = [], []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    real = sampling._directed_hausdorff

    def counted(source, tree, L):
        sources.append(len(source.data))
        return real(source, tree, L)

    monkeypatch.setattr(
        sampling, "kd_tree",
        lambda pts: CountingTree(np.atleast_2d(pts), balanced_tree=False, compact_nodes=False),
    )
    monkeypatch.setattr(sampling, "_directed_hausdorff", counted)
    scen = Scenario.from_dict(bundled.scenario("lshape"))
    convexification_gap(scen.approx, scen.params["k_max"])
    assert len(sources) == 2 * scen.params["k_max"]
    return queried, sources


def test_lshape_convexify_queries_under_a_tenth_of_its_points(monkeypatch):
    queried, sources = lshape_convexify_queries(monkeypatch)
    # the probes count as queries too
    assert sum(queried) < sum(sources) / 10


def test_lshape_convexify_queries_fewer_points_than_probing_both_samples(monkeypatch):
    # probing every 64th point of both samples, and culling the A(k) ->
    # hull direction first, the trace queries 6256 points
    queried, _ = lshape_convexify_queries(monkeypatch)
    assert sum(queried) < 6256


def test_hausdorff_reference_by_hand():
    a = np.array([[0.0, 0.0], [3.0, 0.0]])
    b = np.array([[0.0, 4.0]])
    assert hausdorff_reference(a, b) == 5.0
    assert hausdorff_distance(a, b) == 5.0


# ---------------------------------------------------------------------------
# boundary lattice
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(2, 6), st.integers(1, 7))
def test_simplex_lattice_matches_the_recursive_one_property(seed, k, dim):
    # k vertices in R^dim at a scale from 1e-3 to 1e3, far from the origin,
    # and a step from half the scale to 4 times it: m runs from 1 to 11
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    verts = (rng.uniform(-1, 1, (k, dim)) + rng.uniform(-100, 100, dim)) * scale
    h = scale * rng.uniform(0.5, 4.0)
    got = sampling._sample_simplex(verts, sampling._lattice_steps(verts, h))
    want = simplex_lattice_reference(verts, h)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# ray-cast membership
# ---------------------------------------------------------------------------


def hull_case(seed, dim, kind):
    """A hull in R^dim with query points on its vertices, on the midpoints
    of its boundary simplices' edges, on a lattice through its bounding box
    and at random. A lattice hull has its vertices on the 1/4 lattice, so
    lattice query points fall exactly on its facets."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(dim + 2, 24))
    if kind == "random":
        verts = rng.uniform(-1, 1, (count, dim))
    else:
        verts = rng.integers(-4, 5, (count, dim)) / 4.0
    try:
        poly = quickhull(verts)
    except DegenerateInput:
        return None
    coords = poly.boundary.simplex_coords()
    mids = [(s[i] + s[j]) / 2 for s in coords for i in range(dim) for j in range(i + 1, dim)]
    axis = np.arange(-5, 6) / 4.0 if dim == 3 else np.arange(-10, 11) / 8.0
    lattice = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, dim)
    queries = np.vstack([poly.vertices, np.array(mids).reshape(-1, dim), lattice,
                         rng.uniform(-1.2, 1.2, (200, dim))])
    return poly, queries


def membership_agrees(poly, queries) -> bool:
    got = membership(poly, queries)
    tau = TAU_GEOM * _scale_of(poly.vertices)
    coords = poly.boundary.simplex_coords()
    direction = np.random.default_rng(1).standard_normal(poly.dim)
    direction /= np.linalg.norm(direction)
    one_ray = sampling._ray_crossings(queries, direction, coords, tau)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_ray_crossings", ray_crossings_reference)
        want = membership(poly, queries)
    want_ray = ray_crossings_reference(queries, direction, coords, tau)
    return (got.tolist() == want.tolist()
            and all(g.tolist() == w.tolist() for g, w in zip(one_ray, want_ray)))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]), st.sampled_from(["random", "lattice"]))
def test_membership_matches_full_ray_casting_property(seed, dim, kind):
    case = hull_case(seed, dim, kind)
    if case is not None:
        assert membership_agrees(*case)


@pytest.mark.parametrize("sid", ["lshape", "star2d", "unit_cube", "simplex3"])
def test_membership_matches_full_ray_casting_on_bundled_bodies(sid):
    body = load_body(bundled.payload(sid))
    lo, hi = body.vertices.min(axis=0) - 0.25, body.vertices.max(axis=0) + 0.25
    axes = [np.arange(a, b + 1e-9, 1 / 16 if body.dim == 2 else 1 / 8) for a, b in zip(lo, hi)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, body.dim)
    assert membership_agrees(body, np.vstack([body.vertices, lattice]))


def test_membership_property_fails_on_a_box_short_of_the_simplex(monkeypatch):
    # the planted mutant shrinks each shadow box by 1% of its width per side,
    # so it no longer reaches the simplex's own vertices
    real = sampling._shadow_box

    def shrunk(*args):
        box = real(*args)
        if box is None:
            return None
        lo, hi = box
        pad = (hi - lo) * 0.01
        return lo + pad, hi - pad

    monkeypatch.setattr(sampling, "_shadow_box", shrunk)
    cases = [hull_case(seed, dim, "lattice") for seed in range(6) for dim in (2, 3)]
    cases = [c for c in cases if c is not None]
    assert sum(not membership_agrees(*case) for case in cases) >= len(cases) // 2
