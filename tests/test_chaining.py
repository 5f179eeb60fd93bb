import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullmetry.errors import ParamOutOfRange, TooLarge
from hullmetry.chaining import (
    AdmissibleSequence,
    cardinality_limit,
    certify_hull_gamma,
    certify_mm_two_sided,
    entropy_integral,
    gamma_exact_small,
    gamma_greedy,
    gamma_ratio_report,
    gaussian_sup_mc,
    l_constant,
    _cell_diam,
    _diameter_and_gap,
    _widest_cell,
)
from hullmetry import chaining, sampling
from hullmetry.geometry import load_body, polytope_from_facets
from hullmetry.minkowski import hull_ratio

import bundled
from oracles import (
    entropy_integral_reference,
    farthest_pair,
    gamma_by_enumeration,
    gamma_greedy_reference,
    gaussian_sup_reference,
    halfnormal_mean,
    max_two_gaussians_mean,
    positive_part_gaussian_mean,
    smallest_positive_gap,
    widest_by_scan,
)

TWO = np.array([[0.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# exact and greedy functionals
# ---------------------------------------------------------------------------


def test_cardinality_limits():
    assert [cardinality_limit(m) for m in range(4)] == [1, 4, 16, 256]


def test_exact_singleton_zero():
    assert gamma_exact_small(np.array([[1.0, 2.0]]), 2.0).value == 0.0


def test_exact_two_points_is_distance():
    for alpha in (1.0, 2.0):
        est = gamma_exact_small(TWO, alpha)
        assert est.value == 1.0
        assert est.witness.validate(2)


def exact_cases(n_points, count, seed):
    """(points, alpha): n_points in R^1 to R^4, Gaussian or on a small integer
    lattice (ties and duplicate points), scaled by 1e-150 to 1e150, with
    alpha from 0.01 to 1000."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = int(rng.integers(1, 5))
        pts = (rng.standard_normal((n_points, d)) if k % 2
               else rng.integers(-2, 3, (n_points, d)).astype(float))
        yield pts * 10.0 ** rng.uniform(-150, 150), float(10.0 ** rng.uniform(-2, 3))


@pytest.mark.parametrize("n_points", [1, 2, 3, 4])
def test_exact_small_clouds_equal_diameter(n_points):
    rng = np.random.default_rng(n_points)
    pts = rng.standard_normal((n_points, 3))
    d = max(
        (np.linalg.norm(pts[i] - pts[j]) for i in range(n_points) for j in range(i + 1, n_points)),
        default=0.0,
    )
    est = gamma_exact_small(pts, 2.0)
    assert est.value == pytest.approx(d, abs=1e-12)
    for pts, alpha in exact_cases(n_points, 700, n_points):
        est = gamma_exact_small(pts, alpha)
        assert est.value == farthest_pair(pts)[0]
        assert est.witness.validate(n_points)


def test_exact_matches_independent_enumeration_on_five_points():
    rng = np.random.default_rng(55)
    cases = [(rng.uniform(0, 1, (5, 2)), 2.0) for _ in range(3)]
    for pts, alpha in cases + list(exact_cases(5, 300, 5)):
        est = gamma_exact_small(pts, alpha)
        assert est.value == pytest.approx(gamma_by_enumeration(pts, alpha), rel=1e-12, abs=0.0)
        assert est.witness.validate(5)


def test_exact_refuses_an_alpha_or_distances_that_overflow():
    # the exhaustive search raised OverflowError for a level weight past
    # float64, and TypeError when every chain came out inf
    pts = np.random.default_rng(2).standard_normal((5, 2))
    assert math.isfinite(gamma_exact_small(pts, 0.001).value)  # 2^1000 d_min
    with pytest.raises(ParamOutOfRange, match=r"^2\^2000\.0 overflows at alpha=0\.0005"):
        gamma_exact_small(pts, 0.0005)
    with pytest.raises(ParamOutOfRange, match="overflows float64 at alpha=0.0011"):
        gamma_exact_small(pts * 1e150, 0.0011)
    with pytest.raises(ParamOutOfRange, match="distances between the points overflow"):
        gamma_exact_small(pts * 1e200, 2.0)


def test_exact_cap():
    with pytest.raises(TooLarge):
        gamma_exact_small(np.zeros((6, 2)), 2.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_gamma_rejects_an_alpha_that_is_not_finite_and_positive(alpha):
    for compute in (gamma_greedy, gamma_exact_small, entropy_integral, certify_hull_gamma):
        with pytest.raises(ParamOutOfRange, match="alpha must be positive and finite"):
            compute(TWO, alpha)
    with pytest.raises(ParamOutOfRange):
        l_constant(1.0, 2, alpha)


def test_greedy_singleton_and_small():
    assert gamma_greedy(np.array([[0.0, 0.0]]), 2.0).value == 0.0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [2.0, 2.0]])
    d = max(np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4))
    assert gamma_greedy(pts, 2.0).value == pytest.approx(d, abs=1e-12)


def test_greedy_at_least_exact():
    rng = np.random.default_rng(9)
    for _ in range(4):
        pts = rng.uniform(0, 1, (5, 2))
        assert gamma_greedy(pts, 2.0).value >= gamma_exact_small(pts, 2.0).value - 1e-12


def test_greedy_witness_is_admissible():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, (40, 2))
    est = gamma_greedy(pts, 2.0)
    assert est.witness.validate(len(pts))


def test_greedy_scale_equivariance():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, (30, 2))
    base = gamma_greedy(pts, 2.0).value
    for c in (0.25, 3.0):
        assert gamma_greedy(pts * c, 2.0).value == pytest.approx(c * base, rel=1e-12)


def test_greedy_handles_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert gamma_greedy(pts, 2.0).value == pytest.approx(1.0, abs=1e-12)


def test_greedy_keeps_points_whose_distance_underflows_in_one_cell():
    # (1e-170)^2 underflows to 0, so cdist puts the first two points at
    # distance 0 and the last level keeps them in one cell
    est = gamma_greedy([[0.0, 0.0], [1e-170, 0.0], [1.0, 0.0]], 2.0)
    assert est.witness.partitions == (((0, 1, 2),), ((0, 1), (2,)))


@settings(max_examples=75, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["random", "repeated", "lattice", "near_tie", "underflow"]),
)
def test_greedy_matches_reference_property(seed, kind):
    # value and witness equal the plain sequential-scan construction exactly;
    # past 256 points the budget binds at level 3 and cannot bind at level 4;
    # the first level that cannot bind holds the classes of equal points
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(1, 421))
    if kind == "random":
        pts = rng.uniform(-1, 1, (n, d))
    elif kind == "underflow":
        # a cluster at the origin on coordinate gaps below UNDERFLOW_GAP:
        # squared gaps of 1e-170 underflow to 0, those of 1e-160 and 1e-155
        # do not, so the level that cannot bind splits widest-first
        pts = rng.uniform(-1, 1, (n, d))
        near = rng.random(n) < 0.4
        scale = rng.choice([1e-170, 1e-160, 1e-155], (n, 1))
        pts[near] = (scale * rng.integers(-2, 3, (n, d)))[near]
    elif kind == "repeated":
        # repeats at scattered indices, so the classes are not index runs
        distinct = rng.uniform(-1, 1, (int(rng.integers(1, 60)), d))
        pts = distinct[rng.integers(0, len(distinct), n)]
    else:
        side = int(rng.integers(2, 6))
        axes = np.meshgrid(*[np.arange(side) / 4.0] * d, indexing="ij")
        lattice = np.stack(axes, -1).reshape(-1, d)
        pts = lattice[rng.permutation(len(lattice))[:n]]
        if kind == "near_tie":
            # a few ulps off the dyadic lattice: many diameters differ by <= 1e-15
            pts = 1.0 + pts
            pts = pts + rng.integers(-4, 5, pts.shape) * np.spacing(pts)
    est = gamma_greedy(pts, 2.0)
    value, partitions = gamma_greedy_reference(pts, 2.0)
    assert est.value.hex() == value.hex()
    assert est.witness.partitions == partitions


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_widest_cell_matches_sequential_scan_property(seed):
    # diameters a few ulps apart around a few bases, some cells unsplittable
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 40))
    base = rng.choice([0.75, 1.0, 1.5, 3.0], k)
    D = base + rng.integers(0, 13, k) * np.spacing(base)
    D[rng.random(k) < 0.2] = 0.0
    M = rng.permutation(10 * k)[:k]
    # the scan reads a cell's min index alone, its first entry
    cells = [np.array([mi]) for mi in M.tolist()]
    diams = [(d, 0, 0) for d in D.tolist()]
    assert _widest_cell(cells, diams) == widest_by_scan(D.tolist(), M.tolist())


def test_widest_cell_runs_only_where_the_budget_binds(monkeypatch):
    # on the bundled unit_cube gamma sample, the level whose budget is at
    # least n is the classes of equal points, built without looking for the
    # widest cell
    doc = bundled.scenario("unit_cube")
    pts = sampling.sample_polytope(load_body(doc["payload"]),
                                   axis_cells=doc["params"]["gamma_cells"])[0]
    budgets, scans = [], []
    real_limit, real_widest = chaining.cardinality_limit, chaining._widest_cell

    def limit(m):
        budgets.append(real_limit(m))
        return budgets[-1]

    def widest(cells, diams):
        scans.append(budgets[-1])
        return real_widest(cells, diams)

    monkeypatch.setattr(chaining, "cardinality_limit", limit)
    monkeypatch.setattr(chaining, "_widest_cell", widest)
    gamma_greedy(pts, 2.0)
    n = len(pts)
    assert budgets == [4, 16, 256, 65536] and 256 < n
    assert set(scans) == {4, 16, 256}


def test_widest_cell_keeps_an_earlier_pick_that_rounding_ties():
    # 1 + 5 ulp exceeds 1 by more than 1e-15, yet not 1 + 1e-15 rounded: the
    # scan moves on neither test and keeps the first, narrower cell
    D = [1.0, 1.0 + 5 * float(np.spacing(1.0))]
    cells = [np.array([0]), np.array([1])]
    diams = [(d, 0, 0) for d in D]
    assert _widest_cell(cells, diams) == 0 == widest_by_scan(D, [0, 1])
    assert _widest_cell(cells[::-1], diams[::-1]) == 0 == widest_by_scan(D[::-1], [1, 0])


# sha256 of repr(witness.partitions) for the body and hull samples of the
# bundled gamma_hull checks, recorded with the greedy construction that
# scanned every cell per split
PINNED_WITNESS_DIGESTS = {
    "unit_cube": [
        "97e3b2f68efb7a9f7e315a9f5aef7d84392e7839e17abf3ad2d79ffadfb70007",
        "6957beb0ce476053a80f06e2685a2b61cd92c0a529df934d712518ce33727931",
    ],
    "lshape": [
        "1cb766a9a8540314a437063764314f78980d5376fe30a1d39fcaf815863a4081",
        "ba3bfe51b521c9c4c9d9c161d44f8304e4329db658e045d0c50ba1ff3cee0b59",
    ],
}


@pytest.mark.parametrize("scenario", sorted(PINNED_WITNESS_DIGESTS))
def test_greedy_witnesses_of_bundled_gamma_samples_are_pinned(scenario, monkeypatch):
    witnesses = []
    real = chaining.gamma_greedy

    def recorded(cloud, alpha):
        est = real(cloud, alpha)
        witnesses.append(est.witness.partitions)
        return est

    monkeypatch.setattr(chaining, "gamma_greedy", recorded)
    doc = bundled.scenario(scenario)
    cells = int(doc["params"].get("gamma_cells", 24))
    certify_hull_gamma(load_body(doc["payload"]), 2.0, axis_cells=cells)
    digests = [hashlib.sha256(repr(w).encode()).hexdigest() for w in witnesses]
    assert digests == PINNED_WITNESS_DIGESTS[scenario]


def test_admissible_sequence_validation_rejects_junk():
    bad = AdmissibleSequence((((0, 1),), ((0,), (1,), (2,))))
    assert not bad.validate(2)


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([2, 3, 8]),
    st.integers(min_value=1, max_value=40),
    st.booleans(),
)
def test_distances_match_bruteforce(seed, dim, n, lattice):
    rng = np.random.default_rng(seed)
    if lattice:
        # dyadic coordinates: tied distances are exactly equal in floating point
        pts = rng.integers(-3, 4, (n, dim)) * 0.5
    else:
        pts = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0)
    diam, i, j = farthest_pair(pts)
    got_diam, got_gap = _diameter_and_gap(pts)
    assert _close(got_diam, diam)
    assert _close(got_gap, smallest_positive_gap(pts))

    cell = np.flatnonzero(rng.random(n) < 0.7)
    value, ci, cj = _cell_diam(pts, cell)
    want = farthest_pair(pts[cell])
    assert _close(value, want[0])
    if lattice:
        assert (ci, cj) == want[1:]


def test_cell_diam_first_maximum_across_chunks():
    # 530 rows span two row blocks (494 rows fill the first's 512² distances);
    # many points repeat, so the farthest pair recurs in the second block and
    # the first occurrence must win
    pts = np.random.default_rng(11).integers(-3, 4, (530, 3)) * 0.5
    assert _cell_diam(pts, np.arange(len(pts))) == farthest_pair(pts)


def test_cell_diam_farthest_pair_inside_a_later_tile():
    # both ends of the farthest pair lie past the first tile's 436 rows: the
    # pair comes from the second tile, whose columns start at row 436 too
    pts = np.random.default_rng(12).standard_normal((600, 2))
    pts[[550, 580]] = [[50.0, 0.0], [-50.0, 0.0]]
    assert _cell_diam(pts, np.arange(600)) == farthest_pair(pts) == (100.0, 550, 580)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2, 511, 512, 513, 1025]), st.integers(1, 10), st.booleans(),
       st.booleans(), st.sampled_from("CF"), st.integers(0, 2**31 - 1))
def test_distance_tiles_match_bruteforce_bit_for_bit(n, dim, lattice, dups, order, seed):
    # the pairs come from cdist row blocks of the upper triangle; max and min
    # are exact and the distances symmetric, so the tiles keep the whole
    # matrix's extremes and its row-major first farthest pair
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(-3, 4, (n, dim)) * 0.5
    else:
        pts = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0)
    if dups:
        pts[rng.integers(0, n, n // 3)] = pts[rng.integers(0, n, n // 3)]
    pts = np.asarray(pts, order=order)
    diam, gap = _diameter_and_gap(pts)
    want = farthest_pair(pts)
    assert diam.hex() == want[0].hex()
    assert gap.hex() == smallest_positive_gap(pts).hex()
    assert _cell_diam(pts, np.arange(n)) == want


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diameter_and_gap_holds_one_row_tile_of_distances():
    # all 6000 * 5999 / 2 distances at once would take 144 MB, and 512 rows
    # of 6000 distances 24.6 MB; a tile holds at most 512² distances, 2.1 MB
    pts = np.random.default_rng(5).standard_normal((6000, 3))
    assert _traced_peak(_diameter_and_gap, pts) < 6e6


def test_gamma_greedy_holds_one_tile_of_distances():
    # the root cell's diameter came from 512 rows of 4096 distances, 16.8 MB
    pts = np.random.default_rng(9).standard_normal((4096, 2))
    assert _traced_peak(gamma_greedy, pts, 2.0) < 6e6


# ---------------------------------------------------------------------------
# entropy integral
# ---------------------------------------------------------------------------


def test_entropy_integral_singleton():
    assert entropy_integral(np.array([[0.0, 0.0]]), 2.0).value == 0.0


def test_entropy_integral_two_points_closed_form():
    est = entropy_integral(TWO, 2.0)
    assert est.value == pytest.approx(math.sqrt(math.log(2)), rel=1e-12)
    est1 = entropy_integral(TWO, 1.0)
    assert est1.value == pytest.approx(math.log(2), rel=1e-12)


def test_entropy_integral_grows_with_grid_size():
    values = []
    for k in (3, 4, 5):
        grid = np.array([[i / (2**k - 1)] for i in range(2**k)])
        values.append(entropy_integral(grid, 2.0).value)
    assert values[0] < values[1] < values[2]


def test_entropy_integral_makes_one_traversal(count_calls):
    # every N(eps) on the grid is read off one farthest-point traversal
    pts = np.random.default_rng(11).standard_normal((200, 3))
    traversals = count_calls(chaining, "_gonzalez")
    assert entropy_integral(pts, 2.0).value > 0
    assert len(traversals) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.sampled_from([1.0, 2.0]),
)
def test_entropy_integral_matches_one_cover_per_grid_epsilon(seed, dim, lattice, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pts = rng.integers(-3, 4, (n, dim)) * 0.5 if lattice else rng.standard_normal((n, dim))
    assert repr(entropy_integral(pts, alpha).value) == repr(entropy_integral_reference(pts, alpha))


def test_entropy_integral_counts_only_radii_above_a_grid_epsilon():
    # the third pick's insertion radius is exactly the grid's sixth eps, where
    # the cover has two centres, not three
    x = 1.0
    for _ in range(5):
        x *= 2 ** (-0.25)
    pts = np.array([[0.0], [1.0], [x], [1e-3]])
    assert repr(entropy_integral(pts, 2.0).value) == repr(entropy_integral_reference(pts, 2.0))


def test_entropy_integral_refuses_distances_that_overflow():
    # every distance is inf: the integral came out inf instead of failing
    pts = np.arange(16.0)[:, None] * 1e184
    with pytest.raises(ParamOutOfRange, match="overflow float64"):
        entropy_integral(pts, 2.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_entropy_integral_rejects_nonfinite_or_nonpositive_alpha(alpha):
    with pytest.raises(ParamOutOfRange):
        entropy_integral(TWO, alpha)


def test_greedy_within_factor_four_of_entropy_integral():
    grid = np.array([[i / 31.0] for i in range(32)])
    g = gamma_greedy(grid, 2.0).value
    e = entropy_integral(grid, 2.0).value
    assert e <= g <= 4 * e


# ---------------------------------------------------------------------------
# Gaussian suprema
# ---------------------------------------------------------------------------


def test_sup_singleton_mean_zero():
    est = gaussian_sup_mc(np.array([[0.3, 0.4]]), 20000, 5)
    assert abs(est.mean) <= 3 * est.std_error


def test_sup_two_basis_vectors():
    est = gaussian_sup_mc(np.eye(2), 100000, 42)
    assert abs(est.mean - max_two_gaussians_mean()) <= 3 * est.std_error


def test_sup_plus_minus_e1():
    est = gaussian_sup_mc(np.array([[1.0, 0.0], [-1.0, 0.0]]), 100000, 43)
    assert abs(est.mean - halfnormal_mean()) <= 3 * est.std_error


def test_sup_deterministic_bit_for_bit():
    a = gaussian_sup_mc(np.eye(3), 12345, 77)
    b = gaussian_sup_mc(np.eye(3), 12345, 77)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 1025, 4095, 4096, 4097, 5121, 8449]), st.sampled_from([1, 2, 137, 2000]),
       st.sampled_from([1, 2, 8, 16]), st.sampled_from("CF"), st.integers(0, 2**31 - 1))
def test_sup_replays_the_full_chunk_product_bit_for_bit(trials, n, d, order, seed):
    # the buffered product's row blocks round like the whole chunk's
    # (take, n) product, around the chunk boundary, for a last chunk of any
    # size, and for a chunk split into uneven blocks
    pts = np.asarray(np.random.default_rng(seed).standard_normal((n, d)), order=order)
    est = gaussian_sup_mc(pts, trials, seed)
    mean, std_error = gaussian_sup_reference(pts, trials, seed)
    assert (est.mean.hex(), est.std_error.hex()) == (mean.hex(), std_error.hex())


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 1025, 4096, 4097, 5121]), st.sampled_from([511, 512, 513, 1025, 3725]),
       st.sampled_from([1, 2, 8, 16]), st.sampled_from("CF"), st.integers(0, 2**31 - 1))
def test_sup_replays_the_tiled_product_bit_for_bit(trials, n, d, order, seed):
    # a cloud over one tile is multiplied in slices of TILE points, a ragged
    # one last; the estimate is that of the slices' row maxima
    pts = np.asarray(np.random.default_rng(seed).standard_normal((n, d)), order=order)
    est = gaussian_sup_mc(pts, trials, seed)
    mean, std_error = gaussian_sup_reference(pts, trials, seed, cols=chaining.TILE)
    assert (est.mean.hex(), est.std_error.hex()) == (mean.hex(), std_error.hex())


def test_sup_holds_one_tile_of_the_product():
    # the whole 4096 x 2000 chunk product would take 65.5 MB, and 4096 rows of
    # a 512-point slice 16.8 MB; a 1024 x 512 block takes 4.2 MB
    pts = np.random.default_rng(8).standard_normal((2000, 8))
    assert _traced_peak(gaussian_sup_mc, pts, 8192, 3) < 8e6


def test_sup_changes_with_seed():
    a = gaussian_sup_mc(np.eye(3), 5000, 1)
    b = gaussian_sup_mc(np.eye(3), 5000, 2)
    assert a.mean != b.mean


def test_sup_monotone_under_inclusion():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((12, 3))
    small = gaussian_sup_mc(pts[:6], 40000, 9)
    big = gaussian_sup_mc(pts, 40000, 9)
    assert big.mean >= small.mean - 3 * (small.std_error + big.std_error)


def test_sup_rejects_no_trials():
    with pytest.raises(ParamOutOfRange):
        gaussian_sup_mc(TWO, 0, 1)


# ---------------------------------------------------------------------------
# constants and certificates
# ---------------------------------------------------------------------------


def test_l_constant_values():
    assert l_constant(1.0, 2, 2.0) == pytest.approx(
        math.sqrt(math.log(9) / math.log(2) + 1), rel=1e-12
    )
    assert l_constant(1.0, 2, 2.0) == pytest.approx(2.0420394221077887, abs=1e-9)
    assert l_constant(1.0, 1, 1.0) == pytest.approx(math.log(3) / math.log(2) + 1, rel=1e-12)
    assert l_constant(1.0, 2, 1e12) == pytest.approx(1.0, abs=1e-9)


def test_l_constant_rejects_bad_params():
    with pytest.raises(ParamOutOfRange):
        l_constant(0.5, 2, 2.0)
    with pytest.raises(ParamOutOfRange):
        l_constant(1.0, 0, 2.0)


def test_certify_convex_body():
    doc = bundled.payload("unit_square")
    poly = polytope_from_facets(np.array(doc["vertices"]), doc["facets"])
    rep = certify_hull_gamma(poly, 2.0)
    assert rep.slack >= -1e-9
    assert rep.R == pytest.approx(1.0)
    # convex body and its hull sample identically
    assert rep.gamma_T == pytest.approx(rep.gamma_Th, rel=1e-12)


def test_certify_lshape_both_modes():
    doc = bundled.payload("lshape")
    poly = polytope_from_facets(np.array(doc["vertices"]), doc["facets"])
    rep = certify_hull_gamma(poly, 2.0)
    assert rep.R == hull_ratio(poly, "poly")
    gen = gamma_ratio_report(rep.gamma_T, rep.gamma_Th, rep.dim, 2.0, hull_ratio(poly, "general"))
    for cert in (rep, gen):
        assert cert.slack >= 0


def test_certify_small_cloud_uses_exact_identity():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rep = certify_hull_gamma(pts, 2.0)
    diam = math.sqrt(2)
    assert rep.gamma_T == pytest.approx(diam, abs=1e-12)
    assert rep.R == 1.0 and rep.slack >= -1e-9


def test_certify_stops_when_no_spacing_brings_the_hull_sample_under_the_cap(
        monkeypatch, count_calls):
    # the unit square's four vertices exceed a cap of 3 at every spacing: the
    # spacing doubles from the body's grid step 1/24 past twice the diagonal
    # sqrt(2), then stops
    monkeypatch.setattr(chaining, "GREEDY_CAP", 3)
    calls = count_calls(sampling, "sample_hull", limit=64)
    doc = bundled.payload("unit_square")
    square = polytope_from_facets(np.array(doc["vertices"]), doc["facets"])
    with pytest.raises(TooLarge, match="hull sample of 4 points .* at every spacing"):
        certify_hull_gamma(square, 2.0)
    assert [h for _, h in calls] == [2.0**j / 24 for j in range(8)]


def test_certify_refuses_a_point_set_over_the_cap_before_the_pairwise_pass(count_calls):
    pts = np.random.default_rng(0).standard_normal((chaining.GREEDY_CAP + 1, 2))
    calls = count_calls(chaining, "_diameter_and_gap")
    with pytest.raises(TooLarge, match="point set of 4097 points exceeds the greedy gamma cap"):
        certify_hull_gamma(pts, 2.0)
    assert calls == []


def test_certify_doubles_until_the_grid_centre_leaves_the_hull(monkeypatch, count_calls):
    # a regular octagon of radius 1/2 at its side s: at 4s, past the diagonal
    # sqrt(2), the one grid centre (4s - 1)/2 * (1, 1) is still inside; only 8s
    # drops it and leaves the eight vertices, which fit a cap of 8
    monkeypatch.setattr(chaining, "GREEDY_CAP", 8)
    sample_hull = sampling.sample_hull
    calls = count_calls(sampling, "sample_hull", limit=64)
    t = np.arange(8) * (2 * np.pi / 8)
    octagon = 0.5 * np.stack([np.cos(t), np.sin(t)], axis=1)
    s = chaining._diameter_and_gap(octagon)[1]
    assert math.sqrt(2) < 4 * s < 2 * math.sqrt(2) < 8 * s
    rep = certify_hull_gamma(octagon, 2.0)
    assert rep.slack >= -1e-9 and rep.gamma_Th == rep.gamma_T
    assert [h for _, h in calls] == [s, 2 * s, 4 * s, 8 * s]
    assert [len(sample_hull(*args)) for args in calls] == [18, 9, 9, 8]


def test_certify_builds_one_hull_sample_above_the_grid_rank(count_calls):
    # above affine rank sampling.MAX_GRID_RANK the hull sample ignores the
    # spacing: one oversized build settles that no spacing fits the cap
    calls = count_calls(sampling, "sample_hull", limit=64)
    cloud = np.random.default_rng(0).standard_normal((400, 5))
    with pytest.raises(TooLarge, match="hull sample of 80201 points .* at every spacing"):
        certify_hull_gamma(cloud, 2.0)
    assert len(calls) == 1


def test_certify_rejects_unknown_mode():
    with pytest.raises(ParamOutOfRange):
        hull_ratio(TWO, "weird")


def test_mm_two_sided_two_points():
    rep = certify_mm_two_sided(TWO, 100000, 11)
    assert rep.gamma2 == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.esup - positive_part_gaussian_mean()) <= 3 * rep.esup_std_error
    expected = 1.0 / positive_part_gaussian_mean()
    assert rep.l_hat == pytest.approx(expected, rel=0.02)


def test_mm_two_sided_singleton_degenerate():
    rep = certify_mm_two_sided(np.array([[0.2, 0.7]]), 500, 3)
    assert rep.degenerate


def test_mm_two_sided_bounded_over_basis_clouds():
    worst = 0.0
    for n in (2, 4, 8, 16):
        rep = certify_mm_two_sided(np.eye(n), 20000, 101)
        assert math.isfinite(rep.l_hat)
        worst = max(worst, rep.l_hat)
    assert worst <= 10.0
