"""Acceptance suite: one test per certification criterion, at pinned tolerances.

Each test prints a single PASS line on success so a `pytest -s` run reads as
a checklist. Runtime limits are asserted where the criterion states one.
"""
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hullmetry.chaining import (
    certify_hull_gamma,
    entropy_integral,
    gamma_exact_small,
    gamma_greedy,
    gamma_ratio_report,
    gaussian_sup_mc,
    l_constant,
)
from hullmetry.covering import (
    check_hull_cover_ratio,
    exact_cover_small,
    greedy_cover,
    volume_cover_bounds,
)
from hullmetry.geometry import (
    polytope_from_facets,
    quickhull,
    volume_det,
    volume_projected,
)
from hullmetry.minkowski import BodyApprox, convexification_gap, hull_ratio, reverse_bm_sweep
from hullmetry.profiles import EntropyProfile, l_existence_report
from hullmetry.sampling import membership

import bundled
from oracles import halfnormal_mean, max_two_gaussians_mean, shoelace


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _body(doc):
    return polytope_from_facets(np.array(doc["vertices"]), doc["facets"])


def _points(sid):
    return np.array(bundled.payload(sid)["points"])


CONVEX_DOCS = [bundled.payload(sid) for sid in ("unit_square", "unit_cube", "simplex3")]
BODY_DOCS = CONVEX_DOCS + [bundled.payload("lshape"), bundled.payload("star2d")]


def test_criterion_1_volume_formula_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    count = 0
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(17):
            hull = quickhull(rng.standard_normal((n + 9, n)))
            vd = volume_det(hull.boundary)
            vp = volume_projected(hull.boundary)
            worst = max(worst, abs(vd - vp) / abs(vd))
            count += 1
    ldoc = bundled.payload("lshape")
    lp = _body(ldoc)
    l_ok = abs(volume_det(lp.boundary) - 3.0) <= 1e-12
    l_ok &= abs(volume_det(lp.boundary) - shoelace(np.array(ldoc["vertices"]))) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = count >= 50 and worst <= 1e-9 and l_ok and elapsed < 10.0
    _report(1, ok, f"{count} polytopes, worst rel diff {worst:.2e}, "
                   f"lshape exact, {elapsed:.1f}s")


def test_criterion_2_hull_ratio_correctness():
    lp = _body(bundled.payload("lshape"))
    ratio_l = lp.volume_ratio
    ok = abs(ratio_l - 3.5 / 3.0) <= 1e-9 * (3.5 / 3.0)
    for doc in CONVEX_DOCS:
        ok &= abs(_body(doc).volume_ratio - 1.0) <= 1e-9
    for doc in BODY_DOCS:
        verts = np.array(doc["vertices"])
        hull = quickhull(verts)
        again = quickhull(hull.vertices)
        ok &= sorted(map(tuple, hull.vertices.tolist())) == sorted(
            map(tuple, again.vertices.tolist())
        )
        ok &= bool(membership(hull, verts).all())
    _report(2, ok, f"lshape ratio {ratio_l:.12f}, convex ratios 1, "
                   "idempotence and containment on all fixtures")


def test_criterion_3_convexification():
    t0 = time.perf_counter()
    lbody = BodyApprox.from_polytope(_body(bundled.payload("lshape")))  # default sampling cap
    traces = convexification_gap(lbody, 8)
    gaps = [t.hausdorff_to_hull for t in traces]
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
    shrunk = gaps[7] < 0.25 * gaps[0]
    tp = BodyApprox.from_points(_points("twopoint"))
    tp_traces = convexification_gap(tp, 8)
    grid_tol = 0.01
    tp_ok = all(abs(t.hausdorff_to_hull - 1 / (2 * t.k)) <= grid_tol for t in tp_traces)
    elapsed = time.perf_counter() - t0
    ok = monotone and shrunk and tp_ok and elapsed < 60.0
    _report(3, ok, f"lshape gaps {gaps[0]:.3f}->{gaps[7]:.3f} monotone={monotone}, "
                   f"two-point gaps 1/(2k), {elapsed:.1f}s")


def test_criterion_4_reverse_bm_ledger():
    scales = (0.5, 1.0, 2.0)
    worst = 0.0
    for doc in BODY_DOCS:
        body = BodyApprox.from_polytope(_body(doc), axis_cells=100)
        for rep in reverse_bm_sweep(body, body, scales, scales, (1, 2)):
            worst = max(worst, rep.empirical_C1)
    sq = BodyApprox.from_polytope(quickhull(np.array(bundled.payload("unit_square")["vertices"])))
    c1 = reverse_bm_sweep(sq, sq, [1.0], [1.0], [1])[0].empirical_C1
    square_ok = abs(c1 - 4 / math.pi) <= 1e-6
    ok = math.isfinite(worst) and worst <= 10.0 and square_ok
    _report(4, ok, f"max empirical C1 {worst:.4f} <= 10, unit square C1 = 4/pi")


def test_criterion_5_covering_sandwich():
    instances = [
        (bundled.payload("unit_square"), _square_sample(), 0.34),
        (bundled.payload("unit_cube"), _cube_sample(), 0.45),
        (bundled.payload("simplex3"), _simplex_sample(), 0.2),
    ]
    ok = True
    details = []
    for doc, sample, eps in instances:
        poly = _body(doc)
        lo, up = volume_cover_bounds(poly, eps)
        n_exact = exact_cover_small(sample, eps)
        n_greedy = greedy_cover(sample, eps).n_greedy
        ok &= up is not None
        ok &= lo <= n_exact <= n_greedy <= up
        details.append(f"{lo:.2f}<={n_exact}<={n_greedy}<={up:.1f}")
    lp = _body(bundled.payload("lshape"))
    for eps in (0.2, 0.4, 0.8):
        cert = check_hull_cover_ratio(lp, eps)
        ok &= cert.holds and cert.slack >= 0 and cert.ratio_R == hull_ratio(lp, "poly")
    _report(5, ok, "sandwich " + "; ".join(details) + "; lshape hull-cover slack >= 0")


def _square_sample():
    return np.array([[i / 3, j / 3] for i in range(4) for j in range(4)])


def _cube_sample():
    corners = np.array(bundled.payload("unit_cube")["vertices"], dtype=float)
    return np.vstack([corners, [[0.5, 0.5, 0.5]]])


def _simplex_sample():
    v = np.array(bundled.payload("simplex3")["vertices"], dtype=float)
    mids = [(v[i] + v[j]) / 2 for i in range(4) for j in range(i + 1, 4)]
    return np.vstack([v, mids])


def test_criterion_6_gamma_exactness():
    clouds = [_points(sid) for sid in ("twopoint", "pm_e1", "basis_2", "basis_4")]
    ok = True
    for pts in clouds:
        d = max(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        exact = gamma_exact_small(pts, 2.0).value
        greedy = gamma_greedy(pts, 2.0).value
        ok &= abs(exact - d) <= 1e-12
        ok &= abs(greedy - exact) <= 1e-12
    ent = entropy_integral(_points("twopoint"), 2.0).value
    ent_ok = abs(ent - math.sqrt(math.log(2))) <= 0.02 * math.sqrt(math.log(2))
    ok &= ent_ok
    _report(6, ok, f"exact=diam and greedy=exact on 2-4 point clouds, "
                   f"two-point entropy integral {ent:.4f}")


def test_criterion_7_gaussian_sup():
    t0 = time.perf_counter()
    e12 = gaussian_sup_mc(np.eye(2), 100000, 7001)
    pm = gaussian_sup_mc(_points("pm_e1"), 100000, 7002)
    ok = abs(e12.mean - max_two_gaussians_mean()) <= 3 * e12.std_error
    ok &= abs(pm.mean - halfnormal_mean()) <= 3 * pm.std_error
    rerun = gaussian_sup_mc(np.eye(2), 100000, 7001)
    ok &= rerun == e12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(7, ok, f"E max(g1,g2) {e12.mean:.4f} (target 0.5642), "
                   f"E|g| {pm.mean:.4f} (target 0.7979), bit-identical rerun, {elapsed:.1f}s")


def test_criterion_8_hull_gamma_certification():
    ok = abs(l_constant(1.0, 2, 2.0) - 2.0420394221077887) <= 1e-6
    fixtures = [_body(doc) for doc in BODY_DOCS]
    clouds = [_points(sid) for sid in ("twopoint", "pm_e1", "basis_4", "basis_16")]
    worst_slack = math.inf
    for target in fixtures + clouds:
        kwargs = {"axis_cells": 8} if getattr(target, "dim", 2) == 3 else {}
        rep = certify_hull_gamma(target, 2.0, **kwargs)
        gen = gamma_ratio_report(rep.gamma_T, rep.gamma_Th, rep.dim, 2.0,
                                 hull_ratio(target, "general"))
        for cert in (rep, gen):
            ok &= cert.slack >= 0
            worst_slack = min(worst_slack, cert.slack)
    _report(8, ok, f"all fixtures certified in both modes, min slack {worst_slack:.3f}, "
                   "L(1,2,2) = 2.0421")


def test_criterion_9_profile_verdicts():
    t0 = time.perf_counter()
    r1 = l_existence_report(EntropyProfile(3.0, 1.0), 1.0)
    r2 = l_existence_report(EntropyProfile(2.0, -1.0), 1.0)
    r3 = l_existence_report(EntropyProfile(2.0, -3.0), 1.0)
    ok = (r1.L_exists, r2.L_exists, r3.L_exists) == (True, True, False)
    ok &= abs(r2.verdict.value - 2.0) <= 1e-3
    ok &= r3.verdict.singularity is not None
    ok &= abs(r3.verdict.singularity - math.exp(-1)) <= 1e-12
    ok &= "interior singularity" in (r3.verdict.reason or "")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(9, ok, f"verdicts (T,T,F), case-2 value {r2.verdict.value:.5f}, "
                   f"case-3 singularity at e^-1, {elapsed:.1f}s")


GOLDEN = Path(__file__).resolve().parent / "golden" / "bundled_results.json"
GOLDEN_ARTIFACTS = GOLDEN.parent / "bundled"
PERFBENCH_GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"


def _assert_matches_golden(got, want, where):
    """Same keys and types; bools, ints, strings and nulls exact; floats within 1e-12 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (item_got, item_want) in enumerate(zip(got, want)):
            _assert_matches_golden(item_got, item_want, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12 * abs(want), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _csv_cell(cell):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _parse_artifact(path):
    """A JSON artifact as its document, a CSV one as rows of int, float or string cells."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return [[_csv_cell(c) for c in line.split(",")] for line in path.read_text().splitlines()]


def _pinned_digest(seed: int) -> str:
    """The sha256 of the bundled results.json that the benchmark's output gate pins."""
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH_GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.PINNED_DIGESTS[seed]


def test_criterion_10_end_to_end_determinism(tmp_path):
    suite = bundled.SUITE_FILE
    pinned = _pinned_digest(20240501)
    outs = []
    # serial, then on two worker processes: the bytes the benchmark pins, both ways
    for tag, jobs in (("a", "1"), ("b", "2")):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "hullmetry.cli", "run", str(suite),
             "--out", str(out), "--seed", "20240501", "--jobs", jobs],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "results.json").read_bytes())
    assert [hashlib.sha256(b).hexdigest() for b in outs] == [pinned, pinned]
    ok = outs[0] == outs[1]
    got, want = json.loads(outs[0]), json.loads(GOLDEN.read_text())
    ok &= [(r["scenario"], r["check"]) for r in got] == [(r["scenario"], r["check"]) for r in want]
    for rec_got, rec_want in zip(got, want):
        _assert_matches_golden(rec_got, rec_want, f"{rec_want['scenario']}/{rec_want['check']}")
    # every other artifact is deterministic too, the same bytes in both modes;
    # results.csv alone carries run times
    files = [{p.name: p.read_bytes() for p in (tmp_path / tag).iterdir() if p.name != "results.csv"}
             for tag in ("a", "b")]
    assert files[0] == files[1]
    produced = sorted(name for name in files[0] if name != "results.json")
    ok &= produced == sorted(p.name for p in GOLDEN_ARTIFACTS.iterdir())
    for name in produced:
        _assert_matches_golden(_parse_artifact(tmp_path / "a" / name),
                               _parse_artifact(GOLDEN_ARTIFACTS / name), name)
    _report(10, ok, f"bundled suite exits 0 serially and on 2 jobs with the pinned "
                    f"results.json bytes, matching tests/golden/bundled_results.json, "
                    f"and {len(produced)} artifacts matching tests/golden/bundled/")
