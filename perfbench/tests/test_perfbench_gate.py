"""The output gate accepts correct outputs and rejects corrupted ones."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import hullmetry  # noqa: E402

RECORDS = [
    {"scenario": "a", "check": "volume_xcheck", "holds": True, "lhs": 1.0, "rhs": 1.0,
     "slack": 0.0, "constants": {}},
    {"scenario": "b", "check": "gamma_hull", "holds": True, "lhs": 2.0, "rhs": 3.0,
     "slack": 1.0, "constants": {"alpha": 2.0}},
]
EXPECTED = [("a", "volume_xcheck"), ("b", "gamma_hull")]


def _text(records):
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def _flipped():
    records = json.loads(_text(RECORDS))
    records[1]["holds"] = False
    return _text(records)


def test_suite_gate_accepts_identical_results(monkeypatch):
    text = _text(RECORDS)
    monkeypatch.setitem(gate.PINNED_DIGESTS, 7, gate.sha256(text.encode()))
    problems = gate.check_suite(text, 7, EXPECTED, reference=text)
    assert problems == {key: [] for key in EXPECTED}


def test_suite_gate_rejects_a_flipped_holds(monkeypatch):
    text = _text(RECORDS)
    monkeypatch.setitem(gate.PINNED_DIGESTS, 7, gate.sha256(text.encode()))
    problems = gate.check_suite(_flipped(), 7, EXPECTED, reference=text)
    assert "check does not hold" in problems[("b", "gamma_hull")]
    assert "differs from the reference run" in problems[("b", "gamma_hull")]
    assert all("results.json digest differs" in p for p in problems.values())
    # without a reference or a pin, the flipped record alone fails
    alone = gate.check_suite(_flipped(), 8, EXPECTED)
    assert alone == {("a", "volume_xcheck"): [], ("b", "gamma_hull"): ["check does not hold"]}


def test_suite_gate_rejects_missing_records_and_reformatted_bytes():
    text = _text(RECORDS)
    problems = gate.check_suite(_text(RECORDS[:1]), 8, EXPECTED, reference=text)
    assert problems[("b", "gamma_hull")][0] == "missing record"
    reformatted = json.dumps(RECORDS)
    problems = gate.check_suite(reformatted, 8, EXPECTED, reference=text)
    assert all(p == ["results.json bytes differ from the reference run"]
               for p in problems.values())


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(3).standard_normal((40, 3))


def test_hull_gate_rejects_a_dropped_vertex(cloud):
    hull = hullmetry.quickhull(cloud)
    volume = hullmetry.volume_det(hull.boundary)
    assert gate.check_hull(cloud, hull.vertices, volume) == []
    assert gate.check_hull(cloud, hull.vertices[1:], volume)
    assert gate.check_hull(cloud, hull.vertices, volume * (1 + 1e-6))


def test_ball_gate_rejects_a_shrunk_ball(cloud):
    ball = hullmetry.min_enclosing_ball(cloud)
    assert gate.check_ball(cloud, ball.center, ball.radius) == []
    assert gate.check_ball(cloud, ball.center, ball.radius * (1 - 1e-6))
    assert gate.check_ball(cloud, ball.center, ball.radius * 10)


def test_cover_gate_rejects_a_dropped_centre(cloud):
    rep = hullmetry.greedy_cover(cloud, 1.0)
    assert gate.check_cover(cloud, rep.centers, 1.0, rep.n_greedy) == []
    assert gate.check_cover(cloud, rep.centers[1:], 1.0, rep.n_greedy - 1)
    assert gate.check_cover(cloud, rep.centers + 1e-3, 1.0, rep.n_greedy)


def test_scalar_gates(cloud):
    cert = hullmetry.check_hull_cover_ratio(hullmetry.PointCloud(cloud), 0.6)
    assert gate.check_hull_cover_ratio(len(cloud), 3, cert) == []
    assert gate.check_entropy(1.5) == [] and gate.check_entropy(0.0) and gate.check_entropy(np.nan)
    est = hullmetry.gaussian_sup_mc(cloud, 2000, 11)
    assert gate.check_sup_mc(cloud, est.mean, est.std_error) == []
    assert gate.check_sup_mc(cloud, np.nan, est.std_error)
    assert gate.check_sup_mc(cloud, 1e6, est.std_error)
