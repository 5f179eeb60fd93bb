"""Output gate: checks every benchmark output against independent references.

Uses numpy and scipy only, never hullmetry. Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

# sha256 of the bundled suite's results.json at its own master seed
PINNED_DIGESTS = {20240501: "0c79779b1a679cd3f82ca993ec685da10096675739056f122a7063462bd6eb4c"}

REL_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records(text: str) -> dict:
    return {(r["scenario"], r["check"]): r for r in json.loads(text)}


def check_suite(text: str, seed: int, expected: list, reference: str | None = None) -> dict:
    """Problems per (scenario, check) of one results.json.

    ``expected`` lists every (scenario, check) the suite defines. A check
    fails if its record is missing or does not hold, or if it differs from
    the same record in ``reference`` (another run's results.json). Every
    check fails if, at a seed with a pinned digest, the file's digest differs
    from the pin, or if its bytes differ from ``reference`` while no single
    record does.
    """
    records = _records(text)
    ref = _records(reference) if reference is not None else {}
    problems = {}
    for key in expected:
        rec = records.get(key)
        found = []
        if rec is None:
            found.append("missing record")
        elif rec.get("holds") is not True:
            found.append("check does not hold")
        if reference is not None and rec != ref.get(key):
            found.append("differs from the reference run")
        problems[key] = found
    pinned = PINNED_DIGESTS.get(int(seed))
    if pinned is not None and sha256(text.encode()) != pinned:
        for found in problems.values():
            found.append("results.json digest differs")
    elif reference is not None and text != reference and not any(problems.values()):
        for found in problems.values():
            found.append("results.json bytes differ from the reference run")
    return problems


def check_hull(points: np.ndarray, vertices: np.ndarray, volume: float) -> list:
    """Vertex set and volume against scipy's Qhull."""
    ref = ConvexHull(points)
    problems = []
    want = {tuple(p) for p in points[ref.vertices].tolist()}
    got = {tuple(p) for p in np.asarray(vertices).tolist()}
    if got != want or len(vertices) != len(want):
        problems.append(f"vertex set differs: {len(got)} returned, {len(want)} expected")
    if not abs(volume - ref.volume) <= REL_TOL * abs(ref.volume):
        problems.append(f"volume {volume!r} differs from {ref.volume!r}")
    return problems


def check_ball(points: np.ndarray, center: np.ndarray, radius: float) -> list:
    """Every point inside the ball, and the radius within the trivial bounds."""
    dist = np.linalg.norm(points - center, axis=1)
    problems = []
    if not np.all(dist <= radius * (1 + REL_TOL)):
        problems.append(f"{int(np.sum(dist > radius * (1 + REL_TOL)))} points outside the ball")
    upper = float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=1)))
    if not radius <= upper * (1 + REL_TOL):
        problems.append(f"radius {radius!r} exceeds the centroid ball's {upper!r}")
    return problems


def check_cover(points: np.ndarray, centers: np.ndarray, epsilon: float, n_centers: int) -> list:
    """Every point within epsilon of a centre; centres are cloud points, epsilon-separated."""
    problems = []
    if len(centers) != n_centers or n_centers < 1:
        return [f"{len(centers)} centres for a cover of size {n_centers}"]
    dist, _ = cKDTree(centers).query(points)
    if not np.all(dist <= epsilon * (1 + REL_TOL)):
        problems.append(f"{int(np.sum(dist > epsilon * (1 + REL_TOL)))} points not covered")
    if not np.all(cKDTree(points).query(centers)[0] == 0.0):
        problems.append("a centre is not a cloud point")
    if cKDTree(centers).query_pairs(epsilon):
        problems.append("two centres within epsilon of each other")
    return problems


def check_hull_cover_ratio(n_points: int, dim: int, cert) -> list:
    """The certificate holds and its bound is R 3^n N(T) with R = 1 for a cloud."""
    problems = []
    if not cert.holds:
        problems.append("certificate does not hold")
    if not 1 <= cert.n_body <= n_points:
        problems.append(f"body cover size {cert.n_body} out of range")
    bound = 3.0**dim * cert.n_body
    if cert.bound != bound or cert.slack != bound - cert.n_hull:
        problems.append("bound arithmetic differs")
    return problems


def check_entropy(value: float) -> list:
    return [] if math.isfinite(value) and value > 0 else [f"entropy integral {value!r}"]


def check_sup_mc(points: np.ndarray, mean: float, std_error: float) -> list:
    """Finite mean and standard error, below the Gaussian maximal inequality."""
    if not (math.isfinite(mean) and math.isfinite(std_error) and std_error > 0):
        return [f"mean {mean!r} or standard error {std_error!r} not finite and positive"]
    limit = float(np.max(np.linalg.norm(points, axis=1))) * math.sqrt(2 * math.log(len(points)))
    if not mean <= limit + 6 * std_error:
        return [f"mean {mean!r} above the maximal inequality {limit!r}"]
    return []
