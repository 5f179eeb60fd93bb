"""Workload definitions.

``bundled`` and ``bundled_jobs2`` run the bundled certification suite with
the workload seed as the master seed, serially and on 2 worker processes.
``cloud_ops`` is a stream of single library operations on clouds generated
here with numpy alone; no package code touches them before timing.
"""
from __future__ import annotations

import numpy as np

SUITE = "suites/bundled_suite.json"
DEFAULT_SEED = 20240501  # the bundled suite's own master seed
SHAPE_SEED = 20240501

JOBS = {"bundled": 1, "bundled_jobs2": 2}
WORKLOADS = ("bundled", "bundled_jobs2", "cloud_ops")

# (name, operation, generator, parameters); sized to take about 0.2-4 s each
CLOUD_OPS = (
    ("hull_sphere3", "hull", "sphere", {"n": 500, "d": 3}),
    ("hull_gauss5", "hull", "gauss", {"n": 1000, "d": 5}),
    ("meb_gauss6", "meb", "gauss", {"n": 800, "d": 6}),
    ("cover_ball3", "cover", "ball", {"n": 60_000, "d": 3, "epsilon": 0.2}),
    ("hull_cover_ratio3", "hull_cover_ratio", "gauss", {"n": 300, "d": 3, "epsilon": 0.6}),
    ("entropy3", "entropy", "gauss", {"n": 500, "d": 3, "alpha": 2.0}),
    ("sup_mc8", "sup_mc", "gauss", {"n": 2000, "d": 8, "trials": 50_000}),
)


def _points(kind: str, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    if kind == "gauss":
        return g
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    if kind == "sphere":
        return g
    if kind == "ball":
        return g * rng.random(n)[:, None] ** (1.0 / d)
    raise ValueError(f"unknown generator {kind!r}")


def cloud_inputs(seed: int) -> list[dict]:
    """The cloud_ops inputs for one seed: one dict per operation.

    Each cloud is a fixed shape, drawn once from ``SHAPE_SEED``, put in a
    pose drawn from the workload seed: a random rotation and translation.
    Every coordinate depends on the seed but the work does not; on fresh
    Gaussian draws the cost of ``min_enclosing_ball`` alone varies 15-fold.
    """
    shapes = np.random.SeedSequence(SHAPE_SEED).spawn(len(CLOUD_OPS))
    poses = np.random.SeedSequence(int(seed)).spawn(len(CLOUD_OPS))
    items = []
    for (name, op, kind, params), shape, pose in zip(CLOUD_OPS, shapes, poses):
        d = params["d"]
        pts = _points(kind, np.random.default_rng(shape), params["n"], d)
        rng = np.random.default_rng(pose)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        rotation = q * np.sign(np.diag(r))  # uniformly distributed over O(d)
        item = {"name": name, "op": op, "points": pts @ rotation.T + rng.standard_normal(d)}
        item.update({k: v for k, v in params.items() if k not in ("n", "d")})
        if op == "sup_mc":
            item["mc_seed"] = int(rng.integers(2**31))
        items.append(item)
    return items
