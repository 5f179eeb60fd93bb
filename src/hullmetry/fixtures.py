"""Bundled fixture library: every certification in the default suite runs from these.

Bodies are vertex+facet JSON payloads, clouds are point lists, profiles are
(chi, psi, delta) triples. All constructors are pure so the bundled suite is
byte-reproducible.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def unit_square() -> dict:
    return {
        "dim": 2,
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        "facets": [[0, 1], [1, 2], [2, 3], [3, 0]],
    }


def unit_cube() -> dict:
    verts = [[float(x), float(y), float(z)] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    facets = [
        [0, 1, 3, 2],
        [4, 6, 7, 5],
        [0, 4, 5, 1],
        [2, 3, 7, 6],
        [0, 2, 6, 4],
        [1, 5, 7, 3],
    ]
    return {"dim": 3, "vertices": verts, "facets": facets}


def simplex3() -> dict:
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    facets = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    return {"dim": 3, "vertices": verts, "facets": facets}


def lshape() -> dict:
    verts = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
    facets = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]
    return {"dim": 2, "vertices": verts, "facets": facets}


def star2d(points: int = 5, outer: float = 1.0, inner: float = 0.4) -> dict:
    verts = []
    for k in range(2 * points):
        r = outer if k % 2 == 0 else inner
        ang = math.pi * k / points
        verts.append([r * math.cos(ang), r * math.sin(ang)])
    facets = [[i, (i + 1) % (2 * points)] for i in range(2 * points)]
    return {"dim": 2, "vertices": verts, "facets": facets}


def two_point_cloud() -> dict:
    return {"dim": 2, "points": [[0.0, 0.0], [1.0, 0.0]]}


def pm_e1_cloud() -> dict:
    return {"dim": 2, "points": [[1.0, 0.0], [-1.0, 0.0]]}


def basis_cloud(n: int) -> dict:
    return {"dim": n, "points": np.eye(n).tolist()}


def two_cluster_cloud() -> dict:
    rng = np.random.default_rng(0xC1)
    a = rng.uniform(-0.05, 0.05, (4, 2))
    b = np.array([10.0, 0.0]) + rng.uniform(-0.05, 0.05, (4, 2))
    return {"dim": 2, "points": np.vstack([a, b]).round(6).tolist()}


def profile_case(case: int) -> dict:
    chi, psi = {1: (3.0, 1.0), 2: (2.0, -1.0), 3: (2.0, -3.0)}[case]
    return {"chi": chi, "psi": psi, "delta": 1.0, "C": 1.0}


def bundled_suite() -> dict:
    """The default scenario suite covering every certified lemma and theorem."""
    body_common = {
        "alpha": 2.0,
        "s_values": [0.5, 1.0, 2.0],
        "t_values": [0.5, 1.0, 2.0],
        "m_values": [1, 2],
        "c1_cap": 10.0,
        "epsilons": [0.2, 0.4, 0.8],
        "k_max": 8,
        "axis_cells": 120,
        "trials": 20000,
        "l_hat_cap": 100.0,
    }

    def scen(sid, kind, payload, checks, **overrides):
        params = dict(body_common)
        params.update(overrides)
        return {"id": sid, "kind": kind, "payload": payload, "checks": checks, "params": params}

    scenarios = [
        scen("unit_square", "body", unit_square(),
             ["volume_xcheck", "ratio_poly", "revbm", "cover_ratio", "gamma_hull"]),
        scen("unit_cube", "body", unit_cube(),
             ["volume_xcheck", "ratio_poly", "revbm", "gamma_hull"], gamma_cells=8),
        scen("simplex3", "body", simplex3(),
             ["volume_xcheck", "ratio_poly"]),
        scen("lshape", "body", lshape(),
             ["volume_xcheck", "ratio_poly", "revbm", "convexify", "cover_ratio", "gamma_hull"]),
        scen("star2d", "body", star2d(),
             ["volume_xcheck", "ratio_poly", "convexify"], k_max=6),
        scen("twopoint", "cloud", two_point_cloud(),
             ["convexify", "cover_ratio", "gamma_hull", "mm_two_sided"]),
        scen("pm_e1", "cloud", pm_e1_cloud(), ["gamma_hull", "mm_two_sided"]),
        scen("two_cluster", "cloud", two_cluster_cloud(),
             ["cover_ratio", "mm_two_sided"], epsilons=[0.8]),
        scen("basis_2", "cloud", basis_cloud(2), ["gamma_hull", "mm_two_sided"]),
        scen("basis_4", "cloud", basis_cloud(4), ["gamma_hull", "mm_two_sided"]),
        scen("basis_8", "cloud", basis_cloud(8), ["gamma_hull", "mm_two_sided"]),
        scen("basis_16", "cloud", basis_cloud(16), ["gamma_hull", "mm_two_sided"]),
        scen("profile_case1", "profile", profile_case(1), ["l_existence"], expect_l_exists=True),
        scen("profile_case2", "profile", profile_case(2), ["l_existence"], expect_l_exists=True),
        scen("profile_case3", "profile", profile_case(3), ["l_existence"], expect_l_exists=False),
    ]
    return {"suite": "hullmetry-bundled-v1", "seed": 20240501, "scenarios": scenarios}


def write_bundled_suite(path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(bundled_suite(), indent=2, sort_keys=True) + "\n")
    return path
