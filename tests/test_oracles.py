"""Checks on the oracles themselves: independence from the package, and
agreement of their fast forms with their per-point forms."""
import ast
from pathlib import Path

import numpy as np

import bundled
from oracles import decimate_first_occurrence, polygon_contains

ORACLES = Path(__file__).with_name("oracles.py")
L_VERTS = np.array(bundled.payload("lshape")["vertices"])


def test_oracles_import_no_package_code():
    tree = ast.parse(ORACLES.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    offending = {m for m in imported if m.split(".")[0] in ("hullmetry", "")}
    assert not offending, f"oracles.py imports package code: {sorted(offending)}"


def test_polygon_contains_array_matches_per_point_on_lshape_grid():
    h = 0.05
    centres = np.arange(0.0, 2.0, h) + h / 2
    lattice = np.arange(-2, 19) / 8.0  # exact multiples of 1/8: hits every edge and vertex
    pts = np.array(
        [[x, y] for x in centres for y in centres] + [[x, y] for x in lattice for y in lattice]
    )
    got = polygon_contains(L_VERTS, pts)
    assert got.dtype == bool and got.shape == (len(pts),)
    assert got.tolist() == [polygon_contains(L_VERTS, p) for p in pts]
    for boundary in ([0.0, 0.0], [1.0, 1.0], [1.5, 1.0], [0.0, 1.25], [2.0, 0.5]):
        assert polygon_contains(L_VERTS, np.array([boundary]))[0]
    assert not polygon_contains(L_VERTS, np.array([[1.5, 1.5]]))[0]


def test_decimate_first_occurrence_by_hand():
    # centres 0.375, 0.625, 0.875, 1.125 fall in the 0.5-cells 0, 0, 1, 1
    # counted from lo = 0.375, whose centres are 0.625 and 1.125
    occ = [False, True, True, True, True, False]
    got = decimate_first_occurrence([0.0], 0.25, occ, 0.5)
    assert got.tolist() == [[0.625], [1.125]]
