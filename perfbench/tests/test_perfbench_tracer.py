"""Tracer arithmetic and installation, on synthetic calls and a synthetic package."""
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, input_digest  # noqa: E402


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; inner holds leaf [5, 6]
    tracer = Tracer(clock=_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = tracer.wrap("chaining.leaf", lambda: None)
    inner = tracer.wrap("covering.inner", lambda call_leaf: leaf() if call_leaf else None)
    outer = tracer.wrap("geometry.outer", lambda: (inner(False), inner(True)))
    outer()

    assert tracer.self_s["geometry.outer"] == 10 - 2 - 4
    assert tracer.self_s["covering.inner"] == 2 + (4 - 1)
    assert tracer.self_s["chaining.leaf"] == 1
    assert tracer.calls == {"geometry.outer": 1, "covering.inner": 2, "chaining.leaf": 1}
    summary = tracer.summary()
    assert summary["geometry.self_s"] == 4
    assert summary["covering.calls"] == 2
    parents = {span[2]: span[1] for span in tracer.spans}
    assert parents["geometry.outer"] == -1
    assert parents["chaining.leaf"] == 2  # the second inner span


def test_errors_are_counted_and_the_stack_unwinds():
    tracer = Tracer(clock=_clock([0, 1, 2, 3]))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("sampling.fail", fail)
    outer = tracer.wrap("harness.outer", lambda: pytest.raises(ValueError, failing))
    outer()
    assert tracer.errors["sampling.fail"] == 1
    assert tracer.errors["harness.outer"] == 0
    assert tracer.summary()["sampling.errors"] == 1
    assert tracer._stack == []


def test_install_wraps_every_namespace_that_binds_a_function(monkeypatch):
    geometry = types.ModuleType("fakepkg.geometry")
    sampling = types.ModuleType("fakepkg.sampling")

    def outline(cloud):
        return len(cloud)

    def _private(x):
        return x

    outline.__module__ = _private.__module__ = "fakepkg.geometry"
    geometry.outline, geometry._private = outline, _private
    sampling.outline = outline  # as bound by ``from .geometry import outline``
    sampling.helper = _private
    for mod in (geometry, sampling):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))

    tracer = Tracer()
    tracer.install(package="fakepkg", layers=("geometry", "sampling"))
    try:
        assert sampling.outline is geometry.outline is not outline
        assert sampling.helper is _private and geometry._private is _private
        sampling.outline([1, 2, 3])
        geometry.outline([1])
    finally:
        tracer.uninstall()
    assert geometry.outline is outline and sampling.outline is outline
    assert tracer.calls == {"geometry.outline": 2}


def test_input_digest_sees_bytes_dtype_and_scalars():
    a = np.arange(6.0).reshape(3, 2)
    assert input_digest([a, 0.5]) == input_digest([a.copy(), 0.5])
    assert input_digest([a, 0.5]) != input_digest([a, 0.25])
    assert input_digest([a]) != input_digest([a.astype(np.float32)])
    assert input_digest([a]) != input_digest([a.reshape(2, 3)])


def test_counts_and_ratios_on_the_real_package():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import hullmetry

    pts = np.random.default_rng(5).standard_normal((30, 3))
    original = hullmetry.quickhull
    tracer = Tracer()
    tracer.install()
    try:
        hullmetry.quickhull(pts)
        hullmetry.geometry.quickhull(pts.copy())  # same bytes: a repeat
        direct = hullmetry.greedy_cover(pts, 0.8)  # packing count is returned to the caller
        hullmetry.entropy_integral(pts, 2.0)  # discards the packing count of its covers
    finally:
        tracer.uninstall()
    assert hullmetry.quickhull is original and hullmetry.sampling.quickhull is original
    summary = tracer.summary()
    assert summary["geometry.quickhull.calls"] == 2
    assert summary["geometry.quickhull.repeat_ratio"] == 0.5
    assert summary["geometry.quickhull.points_in"] == 60
    covers = summary["covering.greedy_cover.calls"]
    assert covers > 1 and summary["covering.packing_number.calls"] == covers
    assert summary["covering.packing_number.unused_ratio"] == (covers - 1) / covers
    assert summary["covering.greedy_cover.distance_evals"] >= 30 * (direct.n_greedy + 1)
    assert summary["chaining.entropy_integral.calls"] == 1
