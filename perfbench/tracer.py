"""Outside-in tracer for hullmetry.

The tracer wraps every public function of the traced layers (the hullmetry
modules named in ``LAYERS``) in every ``hullmetry`` module namespace that
binds it, so calls made through ``from .x import f`` are seen as well as
calls through the defining module. No package file changes.

Spans stay in memory until ``write`` is called. Self time is derived from
the span stack: a span's duration minus the time covered by its direct
child spans. Exact counters are computed from arguments and return values
of a few functions (see ``_COUNTERS``); repeat ratios hash the inputs of a
few others (see ``REPEAT_KEYS``).
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("geometry", "sampling", "minkowski", "covering", "chaining", "profiles", "harness")

# Functions whose input is hashed so that repeated work within a pass shows.
REPEAT_KEYS = ("geometry.quickhull", "sampling.sample_polytope", "chaining.gamma_greedy")

# greedy_cover computes a packing number that these callers never read.
PACKING_DISCARDED_BY = (
    "chaining.entropy_integral",
    "covering.check_hull_cover_ratio",
    "covering.exact_cover_small",
)


def _rows(x) -> int:
    """Number of points in an array or in an object carrying ``points``."""
    pts = getattr(x, "points", x)
    return int(np.shape(pts)[0])


def _count_quickhull(args, result, counts):
    counts["geometry.quickhull.points_in"] += _rows(args["cloud"])
    counts["geometry.quickhull.facets_out"] += int(result.boundary.n_simplices)


def _count_meb(args, result, counts):
    counts["geometry.min_enclosing_ball.points_in"] += _rows(args["cloud"])


def _count_sample_polytope(args, result, counts):
    counts["sampling.sample_polytope.points_out"] += int(len(result[0]))


def _count_membership(args, result, counts):
    n_points = int(np.atleast_2d(args["points"]).shape[0])
    counts["sampling.membership.point_facet_tests"] += n_points * int(
        args["poly"].boundary.n_simplices
    )


def _count_minkowski_sum(args, result, counts):
    if result.grid is not None:
        counts["minkowski.minkowski_sum.grid_cells_out"] += int(result.grid.occ.size)


def _count_greedy_cover(args, result, counts):
    n = _rows(args["cloud"])
    counts["covering.greedy_cover.points_in"] += n
    counts["covering.greedy_cover.centers_out"] += int(result.n_greedy)
    counts["covering.greedy_cover.distance_evals"] += n * (int(result.n_greedy) + 1)


def _count_gamma_greedy(args, result, counts):
    counts["chaining.gamma_greedy.points_in"] += _rows(args["cloud"])


def _count_gaussian_sup_mc(args, result, counts):
    n, d = np.shape(getattr(args["cloud"], "points", args["cloud"]))
    counts["chaining.gaussian_sup_mc.flops"] += 2 * int(args["trials"]) * int(n) * int(d)


_COUNTERS = {
    "geometry.quickhull": _count_quickhull,
    "geometry.min_enclosing_ball": _count_meb,
    "sampling.sample_polytope": _count_sample_polytope,
    "sampling.membership": _count_membership,
    "minkowski.minkowski_sum": _count_minkowski_sum,
    "covering.greedy_cover": _count_greedy_cover,
    "chaining.gamma_greedy": _count_gamma_greedy,
    "chaining.gaussian_sup_mc": _count_gaussian_sup_mc,
}

COUNT_NAMES = (
    "geometry.quickhull.points_in",
    "geometry.quickhull.facets_out",
    "geometry.min_enclosing_ball.points_in",
    "sampling.sample_polytope.points_out",
    "sampling.membership.point_facet_tests",
    "minkowski.minkowski_sum.grid_cells_out",
    "covering.greedy_cover.points_in",
    "covering.greedy_cover.centers_out",
    "covering.greedy_cover.distance_evals",
    "chaining.gamma_greedy.points_in",
    "chaining.gaussian_sup_mc.flops",
)


def input_digest(values) -> str:
    """Digest of array bytes (with dtype and shape) plus scalar arguments."""
    h = hashlib.blake2b(digest_size=16)

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            h.update(type(v).__name__.encode())
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, (list, tuple)):
            h.update(b"(")
            for item in v:
                feed(item)
            h.update(b")")
        elif isinstance(v, dict):
            h.update(b"{")
            for k in sorted(v):
                feed(k)
                feed(v[k])
            h.update(b"}")
        else:
            h.update(repr(v).encode())
        h.update(b";")

    feed(values)
    return h.hexdigest()


class Tracer:
    """Collects spans, per-function self time, counts and repeat ratios."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent_id, key, start, end, self_s, error)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.repeats: Counter = Counter()
        self.packing_discarded = 0
        self._seen: dict[str, set] = {key: set() for key in REPEAT_KEYS}
        self._stack: list[list] = []  # [span_id, key, start, child_s]
        self._installed: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def call(self, key: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named key."""
        hook = _COUNTERS.get(key)
        bound = None
        if hook is not None or key in self._seen:
            sig = inspect.signature(fn)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if key in self._seen:
                digest = input_digest(list(bound.arguments.values()))
                if digest in self._seen[key]:
                    self.repeats[key] += 1
                self._seen[key].add(digest)
        if key == "covering.greedy_cover" and self._stack:
            if self._stack[-1][1] in PACKING_DISCARDED_BY:
                self.packing_discarded += 1
        span_id = len(self.spans)
        parent_id = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [span_id, key, self.clock(), 0.0]
        self._stack.append(frame)
        error = False
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[2]
            own = duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans[span_id] = (span_id, parent_id, key, frame[2], end, own, error)
            self.calls[key] += 1
            self.self_s[key] += own
            if error:
                self.errors[key] += 1
        if hook is not None:
            hook(bound.arguments, result, self.counts)
        return result

    def wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(key, fn, args, kwargs)

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package: str = "hullmetry", layers=LAYERS) -> None:
        """Wrap public layer functions in every loaded module of ``package``."""
        wrappers: dict[int, object] = {}
        layer_modules = {f"{package}.{layer}": layer for layer in layers}
        names = sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
        for mod_name in names:
            module = sys.modules[mod_name]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = layer_modules.get(value.__module__)
                if layer is None or value.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = self.wrap(f"{layer}.{value.__name__}", value)
                    wrappers[id(value)] = wrapper
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer and per-function metrics, exact counts and ratios."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".")[0] == layer]
            out[f"{layer}.self_s"] = float(sum(self.self_s[k] for k in keys))
            out[f"{layer}.calls"] = int(sum(self.calls[k] for k in keys))
            out[f"{layer}.errors"] = int(sum(self.errors[k] for k in keys))
        for key in sorted(self.calls):
            out[f"{key}.self_s"] = float(self.self_s[key])
            out[f"{key}.calls"] = int(self.calls[key])
        for name in COUNT_NAMES:
            out[name] = int(self.counts[name])
        cover_calls = self.calls["covering.greedy_cover"]
        out["covering.packing_number.unused_ratio"] = (
            self.packing_discarded / cover_calls if cover_calls else 0.0
        )
        for key in REPEAT_KEYS:
            calls = self.calls[key]
            out[f"{key}.repeat_ratio"] = self.repeats[key] / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, parent_id, key, start, end, own, error in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "name": key, "start": start,
                         "end": end, "self_s": own, "error": error}
                    )
                    + "\n"
                )
