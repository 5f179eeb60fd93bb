"""Scenario-driven certification harness.

Runs every scenario x check of a suite, collects CertificationRecords, and
writes results.json and results.csv plus the files the checks return:
convexify_<id>.csv, cover_<id>.csv and verdict_<id>.json. Every file but
results.csv is byte-deterministic for a fixed suite and master seed;
wall-clock timings go to results.csv only. Each scenario's payload is
loaded once, and its checks share the one T and BodyApprox cached on the
Scenario; the hull ratio R is cached on the Polytope itself.
"""
from __future__ import annotations

import gc
import json
import math
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import INPUT_ERRORS, HullmetryError, ParamOutOfRange
from .geometry import TAU_VOL, load_body, load_cloud, quickhull, volume_det, volume_projected
from .minkowski import BodyApprox, convexification_gap, hull_ratio, reverse_bm_sweep
from .sampling import membership
from .covering import check_hull_cover_ratio, packing_number, volume_cover_bounds
from .chaining import certify_hull_gamma, certify_mm_two_sided, gamma_ratio_report
from .profiles import EntropyProfile, l_existence_report

VALID_CHECKS = {
    "body": {"volume_xcheck", "ratio_poly", "revbm", "convexify", "cover_ratio", "gamma_hull"},
    "cloud": {"convexify", "cover_ratio", "gamma_hull", "mm_two_sided"},
    "profile": {"l_existence"},
}

# the params keys the checks read; any other key is a suite error, so that
# a misspelt one fails the suite instead of leaving a check on its default
PARAM_NAMES = {"alpha", "axis_cells", "c1_cap", "epsilons", "expect_l_exists", "gamma_cells",
               "k_max", "l_hat_cap", "m_values", "s_values", "t_values", "trials"}


def _is_number(v) -> bool:
    """v is a JSON number that a float holds: a float, or an int no larger in
    magnitude than the largest float; never a bool or a string."""
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


PARAM_RULES = {  # rule: (what a value must be, its test)
    "cells": ("a positive integer", lambda v: type(v) is int and v > 0),
    "at_least_2": ("an integer >= 2", lambda v: type(v) is int and v >= 2),
    "positive": ("finite and positive", lambda v: _is_number(v) and math.isfinite(v) and v > 0),
    "list": ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0),
    "numbers": ("a list of numbers", lambda v: all(_is_number(x) for x in v)),
    "counts": ("a list of positive integers", lambda v: all(type(m) is int and m > 0 for m in v)),
}


class SuiteError(HullmetryError):
    """The suite file does not parse or fails validation."""


@dataclass
class CertificationRecord:
    """One scenario x check outcome. holds is slack-driven: holds iff
    slack >= -TAU_VOL, with any discretization tolerance of the check
    already absorbed into slack."""

    scenario: str
    check: str
    lhs: float
    rhs: float
    slack: float
    constants: dict
    runtime_ms: float = 0.0

    @property
    def holds(self) -> bool:
        return bool(self.slack >= -TAU_VOL)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "check": self.check,
            "holds": self.holds,
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "slack": _jsonable(self.slack),
            "constants": {k: _jsonable(v) for k, v in self.constants.items()},
        }


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


@dataclass
class Scenario:
    id: str
    kind: str
    payload: dict
    checks: list
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise SuiteError(f"malformed scenario: {doc!r} is not an object")
        sid = doc.get("id")
        for key, want, name in (("payload", dict, "object"), ("checks", list, "list"),
                                ("params", dict, "object")):
            if key in doc and not isinstance(doc[key], want):
                raise SuiteError(f"scenario {sid}: {key} must be a JSON {name}")
        try:
            scen = Scenario(
                id=str(doc["id"]),
                kind=str(doc["kind"]),
                payload=dict(doc["payload"]),
                checks=list(doc["checks"]),
                params=dict(doc.get("params", {})),
            )
        except KeyError as exc:
            raise SuiteError(f"scenario {sid}: missing key {exc}") from exc
        # the id names the check files and is a results.csv cell
        if not scen.id or any(c in scen.id for c in "/\\\0,\r\n"):
            raise SuiteError(f"scenario id {scen.id!r} is empty or holds a path separator, "
                             f"a NUL, a comma or a line break")
        if scen.kind not in VALID_CHECKS:
            raise SuiteError(f"scenario {scen.id}: unknown kind {scen.kind!r}")
        valid = VALID_CHECKS[scen.kind]
        bad = [c for c in scen.checks if not isinstance(c, str) or c not in valid]
        if bad:
            raise SuiteError(f"scenario {scen.id}: checks {bad} invalid for kind {scen.kind!r}")
        twice = sorted({c for c in scen.checks if scen.checks.count(c) > 1})
        if twice:
            raise SuiteError(f"scenario {scen.id}: checks {twice} named more than once")
        unknown = sorted(set(scen.params) - PARAM_NAMES)
        if unknown:
            raise SuiteError(f"scenario {scen.id}: params {unknown} are read by no check")
        expect = scen.params.get("expect_l_exists")
        if "l_existence" in scen.checks and not isinstance(expect, bool):
            raise SuiteError(f"scenario {scen.id}: l_existence needs a boolean expect_l_exists")
        return scen

    def param(self, key: str, default, *rules: str):
        """params[key], or default when the key is absent. A given value
        that breaks one of the rules, tested in order, raises
        ParamOutOfRange naming the key and the first rule it breaks."""
        if key not in self.params:
            return default
        for rule in rules:
            want, ok = PARAM_RULES[rule]
            if not ok(self.params[key]):
                raise ParamOutOfRange(f"{key} must be {want}, got {self.params[key]!r}")
        return self.params[key]

    # a cached_property caches no exception, so a payload that fails to load
    # fails each check that reads it with the same named error
    @cached_property
    def target(self):
        """The space T: a PointCloud for a cloud scenario, else a Polytope."""
        return load_cloud(self.payload) if self.kind == "cloud" else load_body(self.payload)

    @cached_property
    def approx(self) -> BodyApprox:
        if self.kind == "cloud":
            return BodyApprox.from_points(self.target.points)
        cells = self.param("axis_cells", None, "cells")
        return BodyApprox.from_polytope(self.target, axis_cells=cells)


def derive_seed(master: int, scenario_id: str, check: str) -> int:
    tag = zlib.crc32(f"{scenario_id}:{check}".encode())
    return int(np.random.SeedSequence([int(master), tag]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Checks. Each returns (lhs, rhs, slack, constants, artifacts), the record's
# own fields in order, with artifacts = {filename: text}; run_scenario builds
# the record.
# ---------------------------------------------------------------------------


def _check_volume_xcheck(scen: Scenario, seed: int):
    body = scen.target
    vd = volume_det(body.boundary)
    vp = volume_projected(body.boundary)
    rel = abs(vd - vp) / max(abs(vd), 1e-300)
    return vd, vp, -rel, {"vol_det": vd, "vol_projected": vp, "rel_diff": rel}, {}


def _check_ratio_poly(scen: Scenario, seed: int):
    body = scen.target
    R = body.volume_ratio
    hull = body.hull
    # a fresh hull, not a cached one: rebuilding is what checks idempotence
    rehull = quickhull(hull.vertices)
    idempotent = sorted(map(tuple, hull.vertices.tolist())) == sorted(
        map(tuple, rehull.vertices.tolist())
    )
    contained = bool(np.all(membership(hull, body.vertices)))
    slack = (R - 1.0) if (idempotent and contained) else -1.0
    return R, 1.0, slack, {"R": R, "idempotent": bool(idempotent), "contained": contained}, {}


def _check_revbm(scen: Scenario, seed: int):
    cap = float(scen.param("c1_cap", 10.0, "positive"))
    s_values, t_values = (
        scen.param(key, [1], "list", "numbers") for key in ("s_values", "t_values")
    )
    # each m is used as given, never rounded
    m_values = scen.param("m_values", [1], "list", "counts")
    reports = reverse_bm_sweep(
        scen.approx, scen.approx,
        [float(s) for s in s_values], [float(t) for t in t_values], m_values,
    )
    # the lists are non-empty, so there is a first report; the sweep computes
    # beta once, so every report carries the same pair
    first = reports[0]
    worst = max((r.empirical_C1 for r in reports if not math.isnan(r.empirical_C1)),
                default=-math.inf)
    slack = cap - worst if math.isfinite(worst) else -1.0
    constants = {"empirical_C1": worst, "beta_A": first.beta_A, "beta_B": first.beta_B,
                 "cases": len(reports)}
    return worst, cap, slack, constants, {}


def _check_convexify(scen: Scenario, seed: int):
    approx = scen.approx
    tol = approx.natural_spacing() / 2.0 if approx.kind == "solid" else 1e-9
    k_max = scen.param("k_max", 8, "at_least_2")
    traces = convexification_gap(approx, k_max)
    gaps = [t.hausdorff_to_hull for t in traces]
    margins = [a - b + tol for a, b in zip(gaps, gaps[1:])]
    slack = min(margins + [gaps[0] - gaps[-1] + tol]) if margins else tol
    monotone = all(m >= -TAU_VOL for m in margins)
    constants = {"k_max": k_max, "gap_first": gaps[0], "gap_last": gaps[-1],
                 "monotone": bool(monotone)}
    rows = ["k,vol,gap,bound"]
    rows += [f"{t.k},{t.vol_Ak!r},{t.hausdorff_to_hull!r},{t.bound_value!r}" for t in traces]
    return gaps[-1], gaps[0], slack, constants, {f"convexify_{scen.id}.csv": "\n".join(rows) + "\n"}


def _check_cover_ratio(scen: Scenario, seed: int):
    epsilons = [float(e) for e in scen.param("epsilons", [0.2, 0.4, 0.8], "list", "numbers")]
    worst_slack = math.inf
    worst = None
    rows = ["epsilon,n_greedy,n_packing,vol_lower,vol_upper"]
    for eps in epsilons:
        cert = check_hull_cover_ratio(scen.approx, eps)
        if cert.slack < worst_slack:
            worst_slack = cert.slack
            worst = cert
        # the volume sandwich holds for a convex body only
        bounds = (volume_cover_bounds(scen.target, eps) if scen.approx.kind == "convex"
                  else (None, None))
        cells = [repr(eps), str(cert.n_body), str(packing_number(cert.body_sample, eps))]
        rows.append(",".join(cells + ["" if b is None else repr(b) for b in bounds]))
    constants = {"R": worst.ratio_R, "dim": worst.dim, "epsilon_worst": worst.epsilon,
                 "epsilons": len(epsilons)}
    return float(worst.n_hull), worst.bound, worst.slack, constants, {
        f"cover_{scen.id}.csv": "\n".join(rows) + "\n"}


def _check_gamma_hull(scen: Scenario, seed: int):
    alpha = float(scen.param("alpha", 2.0, "positive"))
    cells = scen.param("gamma_cells", 24, "cells")
    rep_poly = certify_hull_gamma(scen.approx, alpha, axis_cells=cells)
    # R_gen rasterizes at hull_ratio's default axis cells, not the scenario's:
    # moving it to axis_cells changes results.json, so that is its own change
    rep_gen = gamma_ratio_report(rep_poly.gamma_T, rep_poly.gamma_Th, rep_poly.dim, alpha,
                                 hull_ratio(scen.target, "general"))
    constants = {"alpha": alpha, "gamma_T": rep_poly.gamma_T, "gamma_Th": rep_poly.gamma_Th,
                 "R_poly": rep_poly.R, "L_poly": rep_poly.L_bound,
                 "R_gen": rep_gen.R, "L_gen": rep_gen.L_bound}
    rhs = rep_poly.L_bound * rep_poly.gamma_T
    return rep_poly.gamma_Th, rhs, min(rep_poly.slack, rep_gen.slack), constants, {}


def _check_mm_two_sided(scen: Scenario, seed: int):
    cloud = scen.target
    trials = scen.param("trials", 20000, "at_least_2")
    cap = float(scen.param("l_hat_cap", 100.0, "positive"))
    rep = certify_mm_two_sided(cloud, trials, seed)
    if rep.degenerate:
        return 0.0, cap, cap, {"degenerate": True, "trials": trials}, {}
    slack = cap - rep.l_hat if math.isfinite(rep.l_hat) else -1.0
    constants = {"gamma2": rep.gamma2, "esup": rep.esup, "esup_std_error": rep.esup_std_error,
                 "L_hat": rep.l_hat, "trials": trials, "size": len(cloud.points)}
    return rep.l_hat, cap, slack, constants, {}


def _check_l_existence(scen: Scenario, seed: int):
    doc = {"delta": 1.0, "C": 1.0, **scen.payload}
    chi, psi, delta, C = (_number(key, doc[key]) for key in ("chi", "psi", "delta", "C"))
    profile = EntropyProfile(chi, psi)
    rep = l_existence_report(profile, delta, C)
    expect = scen.params["expect_l_exists"]
    verdict = rep.verdict
    constants = {"chi": profile.chi, "psi": profile.psi, "delta": delta,
                 "L_exists": rep.L_exists, "value": verdict.value,
                 "singularity": verdict.singularity, "ratio_kind": rep.ratio.kind}
    verdict_doc = {
        "profile": {"chi": profile.chi, "psi": profile.psi, "form": profile.form},
        "hull_profile": {"chi": rep.hull.chi, "psi": rep.hull.psi, "form": rep.hull.form},
        "ratio": {"kind": rep.ratio.kind, "constant_label": rep.ratio.constant_label,
                  "constant": rep.ratio.constant},
        "converges": verdict.converges,
        "value": verdict.value,
        "reason": verdict.reason,
        "quadrature_trace": verdict.quadrature_trace,
    }
    text = json.dumps(verdict_doc, indent=2, sort_keys=True) + "\n"
    lhs, rhs = (1.0 if rep.L_exists else 0.0), (1.0 if expect else 0.0)
    slack = 0.0 if expect == rep.L_exists else -1.0
    return lhs, rhs, slack, constants, {f"verdict_{scen.id}.json": text}


def _number(key: str, value) -> float:
    """value as a float; one that is not a JSON number raises ParamOutOfRange naming key."""
    if not _is_number(value):
        raise ParamOutOfRange(f"{key} must be a number, got {value!r}")
    return float(value)


CHECK_RUNNERS = {
    "volume_xcheck": _check_volume_xcheck,
    "ratio_poly": _check_ratio_poly,
    "revbm": _check_revbm,
    "convexify": _check_convexify,
    "cover_ratio": _check_cover_ratio,
    "gamma_hull": _check_gamma_hull,
    "mm_two_sided": _check_mm_two_sided,
    "l_existence": _check_l_existence,
}


def run_scenario(doc: dict, master_seed: int):
    """All checks of one scenario; returns (records, artifacts).

    A check that raises on its input (a degenerate body, a non-finite or
    null coordinate or parameter, a payload without a key the check reads) gives
    a failed record whose ``error`` constant names the exception; the
    remaining checks still run. This is the one place that builds a record.
    """
    scen = Scenario.from_dict(doc)
    records = []
    artifacts: dict[str, str] = {}
    for check in scen.checks:
        seed = derive_seed(master_seed, scen.id, check)
        t0 = time.perf_counter()
        try:
            lhs, rhs, slack, constants, files = CHECK_RUNNERS[check](scen, seed)
        except INPUT_ERRORS as exc:
            lhs, rhs, slack, files = math.nan, math.nan, -1.0, {}
            constants = {"error": f"{type(exc).__name__}: {exc}"}
        runtime_ms = (time.perf_counter() - t0) * 1000.0
        records.append(CertificationRecord(scen.id, check, lhs, rhs, slack, constants, runtime_ms))
        artifacts.update(files)
    return records, artifacts


def load_suite(suite_file) -> dict:
    try:
        doc = json.loads(Path(suite_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SuiteError(f"cannot parse suite file: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise SuiteError("suite file is not an object with a 'scenarios' list")
    _check_seed(doc.get("seed", 0))
    ids = [Scenario.from_dict(s).id for s in doc["scenarios"]]
    if len(ids) != len(set(ids)):
        raise SuiteError("scenario ids must be unique within a suite")
    return doc


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SuiteError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def run_suite(suite_file, out_dir, seed: int | None = None, jobs: int = 1) -> int:
    """Execute a suite and write reports; exit status 0 iff every check holds.

    The pool has at most one worker per scenario: the fork start method
    starts every worker at once. The objects alive before the scenarios run
    are frozen out of the garbage collector's scans until they end, so no
    collection walks them and no forked worker copies their pages to do so.
    """
    if jobs < 1:
        raise ParamOutOfRange(f"jobs must be >= 1, got {jobs!r}")
    suite = load_suite(suite_file)
    master = _check_seed(seed if seed is not None else suite.get("seed", 0))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    docs = suite["scenarios"]
    all_records: list[CertificationRecord] = []
    artifacts: dict[str, str] = {}
    workers = min(jobs, len(docs))
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            outcomes = (pool.map if pool else map)(run_scenario, docs, repeat(master))
            for records, files in outcomes:
                all_records.extend(records)
                artifacts.update(files)
    finally:
        gc.unfreeze()

    all_records.sort(key=lambda r: (r.scenario, r.check))

    results = [r.to_json_dict() for r in all_records]
    (out / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    csv_lines = ["scenario,check,holds,lhs,rhs,slack,runtime_ms"]
    for r in all_records:
        csv_lines.append(
            f"{r.scenario},{r.check},{int(r.holds)},{r.lhs!r},{r.rhs!r},{r.slack!r},"
            f"{r.runtime_ms:.3f}"
        )
    (out / "results.csv").write_text("\n".join(csv_lines) + "\n")

    for name in sorted(artifacts):
        (out / name).write_text(artifacts[name])

    return 0 if all(r.holds for r in all_records) else 1
