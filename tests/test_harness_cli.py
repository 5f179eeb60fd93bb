import gc
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hullmetry import chaining, covering, geometry, harness, minkowski, sampling
from hullmetry.cli import main
from hullmetry.harness import (
    Scenario,
    SuiteError,
    derive_seed,
    load_suite,
    run_scenario,
    run_suite,
)

import bundled


def small_suite():
    return {
        "suite": "mini",
        "seed": 7,
        "scenarios": [
            {
                "id": "sq",
                "kind": "body",
                "payload": bundled.payload("unit_square"),
                "checks": ["volume_xcheck", "ratio_poly"],
                "params": {},
            },
            {
                "id": "p3",
                "kind": "profile",
                "payload": bundled.payload("profile_case3"),
                "checks": ["l_existence"],
                "params": {"expect_l_exists": False},
            },
        ],
    }


# ---------------------------------------------------------------------------
# scenario and suite validation
# ---------------------------------------------------------------------------


def test_scenario_rejects_unknown_kind():
    with pytest.raises(SuiteError):
        Scenario.from_dict({"id": "x", "kind": "wat", "payload": {}, "checks": []})


def test_scenario_rejects_check_for_wrong_kind():
    with pytest.raises(SuiteError):
        Scenario.from_dict(
            {"id": "x", "kind": "profile", "payload": {}, "checks": ["volume_xcheck"]}
        )


def test_suite_duplicate_ids_rejected(tmp_path):
    doc = small_suite()
    doc["scenarios"].append(dict(doc["scenarios"][0]))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SuiteError):
        load_suite(path)


def test_suite_rejects_a_check_named_twice(tmp_path):
    # run twice, the check would write two identical records
    doc = small_suite()
    doc["scenarios"][0]["checks"] = ["volume_xcheck", "ratio_poly", "volume_xcheck"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SuiteError, match=r"scenario sq: checks \['volume_xcheck'\] named more"):
        load_suite(path)


@pytest.mark.parametrize("sid", ["", "a/b", "a\\b", "a\0b", "a,b", "a\nb", "a\rb"])
def test_suite_refuses_an_id_that_cannot_name_a_file_or_a_csv_cell(tmp_path, sid):
    # the id names the file convexify_<id>.csv and is a cell of results.csv
    doc = small_suite()
    doc["scenarios"][0].update(id=sid, checks=["volume_xcheck", "convexify"])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with pytest.raises(SuiteError, match=re.escape(f"scenario id {sid!r}")):
        run_suite(path, out)
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_suite_parse_error(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json")
    with pytest.raises(SuiteError):
        load_suite(path)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "scen", "check")
    assert a == derive_seed(1, "scen", "check")
    assert a != derive_seed(2, "scen", "check")
    assert a != derive_seed(1, "scen", "other")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_run_scenario_produces_records():
    records, artifacts = run_scenario(small_suite()["scenarios"][0], 7)
    assert [r.check for r in records] == ["volume_xcheck", "ratio_poly"]
    assert all(r.holds for r in records)
    assert all(r.runtime_ms >= 0 for r in records)


def test_run_suite_writes_reports(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(small_suite()))
    out = tmp_path / "out"
    status = run_suite(suite_path, out, seed=7)
    assert status == 0
    results = json.loads((out / "results.json").read_text())
    assert len(results) == 3
    assert all("runtime_ms" not in r for r in results)
    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "scenario,check,holds,lhs,rhs,slack,runtime_ms"
    assert len(csv_lines) == 4
    assert (out / "verdict_p3.json").exists()


def test_run_suite_exit_one_on_failed_certification(tmp_path):
    doc = small_suite()
    doc["scenarios"][1]["params"]["expect_l_exists"] = True  # case 3 diverges
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(doc))
    status = run_suite(suite_path, tmp_path / "out", seed=7)
    assert status == 1


def test_records_sorted_and_deterministic(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(small_suite()))
    run_suite(suite_path, tmp_path / "a", seed=3)
    run_suite(suite_path, tmp_path / "b", seed=3)
    a = (tmp_path / "a" / "results.json").read_bytes()
    b = (tmp_path / "b" / "results.json").read_bytes()
    assert a == b
    recs = json.loads(a)
    keys = [(r["scenario"], r["check"]) for r in recs]
    assert keys == sorted(keys)


def test_run_suite_parallel_matches_serial(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(small_suite()))
    run_suite(suite_path, tmp_path / "ser", seed=5, jobs=1)
    run_suite(suite_path, tmp_path / "par", seed=5, jobs=2)
    assert (tmp_path / "ser" / "results.json").read_bytes() == (
        tmp_path / "par" / "results.json"
    ).read_bytes()


_run_scenario = harness.run_scenario


def _run_scenario_noting_the_freeze(doc, master):
    """run_scenario, plus a file with the freeze count the scenario ran under."""
    records, files = _run_scenario(doc, master)
    return records, {**files, f"freeze_{doc['id']}.txt": str(gc.get_freeze_count())}


@pytest.mark.parametrize("jobs", [1, 2])
def test_scenarios_run_on_a_frozen_heap(tmp_path, monkeypatch, jobs):
    # forked workers inherit the freeze; the caller's heap is unfrozen after
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(small_suite()))
    monkeypatch.setattr(harness, "run_scenario", _run_scenario_noting_the_freeze)
    run_suite(suite_path, tmp_path / "out", seed=5, jobs=jobs)
    counts = [int((tmp_path / "out" / f"freeze_{sid}.txt").read_text()) for sid in ("sq", "p3")]
    assert min(counts) > 0
    assert gc.get_freeze_count() == 0


def test_l_existence_needs_an_expectation(tmp_path):
    doc = small_suite()
    del doc["scenarios"][1]["params"]["expect_l_exists"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SuiteError, match="p3"):
        load_suite(path)


def test_a_params_key_no_check_reads_is_a_suite_error(tmp_path):
    # "epsilon" misspells "epsilons": the check would run on its default epsilons
    doc = small_suite()
    doc["scenarios"][0].update(checks=["cover_ratio"], params={"epsilon": [5.0]})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SuiteError, match=r"scenario sq: params \['epsilon'\] are read by no check"):
        load_suite(path)


def test_failing_checks_give_failed_records(tmp_path):
    profile, square = bundled.payload("profile_case1"), bundled.payload("unit_square")
    nan_profile = dict(profile, chi=float("nan"))
    collinear = {"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                 "facets": [[0, 1], [1, 2], [2, 0]]}
    nan_vertex = dict(square, vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, float("nan")], [0.0, 1.0]])
    no_psi = {k: v for k, v in profile.items() if k != "psi"}
    no_vertices = {k: v for k, v in square.items() if k != "vertices"}
    flat_in_3d = {"dim": 3, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
    bad_params = {  # id: (check, params), each on the unit square or the two-point cloud
        "no_epsilons": ("cover_ratio", {"epsilons": []}),
        "inf_c1_cap": ("revbm", {"c1_cap": float("inf")}),
        "inf_l_hat_cap": ("mm_two_sided", {"l_hat_cap": float("inf")}),
        "negative_gamma_cells": ("gamma_hull", {"gamma_cells": -3}),
        "zero_axis_cells": ("convexify", {"axis_cells": 0}),
        "k_max_one": ("convexify", {"k_max": 1}),
        "no_s_values": ("revbm", {"s_values": []}),
        "no_t_values": ("revbm", {"t_values": []}),
        "no_m_values": ("revbm", {"m_values": []}),
        "fractional_m": ("revbm", {"m_values": [1, 1.5]}),
        "nan_alpha": ("gamma_hull", {"alpha": float("nan")}),
        "one_trial": ("mm_two_sided", {"trials": 1}),
        "tiny_alpha": ("gamma_hull", {"alpha": 0.001}),
    }
    doc = {"suite": "broken", "seed": 3, "scenarios": [
        {"id": "chi_nan", "kind": "profile", "payload": nan_profile,
         "checks": ["l_existence"], "params": {"expect_l_exists": True}},
        {"id": "collinear", "kind": "body", "payload": collinear,
         "checks": ["ratio_poly", "gamma_hull"]},
        {"id": "nan_vertex", "kind": "body", "payload": nan_vertex,
         "checks": ["volume_xcheck"]},
        {"id": "no_psi", "kind": "profile", "payload": no_psi,
         "checks": ["l_existence"], "params": {"expect_l_exists": True}},
        {"id": "no_vertices", "kind": "body", "payload": no_vertices,
         "checks": ["volume_xcheck"]},
        {"id": "flat_points", "kind": "cloud", "payload": {"dim": 2, "points": [1.0, 2.0]},
         "checks": ["gamma_hull"]},
        {"id": "no_points", "kind": "cloud", "payload": {"dim": 2, "points": []},
         "checks": ["mm_two_sided"]},
        {"id": "null_dim", "kind": "body", "payload": dict(square, dim=None),
         "checks": ["volume_xcheck"]},
        {"id": "null_chi", "kind": "profile", "payload": dict(profile, chi=None),
         "checks": ["l_existence"], "params": {"expect_l_exists": True}},
        {"id": "flat_in_3d", "kind": "body", "payload": flat_in_3d,
         "checks": ["volume_xcheck"]},
        small_suite()["scenarios"][0],
        # the gammas need only the level-1 weight 2^1000, but L overflows;
        # mm_two_sided still gives its record
        {"id": "tiny_alpha_cloud", "kind": "cloud", "payload": bundled.payload("pm_e1"),
         "checks": ["gamma_hull", "mm_two_sided"], "params": {"alpha": 0.001}},
    ] + [
        {"id": sid, "kind": "cloud" if check == "mm_two_sided" else "body",
         "payload": bundled.payload("twopoint" if check == "mm_two_sided" else "unit_square"),
         "checks": [check], "params": params}
        for sid, (check, params) in bad_params.items()
    ]}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(doc))
    outs = {}
    for tag, jobs in (("ser", "1"), ("par", "2")):
        out = tmp_path / tag
        assert main(["run", str(suite_path), "--out", str(out), "--jobs", jobs]) == 1
        outs[tag] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "results.csv"}
    assert outs["ser"] == outs["par"]

    records = {(r["scenario"], r["check"]): r
               for r in json.loads(outs["ser"]["results.json"])}
    errors = {key: r["constants"].get("error") for key, r in records.items() if not r["holds"]}
    assert errors == {
        ("chi_nan", "l_existence"):
            "ParamOutOfRange: profile exponents chi and psi must be finite",
        ("collinear", "gamma_hull"): "DegenerateInput: boundary encloses no volume",
        ("collinear", "ratio_poly"): "DegenerateInput: boundary encloses no volume",
        ("nan_vertex", "volume_xcheck"): "ValueError: point coordinates must be finite",
        ("no_psi", "l_existence"): "KeyError: 'psi'",
        ("no_vertices", "volume_xcheck"): "KeyError: 'vertices'",
        ("flat_points", "gamma_hull"): "ValueError: expected a 2-d array of point coordinates",
        ("no_points", "mm_two_sided"): "ValueError: expected a 2-d array of point coordinates",
        ("null_dim", "volume_xcheck"): "ValueError: dim must be an integer, got None",
        ("null_chi", "l_existence"): "ParamOutOfRange: chi must be a number, got None",
        ("flat_in_3d", "volume_xcheck"):
            "ValueError: declared dim disagrees with point coordinates",
        ("no_epsilons", "cover_ratio"):
            "ParamOutOfRange: epsilons must be a non-empty list, got []",
        ("inf_c1_cap", "revbm"): "ParamOutOfRange: c1_cap must be finite and positive, got inf",
        ("inf_l_hat_cap", "mm_two_sided"):
            "ParamOutOfRange: l_hat_cap must be finite and positive, got inf",
        ("negative_gamma_cells", "gamma_hull"):
            "ParamOutOfRange: gamma_cells must be a positive integer, got -3",
        ("zero_axis_cells", "convexify"):
            "ParamOutOfRange: axis_cells must be a positive integer, got 0",
        ("k_max_one", "convexify"): "ParamOutOfRange: k_max must be an integer >= 2, got 1",
        ("no_s_values", "revbm"): "ParamOutOfRange: s_values must be a non-empty list, got []",
        ("no_t_values", "revbm"): "ParamOutOfRange: t_values must be a non-empty list, got []",
        ("no_m_values", "revbm"): "ParamOutOfRange: m_values must be a non-empty list, got []",
        ("fractional_m", "revbm"):
            "ParamOutOfRange: m_values must be a list of positive integers, got [1, 1.5]",
        ("nan_alpha", "gamma_hull"): "ParamOutOfRange: alpha must be finite and positive, got nan",
        ("one_trial", "mm_two_sided"): "ParamOutOfRange: trials must be an integer >= 2, got 1",
        # the weight of level 2, and L = (log(9)/log(2) + 1)^(1/alpha)
        ("tiny_alpha", "gamma_hull"): "ParamOutOfRange: 2^2000.0 overflows at alpha=0.001",
        ("tiny_alpha_cloud", "gamma_hull"):
            "ParamOutOfRange: 4.169925001442312^1000.0 overflows at alpha=0.001",
    }
    assert records[("sq", "volume_xcheck")]["holds"] and records[("sq", "ratio_poly")]["holds"]
    assert records[("tiny_alpha_cloud", "mm_two_sided")]["holds"]
    csv_lines = (tmp_path / "ser" / "results.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + len(records)


def _lshape_with_string_facets():
    payload = bundled.payload("lshape")
    return dict(payload, facets=[[str(i) for i in facet] for facet in payload["facets"]])


NOT_NUMBERS = {  # id: (kind, check, payload, params, the error the record names)
    "alpha_true": ("body", "gamma_hull", bundled.payload("unit_square"), {"alpha": True},
                   "ParamOutOfRange: alpha must be finite and positive, got True"),
    # an int past the largest float, which float() cannot convert
    "alpha_past_float": ("body", "gamma_hull", bundled.payload("unit_square"), {"alpha": 10**400},
                         f"ParamOutOfRange: alpha must be finite and positive, got {10**400}"),
    "c1_cap_string": ("body", "revbm", bundled.payload("unit_square"), {"c1_cap": "10"},
                      "ParamOutOfRange: c1_cap must be finite and positive, got '10'"),
    "l_hat_cap_true": ("cloud", "mm_two_sided", bundled.payload("twopoint"), {"l_hat_cap": True},
                       "ParamOutOfRange: l_hat_cap must be finite and positive, got True"),
    "s_values": ("body", "revbm", bundled.payload("unit_square"), {"s_values": [True, "2"]},
                 "ParamOutOfRange: s_values must be a list of numbers, got [True, '2']"),
    "t_values": ("body", "revbm", bundled.payload("unit_square"), {"t_values": [1, False]},
                 "ParamOutOfRange: t_values must be a list of numbers, got [1, False]"),
    "epsilons": ("body", "cover_ratio", bundled.payload("unit_square"), {"epsilons": [0.5, "1"]},
                 "ParamOutOfRange: epsilons must be a list of numbers, got [0.5, '1']"),
    "cloud_bools": ("cloud", "cover_ratio", {"dim": 2, "points": [[False, False], [True, "0"]]},
                    {}, "ValueError: point coordinates must be numbers"),
    # numpy reads these as the floats [[1.0, 0.5], [0.0, 1.0]]
    "cloud_bool_beside_floats": ("cloud", "cover_ratio",
                                 {"dim": 2, "points": [[True, 0.5], [0.0, 1.0]]}, {},
                                 "ValueError: point coordinates must be numbers"),
    "chi_string": ("profile", "l_existence", {"chi": "3", "psi": 0.0, "delta": True},
                   {"expect_l_exists": True}, "ParamOutOfRange: chi must be a number, got '3'"),
    "psi_past_float": ("profile", "l_existence", {"chi": 3.0, "psi": -10**400},
                       {"expect_l_exists": True},
                       f"ParamOutOfRange: psi must be a number, got {-10**400}"),
    "delta_true": ("profile", "l_existence", {"chi": 3.0, "psi": 0.0, "delta": True},
                   {"expect_l_exists": True}, "ParamOutOfRange: delta must be a number, got True"),
    "C_string": ("profile", "l_existence", {"chi": 3.0, "psi": 0.0, "C": "1"},
                 {"expect_l_exists": True}, "ParamOutOfRange: C must be a number, got '1'"),
    "dim_string": ("body", "volume_xcheck", dict(bundled.payload("unit_square"), dim="2"), {},
                   "ValueError: dim must be an integer, got '2'"),
    "dim_true": ("cloud", "cover_ratio", {"dim": True, "points": [[0.0], [1.0]]}, {},
                 "ValueError: dim must be an integer, got True"),
    "facets_strings": ("body", "ratio_poly", _lshape_with_string_facets(), {},
                       "ValueError: facet indices must be integers, got '0'"),
}


@pytest.mark.parametrize("sid", sorted(NOT_NUMBERS))
def test_a_boolean_or_a_string_where_a_number_belongs_is_a_named_failure(sid):
    kind, check, payload, params, error = NOT_NUMBERS[sid]
    doc = {"id": sid, "kind": kind, "payload": payload, "checks": [check], "params": params}
    (record,), files = run_scenario(doc, 1)
    assert (record.holds, record.constants.get("error"), files) == (False, error, {})


@pytest.mark.parametrize("key, value", [("s_values", math.nan), ("t_values", math.inf)])
def test_a_revbm_scale_that_is_not_finite_is_named(key, value):
    # JSON NaN and Infinity are floats, so they pass the suite's numbers rule
    doc = {"id": "scale", "kind": "body", "payload": bundled.payload("unit_square"),
           "checks": ["revbm"], "params": {key: [value]}}
    (record,), files = run_scenario(doc, 1)
    assert not record.holds and files == {}
    assert record.constants["error"] == (
        f"ParamOutOfRange: {key[0]} must be positive and finite, got {value!r}")


def test_a_body_that_rasterizes_to_an_empty_grid_is_named():
    # at side 1e9 no cell centre of the L-shape's default grid tests as a member
    payload = bundled.payload("lshape")
    payload["vertices"] = (np.array(payload["vertices"]) * 1e9).tolist()
    doc = {"id": "lshape_1e9", "kind": "body", "payload": payload,
           "checks": ["revbm", "convexify", "gamma_hull"]}
    records, _ = run_scenario(doc, 1)
    for record in records:
        assert not record.holds
        assert record.constants["error"].startswith(
            "DegenerateInput: the solid body rasterizes to an empty grid at spacing "), record.check


def test_bad_profile_inputs_give_failed_records():
    # 1e999 parses to inf; a verdict that L does not exist would hold here
    cases = {"inf_delta": ("delta", "1e999"), "nan_delta": ("delta", "NaN"),
             "negative_C": ("C", "-1")}
    for sid, (key, text) in cases.items():
        payload = json.loads(json.dumps(bundled.payload("profile_case3")).replace(
            f'"{key}": 1.0', f'"{key}": {text}'))
        doc = {"id": sid, "kind": "profile", "payload": payload, "checks": ["l_existence"],
               "params": {"expect_l_exists": False}}
        (record,), files = run_scenario(doc, 1)
        assert not record.holds and files == {}
        assert record.constants["error"].startswith(
            f"ParamOutOfRange: {key} must be positive and finite, got ")


@pytest.mark.parametrize("delta, expect", [
    (math.nextafter(math.exp(-1.0), 1.0), True),
    (math.nextafter(math.exp(-1.0), 0.0), False),
])
def test_l_existence_record_one_float_from_the_singular_point_does_not_hold(delta, expect):
    # the integral of the chi = 2, psi = -3 ratio bound diverges exactly when
    # 1/e lies in (0, delta]: L does not exist one float above, and does below
    doc = {"id": "near_e_inv", "kind": "profile",
           "payload": {"chi": 2.0, "psi": -3.0, "delta": delta}, "checks": ["l_existence"],
           "params": {"expect_l_exists": expect}}
    (record,), _ = run_scenario(doc, 1)
    assert "error" not in record.constants
    assert record.constants["L_exists"] is not expect
    assert not record.holds


def test_revbm_past_the_sample_cap_is_a_named_record():
    # lshape is not convex, so the sweep rasterizes it: 100000 cells a side
    # make a grid of 1e10 cells, which asked for 74.5 GiB and raised MemoryError
    doc = {"id": "fine_lshape", "kind": "body", "payload": bundled.payload("lshape"),
           "checks": ["revbm"], "params": {"axis_cells": 100000}}
    (record,), _ = run_scenario(doc, 1)
    assert not record.holds
    assert record.constants == {
        "error": "DegenerateInput: sample cap exceeded; coarsen the resolution"}


def test_cover_ratio_past_the_boundary_lattice_cap_is_a_named_record():
    # the hull of the corners of a 1000 x 1 x 1 box sampled at eps / 4 asked
    # for 8 010 003 lattice points on each long boundary triangle, and ran
    # out of memory; the interior grid alone is 64 000 cells
    corners = [[1000.0 * a, float(b), float(c)] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    doc = {"id": "long_box", "kind": "cloud", "payload": {"dim": 3, "points": corners},
           "checks": ["cover_ratio"], "params": {"epsilons": [1.0]}}
    tracemalloc.start()
    try:
        (record,), _ = run_scenario(doc, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert not record.holds
    assert record.constants == {
        "error": "DegenerateInput: sample cap exceeded; coarsen the resolution"}


def _scaled_unit_cube(factor: float) -> dict:
    payload = bundled.payload("unit_cube")
    return dict(payload, vertices=[[factor * x for x in v] for v in payload["vertices"]])


def test_powers_that_overflow_are_named_failed_records():
    # each ended the run with a bare OverflowError from a float power: the
    # cube's volume tolerance scale^3, and the 3^700 of the cover bound and of L
    cube = dict(bundled.scenario("unit_cube"), payload=_scaled_unit_cube(1e110))
    wide = {"id": "wide", "kind": "cloud", "checks": ["cover_ratio", "gamma_hull"],
            "payload": {"dim": 700, "points": [[0.0] * 700, [1.0] * 700]}}
    with np.errstate(over="ignore"):
        records = run_scenario(cube, 1)[0] + run_scenario(wide, 1)[0]
    assert not any(r.holds for r in records)
    tolerance = "1.7320508075688775e+110^3 overflows at the boundary's volume tolerance"
    assert {(r.scenario, r.check): r.constants["error"] for r in records} == {
        **{("unit_cube", check): f"ParamOutOfRange: {tolerance}" for check in cube["checks"]},
        ("wide", "cover_ratio"): "ParamOutOfRange: 3.0^700 overflows at the cover bound R 3^n",
        ("wide", "gamma_hull"): "ParamOutOfRange: 3.0^700 overflows at the constant L at n=700",
    }


def test_gamma_hull_of_a_cloud_in_r5_is_a_too_large_record(count_calls):
    # sample_hull ignores the spacing above affine rank 3: 100 vertices and
    # their midpoints make 5051 points at every spacing, over the greedy cap,
    # so the first build is the last
    pts = np.random.default_rng(0).standard_normal((100, 5))
    calls = count_calls(sampling, "sample_hull", limit=64)
    doc = {"id": "gauss_r5", "kind": "cloud", "payload": {"dim": 5, "points": pts.tolist()},
           "checks": ["gamma_hull"]}
    (record,), _ = run_scenario(doc, 1)
    assert not record.holds
    assert record.constants == {"error": "TooLarge: hull sample of 5051 points exceeds the "
                                         "greedy gamma cap at every spacing"}
    assert len(calls) == 1
    # scaled past 1e154 the bounding-box diagonal overflows, and no spacing
    # could be compared with it: a named failed record before any sampling
    calls.clear()
    doc["payload"]["points"] = (pts * 1e160).tolist()
    with np.errstate(over="ignore"):
        (record,), _ = run_scenario(doc, 1)
    assert not record.holds and calls == []
    assert record.constants == {"error": "ParamOutOfRange: the hull points' bounding-box "
                                         "diagonal overflows float64"}


@pytest.mark.parametrize("points", [[[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308]],
                                    (np.random.default_rng(3).standard_normal((3, 2)) * 1e200),
                                    (np.random.default_rng(3).standard_normal((3, 2)) * 1e160),
                                    [[0.0, 0.0], [1e200, 0.0]]])
@pytest.mark.parametrize("check", ["mm_two_sided", "convexify"])
def test_cloud_check_on_distances_that_overflow_is_a_named_failed_record(points, check):
    # mm_two_sided's gamma2 and esup came out inf, L_hat nan, and convexify's
    # gaps inf; neither record named an error
    doc = {"id": "huge", "kind": "cloud", "payload": {"dim": 2, "points": np.asarray(points).tolist()},
           "checks": [check]}
    with np.errstate(over="ignore", invalid="ignore"):
        (record,), _ = run_scenario(doc, 1)
    assert not record.holds
    assert record.constants == {"error": "ParamOutOfRange: distances between the points "
                                         "overflow float64"}


def test_cli_entropy_on_distances_that_overflow_is_a_usage_error(tmp_path, capsys):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps({"dim": 1, "points": (np.arange(16.0)[:, None] * 1e184).tolist()}))
    assert main(["gamma", "--cloud", str(cloud), "--method", "entropy"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: distances between the points overflow float64\n"


def _wide_cloud():
    # cover_ratio samples the hull at eps/4: at the default epsilons a grid
    # of about 1e9 cells over this cloud's hull
    return np.random.default_rng(7).standard_normal((10, 2)) * 1e3


def _long_segment():
    # collinear: sample_hull lays a line of 2.8e9 points at eps/4 = 0.05
    return np.outer([0.0, 0.5, 1.0], [1e8, 1e8])


@pytest.mark.parametrize("cloud", [_wide_cloud, _long_segment])
def test_a_hull_sample_over_the_cap_is_refused_before_it_is_built(monkeypatch, cloud):
    # an array over the cap is not built: it asked for tens of GiB, and the
    # MemoryError, which is no input error, ended the whole run
    cap = sampling.SAMPLE_POINT_CAP
    meshgrid, arange = np.meshgrid, np.arange

    def capped_meshgrid(*axes, **kw):
        assert math.prod(map(len, axes)) <= cap, "a grid over the cap was built"
        return meshgrid(*axes, **kw)

    def capped_arange(*args, **kw):
        assert not (len(args) == 1 and args[0] > cap), "a line over the cap was built"
        return arange(*args, **kw)

    monkeypatch.setattr(np, "meshgrid", capped_meshgrid)
    monkeypatch.setattr(np, "arange", capped_arange)
    pts = cloud()
    doc = {"id": "wide", "kind": "cloud", "payload": {"dim": 2, "points": pts.tolist()},
           "checks": ["cover_ratio", "convexify"]}
    cover, convexify = run_scenario(doc, 0)[0]
    assert cover.constants == {
        "error": "DegenerateInput: sample cap exceeded; coarsen the resolution"}
    assert not cover.holds and convexify.check == "convexify"


def test_a_cloud_under_another_metric_is_refused(tmp_path, capsys):
    payload = dict(bundled.payload("twopoint"), metric="l1")
    doc = {"id": "l1", "kind": "cloud", "payload": payload, "checks": ["cover_ratio"]}
    (record,), _ = run_scenario(doc, 0)
    assert not record.holds
    assert record.constants == {"error": "Unsupported: metric 'l1' not implemented"}
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(payload))
    assert main(["cover", "--cloud", str(path), "--epsilon", "0.4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: metric 'l1' not implemented\n"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    asked: list = []

    def __init__(self, max_workers):
        RecordingPool.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_suite_starts_at_most_one_worker_per_scenario(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    suite = small_suite()
    one = dict(suite, scenarios=suite["scenarios"][1:])
    for name, doc, jobs, asked in (("two", suite, 64, [2]), ("two", suite, 2, [2]),
                                   ("one", one, 8, [])):
        RecordingPool.asked = []
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert run_suite(path, tmp_path / f"{name}_{jobs}", jobs=jobs) == 0
        assert RecordingPool.asked == asked


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_fewer_than_one_job(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.asked = []
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(small_suite()))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert RecordingPool.asked == [] and not (tmp_path / "out").exists()


def _gamma_greedy_calls(count_calls, scenario):
    """Number of gamma_greedy calls made by one bundled gamma_hull check."""
    calls = count_calls(chaining, "gamma_greedy")
    records, _ = run_scenario(dict(bundled.scenario(scenario), checks=["gamma_hull"]), 20240501)
    assert [r.check for r in records] == ["gamma_hull"] and records[0].holds
    assert {"R_poly", "L_poly", "R_gen", "L_gen"} <= set(records[0].constants)
    return len(calls)


def test_gamma_hull_computes_each_gamma_once(count_calls):
    # the body and hull gammas serve both the polyhedral and the general ratio
    assert _gamma_greedy_calls(count_calls, "lshape") == 2


def test_gamma_hull_of_convex_body_computes_one_gamma(count_calls):
    # a convex body's hull sample is its body sample, so gamma_Th is gamma_T
    assert _gamma_greedy_calls(count_calls, "unit_square") == 1


def test_scenario_loads_its_payload_once(count_calls):
    loads = count_calls(harness, "load_body")
    records, _ = run_scenario(bundled.scenario("lshape"), 20240501)
    assert len(records) == 6 and all(r.holds for r in records)
    assert len(loads) == 1


def test_cover_ratio_covers_each_sample_once(count_calls):
    # per epsilon: one cover of the body sample and one of the hull sample; the
    # CSV row reuses the certificate's body cover instead of sampling again
    covers = count_calls(covering, "_greedy_centers")
    records, _ = run_scenario(dict(bundled.scenario("lshape"), checks=["cover_ratio"]), 20240501)
    assert records[0].holds and records[0].constants["epsilons"] == 3
    assert len(covers) == 6


def test_ratio_poly_builds_the_hull_once_and_rebuilds_it_once(count_calls):
    # R and the hull come from the body's one cached hull; the one fresh
    # rebuild is the idempotence check
    hulls = count_calls(geometry, "quickhull")
    rehulls = count_calls(harness, "quickhull")
    records, _ = run_scenario(dict(bundled.scenario("lshape"), checks=["ratio_poly"]), 20240501)
    assert records[0].holds and records[0].constants["idempotent"]
    assert len(hulls) + len(rehulls) == 2


def test_revbm_builds_each_sum_once(count_calls):
    # the sum sA + tA does not depend on m: 3 x 3 (s, t) pairs, 9 dilations
    dilations = count_calls(minkowski, "_dilate")
    records, _ = run_scenario(dict(bundled.scenario("lshape"), checks=["revbm"]), 20240501)
    assert records[0].holds and records[0].constants["cases"] == 18
    assert len(dilations) == 9


@pytest.mark.parametrize("scenario, rasterized", [("lshape", 6), ("unit_square", 0), ("unit_cube", 0)])
def test_revbm_rasterizes_each_scale_and_spacing_once(count_calls, scenario, rasterized):
    # sA + tA rasterizes sA and tA at spacing max(s, t) h: the 3 x 3 (s, t)
    # grid of {0.5, 1, 2} has 6 distinct (scale, spacing) pairs, not 18;
    # a convex body is summed from its vertices and rasterized never
    grids = count_calls(minkowski, "_rasterize")
    records, _ = run_scenario(dict(bundled.scenario(scenario), checks=["revbm"]), 20240501)
    assert records[0].holds and records[0].constants["cases"] > 0
    assert len(grids) == rasterized


def test_bundled_run_builds_each_hull_once(count_calls, tmp_path):
    # each body's hull is built once, cached on its Polytope and sampled by
    # sample_hull; the ratio_poly rebuilds are the idempotence checks
    hulls = [count_calls(mod, "quickhull") for mod in (geometry, sampling, minkowski, harness)]
    assert run_suite(bundled.SUITE_FILE, tmp_path) == 0
    assert sum(map(len, hulls)) == 30


def test_record_holds_iff_slack_within_tolerance(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(small_suite()))
    run_suite(suite_path, tmp_path / "out", seed=2)
    for r in json.loads((tmp_path / "out" / "results.json").read_text()):
        assert r["holds"] == (r["slack"] >= -1e-9)


def test_records_carry_theorem_symbols():
    lshape_scenario = {
        "id": "l",
        "kind": "body",
        "payload": bundled.payload("lshape"),
        "checks": ["revbm", "gamma_hull"],
        "params": {"s_values": [1.0], "t_values": [1.0], "m_values": [1],
                   "axis_cells": 60},
    }
    records, _ = run_scenario(lshape_scenario, 1)
    by_check = {r.check: r.constants for r in records}
    assert {"empirical_C1", "beta_A", "beta_B"} <= set(by_check["revbm"])
    assert {"R_poly", "L_poly", "R_gen", "L_gen"} <= set(by_check["gamma_hull"])
    mm_scenario = {
        "id": "c",
        "kind": "cloud",
        "payload": bundled.payload("twopoint"),
        "checks": ["mm_two_sided"],
        "params": {"trials": 2000},
    }
    records, _ = run_scenario(mm_scenario, 1)
    assert "L_hat" in records[0].constants


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_volume(tmp_path, capsys):
    body = tmp_path / "l.json"
    body.write_text(json.dumps(bundled.payload("lshape")))
    assert main(["volume", "--body", str(body)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["volume_det"] == pytest.approx(3.0, abs=1e-12)
    # the hull of the same file: the pentagon that cuts off the L's notch
    assert main(["hull", "--body", str(body)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["dim"], doc["n_vertices"], doc["n_facets"], doc["volume"]) == (2, 5, 5, 3.5)
    assert doc["vertices"] == [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
    # the cube's corners and its centre, as a cloud: the centre is no vertex
    cloud = tmp_path / "c.json"
    corners = bundled.payload("unit_cube")["vertices"]
    cloud.write_text(json.dumps({"dim": 3, "points": corners + [[0.5, 0.5, 0.5]]}))
    assert main(["hull", "--cloud", str(cloud)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["dim"], doc["n_vertices"], doc["n_facets"], doc["volume"]) == (3, 8, 12, 1.0)
    assert sorted(doc["vertices"]) == sorted(corners)


def test_cli_gamma_exact(tmp_path, capsys):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(bundled.payload("twopoint")))
    assert main(["gamma", "--cloud", str(cloud), "--alpha", "2", "--method", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 1.0
    # five points: diam 10 plus 2^(1/alpha) times the closest pair's 1, and
    # only level 1 has a weight, so alpha = 0.001 needs just 2^1000
    cloud.write_text(json.dumps({"dim": 1, "points": [[0], [1], [3], [6], [10]]}))
    assert main(["gamma", "--cloud", str(cloud), "--alpha", "0.001", "--method", "exact"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 10.0 + 2.0**1000


def test_cli_profile_case3(capsys):
    assert main(["profile", "--chi", "2", "--psi", "-3", "--delta", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["L_exists"] is False


def test_cli_supgauss_env_seed(tmp_path, capsys, monkeypatch):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(bundled.payload("twopoint")))
    monkeypatch.setenv("HULLMETRY_SEED", "99")
    assert main(["supgauss", "--cloud", str(cloud), "--trials", "2000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 99


MALFORMED_SUITES = {
    "top_level_number": (5, "'scenarios' list"),
    "scenarios_number": ({"seed": 1, "scenarios": 5}, "'scenarios' list"),
    "scenario_number": ({"seed": 1, "scenarios": [1]}, "malformed scenario: 1"),
    "params_string": ({"seed": 1, "scenarios": [dict(small_suite()["scenarios"][0], params="ab")]},
                      "scenario sq: params"),
    "check_twice": ({"seed": 1, "scenarios": [dict(small_suite()["scenarios"][0],
                                                   checks=["ratio_poly", "ratio_poly"])]},
                    "checks ['ratio_poly'] named more than once"),
    "seed_string": ({"seed": "7", "scenarios": []}, "seed must be"),
    "seed_negative": ({"seed": -1, "scenarios": []}, "seed must be"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SUITES))
def test_cli_malformed_suite_is_a_usage_error(tmp_path, case):
    doc, named = MALFORMED_SUITES[case]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "hullmetry.cli", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and named in proc.stderr
    assert "Traceback" not in proc.stderr


MALFORMED_INPUTS = {  # argv with IN for the input path and OUT for an output directory
    "cloud_flat_points": (["gamma", "--cloud", "IN"], '{"dim": 2, "points": [1.0, 2.0]}', {},
                          "expected a 2-d array"),
    "body_not_json": (["volume", "--body", "IN"], "{not json", {}, "Expecting property name"),
    "body_is_directory": (["hull", "--body", "IN"], None, {}, "Is a directory"),
    "body_dim_mismatch": (["hull", "--body", "IN"],
                          '{"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}', {}, "declared dim"),
    "seed_env_not_int": (["run", "IN", "--out", "OUT"], json.dumps(small_suite()),
                         {"HULLMETRY_SEED": "abc"}, "HULLMETRY_SEED must be an integer"),
    "alpha_weight_overflows": (
        ["gamma", "--cloud", "IN", "--method", "exact", "--alpha", "0.0005"],
        '{"dim": 1, "points": [[0], [1], [3], [6], [10]]}', {},
        "2^2000.0 overflows at alpha=0.0005"),  # the weight of level 1
    # a finite weight times a long distance: the greedy value was printed as Infinity
    "greedy_functional_overflows": (
        ["gamma", "--cloud", "IN", "--method", "greedy", "--alpha", "0.001"],
        '{"dim": 1, "points": [[0], [1e10], [3e10], [6e10], [1e11]]}', {},
        "the chaining functional overflows float64 at alpha=0.001"),
    # (log N)^1000 raised OverflowError, a traceback
    "entropy_power_overflows": (
        ["gamma", "--cloud", "IN", "--method", "entropy", "--alpha", "0.001"],
        json.dumps({"dim": 1, "points": [[float(i)] for i in range(16)]}), {},
        "overflows at alpha=0.001"),
    # the volume tolerance scale^3 raised OverflowError, a traceback
    "body_volume_tolerance_overflows": (["volume", "--body", "IN"],
                                        json.dumps(_scaled_unit_cube(1e110)), {},
                                        "overflows at the boundary's volume tolerance"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_cli_malformed_input_is_a_usage_error(tmp_path, capsys, monkeypatch, case):
    argv, text, env, named = MALFORMED_INPUTS[case]
    path = tmp_path / "input"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    places = {"IN": str(path), "OUT": str(tmp_path / "out")}
    assert main([places.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_cli_run_and_exit_codes(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(small_suite()))
    assert main(["run", str(suite_path), "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", str(bad), "--out", str(tmp_path / "out2")]) == 2


@pytest.mark.parametrize("flag, value", [("--delta", "nan"), ("--delta", "inf"),
                                         ("--delta", "-1"), ("--C", "-1")])
def test_cli_profile_rejects_a_bad_delta_or_constant(capsys, flag, value):
    argv = ["profile", "--chi", "2", "--psi", "-3", flag, value]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flag[2:]} must be positive and finite")


def test_cli_usage_error_is_exit_two(capsys):
    assert main(["gamma"]) == 2  # missing --cloud


def test_cli_cover_exact(tmp_path, capsys):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(bundled.payload("twopoint")))
    assert main(["cover", "--cloud", str(cloud), "--epsilon", "0.4", "--exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_exact"] == 2 and doc["n_greedy"] == 2


def test_cli_minkavg_points(tmp_path, capsys):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(bundled.payload("twopoint")))
    assert main(["minkavg", "--cloud", str(cloud), "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]


def test_cli_revbm_square(tmp_path, capsys):
    body = tmp_path / "sq.json"
    body.write_text(json.dumps(bundled.payload("unit_square")))
    assert main(["revbm", "--body-a", str(body)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["empirical_C1"] == pytest.approx(4 / np.pi, abs=1e-9)
