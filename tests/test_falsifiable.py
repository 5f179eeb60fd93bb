"""The falsifiability table: each check kind can fail.

Each row runs one check of one bundled scenario under a mutant, a
monkeypatch of one package function that lives only in this file, and
expects the record to say ``holds: false``. A row marked xfail is a mutant
that its record does not catch yet; the reason names the ROADMAP item that
should make the check catch it. The marks are strict, so a row that starts
to fail its record fails the suite until its mark is removed.
"""
import dataclasses

import pytest

from hullmetry import chaining, covering, harness, minkowski, profiles, sampling
from hullmetry.harness import run_scenario

import bundled

SEED = 20240501  # the bundled suite's master seed


def one_side(monkeypatch, owner, name, inflate, hull):
    """Replaces owner.name by a wrapper that inflates its result on one side
    only: on the hull samples that sampling.sample_hull returned (hull=True),
    or on every other input (hull=False)."""
    samples = []
    sample_hull, real = sampling.sample_hull, getattr(owner, name)

    def recording(*args, **kwargs):
        samples.append(sample_hull(*args, **kwargs))
        return samples[-1]

    def wrapped(pts, *args):
        result = real(pts, *args)
        on_hull = any(pts is s for s in samples)
        return inflate(result) if on_hull == hull else result

    monkeypatch.setattr(sampling, "sample_hull", recording)
    monkeypatch.setattr(owner, name, wrapped)


def times_gamma(factor):
    return lambda est: dataclasses.replace(est, value=factor * est.value)


def times_centres(factor):
    return lambda centres: list(centres) * factor


def negated_volume_projected(monkeypatch):
    real = harness.volume_projected
    monkeypatch.setattr(harness, "volume_projected", lambda boundary: -real(boundary))


def rehull_drops_last_vertex(monkeypatch):
    real = harness.quickhull
    monkeypatch.setattr(harness, "quickhull", lambda points: real(points[:-1]))


def scaled_beta(factor):
    def mutant(monkeypatch):
        real = minkowski.body_beta
        monkeypatch.setattr(minkowski, "body_beta", lambda A: real(A) * factor)
    return mutant


def averages_scaled_by_1_plus_k_over_5(monkeypatch):
    real = minkowski._average_sequence

    def sequence(A, k_max):
        for k, Ak in real(A, k_max):
            yield k, Ak if k == 1 else minkowski.scale_body(Ak, 1.0 + 0.2 * k)

    monkeypatch.setattr(minkowski, "_average_sequence", sequence)


def averaging_is_a_no_op(monkeypatch):
    def sequence(A, k_max):
        for k in range(1, k_max + 1):
            yield k, A

    monkeypatch.setattr(minkowski, "_average_sequence", sequence)


def hull_cover_times_1000(monkeypatch):
    one_side(monkeypatch, covering, "_greedy_centers", times_centres(1000), hull=True)


def body_cover_times_1000(monkeypatch):
    one_side(monkeypatch, covering, "_greedy_centers", times_centres(1000), hull=False)


def hull_gamma_times_100(monkeypatch):
    one_side(monkeypatch, chaining, "gamma_greedy", times_gamma(100), hull=True)


def body_gamma_times_100(monkeypatch):
    one_side(monkeypatch, chaining, "gamma_greedy", times_gamma(100), hull=False)


def esup_over_1000(monkeypatch):
    real = chaining.gaussian_sup_mc

    def shrunk(*args):
        sup = real(*args)
        return dataclasses.replace(sup, mean=sup.mean / 1000)

    monkeypatch.setattr(chaining, "gaussian_sup_mc", shrunk)


def constant_ratio_bound(monkeypatch):
    monkeypatch.setattr(profiles, "ratio_bound",
                        lambda p: profiles.RatioFunction("constant", 1.0, "C3"))


def pending(item, slack):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"not caught yet (slack {slack}); ROADMAP item {item}")


TABLE = [  # (scenario, check, mutant)
    pytest.param("lshape", "volume_xcheck", negated_volume_projected, id="volume_xcheck"),
    pytest.param("lshape", "ratio_poly", rehull_drops_last_vertex, id="ratio_poly"),
    pytest.param("lshape", "revbm", scaled_beta(1e-3), id="revbm"),
    pytest.param("lshape", "convexify", averages_scaled_by_1_plus_k_over_5, id="convexify"),
    pytest.param("lshape", "cover_ratio", hull_cover_times_1000, id="cover_ratio"),
    pytest.param("lshape", "gamma_hull", hull_gamma_times_100, id="gamma_hull"),
    pytest.param("basis_4", "mm_two_sided", esup_over_1000, id="mm_two_sided"),
    pytest.param("profile_case3", "l_existence", constant_ratio_bound, id="l_existence"),
    pytest.param("lshape", "revbm", scaled_beta(0.5), id="revbm_half_beta",
                 marks=pending(5, 5.90)),
    pytest.param("lshape", "convexify", averaging_is_a_no_op, id="convexify_no_op",
                 marks=pending(2, 0.0083)),
    pytest.param("lshape", "gamma_hull", body_gamma_times_100, id="gamma_hull_body_side",
                 marks=pending(3, 1414.0)),
    pytest.param("lshape", "cover_ratio", body_cover_times_1000, id="cover_ratio_body_side",
                 marks=pending(3, 62994)),
]


@pytest.mark.parametrize("scenario, check, mutant", TABLE)
def test_mutant_fails_its_bundled_record(monkeypatch, scenario, check, mutant):
    doc = dict(bundled.scenario(scenario), checks=[check])
    mutant(monkeypatch)
    (record,), _ = run_scenario(doc, SEED)
    assert "error" not in record.constants
    assert not record.holds


def test_every_check_kind_has_a_failing_mutant():
    caught = {row.values[1] for row in TABLE if not row.marks}
    assert caught == set(harness.CHECK_RUNNERS)
