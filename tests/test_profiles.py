import math

import pytest

from hullmetry.errors import ParamOutOfRange, Unsupported
from hullmetry.profiles import (
    EntropyProfile,
    IntegrabilityVerdict,
    RatioFunction,
    hull_profile,
    integral_exists,
    l_existence_report,
    ratio_bound,
)

from oracles import antiderivative_log_squared


# ---------------------------------------------------------------------------
# profile transformation
# ---------------------------------------------------------------------------


def test_hull_profile_case1_fixed_point():
    p = EntropyProfile(3.0, 0.0)
    out = hull_profile(p)
    assert (out.chi, out.psi, out.form) == (3.0, 0.0, "plain")
    assert hull_profile(out) == out  # idempotent above chi = 2


def test_hull_profile_case2_adds_two():
    out = hull_profile(EntropyProfile(2.0, 0.0))
    assert (out.chi, out.psi, out.form) == (2.0, 2.0, "plain")
    out2 = hull_profile(EntropyProfile(2.0, -1.0))
    assert (out2.chi, out2.psi) == (2.0, 1.0)


def test_hull_profile_case3_loglog():
    out = hull_profile(EntropyProfile(2.0, -3.0))
    assert out.form == "loglog"
    assert out.psi == pytest.approx(-1.0)


def test_hull_profile_rejects_unlisted():
    with pytest.raises(Unsupported):
        hull_profile(EntropyProfile(2.0, -2.5))
    with pytest.raises(Unsupported):
        hull_profile(EntropyProfile(2.0, -4.0))
    with pytest.raises(ParamOutOfRange):
        EntropyProfile(1.5, 0.0)


@pytest.mark.parametrize(
    "chi, psi",
    [(math.nan, 0.0), (math.inf, 0.0), (3.0, math.nan), (2.0, -math.inf), (-math.inf, 0.0)],
)
def test_profile_rejects_non_finite_exponents(chi, psi):
    # nan < 2 is false, so a plain range check would let chi = nan through
    with pytest.raises(ParamOutOfRange):
        EntropyProfile(chi, psi)


def test_ratio_bound_kinds_and_labels():
    assert ratio_bound(EntropyProfile(3.0, 0.0)).kind == "constant"
    assert ratio_bound(EntropyProfile(3.0, 0.0)).constant_label == "C3"
    r2 = ratio_bound(EntropyProfile(2.0, 0.0))
    assert (r2.kind, r2.constant_label) == ("logsq", "C4")
    r3 = ratio_bound(EntropyProfile(2.0, -3.0))
    assert (r3.kind, r3.constant_label) == ("log3_over_loglog", "C5")
    with pytest.raises(Unsupported):
        ratio_bound(EntropyProfile(2.0, -2.1))


def test_ratio_function_evaluation():
    assert RatioFunction("constant", 2.0)(0.3) == 2.0
    assert RatioFunction("logsq", 1.0)(math.exp(-2)) == pytest.approx(4.0)
    f = RatioFunction("log3_over_loglog", 1.0)
    assert f(math.exp(-2)) == pytest.approx(8.0 / math.log(2.0))
    assert f.singular_points()[0] == pytest.approx(math.exp(-1.0))


# ---------------------------------------------------------------------------
# integrability verdicts
# ---------------------------------------------------------------------------


def test_constant_integral_exact():
    for c, delta in ((1.0, 1.0), (3.7, 0.8), (0.2, 2.5)):
        v = integral_exists(RatioFunction("constant", c), delta)
        assert v.converges
        assert v.value == pytest.approx(c * delta, rel=1e-6)


def test_logsq_integral_matches_antiderivative():
    v = integral_exists(RatioFunction("logsq", 1.0), 1.0)
    assert v.converges
    assert v.value == pytest.approx(2.0, abs=1e-3)
    # cross-check on a smaller interval against the closed form
    v2 = integral_exists(RatioFunction("logsq", 1.0), 0.5)
    expected = antiderivative_log_squared(0.5)  # lower limit contributes 0
    assert v2.value == pytest.approx(expected, rel=1e-3)


def test_log3_diverges_with_interior_singularity():
    v = integral_exists(RatioFunction("log3_over_loglog", 1.0), 1.0)
    assert not v.converges
    assert v.singularity == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert "interior singularity" in v.reason


def test_log3_converges_below_the_singularity():
    v = integral_exists(RatioFunction("log3_over_loglog", 1.0), 0.25)
    assert v.converges
    assert v.value is not None and v.value > 0


def test_verdict_walks_across_the_singular_point_one_float_at_a_time():
    # math.exp(-1) lies above the true 1/e and the float below it lies under,
    # so the float test p <= delta agrees with the real one on both sides
    f = RatioFunction("log3_over_loglog", 1.0)
    below = math.nextafter(math.exp(-1.0), 0.0)
    assert integral_exists(f, below).converges
    for delta in (math.exp(-1.0), math.nextafter(math.exp(-1.0), 1.0), math.e, 3.0):
        v = integral_exists(f, delta)
        assert not v.converges and v.value is None
        assert v.singularity == math.exp(-1.0)
        assert v.reason == f"interior singularity at eps={math.exp(-1.0)!r}"
        assert v.quadrature_trace == []


@pytest.mark.parametrize("C, delta", [(1e-300, 1e-300), (1.0, 1.7e308)])
def test_constant_whose_shells_underflow_or_overflow_converges_with_no_value(C, delta):
    # every shell of C = delta = 1e-300 underflows to 0, and the first shell
    # of delta = 1.7e308 overflows to inf: neither sum is a value
    v = integral_exists(RatioFunction("constant", C), delta)
    assert v.converges and v.value is None
    assert v.reason is None and v.singularity is None


def test_scaling_of_values():
    f1 = integral_exists(RatioFunction("logsq", 1.0), 1.0)
    f3 = integral_exists(RatioFunction("logsq", 3.0), 1.0)
    assert f3.value == pytest.approx(3 * f1.value, rel=1e-6)


def test_verdict_carries_trace():
    v = integral_exists(RatioFunction("constant", 1.0), 1.0)
    assert isinstance(v, IntegrabilityVerdict)
    assert any(rec.get("probe") == "shell" for rec in v.quadrature_trace)


def test_integral_rejects_bad_delta():
    with pytest.raises(ParamOutOfRange):
        integral_exists(RatioFunction("constant", 1.0), 0.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0])
def test_integral_rejects_a_delta_that_is_not_finite_and_positive(delta):
    with pytest.raises(ParamOutOfRange, match="delta must be positive and finite"):
        integral_exists(RatioFunction("constant", 1.0), delta)


@pytest.mark.parametrize("name, delta, C", [
    ("delta", math.nan, 1.0), ("delta", math.inf, 1.0), ("delta", 0.0, 1.0),
    ("C", 1.0, math.nan), ("C", 1.0, math.inf), ("C", 1.0, 0.0), ("C", 1.0, -1.0),
])
def test_l_existence_rejects_a_delta_or_constant_that_is_not_finite_and_positive(
        name, delta, C):
    with pytest.raises(ParamOutOfRange, match=f"{name} must be positive and finite"):
        l_existence_report(EntropyProfile(2.0, -3.0), delta, C)


# ---------------------------------------------------------------------------
# end-to-end reports
# ---------------------------------------------------------------------------


def test_l_existence_three_canonical_cases():
    r1 = l_existence_report(EntropyProfile(3.0, 1.0), 1.0)
    r2 = l_existence_report(EntropyProfile(2.0, -1.0), 1.0)
    r3 = l_existence_report(EntropyProfile(2.0, -3.0), 1.0)
    assert (r1.L_exists, r2.L_exists, r3.L_exists) == (True, True, False)


def test_l_existence_constant_scales_value_not_verdict():
    small = l_existence_report(EntropyProfile(2.0, -1.0), 1.0, C=1.0)
    big = l_existence_report(EntropyProfile(2.0, -1.0), 1.0, C=10.0)
    assert small.L_exists == big.L_exists
    assert big.verdict.value == pytest.approx(10 * small.verdict.value, rel=1e-6)


def test_l_existence_divergent_even_with_tiny_constant():
    rep = l_existence_report(EntropyProfile(2.0, -3.0), 1.0, C=1e-6)
    assert not rep.L_exists
