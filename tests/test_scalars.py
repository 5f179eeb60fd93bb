"""Every positive scalar a public function takes is refused by name when it
is NaN, infinite, zero or negative, before any work is done with it."""
import math
import re

import numpy as np
import pytest

from hullmetry.chaining import certify_hull_gamma, entropy_integral, gamma_exact_small, gamma_greedy
from hullmetry.covering import (
    check_hull_cover_ratio, exact_cover_small, greedy_cover, packing_number, volume_cover_bounds,
)
from hullmetry.errors import NonpositiveScale, ParamOutOfRange
from hullmetry.geometry import load_body
from hullmetry.minkowski import (
    BodyApprox, reverse_bm_sweep, scale_body, volume_ratio_general_bound,
)
from hullmetry.profiles import EntropyProfile, RatioFunction, integral_exists, l_existence_report

import bundled

CLOUD = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SQUARE = load_body(bundled.payload("unit_square"))
SQUARE_BODY = BodyApprox.from_polytope(SQUARE)

ENTRY_POINTS = {  # id: (the parameter's name, the error, the call on a value)
    "greedy_cover": ("epsilon", ParamOutOfRange, lambda v: greedy_cover(CLOUD, v)),
    "packing_number": ("epsilon", ParamOutOfRange, lambda v: packing_number(CLOUD, v)),
    "exact_cover_small": ("epsilon", ParamOutOfRange, lambda v: exact_cover_small(CLOUD, v)),
    "volume_cover_bounds": ("epsilon", ParamOutOfRange, lambda v: volume_cover_bounds(SQUARE, v)),
    "check_hull_cover_ratio": ("epsilon", ParamOutOfRange,
                               lambda v: check_hull_cover_ratio(CLOUD, v)),
    "gamma_exact_small": ("alpha", ParamOutOfRange, lambda v: gamma_exact_small(CLOUD, v)),
    "gamma_greedy": ("alpha", ParamOutOfRange, lambda v: gamma_greedy(CLOUD, v)),
    "entropy_integral": ("alpha", ParamOutOfRange, lambda v: entropy_integral(CLOUD, v)),
    "certify_hull_gamma": ("alpha", ParamOutOfRange, lambda v: certify_hull_gamma(CLOUD, v)),
    "integral_exists": ("delta", ParamOutOfRange,
                        lambda v: integral_exists(RatioFunction("constant", 1.0), v)),
    "l_existence_report": ("C", ParamOutOfRange,
                           lambda v: l_existence_report(EntropyProfile(2.0, -1.0), 1.0, v)),
    "reverse_bm_sweep_s": ("s", ParamOutOfRange,
                           lambda v: reverse_bm_sweep(SQUARE_BODY, SQUARE_BODY, [v], [1.0], [1])),
    "reverse_bm_sweep_t": ("t", ParamOutOfRange,
                           lambda v: reverse_bm_sweep(SQUARE_BODY, SQUARE_BODY, [1.0], [v], [1])),
    "scale_body": ("s", NonpositiveScale, lambda v: scale_body(SQUARE_BODY, v)),
    "volume_ratio_general_bound": ("C2", ParamOutOfRange,
                                   lambda v: volume_ratio_general_bound(4, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_scalar_that_is_not_positive_and_finite_is_refused_by_name(entry, value):
    name, error, call = ENTRY_POINTS[entry]
    with pytest.raises(error, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
        call(value)


def test_ratio_functions_refuse_a_nan_eps():
    with pytest.raises(ParamOutOfRange, match="ratio functions live on positive eps"):
        RatioFunction("logsq", 1.0)(math.nan)
