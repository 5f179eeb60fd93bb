"""Entropy-growth regimes, hull-profile transformation, ratio functions, and the
integrability criterion deciding whether the comparison constant exists.

Profiles describe log N(T, eps) asymptotics as eps^(-chi) |log eps|^psi. Only
the three regimes with stated transformations are implemented; anything else
is rejected rather than extrapolated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParamOutOfRange, Unsupported, check_positive

_EXACT = 1e-12


@dataclass(frozen=True)
class EntropyProfile:
    chi: float
    psi: float
    form: str = "plain"  # "plain" | "loglog"

    def __post_init__(self):
        if not (math.isfinite(self.chi) and math.isfinite(self.psi)):
            raise ParamOutOfRange("profile exponents chi and psi must be finite")
        if self.chi < 2.0 - _EXACT:
            raise ParamOutOfRange("profiles require chi >= 2")
        if self.form not in ("plain", "loglog"):
            raise ParamOutOfRange(f"unknown profile form {self.form!r}")


def _regime(p: EntropyProfile) -> int:
    """Which of the three stated regimes a plain profile is in: chi > 2 (0),
    chi = 2 with psi > -2 (1), or chi = 2 with psi = -3 (2)."""
    if p.form != "plain":
        raise Unsupported("hull transformation applies to plain profiles only")
    if p.chi > 2.0 + _EXACT:
        return 0
    if p.psi > -2.0 + _EXACT:
        return 1
    if abs(p.psi + 3.0) <= _EXACT:
        return 2
    raise Unsupported(f"no stated hull profile for chi=2, psi={p.psi}")


def hull_profile(p: EntropyProfile) -> EntropyProfile:
    """Entropy profile of the convex hull under the three stated regimes."""
    regime = _regime(p)
    if regime == 0:
        return EntropyProfile(p.chi, p.psi, "plain")
    return EntropyProfile(2.0, p.psi + 2.0, "plain" if regime == 1 else "loglog")


@dataclass(frozen=True)
class RatioFunction:
    """Upper bound f(eps) on log N(T_h, eps) / log N(T, eps) over (0, delta]."""

    kind: str  # "constant" | "logsq" | "log3_over_loglog"
    constant: float = 1.0
    constant_label: str = ""

    def __call__(self, eps: float) -> float:
        if not eps > 0:
            raise ParamOutOfRange("ratio functions live on positive eps")
        if self.kind == "constant":
            return self.constant
        log_eps = abs(math.log(eps))
        if self.kind == "logsq":
            return self.constant * log_eps**2
        if self.kind == "log3_over_loglog":
            if log_eps == 0.0:
                return 0.0
            denom = abs(math.log(log_eps))
            if denom == 0.0:
                return math.inf
            return self.constant * log_eps**3 / denom
        raise Unsupported(f"unknown ratio kind {self.kind!r}")

    def singular_points(self) -> tuple[float, ...]:
        """Interior points where the function blows up."""
        if self.kind == "log3_over_loglog":
            return (math.exp(-1.0), math.e)
        return ()


def ratio_bound(p: EntropyProfile) -> RatioFunction:
    """The stated covering-ratio bound for a profile's regime."""
    kind, label = (("constant", "C3"), ("logsq", "C4"), ("log3_over_loglog", "C5"))[_regime(p)]
    return RatioFunction(kind, 1.0, label)


@dataclass(frozen=True)
class IntegrabilityVerdict:
    converges: bool
    value: float | None
    reason: str | None  # "interior singularity at eps=..."
    singularity: float | None
    quadrature_trace: list = field(default_factory=list, compare=False)


def _simpson(f, a: float, b: float) -> float:
    """Composite Simpson's rule for f over [a, b] on 64 subintervals."""
    if b <= a:
        return 0.0
    h = (b - a) / 64
    total = f(a) + f(b)
    for i in range(1, 64):
        x = a + i * h
        total += (4.0 if i % 2 else 2.0) * f(x)
    return total * h / 3.0


REFINE_CAP = 60
CONVERGENCE_RTOL = 1e-4


def integral_exists(f: RatioFunction, delta: float) -> IntegrabilityVerdict:
    """Decide whether the improper integral of f over (0, delta] exists, and its value.

    Every ratio kind is integrable at eps -> 0, so the integral diverges
    exactly when one of f's singular points lies in (0, delta]. Otherwise
    geometric shells toward eps -> 0 sum the value until two successive
    shells add less than 1e-4 of the total; a sum that does not settle
    within REFINE_CAP shells, or is not finite, leaves the value None.
    """
    check_positive("delta", delta)
    # no tolerance: the float exp(-1) and its predecessor bracket the true 1/e,
    # and every delta >= e also holds 1/e, so the float test is the real one
    for point in f.singular_points():
        if point <= delta:
            return IntegrabilityVerdict(False, None, f"interior singularity at eps={point!r}", point, [])

    # shells [delta 2^-(j+1), delta 2^-j]
    trace: list = []
    total = 0.0
    agree = 0
    prev_shell = None
    for j in range(REFINE_CAP):
        a = delta * 2.0 ** -(j + 1)
        b = delta * 2.0**-j
        shell = _simpson(f, a, b)
        total += shell
        trace.append({"probe": "shell", "eta": a, "shell": shell, "partial": total})
        if total > 0 and shell <= CONVERGENCE_RTOL * total:
            agree += 1
            if agree >= 2:
                # complete the geometrically decaying tail below eta
                if prev_shell and 0.0 < shell < 0.95 * prev_shell:
                    r = shell / prev_shell
                    total += shell * r / (1.0 - r)
                break
        else:
            agree = 0
        prev_shell = shell
    value = total if agree >= 2 and math.isfinite(total) else None
    return IntegrabilityVerdict(True, value, None, None, trace)


@dataclass(frozen=True)
class LExistenceReport:
    hull: EntropyProfile
    ratio: RatioFunction
    verdict: IntegrabilityVerdict
    L_exists: bool


def l_existence_report(p: EntropyProfile, delta: float, C: float = 1.0) -> LExistenceReport:
    """Chain the hull transformation, ratio bound, and integrability criterion."""
    check_positive("C", C)
    hull = hull_profile(p)
    ratio = ratio_bound(p)
    if C != 1.0:
        ratio = RatioFunction(ratio.kind, C * ratio.constant, ratio.constant_label)
    verdict = integral_exists(ratio, delta)
    return LExistenceReport(hull, ratio, verdict, verdict.converges)
