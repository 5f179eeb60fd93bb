"""Exception types shared across the package, and the one rule for positive scalars."""

import math


class HullmetryError(Exception):
    """Base class for all package errors."""


class DegenerateInput(HullmetryError):
    """Input has no interior in its ambient dimension (affinely dependent, zero volume)."""


class DimensionMismatch(HullmetryError):
    """Operands live in different ambient dimensions."""


class NonOrientable(HullmetryError):
    """A consistent outward orientation cannot be assigned to the boundary."""


class NonpositiveScale(HullmetryError):
    """Scaling factor must be strictly positive and finite."""


class ParamOutOfRange(HullmetryError):
    """A numeric parameter is outside its admissible range."""


class TooLarge(HullmetryError):
    """Input exceeds the size cap of an exhaustive algorithm."""


class Unsupported(HullmetryError):
    """The input falls outside the cases this operation implements."""


# What bad input raises: a degenerate body, a non-finite, null or missing
# coordinate, parameter or key. A suite check turns these into a failed
# record, and the CLI into an ``error:`` line and exit status 2.
INPUT_ERRORS = (HullmetryError, KeyError, TypeError, ValueError)


def check_positive(name: str, value: float, error: type = ParamOutOfRange) -> None:
    """Raise error naming the parameter unless value is positive and finite;
    NaN and both infinities fail."""
    if not (math.isfinite(value) and value > 0):
        raise error(f"{name} must be positive and finite, got {value!r}")
