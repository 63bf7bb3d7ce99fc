"""Exception taxonomy for the simulator.

Every error raised by this package derives from AnnosimError so callers can
catch one type at the CLI boundary. The leaf classes mirror the failure modes
of the numeric routines; they carry plain-text messages only.
"""

import dataclasses
import math
import numbers


class AnnosimError(Exception):
    """Base class for all package errors."""


class DegenerateProjection(AnnosimError):
    """Point projects with homogeneous depth too close to zero."""


class InsufficientViews(AnnosimError):
    """Triangulation asked for with fewer than two observations."""


class IllConditioned(AnnosimError):
    """Linear system has no usable one-dimensional null space."""


class NoConsensus(AnnosimError):
    """Robust triangulation found no hypothesis with two or more inliers."""


class EmptyHeatmap(AnnosimError):
    """Heatmap contains no strictly positive value."""


class IndexOutOfRange(AnnosimError):
    """Keypoint or root index outside the valid range."""


class DimensionMismatch(AnnosimError):
    """Operands have incompatible shapes."""


class EmptyPool(AnnosimError):
    """Operation requires at least one labeled or candidate frame."""


class BudgetExceedsPool(AnnosimError):
    """Selection budget is larger than the candidate pool."""


class TooFewPoses(AnnosimError):
    """Clustering asked for more clusters than there are poses."""


class EmptyCounts(AnnosimError):
    """Histogram entropy of an all-zero or empty count vector."""


class ParseError(AnnosimError):
    """Config or dataset file is syntactically or structurally invalid."""


class InvariantViolation(AnnosimError):
    """A documented data invariant does not hold."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Annotation -> (the values a field so annotated may hold, their name).
# An integer, numpy's included, is a valid float. A bool is neither,
# although Python counts bool as an int (and YAML's true and false load
# as bools). A float field takes no NaN or infinity (YAML's .nan, .inf):
# NaN passes every range check written as a comparison.
_SCALAR_RULES = {
    "int": (_is_int, "an integer"),
    "float": (
        lambda v: _is_int(v)
        or (isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)),
        "a number other than NaN or infinity",
    ),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def scalar_type_error(annotation, value):
    """Why value may not fill a field annotated `annotation` (int, float,
    bool or str, as a type or as its name), as the end of a message, or
    None when it may or the annotation is none of the four."""
    rule = _SCALAR_RULES.get(getattr(annotation, "__name__", annotation))
    if rule is None or rule[0](value):
        return None
    return f"must be {rule[1]}, got {value!r}"


def check_field_types(obj) -> None:
    """Raise InvariantViolation unless every field of the dataclass
    instance obj annotated int, float, bool or str holds such a value
    (scalar_type_error)."""
    for f in dataclasses.fields(obj):
        problem = scalar_type_error(f.type, getattr(obj, f.name))
        if problem is not None:
            raise InvariantViolation(f"{type(obj).__name__}.{f.name} {problem}")
