"""Exception taxonomy for the simulator.

Every error raised by this package derives from AnnosimError so callers can
catch one type at the CLI boundary. The leaf classes mirror the failure modes
of the numeric routines; they carry plain-text messages only.
"""

import dataclasses
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


def is_integer(value) -> bool:
    """Whether value may fill a field annotated int: an integer, numpy's
    included, but not a bool, although Python counts bool as an int (and
    YAML's true and false load as bools)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int_fields(obj) -> None:
    """Raise InvariantViolation unless every field of the dataclass
    instance obj that is annotated int holds an integer (is_integer)."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", int) and not is_integer(value):
            raise InvariantViolation(
                f"{type(obj).__name__}.{f.name} must be an integer, got {value!r}"
            )
