"""Exception taxonomy for the simulator.

Every error raised by this package derives from AnnosimError so callers can
catch one type at the CLI boundary. The leaf classes mirror the failure modes
of the numeric routines; they carry plain-text messages only.
"""


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
