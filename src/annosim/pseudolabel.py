"""Self-training pseudo-label schedules.

Each iteration, up to `amount` unlabeled frames whose triangulations are
trustworthy (every keypoint kept all views as inliers) are promoted to
pseudo-labels and fed back into the next training pool. Candidates are
visited in ascending order of the frame reprojection residual, lowest
residual first, with frame id breaking ties.

Variants:
- alternating: frames pseudo-labeled last iteration are skipped, so the
  sets of consecutive iterations are disjoint.
- enlarge: last iteration's still-unlabeled pseudo-frames are kept and up
  to `amount` new frames are added.
- constant: the best `amount` frames are re-picked with no exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .geometry import FrameTriangulation
from .pose import keypoint_errors
from .selection import PoolState

VARIANTS = ("alternating", "enlarge", "constant")


@dataclass
class PseudoLabel:
    """One pseudo-labeled frame: its triangulated pose and bookkeeping."""

    frame_id: int
    points: np.ndarray  # (K, 3) mm
    epsilon: float
    iteration: int


def eligible(triangulation: FrameTriangulation, n_views: int) -> np.ndarray:
    """(F,) mask of the stack's frames whose every keypoint kept every
    view: only those are acceptable."""
    return triangulation.inlier_count == n_views


def select_pseudo_labels(
    pool: PoolState,
    prev_pseudo,
    amount: int,
    frame_ids,
    triangulation: FrameTriangulation,
    n_views: int,
    variant: str = "alternating",
) -> list:
    """Choose this iteration's pseudo-label set; returns frame ids.

    frame_ids names the frames of the triangulation stack, row by row,
    and must cover every unlabeled frame; prev_pseudo is last
    iteration's set. The result is ordered by increasing residual, ties
    to the lower id, and never exceeds `amount` new frames (enlarge keeps
    carryovers on top of that).
    """
    if variant not in VARIANTS:
        raise InvariantViolation(f"unknown self-training variant {variant!r}")
    if amount < 0:
        raise InvariantViolation("pseudo-label amount must be >= 0")
    pool.check()
    ids = np.asarray(frame_ids, dtype=int)
    if ids.shape != triangulation.epsilon.shape:
        raise DimensionMismatch(f"{ids.size} frame ids for {len(triangulation.epsilon)} frames")
    missing = pool.unlabeled - set(ids.tolist())
    if missing:
        raise InvariantViolation(
            f"triangulations missing for {len(missing)} unlabeled frames"
        )

    order = np.lexsort((ids, triangulation.epsilon))
    unlabeled = np.isin(ids, list(pool.unlabeled))
    prev = np.isin(ids, list(prev_pseudo))
    kept = unlabeled & prev if variant == "enlarge" else np.zeros(ids.shape, dtype=bool)
    new = unlabeled & eligible(triangulation, n_views) & ~kept
    if variant == "alternating":
        new &= ~prev
    ranked = ids[order]
    return ranked[kept[order]].tolist() + ranked[new[order]][:amount].tolist()


@dataclass
class DriftSummary:
    """Distance between pseudo-label poses and ground truth, in mm."""

    count: int
    mean_mm: float
    median_mm: float
    max_mm: float


def drift_stats(pseudo_points, gt_points) -> DriftSummary:
    """Per-frame mean keypoint distance between pseudo and true poses.

    Both arguments map frame id to a (K, 3) pose; ids must match. An empty
    mapping yields count 0 and NaN statistics.
    """
    if set(pseudo_points) != set(gt_points):
        raise DimensionMismatch("pseudo and ground-truth frame ids differ")
    if not pseudo_points:
        return DriftSummary(count=0, mean_mm=float("nan"), median_mm=float("nan"), max_mm=float("nan"))
    ids = sorted(pseudo_points)
    errors = keypoint_errors([pseudo_points[f] for f in ids], [gt_points[f] for f in ids])
    d = errors.mean(axis=1)
    return DriftSummary(
        count=len(d),
        mean_mm=float(d.mean()),
        median_mm=float(np.median(d)),
        max_mm=float(d.max()),
    )
