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
from .pose import keypoint_errors
from .selection import PoolState

VARIANTS = ("alternating", "enlarge", "constant")


@dataclass
class PseudoLabel:
    """One pseudo-labeled frame: its predicted pose and bookkeeping."""

    frame_id: int
    points: np.ndarray  # (K, 3) mm
    epsilon: float
    iteration: int


def select_pseudo_labels(
    pool: PoolState,
    amount: int,
    frame_ids,
    epsilon,
    eligible,
    variant: str = "alternating",
) -> list:
    """Choose this iteration's pseudo-label set; returns frame ids.

    frame_ids names the frames, which must cover every unlabeled frame;
    epsilon (F,) is each frame's reprojection residual and eligible (F,)
    marks the frames whose every keypoint kept every view, the only ones
    acceptable as new pseudo-labels. Last iteration's set is pool.pseudo.
    The result is ordered by increasing residual, ties to the lower id,
    and never exceeds `amount` new frames (enlarge keeps carryovers on
    top of that).
    """
    if variant not in VARIANTS:
        raise InvariantViolation(f"unknown self-training variant {variant!r}")
    if amount < 0:
        raise InvariantViolation("pseudo-label amount must be >= 0")
    pool.check()
    ids = np.asarray(frame_ids, dtype=int)
    epsilon, eligible = np.asarray(epsilon, dtype=float), np.asarray(eligible, dtype=bool)
    if epsilon.shape != ids.shape or eligible.shape != ids.shape:
        raise DimensionMismatch(
            f"{ids.size} frame ids for {epsilon.size} residuals and {eligible.size} flags"
        )
    missing = pool.unlabeled - set(ids.tolist())
    if missing:
        raise InvariantViolation(f"residuals missing for {len(missing)} unlabeled frames")

    order = np.lexsort((ids, epsilon))
    unlabeled = np.isin(ids, list(pool.unlabeled))
    # pool.check keeps the previous set inside the unlabeled frames.
    prev = np.isin(ids, list(pool.pseudo))
    kept = prev if variant == "enlarge" else np.zeros(ids.shape, dtype=bool)
    new = unlabeled & eligible & ~kept
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


def drift_stats(poses, truth) -> DriftSummary:
    """Per-frame mean keypoint distance between pseudo-label poses and
    their true poses: two (P, K, 3) stacks, row for row. P = 0 yields
    count 0 and NaN statistics.
    """
    d = keypoint_errors(poses, truth).mean(axis=1)
    if not len(d):
        return DriftSummary(count=0, mean_mm=float("nan"), median_mm=float("nan"), max_mm=float("nan"))
    return DriftSummary(
        count=len(d),
        mean_mm=float(d.mean()),
        median_mm=float(np.median(d)),
        max_mm=float(d.max()),
    )
