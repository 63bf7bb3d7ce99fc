"""3D pose containers and distances.

A pose is a (K, 3) array of keypoint positions in mm. Comparisons between
poses of different subjects or frames are done after root alignment:
subtracting one designated keypoint so the pose becomes translation-free.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange


def as_pose(pose) -> np.ndarray:
    """Coerce to a float (K, 3) array, validating the shape."""
    p = np.asarray(pose, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
        raise DimensionMismatch(f"pose must have shape (K, 3), got {p.shape}")
    return p


def align_root(pose, root_index: int) -> np.ndarray:
    """Subtract the root keypoint; the root row becomes exactly zero."""
    p = as_pose(pose)
    if not 0 <= root_index < p.shape[0]:
        raise IndexOutOfRange(
            f"root index {root_index} outside [0, {p.shape[0]})"
        )
    return p - p[root_index]


def pose_distance(a, b) -> float:
    """Mean per-keypoint Euclidean distance between two equal-shape poses."""
    pa, pb = as_pose(a), as_pose(b)
    if pa.shape != pb.shape:
        raise DimensionMismatch(f"pose shapes differ: {pa.shape} vs {pb.shape}")
    return float(np.mean(np.linalg.norm(pa - pb, axis=1)))


def keypoint_errors(estimates, truth) -> np.ndarray:
    """Per-keypoint position errors of (F, K, 3) estimates: (F, K), in mm.

    The one keypoint-error computation: every MKPE figure (held-out,
    unlabeled pool, pseudo-label drift) is a mean of these. No alignment
    is applied, so translation errors count. A keypoint whose estimate is
    NaN gets NaN.
    """
    est = np.asarray(estimates, dtype=float)
    gt = np.asarray(truth, dtype=float)
    if est.shape != gt.shape or est.ndim != 3 or est.shape[-1] != 3:
        raise DimensionMismatch(
            f"expected matching (F, K, 3) stacks, got {est.shape} vs {gt.shape}"
        )
    return np.linalg.norm(est - gt, axis=2)
