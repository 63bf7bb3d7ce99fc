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


def align_root(poses, root_index: int) -> np.ndarray:
    """Subtract the root keypoint from (..., K, 3) poses; the root rows
    become exactly zero."""
    p = np.asarray(poses, dtype=float)
    if p.ndim < 2 or p.shape[-1] != 3 or p.shape[-2] < 1:
        raise DimensionMismatch(f"poses must have shape (..., K, 3), got {p.shape}")
    if not 0 <= root_index < p.shape[-2]:
        raise IndexOutOfRange(
            f"root index {root_index} outside [0, {p.shape[-2]})"
        )
    return p - p[..., root_index : root_index + 1, :]


def keypoint_distances(a, b) -> np.ndarray:
    """Per-keypoint Euclidean distances between (..., K, 3) poses that
    broadcast against each other: (..., K), in mm.

    The one distance computation: keypoint errors are these, and pose
    distances are their means over the keypoints.
    """
    return np.linalg.norm(np.subtract(a, b, dtype=float), axis=-1)


def pose_distances(a, b) -> np.ndarray:
    """Mean per-keypoint distance between (..., K, 3) poses that broadcast
    against each other: (...), in mm. One pose against a stack gives its
    distance to each pose of the stack."""
    return keypoint_distances(a, b).mean(axis=-1)


def pose_distance(a, b) -> float:
    """Mean per-keypoint Euclidean distance between two equal-shape poses."""
    pa, pb = as_pose(a), as_pose(b)
    if pa.shape != pb.shape:
        raise DimensionMismatch(f"pose shapes differ: {pa.shape} vs {pb.shape}")
    return float(pose_distances(pa, pb))


def keypoint_errors(estimates, truth) -> np.ndarray:
    """Per-keypoint position errors of (F, K, 3) estimates: (F, K), in mm.

    Every MKPE figure (held-out, unlabeled pool, pseudo-label drift) is a
    mean of these. No alignment is applied, so translation errors count.
    A keypoint whose estimate is NaN gets NaN.
    """
    est = np.asarray(estimates, dtype=float)
    gt = np.asarray(truth, dtype=float)
    if est.shape != gt.shape or est.ndim != 3 or est.shape[-1] != 3:
        raise DimensionMismatch(
            f"expected matching (F, K, 3) stacks, got {est.shape} vs {gt.shape}"
        )
    return keypoint_distances(est, gt)
