"""Diagnostics: pose clustering, selection entropy, and annotation cost.

The entropy diagnostic clusters the training split's root-aligned poses
once, then measures how evenly a selected batch spreads over those
clusters: Shannon entropy of the batch's cluster histogram, normalized by
log(k) so 1 means perfectly uniform coverage. k-means is written out here
(Lloyd iterations with k-means++ seeding) because the stopping rule,
tie-breaking, and empty-cluster reseeding must be pinned for byte-stable
results across library versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCounts, InvariantViolation, TooFewPoses, check_field_types

_MAX_LLOYD_ITERS = 100


@dataclass
class ClusterModel:
    """Fitted pose clusters over flattened (3K,) aligned poses."""

    centers: np.ndarray  # (k, 3K)
    assignments: np.ndarray  # (n,) training assignments
    inertia: float  # sum of squared distances to assigned centers

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def predict(self, poses) -> np.ndarray:
        """Nearest-center ids for aligned poses (m, K, 3); ties -> lower id."""
        flat = _flatten(poses, self.centers.shape[1])
        d = _sq_distances(flat, self.centers)
        return np.argmin(d, axis=1)


def _flatten(poses, expect_dim: int | None = None) -> np.ndarray:
    p = np.asarray(poses, dtype=float)
    if p.ndim != 3 or p.shape[2] != 3:
        raise InvariantViolation(f"poses must be (n, K, 3), got {p.shape}")
    flat = p.reshape(p.shape[0], -1)
    if expect_dim is not None and flat.shape[1] != expect_dim:
        raise InvariantViolation(
            f"pose dimension {flat.shape[1]} does not match model {expect_dim}"
        )
    return flat


def _sq_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n, k) between rows of x and c."""
    return ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)


def _plus_plus_seed(flat: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest weighted by the
    squared distance to the nearest already-chosen center."""
    n = flat.shape[0]
    centers = np.empty((k, flat.shape[1]))
    first = int(rng.integers(n))
    centers[0] = flat[first]
    d2 = ((flat - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a center; any choice works.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = flat[idx]
        d2 = np.minimum(d2, ((flat - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_poses(poses, k: int, seed: int = 0) -> ClusterModel:
    """Cluster root-aligned poses with Lloyd's algorithm.

    Runs from a k-means++ start until the assignment vector reaches a
    fixpoint (or 100 iterations). A cluster that loses all members is
    reseeded from the point currently farthest from its assigned center.
    Deterministic given (poses, k, seed).
    """
    flat = _flatten(poses)
    n = flat.shape[0]
    if k < 1:
        raise InvariantViolation("cluster count must be >= 1")
    if n < k:
        raise TooFewPoses(f"{n} poses cannot form {k} clusters")
    rng = np.random.default_rng(seed)
    centers = _plus_plus_seed(flat, k, rng)
    assign = np.full(n, -1)
    for _ in range(_MAX_LLOYD_ITERS):
        d2 = _sq_distances(flat, centers)
        new_assign = np.argmin(d2, axis=1)
        # Reseed empty clusters from the farthest point, one at a time.
        for j in range(k):
            if not np.any(new_assign == j):
                far = int(np.argmax(d2[np.arange(n), new_assign]))
                centers[j] = flat[far]
                d2 = _sq_distances(flat, centers)
                new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = flat[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    d2 = _sq_distances(flat, centers)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return ClusterModel(centers=centers, assignments=assign, inertia=inertia)


def cluster_entropy(counts) -> float:
    """Normalized Shannon entropy of a cluster histogram.

    counts holds per-cluster selection counts (zeros allowed and they do
    count toward k). Entropy is in nats divided by log(k); a single-cluster
    histogram has entropy 0 by convention.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise EmptyCounts("counts must be a non-empty 1-D vector")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise EmptyCounts("counts must be finite and >= 0")
    total = c.sum()
    if total <= 0:
        raise EmptyCounts("counts sum to zero")
    if c.size == 1:
        return 0.0
    p = c / total
    p = p[p > 0]
    h = -(p * np.log(p)).sum()
    return float(h / np.log(c.size))


def batch_entropy(model: ClusterModel, aligned_poses) -> float:
    """Entropy of one selected batch: histogram its poses over the model's
    clusters, then cluster_entropy."""
    labels = model.predict(aligned_poses)
    counts = np.bincount(labels, minlength=model.k)
    return cluster_entropy(counts)


@dataclass(frozen=True)
class CostModel:
    """Linear annotation-time model."""

    minutes_per_frame: float = 1.0
    hours_per_training: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.minutes_per_frame < 0 or self.hours_per_training < 0:
            raise InvariantViolation("cost parameters must be >= 0")


@dataclass(frozen=True)
class CostReport:
    """Hours spent by the campaign vs annotating the same frames in one go."""

    al_hours: float
    conventional_hours: float

    @property
    def overhead_hours(self) -> float:
        return self.al_hours - self.conventional_hours


def cost_report(iterations: int, frames_labeled: int, cost: CostModel = CostModel()) -> CostReport:
    """Total turnaround of `iterations` training rounds plus annotation of
    `frames_labeled` frames, against the conventional baseline that just
    annotates the same frames with no training in the loop."""
    if iterations < 0 or frames_labeled < 0:
        raise InvariantViolation("iterations and frames_labeled must be >= 0")
    annotation = frames_labeled * cost.minutes_per_frame / 60.0
    return CostReport(
        al_hours=annotation + iterations * cost.hours_per_training,
        conventional_hours=annotation,
    )
