"""Synthetic 2D keypoint predictor.

Stands in for a trained detector during simulated annotation campaigns.
Prediction quality is coupled to the state of the labeled pool through two
knobs: the mean distance from a frame's pose to its nearest labeled pose
(poorly covered poses get noisier predictions and more outliers), and the
labeled fraction of the pool (small pools inflate noise by a power law).

All randomness is a pure function of (model seed, iteration, frame id):
every call draws the same fixed layout of random numbers from a counter-
keyed generator, so results are reproducible regardless of evaluation
order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyPool, InvariantViolation, check_field_types
from .geometry import project_many
from .heatmap import (
    HeatmapSpec,
    HeatmapWindows,
    PeakParams,
    gaussian_values_stack,
    peak_windows,
)
from .pose import align_root, as_pose, pose_distances

TWO_PI = 2.0 * np.pi


@dataclass
class NoiseModel:
    """Error behavior of the synthetic predictor.

    Per-keypoint pixel noise is sigma_floor_px + sigma_base_px * coverage
    growth * pool decay, where coverage growth is 1 + d/coverage_scale_mm
    (d = pose_distance to the nearest labeled aligned pose) and pool decay
    is labeled_fraction ** -pool_exponent (pool_exponent=0 turns it off).
    With probability outlier_prob_base * coverage growth (clipped to 1) a
    prediction is displaced by outlier_offset_px in a random direction
    instead of Gaussian noise. Rendered heatmaps gain a half-amplitude
    spurious peak with probability multi_peak_prob.

    Defaults are tuned so that, on the default synthetic dataset, campaign
    outcomes separate the selection strategies and self-training finds
    acceptable frames. Outliers default to off: the outlier coin threshold
    moves with coverage distance, so a frame whose distance shrinks in one
    of two otherwise-identical runs can flip a coin outcome, and one
    flipped 60 px outlier dominates that frame's consistency score. Keeping
    the default at zero keeps paired campaign comparisons stable; set
    outlier_prob_base > 0 to study contaminated predictors.
    """

    sigma_base_px: float = 0.2
    sigma_floor_px: float = 0.1
    coverage_scale_mm: float = 30.0
    pool_exponent: float = 0.35
    outlier_prob_base: float = 0.0
    outlier_offset_px: float = 60.0
    multi_peak_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.sigma_base_px < 0 or self.sigma_floor_px < 0:
            raise InvariantViolation("sigma parameters must be >= 0")
        if self.coverage_scale_mm <= 0:
            raise InvariantViolation("coverage_scale_mm must be positive")
        if self.pool_exponent < 0:
            raise InvariantViolation("pool_exponent must be >= 0")
        if not 0.0 <= self.outlier_prob_base <= 1.0:
            raise InvariantViolation("outlier_prob_base must be in [0, 1]")
        if self.outlier_offset_px < 0:
            raise InvariantViolation("outlier_offset_px must be >= 0")
        if not 0.0 <= self.multi_peak_prob <= 1.0:
            raise InvariantViolation("multi_peak_prob must be in [0, 1]")
        if not 0 <= int(self.seed) < 2**64:
            raise InvariantViolation("seed must fit in an unsigned 64-bit int")


@dataclass
class PoolSummary:
    """What the predictor knows about its training pool.

    aligned_poses are the root-aligned poses the model was "trained" on;
    labeled_fraction is their share of the full training split.
    """

    aligned_poses: np.ndarray  # (L, K, 3)
    labeled_fraction: float
    root_index: int

    def __post_init__(self):
        self.aligned_poses = np.asarray(self.aligned_poses, dtype=float)
        if self.aligned_poses.ndim != 3 or self.aligned_poses.shape[2] != 3:
            raise InvariantViolation(
                f"aligned_poses must be (L, K, 3), got {self.aligned_poses.shape}"
            )
        if self.aligned_poses.shape[0] == 0:
            raise EmptyPool("pool summary needs at least one pose")
        if not np.isfinite(self.aligned_poses).all():
            raise InvariantViolation("aligned_poses must be finite")
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise InvariantViolation(
                f"labeled_fraction {self.labeled_fraction} outside (0, 1]"
            )


def summarize_pool(poses, total_count: int, root_index: int = 0) -> PoolSummary:
    """Build a PoolSummary from raw (unaligned) labeled poses.

    poses is a sequence of (K, 3) arrays; total_count is the size of the
    full training split, so labeled_fraction = len(poses) / total_count.
    """
    if len(poses) == 0:
        raise EmptyPool("cannot summarize an empty labeled pool")
    if total_count < len(poses):
        raise InvariantViolation(
            f"total_count {total_count} smaller than pool size {len(poses)}"
        )
    aligned = align_root(poses, root_index)
    return PoolSummary(
        aligned_poses=aligned,
        labeled_fraction=len(poses) / total_count,
        root_index=root_index,
    )


def prediction_sigma(
    model: NoiseModel, nearest_distance_mm: float, labeled_fraction: float
) -> float:
    """Pixel noise level for a frame at the given pool coverage."""
    growth = 1.0 + nearest_distance_mm / model.coverage_scale_mm
    decay = labeled_fraction ** (-model.pool_exponent)
    return model.sigma_floor_px + model.sigma_base_px * growth * decay


def outlier_probability(model: NoiseModel, nearest_distance_mm: float) -> float:
    """Per-(view, keypoint) chance of an outlier displacement."""
    p = model.outlier_prob_base * (1.0 + nearest_distance_mm / model.coverage_scale_mm)
    return min(1.0, p)


@dataclass
class FramePrediction:
    """Predictor output for one frame.

    points is (n_views, K, 2) pixel coordinates. Heatmaps, one per
    (view, keypoint), are kept as their Gaussian bumps: bumps is a pair of
    layers (maps (L,), centers (L, 2) in grid cells, amplitudes (L,)), the
    keypoint bump of every map and the spurious peaks of some, where map
    m = view * K + keypoint is the sum of its bumps in layer order. bumps
    is None when heatmaps were not requested. heatmap_windows renders only
    the windows that hold their peaks.
    """

    frame_id: int
    points: np.ndarray
    sigma_px: float
    nearest_distance_mm: float
    bumps: tuple | None = None
    spec: HeatmapSpec = HeatmapSpec()


def _render(bumps, spec: HeatmapSpec, maps: np.ndarray, window=None) -> np.ndarray:
    """Values of the given maps, on the full grid or on window cells:
    the keypoint bump, plus the spurious peak where there is one."""
    (_, centers, amplitudes), (ghosted, ghosts, ghost_amplitudes) = bumps
    values = gaussian_values_stack(centers[maps], spec, amplitudes[maps], window)
    slot = np.full(len(centers), -1)
    slot[maps] = np.arange(len(maps))
    on = slot[ghosted] >= 0
    if on.any():
        at = slot[ghosted[on]]
        values[at] += gaussian_values_stack(
            ghosts[on], spec, ghost_amplitudes[on],
            None if window is None else (window[0][at], window[1][at]),
        )
    return values


def heatmap_windows(predictions, params: PeakParams = PeakParams()) -> HeatmapWindows:
    """The predictions' heatmaps as the peaks and windows of peak_windows.

    Returns one HeatmapWindows of shape (frames, views, keypoints): the
    same peak lists as the predictions' full maps, from bit-identical
    values, without rendering the full grids. Only the window groups are
    rendered, all frames together, which amortizes the array calls. Every
    prediction needs its bumps.
    """
    if not predictions or any(fp.bumps is None for fp in predictions):
        raise InvariantViolation("heatmap windows need predictions with heatmaps")
    n_views, n_kp = predictions[0].points.shape[:2]
    n_maps = n_views * n_kp
    spec = predictions[0].spec
    # Frame f's maps are numbered from f * n_maps on.
    bumps = tuple(
        (
            np.concatenate([maps + f * n_maps for f, (maps, _, _) in enumerate(layer)]),
            np.concatenate([centers for _, centers, _ in layer]),
            np.concatenate([amplitudes for _, _, amplitudes in layer]),
        )
        for layer in zip(*(fp.bumps for fp in predictions))
    )
    single, groups = peak_windows(bumps, len(predictions) * n_maps, spec, params)
    groups = [
        (maps, _render(bumps, spec, maps, (rows, cols)), rows, cols)
        for maps, rows, cols in groups
    ]
    return HeatmapWindows((len(predictions), n_views, n_kp), groups, single)


def _frame_rng(model: NoiseModel, iteration: int, frame_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((int(model.seed), int(iteration), int(frame_id)))
    )


def infer(
    frame_id: int,
    pose,
    cameras,
    summary: PoolSummary,
    model: NoiseModel,
    iteration: int,
    spec: HeatmapSpec = HeatmapSpec(),
    image_size: tuple = (1000.0, 1000.0),
    include_heatmaps: bool = True,
    gt2d: np.ndarray | None = None,
) -> FramePrediction:
    """Predict 2D keypoints (and optionally heatmaps) for one frame.

    gt2d, when given, is the precomputed (n_views, K, 2) projection of the
    frame's pose, and any other shape raises DimensionMismatch; otherwise
    it is projected here. The random draw layout is fixed: noise, outlier
    coins, outlier angles, spurious-peak coins, and spurious-peak
    positions are always drawn, in that order, whether or not they end up
    used, so outputs depend only on (seed, iteration, frame_id) and not on
    which outputs the caller requested.
    """
    p = as_pose(pose)
    n_views = len(cameras)
    n_kp = p.shape[0]
    if gt2d is None:
        projections = np.stack([c.projection for c in cameras])
        gt2d = project_many(projections, p)
    gt2d = np.asarray(gt2d, dtype=float)
    if gt2d.shape != (n_views, n_kp, 2):
        raise DimensionMismatch(
            f"gt2d must be ({n_views}, {n_kp}, 2) projections, got {gt2d.shape}"
        )

    aligned = align_root(p, summary.root_index)
    dist = float(pose_distances(summary.aligned_poses, aligned).min())
    sigma = prediction_sigma(model, dist, summary.labeled_fraction)
    p_out = outlier_probability(model, dist)

    rng = _frame_rng(model, iteration, frame_id)
    noise = rng.standard_normal((n_views, n_kp, 2)) * sigma
    outlier_coin = rng.random((n_views, n_kp))
    outlier_angle = rng.random((n_views, n_kp)) * TWO_PI
    spurious_coin = rng.random((n_views, n_kp))
    spurious_pos = rng.random((n_views, n_kp, 2))

    points = gt2d + noise
    is_outlier = outlier_coin < p_out
    offset = model.outlier_offset_px * np.stack(
        [np.cos(outlier_angle), np.sin(outlier_angle)], axis=-1
    )
    points = np.where(is_outlier[..., None], gt2d + offset, points)

    bumps = None
    if include_heatmaps:
        scale = np.array([spec.width / float(image_size[0]), spec.height / float(image_size[1])])
        ghosted = np.flatnonzero(spurious_coin.reshape(-1) < model.multi_peak_prob)
        ghosts = spurious_pos.reshape(-1, 2)[ghosted] * (spec.width, spec.height)
        n_maps = n_views * n_kp
        bumps = (
            (np.arange(n_maps), (points * scale).reshape(-1, 2), np.ones(n_maps)),
            (ghosted, ghosts, np.full(len(ghosted), 0.5)),
        )

    return FramePrediction(
        frame_id=frame_id,
        points=points,
        sigma_px=sigma,
        nearest_distance_mm=dist,
        bumps=bumps,
        spec=spec,
    )
