"""Desk-scale simulator for active-learning annotation campaigns in
multi-view 3D pose estimation.

The package simulates the annotate/train/select loop of a multi-camera
pose-estimation system: a synthetic predictor stands in for the trained
network, robust triangulation turns its 2D predictions into 3D poses, and
selection strategies compete on how fast held-out error drops per
annotated frame. See README.md for the simulation assumptions.
"""

from .analysis import (
    ClusterModel,
    CostModel,
    CostReport,
    batch_entropy,
    cluster_entropy,
    cost_report,
    kmeans_poses,
)
from .campaign import CampaignResult, report_csv_text, run, run_campaign
from .config import CampaignConfig, SelfTrainingConfig, config_from_dict, load_config
from .dataset import (
    Dataset,
    Frame,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    ring_cameras,
    save_dataset,
)
from .errors import AnnosimError
from .geometry import (
    CameraParams,
    FrameTriangulation,
    KeypointTriangulation,
    project,
    robust_triangulate,
    triangulate_dlt,
    triangulate_frames,
)
from .heatmap import (
    Heatmap,
    HeatmapSpec,
    PeakParams,
    dense_windows,
    local_peaks_stack,
    mpe_view,
)
from .pose import align_root, keypoint_errors, pose_distance
from .predictor import NoiseModel, PoolSummary, infer, summarize_pool
from .pseudolabel import DriftSummary, PseudoLabel, drift_stats, select_pseudo_labels
from .selection import FrameScore, PoolState, score_bsb, score_mpe, select_batch

__version__ = "0.1.0"

__all__ = [
    "AnnosimError",
    "CameraParams",
    "CampaignConfig",
    "CampaignResult",
    "ClusterModel",
    "CostModel",
    "CostReport",
    "Dataset",
    "DriftSummary",
    "Frame",
    "FrameScore",
    "FrameTriangulation",
    "Heatmap",
    "HeatmapSpec",
    "KeypointTriangulation",
    "NoiseModel",
    "PeakParams",
    "PoolState",
    "PoolSummary",
    "PseudoLabel",
    "SelfTrainingConfig",
    "SyntheticSpec",
    "align_root",
    "batch_entropy",
    "cluster_entropy",
    "config_from_dict",
    "cost_report",
    "dense_windows",
    "drift_stats",
    "generate_synthetic",
    "infer",
    "keypoint_errors",
    "kmeans_poses",
    "load_config",
    "load_dataset",
    "local_peaks_stack",
    "mpe_view",
    "pose_distance",
    "project",
    "report_csv_text",
    "ring_cameras",
    "robust_triangulate",
    "run",
    "run_campaign",
    "save_dataset",
    "score_bsb",
    "score_mpe",
    "select_batch",
    "select_pseudo_labels",
    "summarize_pool",
    "triangulate_dlt",
    "triangulate_frames",
]
