"""Active-learning frame selection.

Five strategies over an unlabeled pool:

- rand: uniform sample without replacement (baseline).
- bsb: negated best-vs-second-best heatmap margin (uncertainty).
- mpe: multi-peak softmax entropy (uncertainty).
- coreset: greedy k-center on root-aligned predicted poses (diversity).
- mvc: frame-level multi-view reprojection residual (consistency).

Selection is a greedy argmax loop over a per-frame score; for the static
scores (bsb, mpe, mvc) this reduces to taking the top of the ranking, while
coreset rescores after every pick. Ties always break toward the lower frame
id, so selection is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceedsPool,
    DimensionMismatch,
    EmptyPool,
    InvariantViolation,
)
from .heatmap import (
    HeatmapWindows,
    PeakParams,
    dense_windows,
    local_peaks_stack,
    peak_entropies,
    peak_margins,
)
from .pose import pose_distances

STRATEGIES = ("rand", "bsb", "mpe", "coreset", "mvc")


@dataclass
class PoolState:
    """Partition of the training split into labeled and unlabeled frames.

    pseudo tracks the unlabeled frames currently carrying pseudo-labels;
    they stay in the unlabeled set but are excluded from selection until
    the next iteration.
    """

    labeled: set = field(default_factory=set)
    unlabeled: set = field(default_factory=set)
    pseudo: set = field(default_factory=set)

    def check(self):
        if self.labeled & self.unlabeled:
            raise InvariantViolation("labeled and unlabeled sets overlap")
        if not self.pseudo <= self.unlabeled:
            raise InvariantViolation("pseudo-labeled frames must stay unlabeled")

    def candidates(self) -> list:
        """Frames eligible for annotation this iteration, ascending id."""
        return sorted(self.unlabeled - self.pseudo)

    def annotate(self, frame_ids):
        """Move frames from unlabeled to labeled; labeled only ever grows."""
        ids = set(frame_ids)
        if not ids <= self.unlabeled - self.pseudo:
            raise InvariantViolation(
                "can only annotate currently unlabeled, non-pseudo frames"
            )
        self.labeled |= ids
        self.unlabeled -= ids
        self.check()


@dataclass(frozen=True)
class FrameScore:
    """One frame's selection score under one strategy (higher = pick first)."""

    frame_id: int
    strategy: str
    value: float

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvariantViolation(f"unknown strategy {self.strategy!r}")
        if not np.isfinite(self.value):
            raise InvariantViolation(
                f"frame {self.frame_id}: score must be finite, got {self.value}"
            )


def _frame_means(frame_ids, heatmaps, params: PeakParams, per_map) -> tuple:
    """Mean over views of the mean over keypoints of per_map (peak_margins
    or peak_entropies) for each frame's maps, all maps searched by one
    local_peaks_stack.

    frame_ids is a sequence of F ids for a chunk of frames, whose heatmaps
    are HeatmapWindows of shape (F, V, K), or a single id for one frame,
    whose heatmaps are nested [view][keypoint] Heatmaps or 2-D arrays,
    which go through dense_windows. Returns (whether frame_ids is a
    single id, the ids as a list, the (F,) means).
    """
    one = np.ndim(frame_ids) == 0
    ids = [frame_ids] if one else list(frame_ids)
    if one and not isinstance(heatmaps, (HeatmapWindows, np.ndarray)):
        sizes = {len(view) for view in heatmaps}
        if len(sizes) != 1 or 0 in sizes:
            raise DimensionMismatch("every view must have one heatmap per keypoint")
        flat = [hm for view in heatmaps for hm in view]
        heatmaps = dense_windows(flat, (1, len(heatmaps), sizes.pop()))
    elif one or not isinstance(heatmaps, HeatmapWindows):
        raise DimensionMismatch(
            "a chunk of frames is scored from HeatmapWindows, one frame from "
            "[view][keypoint] Heatmaps"
        )
    shape = heatmaps.shape
    if len(shape) != 3 or shape[0] != len(ids):
        raise DimensionMismatch(
            f"{len(ids)} frames need (frames, views, keypoints) maps, got leading shape {shape}"
        )
    values = per_map(local_peaks_stack(heatmaps, params)).reshape(shape)
    return one, ids, values.mean(axis=2).mean(axis=1)


def score_bsb(frame_ids, heatmaps, params: PeakParams = PeakParams()):
    """BSB scores: each frame's negated mean per-view margin, in [-1, 0].

    One FrameScore per frame of a chunk, or one FrameScore for a single
    frame id (_frame_means says which heatmaps go with which). The margin
    is a confidence (1 = single sharp peak), so it is negated here to
    make the score an uncertainty: ambiguous frames score closer to 0.
    """
    one, ids, means = _frame_means(frame_ids, heatmaps, params, peak_margins)
    scores = [FrameScore(fid, "bsb", -m) for fid, m in zip(ids, means.tolist())]
    return scores[0] if one else scores


def score_mpe(frame_ids, heatmaps, params: PeakParams = PeakParams()):
    """MPE scores: each frame's mean per-view multi-peak entropy, >= 0.
    Called as score_bsb is."""
    one, ids, means = _frame_means(frame_ids, heatmaps, params, peak_entropies)
    scores = [FrameScore(fid, "mpe", m) for fid, m in zip(ids, means.tolist())]
    return scores[0] if one else scores


def _aligned_stack(pose_map, ids) -> np.ndarray:
    try:
        return np.stack([np.asarray(pose_map[i], dtype=float) for i in ids])
    except KeyError as exc:
        raise InvariantViolation(f"missing pose for candidate frame {exc}") from exc


def _coreset_select(candidate_ids, candidate_poses, labeled_poses, budget) -> list:
    """Greedy k-center: repeatedly pick the candidate farthest from the
    labeled set plus prior picks, updating min-distances incrementally."""
    ids = np.asarray(candidate_ids)
    cand = _aligned_stack(candidate_poses, candidate_ids)  # (C, K, 3)
    labeled = np.asarray(labeled_poses, dtype=float)  # (L, K, 3)
    if labeled.ndim != 3 or labeled.shape[0] == 0:
        raise EmptyPool("coreset selection needs a non-empty labeled set")
    if labeled.shape[1:] != cand.shape[1:]:
        raise DimensionMismatch(
            f"labeled poses {labeled.shape} vs candidates {cand.shape}"
        )
    # Min pose distance from each candidate to the labeled set, one labeled
    # pose at a time: transients stay (C, K, 3), not (C, L, K, 3).
    dmin = pose_distances(cand, labeled[0])
    for pose in labeled[1:]:
        np.minimum(dmin, pose_distances(cand, pose), out=dmin)
    picked = []
    for _ in range(budget):
        # ids ascend, so the first argmax is the lowest-id tie winner.
        best = int(np.argmax(dmin))
        picked.append(int(ids[best]))
        dnew = pose_distances(cand, cand[best])
        dmin = np.minimum(dmin, dnew)
        dmin[best] = -np.inf
    return picked


def select_batch(
    strategy: str,
    pool: PoolState,
    budget: int,
    scores=None,
    candidate_poses=None,
    labeled_poses=None,
    seed=None,
) -> list:
    """Pick `budget` frames to annotate; returns ids in pick order.

    rand needs `seed`; bsb/mpe/mvc need `scores` (a mapping from frame id
    to a float score covering every candidate); coreset needs
    root-aligned predicted poses for candidates (mapping) and the labeled
    set (stack). Pseudo-labeled frames are never candidates.
    """
    if strategy not in STRATEGIES:
        raise InvariantViolation(f"unknown strategy {strategy!r}")
    pool.check()
    candidates = pool.candidates()
    if budget < 0:
        raise InvariantViolation("budget must be >= 0")
    if budget > len(candidates):
        raise BudgetExceedsPool(
            f"budget {budget} exceeds {len(candidates)} candidates"
        )
    if budget == 0:
        return []

    if strategy == "rand":
        if seed is None:
            raise InvariantViolation("rand selection needs a seed")
        key = tuple(int(s) for s in np.atleast_1d(seed))
        # Priority sampling: every candidate draws an independent uniform
        # keyed by (seed, frame id) and the lowest priorities win. This is
        # a uniform random subset, and removing a few candidates (e.g. the
        # pseudo-labeled frames) leaves all other draws untouched, so
        # paired runs differing only in those frames stay aligned.
        pri = {
            f: np.random.default_rng(np.random.SeedSequence(key + (f,))).random()
            for f in candidates
        }
        ranked = sorted(candidates, key=lambda f: (pri[f], f))
        return ranked[:budget]

    if strategy == "coreset":
        if candidate_poses is None or labeled_poses is None:
            raise InvariantViolation("coreset selection needs candidate and labeled poses")
        return _coreset_select(candidates, candidate_poses, labeled_poses, budget)

    if scores is None:
        raise InvariantViolation(f"{strategy} selection needs per-frame scores")
    values = {}
    for fid in candidates:
        if fid not in scores:
            raise InvariantViolation(f"missing score for candidate frame {fid}")
        values[fid] = float(scores[fid])
        if not np.isfinite(values[fid]):
            raise InvariantViolation(f"frame {fid}: score must be finite")
    ranked = sorted(candidates, key=lambda fid: (-values[fid], fid))
    return ranked[:budget]
