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
    local_peaks_stack,
    peak_margin,
    peak_softmax_entropy,
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
    iteration: int = 0

    def check(self):
        if self.labeled & self.unlabeled:
            raise InvariantViolation("labeled and unlabeled sets overlap")
        if not self.pseudo <= self.unlabeled:
            raise InvariantViolation("pseudo-labeled frames must stay unlabeled")
        if self.iteration < 0:
            raise InvariantViolation("iteration must be >= 0")

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


def _frame_peak_values(view_heatmaps, params: PeakParams):
    """Peak value lists for a whole frame's [view][keypoint] heatmaps,
    grouped back per view. One stacked filter pass instead of V*K separate
    ones.

    Accepts nested Heatmap lists, a raw (V, K, H, W) array or
    HeatmapWindows of shape (V, K)."""
    if isinstance(view_heatmaps, HeatmapWindows):
        n_views, k = view_heatmaps.shape
        flat = view_heatmaps
    elif isinstance(view_heatmaps, np.ndarray):
        if view_heatmaps.ndim != 4:
            raise DimensionMismatch(
                f"expected a (V, K, H, W) stack, got shape {view_heatmaps.shape}"
            )
        n_views, k = view_heatmaps.shape[:2]
        flat = view_heatmaps.reshape(-1, *view_heatmaps.shape[2:])
    else:
        if len(view_heatmaps) == 0 or any(len(v) == 0 for v in view_heatmaps):
            raise DimensionMismatch("frame scoring needs heatmaps in every view")
        sizes = {len(v) for v in view_heatmaps}
        if len(sizes) != 1:
            raise DimensionMismatch("every view must have one heatmap per keypoint")
        n_views, k = len(view_heatmaps), sizes.pop()
        flat = [hm for view in view_heatmaps for hm in view]
    peaks = local_peaks_stack(flat, params, values_only=True)
    return [peaks[v * k : (v + 1) * k] for v in range(n_views)]


def score_bsb(frame_id: int, view_heatmaps, params: PeakParams = PeakParams()) -> FrameScore:
    """Frame BSB score: negated mean per-view margin, in [-1, 0].

    view_heatmaps is [view][keypoint] nested Heatmaps. The margin is a
    confidence (1 = single sharp peak), so it is negated here to make the
    score an uncertainty: ambiguous frames score closer to 0.
    """
    per_view = [
        float(np.mean([peak_margin(p) for p in view]))
        for view in _frame_peak_values(view_heatmaps, params)
    ]
    return FrameScore(frame_id=frame_id, strategy="bsb", value=-float(np.mean(per_view)))


def score_mpe(frame_id: int, view_heatmaps, params: PeakParams = PeakParams()) -> FrameScore:
    """Frame MPE score: mean per-view multi-peak entropy, >= 0."""
    per_view = [
        float(np.mean([peak_softmax_entropy(p) for p in view]))
        for view in _frame_peak_values(view_heatmaps, params)
    ]
    return FrameScore(frame_id=frame_id, strategy="mpe", value=float(np.mean(per_view)))


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
    # Min pose distance from each candidate to the labeled set.
    dmin = pose_distances(cand[:, None], labeled[None]).min(axis=1)
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
