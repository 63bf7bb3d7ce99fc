"""Annotation-campaign driver, and the report format it writes and reads back.

One campaign = one dataset, one strategy, one seed. Each iteration:

1. infer 2D keypoints (and heatmap scores when the strategy needs them)
   for the whole unlabeled pool with the current predictor state,
2. robustly triangulate every unlabeled frame,
3. optionally promote the most consistent frames to pseudo-labels,
4. select a batch to annotate and move it to the labeled set; what each
   strategy needs for that is one entry of STRATEGY_TABLE,
5. recompute the predictor's pool summary ("retraining"),
6. evaluate MKPE on the held-out split from fresh predictions.

All randomness is keyed by (campaign seed, iteration, frame id), and the
per-frame inference work is order-independent, so reports are byte-stable
for a given config and seed regardless of worker count. The initial
labeled set depends only on the seed, never the strategy, so strategies
are compared from identical starting pools.
"""

from __future__ import annotations

import dataclasses
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import batch_entropy, cost_report, kmeans_poses
from .config import CampaignConfig, save_resolved
from .dataset import Dataset, load_dataset
from .errors import (
    IllConditioned, InsufficientViews, InvariantViolation, NoConsensus, ParseError
)
from .fileio import write_text
from .geometry import project_many, triangulate_dlt, triangulate_frames
from .pose import align_root, keypoint_errors
from .predictor import NoiseModel, PoolSummary, heatmap_windows, infer, summarize_pool
from .pseudolabel import DriftSummary, PseudoLabel, drift_stats, select_pseudo_labels
from .selection import PoolState, score_bsb, score_mpe, select_batch

# Frames per heatmap-scoring chunk: large enough to amortize the array
# calls, small enough that the windows stay a few MB.
SCORE_CHUNK = 32


@dataclass
class IterationRow:
    """One report row; None fields serialize as empty CSV cells."""

    iteration: int
    labeled_count: int
    labeled_fraction: float
    mkpe_mm: float
    mean_epsilon: float | None
    pseudo_count: int
    pseudo_drift_mean_mm: float | None
    entropy: float
    hours_elapsed: float


# Report columns are IterationRow's fields in order. A cell parses with
# int or float by the field's annotation; an empty cell is None, and only
# the `| None` fields may be empty.
_REPORT_FIELDS = tuple(
    (f.name, int if f.type == "int" else float, f.type.endswith("| None"))
    for f in dataclasses.fields(IterationRow)
)
CSV_COLUMNS = tuple(name for name, _, _ in _REPORT_FIELDS)
_REPORT_NAME = re.compile(r"report_seed(\d+)\.csv")


@dataclass
class IterationDetail:
    """Instrumentation kept out of the CSV: selection sets, drift, timing."""

    iteration: int
    selected: list
    pseudo: list  # PseudoLabel entries chosen this iteration
    pseudo_all_views_inliers: bool
    drift: DriftSummary
    unlabeled_mkpe_mm: float
    eval_skipped_keypoints: int
    wall_seconds: float


@dataclass
class CampaignResult:
    strategy: str | None  # None for a result read back from a report
    seed: int | None
    rows: list
    details: list

    def pseudo_id_history(self) -> list:
        """Per-iteration pseudo-label id sets, for schedule checks."""
        return [set(p.frame_id for p in d.pseudo) for d in self.details]


def _mix_model_seed(noise: NoiseModel, campaign_seed: int) -> NoiseModel:
    """Derive the per-campaign predictor seed from the noise seed and the
    campaign seed, so different seeds get independent noise streams."""
    mixed = int(
        np.random.SeedSequence([int(noise.seed), int(campaign_seed)]).generate_state(
            1, np.uint64
        )[0]
    )
    return dataclasses.replace(noise, seed=mixed)


class _Runtime:
    """Per-campaign immutable context shared by the iteration steps."""

    def __init__(self, dataset: Dataset, config: CampaignConfig, seed: int):
        self.dataset = dataset
        self.config = config
        self.seed = int(seed)
        self.cameras = dataset.cameras
        self.n_views = len(dataset.cameras)
        self.kp = dataset.keypoint_count
        self.train_ids = sorted(dataset.train_ids)
        self.heldout_ids = sorted(dataset.heldout_ids)
        if not self.heldout_ids:
            raise InvariantViolation("the held-out split is empty")
        self.image_size = dataset.image_size()
        self.penalty_px2 = self.image_size[0] ** 2 + self.image_size[1] ** 2
        self.model = _mix_model_seed(config.noise, seed)

        if config.cs_root_index >= self.kp:
            raise InvariantViolation(
                f"cs_root_index {config.cs_root_index} outside pose of {self.kp} keypoints"
            )
        if config.analysis.root_index >= self.kp:
            raise InvariantViolation(
                f"analysis.root_index {config.analysis.root_index} outside pose"
            )
        need = config.init_labeled + config.iterations * config.batch_per_iter
        if need > len(self.train_ids):
            raise InvariantViolation(
                f"budget needs {need} train frames, split has {len(self.train_ids)}"
            )

        # Ground-truth projections for every frame, computed once.
        projections = np.stack([c.projection for c in self.cameras])
        order = sorted(f.id for f in dataset.frames)
        self._index = {fid: i for i, fid in enumerate(order)}
        all_poses = dataset.poses(order)
        self._gt2d = project_many(projections, all_poses)  # (V, F, K, 2)
        if not np.all(np.isfinite(self._gt2d)):
            raise InvariantViolation("a ground-truth keypoint projects degenerately")

        # Fixed clustering of the train split for the entropy diagnostic.
        aligned = align_root(dataset.poses(self.train_ids), config.analysis.root_index)
        self.cluster_model = kmeans_poses(
            aligned, config.analysis.clusters, seed=config.analysis.seed
        )

    def gt2d(self, frame_id: int) -> np.ndarray:
        return self._gt2d[:, self._index[frame_id]]

    def gt_pose(self, frame_id: int) -> np.ndarray:
        return self.dataset.frame(frame_id).pose

    def selection_entropy(self, frame_ids) -> float:
        aligned = align_root(self.dataset.poses(frame_ids), self.config.analysis.root_index)
        return batch_entropy(self.cluster_model, aligned)

    def infer_frames(self, frame_ids, summary, iteration, scorer=None):
        """Predict all frames; returns (points (F, V, K, 2), score map).

        scorer is a heatmap scorer (score_bsb or score_mpe) to also compute
        each frame's heatmap score, which is the only part that needs
        rendering; it scores chunks of SCORE_CHUNK frames, and with more
        than one worker the chunks are spread over a thread pool. Without
        it every score is None. Inference runs in the calling thread: it is
        per-frame Python that holds the GIL, and threading it measured
        slower. Per-frame results depend only on the frame key, so the
        output is identical for any worker count.
        """
        cfg = self.config
        ids = list(frame_ids)
        preds = [
            infer(
                fid,
                self.gt_pose(fid),
                self.cameras,
                summary,
                self.model,
                iteration,
                spec=cfg.heatmap,
                image_size=self.image_size,
                include_heatmaps=scorer is not None,
                gt2d=self.gt2d(fid),
            )
            for fid in ids
        ]
        points = np.stack([fp.points for fp in preds]) if ids else np.empty(
            (0, self.n_views, self.kp, 2)
        )
        if scorer is None:
            return points, dict.fromkeys(ids)

        def score(chunk):
            chunk_ids = [fp.frame_id for fp in chunk]
            return scorer(chunk_ids, heatmap_windows(chunk, cfg.peaks), cfg.peaks)

        chunks = [preds[i : i + SCORE_CHUNK] for i in range(0, len(preds), SCORE_CHUNK)]
        if cfg.workers > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                scored = list(pool.map(score, chunks))
        else:
            scored = [score(chunk) for chunk in chunks]
        return points, {s.frame_id: s.value for chunk in scored for s in chunk}

    def triangulate(self, points):
        return triangulate_frames(
            self.cameras,
            points,
            threshold_px=self.config.ransac_threshold_px,
            mc_error=self.config.mc_error,
            failure_penalty_px2=self.penalty_px2,
            workers=self.config.workers,
        )

    def predicted_poses(self, fts, points) -> np.ndarray:
        """Best-effort (F, K, 3) predicted poses of triangulated frames
        with their (F, V, K, 2) predictions: robust points, with an
        all-view DLT fill-in for each keypoint that lost consensus, in
        row-major (frame, keypoint) order. The fill-ins go into a copy:
        ft.points are read-only views. A keypoint DLT cannot resolve
        stays NaN."""
        poses = np.array([ft.points for ft in fts], dtype=float).reshape(-1, self.kp, 3)
        for f, k in zip(*np.nonzero(np.isnan(poses[..., 0]))):
            try:
                poses[f, k] = triangulate_dlt(list(zip(self.cameras, points[f, :, k])))
            except (InsufficientViews, IllConditioned):
                pass
        return poses

    def aligned_predicted_poses(self, fts, points) -> np.ndarray:
        """predicted_poses, root-aligned. Unresolved keypoints sit at the
        origin so distances stay finite; a pose whose root is unresolved
        is all zeros."""
        aligned = align_root(self.predicted_poses(fts, points), self.config.cs_root_index)
        aligned[np.isnan(aligned[..., 0])] = 0.0
        return aligned

    def evaluate_mkpe(self, summary, iteration) -> tuple:
        """Held-out MKPE from fresh predictions: (mm, skipped keypoints).

        The mean pools every resolved keypoint in held-out order. Raises
        NoConsensus when no held-out keypoint resolves, even by DLT fill-in.
        """
        points, _ = self.infer_frames(self.heldout_ids, summary, iteration)
        fts = self.triangulate(points)
        errors = keypoint_errors(
            self.predicted_poses(fts, points), self.dataset.poses(self.heldout_ids)
        )
        valid = ~np.isnan(errors)
        if not valid.any():
            raise NoConsensus("held-out evaluation produced no keypoints")
        return float(errors[valid].mean()), int((~valid).sum())


def _unlabeled_mkpe(runtime, frame_ids, fts) -> float:
    """Mean over frames of the per-frame triangulation MKPE (valid
    keypoints only); the benchmark pseudo-label drift is measured the same
    way, so the two are directly comparable."""
    errors = keypoint_errors([ft.points for ft in fts], runtime.dataset.poses(frame_ids))
    per_frame = [row[~np.isnan(row)].mean() for row in errors if not np.isnan(row).all()]
    return float(np.mean(per_frame)) if per_frame else float("nan")


@dataclass
class _Selection:
    """What an iteration has computed by the time it selects its batch."""

    rt: _Runtime
    pool: PoolState
    iteration: int
    summary: PoolSummary
    scores: dict  # unlabeled frame id -> heatmap score, or None
    fts: dict  # unlabeled frame id -> FrameTriangulation
    points: dict  # unlabeled frame id -> (V, K, 2) predictions


def _mvc_inputs(s: _Selection) -> dict:
    return {"scores": {f: s.fts[f].epsilon for f in s.pool.candidates()}}


def _coreset_inputs(s: _Selection) -> dict:
    """Root-aligned predicted poses of the labeled set, predicted afresh
    by this iteration's model, and of the candidates."""
    rt = s.rt
    lab_points, _ = rt.infer_frames(sorted(s.pool.labeled), s.summary, s.iteration)
    labeled = rt.aligned_predicted_poses(rt.triangulate(lab_points), lab_points)
    candidates = s.pool.candidates()
    cand_poses = rt.aligned_predicted_poses(
        [s.fts[f] for f in candidates], np.array([s.points[f] for f in candidates])
    )
    return {"labeled_poses": labeled, "candidate_poses": dict(zip(candidates, cand_poses))}


# The strategy table. Per strategy: a thunk giving the heatmap scorer that
# infer_frames runs on the unlabeled pool (None: no heatmaps), and the
# select_batch keyword arguments of one iteration. Both look campaign
# attributes up when they run, not when the table is built, so a wrapper
# installed on one of them (score_bsb, infer, triangulate_frames, ...) is
# the function that runs.
STRATEGY_TABLE = {
    "rand": (lambda: None, lambda s: {"seed": (s.rt.seed, s.iteration)}),
    "bsb": (lambda: score_bsb, lambda s: {"scores": s.scores}),
    "mpe": (lambda: score_mpe, lambda s: {"scores": s.scores}),
    "coreset": (lambda: None, _coreset_inputs),
    "mvc": (lambda: None, _mvc_inputs),
}


def run_campaign(dataset: Dataset, config: CampaignConfig, seed: int) -> CampaignResult:
    """Execute one campaign and return its rows and instrumentation."""
    rt = _Runtime(dataset, config, seed)
    cfg = config
    n_train = len(rt.train_ids)

    # Initial pool: seed-determined, strategy-independent.
    init_rng = np.random.default_rng(np.random.SeedSequence((rt.seed, 0)))
    picked = init_rng.choice(n_train, size=cfg.init_labeled, replace=False)
    initial = sorted(rt.train_ids[i] for i in picked)
    pool = PoolState(
        labeled=set(initial),
        unlabeled=set(rt.train_ids) - set(initial),
        pseudo=set(),
        iteration=0,
    )
    pool.check()

    def retrain(pseudo_points):
        poses = [rt.gt_pose(f) for f in sorted(pool.labeled)]
        poses += [pseudo_points[f] for f in sorted(pseudo_points)]
        return summarize_pool(poses, n_train, root_index=cfg.cs_root_index)

    summary = retrain({})
    mkpe0, skipped0 = rt.evaluate_mkpe(summary, iteration=0)
    rows = [
        IterationRow(
            iteration=0,
            labeled_count=len(pool.labeled),
            labeled_fraction=len(pool.labeled) / n_train,
            mkpe_mm=mkpe0,
            mean_epsilon=None,
            pseudo_count=0,
            pseudo_drift_mean_mm=None,
            entropy=rt.selection_entropy(initial),
            hours_elapsed=cost_report(0, len(pool.labeled), cfg.cost).al_hours,
        )
    ]
    details = []
    prev_pseudo = set()
    scorer_of, inputs_of = STRATEGY_TABLE[cfg.strategy]

    for iteration in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        pool.iteration = iteration
        unlabeled = sorted(pool.unlabeled)
        points, scores = rt.infer_frames(unlabeled, summary, iteration, scorer_of())
        fts = rt.triangulate(points)
        ft_map = dict(zip(unlabeled, fts))
        pts_map = dict(zip(unlabeled, points))
        mean_eps = float(np.mean([ft.epsilon for ft in fts]))

        # Self-training: promote consistent frames before selecting.
        pseudo_entries = []
        pseudo_points = {}
        drift = DriftSummary(0, float("nan"), float("nan"), float("nan"))
        amount = cfg.pseudo_amount() if cfg.st.enabled else 0
        if amount > 0:
            chosen = select_pseudo_labels(
                pool, prev_pseudo, amount, ft_map, rt.n_views, cfg.st.variant
            )
            pool.pseudo = set(chosen)
            pool.check()
            pseudo_entries = [
                PseudoLabel(fid, ft_map[fid].points, ft_map[fid].epsilon, iteration)
                for fid in chosen
            ]
            pseudo_points = {p.frame_id: p.points for p in pseudo_entries}
            drift = drift_stats(
                pseudo_points, {f: rt.gt_pose(f) for f in pseudo_points}
            )
        else:
            pool.pseudo = set()

        # Active-learning selection over the remaining candidates.
        inputs = inputs_of(
            _Selection(rt, pool, iteration, summary, scores, ft_map, pts_map)
        )
        batch = select_batch(cfg.strategy, pool, cfg.batch_per_iter, **inputs)
        pool.annotate(batch)

        summary = retrain(pseudo_points)
        mkpe_i, skipped = rt.evaluate_mkpe(summary, iteration)
        all_inliers = all(
            ft_map[f].inlier_count == rt.n_views for f in pseudo_points
        )
        rows.append(
            IterationRow(
                iteration=iteration,
                labeled_count=len(pool.labeled),
                labeled_fraction=len(pool.labeled) / n_train,
                mkpe_mm=mkpe_i,
                mean_epsilon=mean_eps,
                pseudo_count=len(pseudo_points),
                pseudo_drift_mean_mm=drift.mean_mm if drift.count else None,
                entropy=rt.selection_entropy(batch),
                hours_elapsed=cost_report(iteration, len(pool.labeled), cfg.cost).al_hours,
            )
        )
        details.append(
            IterationDetail(
                iteration=iteration,
                selected=list(batch),
                pseudo=pseudo_entries,
                pseudo_all_views_inliers=all_inliers,
                drift=drift,
                unlabeled_mkpe_mm=_unlabeled_mkpe(rt, unlabeled, fts),
                eval_skipped_keypoints=skipped,
                wall_seconds=time.perf_counter() - t0,
            )
        )
        prev_pseudo = set(pseudo_points)

    return CampaignResult(strategy=cfg.strategy, seed=rt.seed, rows=rows, details=details)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def report_csv_text(result: CampaignResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in result.rows:
        lines.append(",".join(_cell(getattr(r, name)) for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def read_report(text: str, path="report") -> CampaignResult:
    """The rows of a report_csv_text report, cell for cell: its inverse.

    The report records neither strategy nor seed, so both are None, and
    there are no details. A wrong header, a wrong cell count or a cell
    that does not parse as its column's number raises ParseError naming
    `path` and the line.
    """
    lines = text.splitlines()
    header = ",".join(CSV_COLUMNS)
    if not lines or lines[0] != header:
        raise ParseError(f"{path} line 1: the header is not {header}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ParseError(
                f"{path} line {number}: {len(cells)} cells, expected {len(CSV_COLUMNS)}"
            )
        values = {}
        for cell, (name, parse, optional) in zip(cells, _REPORT_FIELDS):
            try:
                values[name] = None if optional and cell == "" else parse(cell)
            except ValueError:
                raise ParseError(
                    f"{path} line {number}: {name} cell {cell!r} is not a number"
                ) from None
        rows.append(IterationRow(**values))
    return CampaignResult(strategy=None, seed=None, rows=rows, details=[])


def read_reports(run_dir) -> list:
    """The report_seed<N>.csv reports of a run directory, read with
    read_report, in file-name order, each with its seed set. Raises
    ParseError when the directory holds none."""
    found = sorted(
        (name, int(m.group(1)))
        for name in os.listdir(run_dir)
        if (m := _REPORT_NAME.fullmatch(name))
    )
    if not found:
        raise ParseError(f"no report_seed*.csv files in {run_dir}")
    results = []
    for name, seed in found:
        path = os.path.join(run_dir, name)
        try:
            with open(path, encoding="utf-8") as fh:
                result = read_report(fh.read(), path)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
        result.seed = seed
        results.append(result)
    return results


def seed_aggregate(results) -> list:
    """Per iteration across the results' seeds, in result order:
    (iteration, labeled_count, MKPE mean, MKPE sample variance or None
    for one seed). Raises InvariantViolation when the results' row counts
    or one iteration's labeled counts differ."""
    if not results:
        raise InvariantViolation("aggregate of zero campaign results")
    n_rows = {len(r.rows) for r in results}
    if len(n_rows) != 1:
        raise InvariantViolation("campaign results have differing row counts")
    out = []
    for i in range(n_rows.pop()):
        rows = [r.rows[i] for r in results]
        counts = {r.labeled_count for r in rows}
        if len(counts) != 1:
            raise InvariantViolation("labeled counts differ across seeds")
        vals = np.array([r.mkpe_mm for r in rows])
        var = float(vals.var(ddof=1)) if len(vals) > 1 else None
        out.append((rows[0].iteration, counts.pop(), float(vals.mean()), var))
    return out


def aggregate_csv_text(results) -> str:
    """Across-seed mean and sample variance of MKPE per iteration."""
    lines = ["iteration,labeled_count,mkpe_mean_mm,mkpe_var_mm2"]
    for iteration, count, mean, var in seed_aggregate(results):
        lines.append(f"{iteration},{count},{mean!r},{'' if var is None else repr(var)}")
    return "\n".join(lines) + "\n"


def run(config: CampaignConfig, out_dir) -> list:
    """Run the configured campaign for every seed and write the run
    directory: resolved config, one report CSV per seed, and the
    across-seed aggregate. Each file is written atomically, so an
    interrupted run leaves either a complete file or the earlier one.
    Returns the CampaignResult list. A run directory holds one run: a
    report there that this run would not overwrite raises
    InvariantViolation before anything is written."""
    if os.path.isdir(out_dir):
        ours = {f"report_seed{seed}.csv" for seed in config.seeds}
        for name in sorted(os.listdir(out_dir)):
            if _REPORT_NAME.fullmatch(name) and name not in ours:
                raise InvariantViolation(
                    f"{os.path.join(out_dir, name)} is a report of an earlier run that "
                    "this run would not overwrite; use another --out directory"
                )
    dataset = load_dataset(config.dataset)
    os.makedirs(out_dir, exist_ok=True)
    save_resolved(config, os.path.join(out_dir, "config.yaml"))
    results = []
    for seed in config.seeds:
        result = run_campaign(dataset, config, seed)
        path = os.path.join(out_dir, f"report_seed{seed}.csv")
        write_text(path, report_csv_text(result))
        results.append(result)
    write_text(os.path.join(out_dir, "aggregate.csv"), aggregate_csv_text(results))
    return results
