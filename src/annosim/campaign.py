"""Annotation-campaign driver, and the report format it writes and reads back.

One campaign = one dataset, one strategy, one seed. Each iteration:

1. predict the whole unlabeled pool with the current predictor state:
   infer 2D keypoints (and heatmap scores when the strategy needs them)
   and robustly triangulate every frame, chunk by chunk (_Runtime.predict),
2. read the pool's cross-view consistency off that triangulation,
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

import concurrent.futures
import dataclasses
import functools
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from . import geometry
from .analysis import batch_entropy, cost_report, kmeans_poses
from .config import CampaignConfig, save_resolved
from .dataset import Dataset, load_dataset
from .errors import InvariantViolation, NoConsensus, ParseError
from .fileio import write_text
from .geometry import project_many, triangulate_dlt_many, triangulate_frames
from .pose import align_root, keypoint_errors
from .predictor import NoiseModel, PoolSummary, heatmap_windows, infer, summarize_pool
from .pseudolabel import DriftSummary, PseudoLabel, drift_stats, select_pseudo_labels
from .selection import PoolState, score_bsb, score_mpe, select_batch

# perfbench/tracing.py times and counts DLT fill-ins by wrapping this
# module's triangulate_dlt. The campaign fills in through
# triangulate_dlt_many now, so the name stays only for the tracer, whose
# dlt_fill metrics read zero until it counts the batched solve.
triangulate_dlt = geometry.triangulate_dlt

# Keypoints per prediction chunk at most: the one bound on the work of a
# chunk task, whose triangulation solves the chunk's keypoints in one
# batch. That batch's transient arrays, the pair hypotheses above all,
# grow with it: the five passes of a two-iteration bsb campaign on the
# default scene raised a process's peak memory by 11.2 MiB in chunks of
# 4,096 keypoints and by 8.0 MiB in chunks of 1,024.
CHUNK_KEYPOINTS = 1024

# Frames per heatmap-scoring sub-chunk of a prediction chunk: large
# enough to amortize the array calls, small enough that the windows stay
# a few MB.
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
    pseudo: list  # PseudoLabel entries chosen this iteration, in frame-id order
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


def _check_config(dataset: Dataset, config: CampaignConfig) -> None:
    """Raise InvariantViolation when the config does not fit the dataset:
    an empty held-out split, a root index outside the pose, a budget
    beyond the train split, more entropy clusters than train frames or a
    ground-truth keypoint on a camera's principal plane. run checks
    before it writes anything, and every campaign again."""
    n_train = len(dataset.train_ids)
    if not dataset.heldout_ids:
        raise InvariantViolation("the held-out split is empty")
    if config.cs_root_index >= dataset.keypoint_count:
        raise InvariantViolation(
            f"cs_root_index {config.cs_root_index} outside pose of "
            f"{dataset.keypoint_count} keypoints"
        )
    if config.analysis.root_index >= dataset.keypoint_count:
        raise InvariantViolation(
            f"analysis.root_index {config.analysis.root_index} outside pose"
        )
    # Pseudo-labelled frames are not candidates, so the last selection
    # also needs room beside the largest pseudo set: one iteration's
    # amount, or every iteration's under enlarge, which keeps them all.
    pseudo = config.pseudo_amount() if config.st.enabled else 0
    pseudo *= config.iterations if config.st.variant == "enlarge" else min(config.iterations, 1)
    need = config.init_labeled + config.iterations * config.batch_per_iter + pseudo
    if need > n_train:
        raise InvariantViolation(
            f"budget needs {need} train frames ({pseudo} of them pseudo-labelled), "
            f"split has {n_train}"
        )
    if config.analysis.clusters > n_train:
        raise InvariantViolation(
            f"analysis.clusters {config.analysis.clusters} exceeds the "
            f"{n_train} train frames"
        )
    # Each chunk task projects its own frames' poses, none of which may
    # lie on a camera's principal plane.
    projections = np.stack([c.projection for c in dataset.cameras])
    poses = dataset.poses([f.id for f in dataset.frames])
    if not np.isfinite(project_many(projections, poses)).all():
        raise InvariantViolation("a ground-truth keypoint projects degenerately")


class _Runtime:
    """Per-campaign immutable context shared by the iteration steps."""

    def __init__(self, dataset: Dataset, config: CampaignConfig, seed: int):
        _check_config(dataset, config)
        self.dataset = dataset
        self.config = config
        self.seed = int(seed)
        self.cameras = dataset.cameras
        self.kp = dataset.keypoint_count
        self.train_ids = sorted(dataset.train_ids)
        self.heldout_ids = sorted(dataset.heldout_ids)
        self.image_size = dataset.image_size()
        self.model = _mix_model_seed(config.noise, seed)
        # The campaign's process pool; None runs its tasks in this process.
        self.process_pool = None

        # Fixed clustering of the train split for the entropy diagnostic.
        aligned = align_root(dataset.poses(self.train_ids), config.analysis.root_index)
        self.cluster_model = kmeans_poses(
            aligned, config.analysis.clusters, seed=config.analysis.seed
        )

    def selection_entropy(self, frame_ids) -> float:
        aligned = align_root(self.dataset.poses(frame_ids), self.config.analysis.root_index)
        return batch_entropy(self.cluster_model, aligned)

    def predict(self, frame_ids, summary, iteration, score=False) -> tuple:
        """Predict and triangulate F > 0 frames: (predicted poses (F, K, 3),
        scores (F,), epsilon (F,), full-consensus flag (F,)) in frame_ids'
        order, the last three read-only.

        The predicted poses are the robust triangulation's points, with an
        all-view DLT fill-in for each keypoint that lost consensus; a
        keypoint DLT cannot resolve stays NaN. A frame's flag is set when
        its every keypoint kept every view as an inlier. With score, the
        heatmap scorer of the campaign's strategy (bsb or mpe) also scores
        each frame, the only part that renders heatmaps; without it every
        score is NaN. The frames go through map in equal chunks of at most
        CHUNK_KEYPOINTS keypoints, one _predict_chunk task each, which
        returns four such arrays. Every per-frame result depends only on
        the frame's own key and observations, so the output is identical
        for any worker count and any chunking.
        """
        ids = list(frame_ids)
        per_chunk = max(1, CHUNK_KEYPOINTS // self.kp)
        chunks = [part.tolist() for part in np.array_split(ids, -(-len(ids) // per_chunk))]
        task = functools.partial(
            _predict_chunk, self.cameras, self.image_size, self.config, self.model,
            summary, iteration, score,
        )
        # A generator: in this process a chunk's copies live only while it
        # runs, which keeps a pass's peak memory where it was.
        items = ((chunk, self.dataset.poses(chunk)) for chunk in chunks)
        poses = np.empty((len(ids), self.kp, 3))
        scores, epsilon = np.empty(len(ids)), np.empty(len(ids))
        full = np.empty(len(ids), dtype=bool)
        row = 0
        # Every result is per frame: the chunks' rows are the whole stack's.
        for chunk_arrays in self.map(task, items):
            rows = slice(row, row + len(chunk_arrays[0]))
            for whole, part in zip((poses, scores, epsilon, full), chunk_arrays, strict=True):
                whole[rows] = part
            row = rows.stop
        scores.flags.writeable = epsilon.flags.writeable = full.flags.writeable = False
        return poses, scores, epsilon, full

    def map(self, fn, items):
        """fn over the iterable items, in order: on the campaign's process
        pool when there is one and more than one item, else in this
        process, where each item is taken only when its turn comes. The
        one place that decides where the campaign's work runs."""
        if self.process_pool is not None:
            items = list(items)
            if len(items) > 1:
                return self.process_pool.map(fn, items)
        return map(fn, items)

    def aligned_predicted_poses(self, poses) -> np.ndarray:
        """predict's (F, K, 3) poses, root-aligned. Unresolved keypoints sit
        at the origin so distances stay finite; a pose whose root is
        unresolved is all zeros."""
        aligned = align_root(poses, self.config.cs_root_index)
        aligned[np.isnan(aligned[..., 0])] = 0.0
        return aligned

    def evaluate_mkpe(self, summary, iteration) -> tuple:
        """Held-out MKPE from fresh predictions: (mm, skipped keypoints).

        The mean pools every resolved keypoint in held-out order. Raises
        NoConsensus when no held-out keypoint resolves, even by DLT fill-in.
        """
        poses = self.predict(self.heldout_ids, summary, iteration)[0]
        errors = keypoint_errors(poses, self.dataset.poses(self.heldout_ids))
        valid = ~np.isnan(errors)
        if not valid.any():
            raise NoConsensus("held-out evaluation produced no keypoints")
        return float(errors[valid].mean()), int((~valid).sum())


def _predict_chunk(cameras, image_size, cfg, model, summary, iteration, score, item) -> tuple:
    """One chunk of _Runtime.predict, wherever map runs it: project the
    chunk's ground-truth poses, infer its frames (with heatmaps when score
    is set and cfg's strategy names a heatmap scorer), score them in
    SCORE_CHUNK sub-chunks, triangulate them and fill in, in one DLT
    solve, the keypoints that lost consensus. item is (frame ids, their
    (F, K, 3) ground-truth poses); the heatmap spec, peak parameters,
    threshold and residual form come from cfg, and a keypoint without
    consensus is charged the squared image diagonal. Returns (predicted
    poses (F, K, 3), scores (F,), NaN when not scored, epsilon (F,),
    full-consensus flag (F,)): arrays only, as no FramePrediction pays its
    way across a process boundary, and nothing per view, as the
    triangulation lives only while the task runs. infer, the scorer,
    triangulate_frames and triangulate_dlt_many are looked up where the
    task runs, as a wrapper may not pickle."""
    frame_ids, poses = item
    scorer = STRATEGY_TABLE[cfg.strategy][0]() if score else None
    projections = np.stack([c.projection for c in cameras])
    gt2d = project_many(projections, poses).transpose(1, 0, 2, 3)  # (F, V, K, 2)
    points = np.empty(gt2d.shape)
    preds = []
    for f, (fid, pose) in enumerate(zip(frame_ids, poses)):
        fp = infer(
            fid,
            pose,
            cameras,
            summary,
            model,
            iteration,
            spec=cfg.heatmap,
            image_size=image_size,
            include_heatmaps=scorer is not None,
            gt2d=gt2d[f],
        )
        points[f] = fp.points
        if scorer is not None:
            preds.append(fp)
    scores = np.full(len(frame_ids), np.nan)
    for i in range(0, len(preds), SCORE_CHUNK):
        sub = preds[i : i + SCORE_CHUNK]
        found = scorer([fp.frame_id for fp in sub], heatmap_windows(sub, cfg.peaks), cfg.peaks)
        scores[i : i + len(sub)] = [s.value for s in found]
    tri = triangulate_frames(
        cameras,
        points,
        threshold_px=cfg.ransac_threshold_px,
        mc_error=cfg.mc_error,
        failure_penalty_px2=image_size[0] ** 2 + image_size[1] ** 2,
    )
    # The fill-ins go into a copy: triangulation arrays are read-only.
    predicted = np.array(tri.points)
    lost = np.isnan(predicted[..., 0])
    if lost.any():
        predicted[lost] = triangulate_dlt_many(projections, points.transpose(0, 2, 1, 3)[lost])
    return predicted, scores, tri.epsilon, tri.inlier_count == len(cameras)


def _unlabeled_mkpe(runtime, frame_ids, poses) -> float:
    """Mean over frames of the per-frame MKPE of the predicted poses
    (resolved keypoints only), of which pseudo-labels are rows: their
    drift is measured the same way, so the two are directly comparable."""
    errors = keypoint_errors(poses, runtime.dataset.poses(frame_ids))
    per_frame = [row[~np.isnan(row)].mean() for row in errors if not np.isnan(row).all()]
    return float(np.mean(per_frame)) if per_frame else float("nan")


@dataclass
class _Selection:
    """What an iteration has computed by the time it selects its batch."""

    rt: _Runtime
    pool: PoolState
    iteration: int
    summary: PoolSummary
    scores: np.ndarray  # (F,) heatmap scores of the unlabeled frames, NaN if unscored
    ids: list  # the unlabeled frame ids, ascending: the rows of the arrays
    epsilon: np.ndarray  # (F,) reprojection residuals of the unlabeled frames
    poses: np.ndarray  # (F, K, 3) predicted poses of the unlabeled frames


def _candidate_scores(s: _Selection, per_frame: np.ndarray) -> dict:
    """select_batch's scores from one (F,) array of the pass, rows of the
    unlabeled frames: each candidate's row."""
    candidates = s.pool.candidates()
    values = per_frame[np.searchsorted(s.ids, candidates)]
    return {"scores": dict(zip(candidates, values.tolist()))}


def _coreset_inputs(s: _Selection) -> dict:
    """Root-aligned predicted poses of the labeled set, predicted afresh
    by this iteration's model, and of the candidates."""
    rt = s.rt
    labeled = rt.predict(sorted(s.pool.labeled), s.summary, s.iteration)[0]
    labeled = rt.aligned_predicted_poses(labeled)
    candidates = s.pool.candidates()
    cand_poses = rt.aligned_predicted_poses(s.poses[np.searchsorted(s.ids, candidates)])
    return {"labeled_poses": labeled, "candidate_poses": dict(zip(candidates, cand_poses))}


# The strategy table. Per strategy: a thunk giving the heatmap scorer that
# predict runs on the unlabeled pool (None: no heatmaps), and the
# select_batch keyword arguments of one iteration. Both look campaign
# attributes up when they run, not when the table is built, so a wrapper
# installed on one of them (score_bsb, infer, triangulate_frames, ...) is
# the function that runs.
STRATEGY_TABLE = {
    "rand": (lambda: None, lambda s: {"seed": (s.rt.seed, s.iteration)}),
    "bsb": (lambda: score_bsb, lambda s: _candidate_scores(s, s.scores)),
    "mpe": (lambda: score_mpe, lambda s: _candidate_scores(s, s.scores)),
    "coreset": (lambda: None, _coreset_inputs),
    "mvc": (lambda: None, lambda s: _candidate_scores(s, s.epsilon)),
}


def run_campaign(dataset: Dataset, config: CampaignConfig, seed: int) -> CampaignResult:
    """Execute one campaign and return its rows and instrumentation.

    With workers > 1 the campaign predicts its frames, chunk by chunk, on
    one pool of at most os.cpu_count() processes (fork starts them all at
    its first task), shut down when it returns or raises; with one it
    starts none.
    """
    rt = _Runtime(dataset, config, seed)
    workers = min(config.workers, os.cpu_count() or 1)
    if workers == 1:
        return _iterate(rt)
    # The platform's default start method, fork on Linux before Python
    # 3.14: on a 2-core host bsb-w2 campaigns took 0.99 s with fork,
    # 1.20 s with forkserver and 1.27 s with spawn (medians of 4), and
    # fork happens before the pool starts its own thread.
    # The class is looked up here: its module loads multiprocessing, which
    # took 1.2 MiB that a one-worker process does not need.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as rt.process_pool:
        return _iterate(rt)


def _iterate(rt: _Runtime) -> CampaignResult:
    """The initial pool and every iteration of run_campaign; iteration 0
    retrains on and evaluates the initial pool alone."""
    cfg = rt.config
    n_train = len(rt.train_ids)

    # Initial pool: seed-determined, strategy-independent.
    init_rng = np.random.default_rng(np.random.SeedSequence((rt.seed, 0)))
    picked = init_rng.choice(n_train, size=cfg.init_labeled, replace=False)
    initial = sorted(rt.train_ids[i] for i in picked)
    pool = PoolState(
        labeled=set(initial),
        unlabeled=set(rt.train_ids) - set(initial),
        pseudo=set(),
    )
    pool.check()
    rows, details = [], []

    def retrain_and_report(iteration, batch, mean_eps, pseudo_poses, drift_mm):
        """Retrain on the labeled frames' true poses and the (P, K, 3)
        pseudo-label poses, evaluate, and append the iteration's report
        row. Returns (the new pool summary, skipped held-out keypoints)."""
        poses = np.concatenate([rt.dataset.poses(sorted(pool.labeled)), pseudo_poses])
        summary = summarize_pool(poses, n_train, root_index=cfg.cs_root_index)
        mkpe, skipped = rt.evaluate_mkpe(summary, iteration)
        rows.append(
            IterationRow(
                iteration=iteration,
                labeled_count=len(pool.labeled),
                labeled_fraction=len(pool.labeled) / n_train,
                mkpe_mm=mkpe,
                mean_epsilon=mean_eps,
                pseudo_count=len(pseudo_poses),
                pseudo_drift_mean_mm=drift_mm,
                entropy=rt.selection_entropy(batch),
                hours_elapsed=cost_report(iteration, len(pool.labeled), cfg.cost).al_hours,
            )
        )
        return summary, skipped

    summary, _ = retrain_and_report(0, initial, None, rt.dataset.poses([]), None)
    scorer_of, inputs_of = STRATEGY_TABLE[cfg.strategy]
    scored = scorer_of() is not None

    for iteration in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        unlabeled = sorted(pool.unlabeled)
        poses, scores, epsilon, full = rt.predict(unlabeled, summary, iteration, scored)
        mean_eps = float(np.mean(epsilon))

        # Self-training: promote consistent frames before selecting. With
        # it off, or an amount of 0, the same steps run on no frames.
        amount = cfg.pseudo_amount() if cfg.st.enabled else 0
        chosen = (
            select_pseudo_labels(pool, amount, unlabeled, epsilon, full, cfg.st.variant)
            if amount
            else []
        )
        # The pseudo-labels are the chosen frames' pass rows, in frame-id
        # order. enlarge keeps a frame unchecked; one with a keypoint not
        # even the DLT fill-in resolves has no pose to feed back, and goes.
        pseudo_rows = np.sort(np.searchsorted(unlabeled, chosen))
        pseudo_rows = pseudo_rows[~np.isnan(poses[pseudo_rows]).any(axis=(1, 2))]
        pseudo_ids = [unlabeled[row] for row in pseudo_rows]
        # A copy: a view of poses would keep the whole pass's poses alive
        # in the details.
        pseudo_poses = poses[pseudo_rows]
        pool.pseudo = set(pseudo_ids)
        pool.check()
        pseudo_entries = [
            PseudoLabel(fid, points, float(eps), iteration)
            for fid, points, eps in zip(pseudo_ids, pseudo_poses, epsilon[pseudo_rows])
        ]
        drift = drift_stats(pseudo_poses, rt.dataset.poses(pseudo_ids))

        # Active-learning selection over the remaining candidates.
        inputs = inputs_of(
            _Selection(rt, pool, iteration, summary, scores, unlabeled, epsilon, poses)
        )
        batch = select_batch(cfg.strategy, pool, cfg.batch_per_iter, **inputs)
        pool.annotate(batch)
        all_inliers = bool(np.all(full[pseudo_rows]))
        unlabeled_mkpe = _unlabeled_mkpe(rt, unlabeled, poses)
        # The pass's arrays go before the held-out pass and the next
        # iteration's pass run.
        del poses, scores, epsilon, full, inputs

        summary, skipped = retrain_and_report(
            iteration, batch, mean_eps, pseudo_poses, drift.mean_mm if drift.count else None
        )
        details.append(
            IterationDetail(
                iteration=iteration,
                selected=list(batch),
                pseudo=pseudo_entries,
                pseudo_all_views_inliers=all_inliers,
                drift=drift,
                unlabeled_mkpe_mm=unlabeled_mkpe,
                eval_skipped_keypoints=skipped,
                wall_seconds=time.perf_counter() - t0,
            )
        )

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
    ParseError when the directory holds none, or two of one seed."""
    found = sorted(
        (name, int(m.group(1)))
        for name in os.listdir(run_dir)
        if (m := _REPORT_NAME.fullmatch(name))
    )
    if not found:
        raise ParseError(f"no report_seed*.csv files in {run_dir}")
    paths = {}
    results = []
    for name, seed in found:
        path = os.path.join(run_dir, name)
        if paths.setdefault(seed, path) != path:
            raise ParseError(f"{paths[seed]} and {path} are both reports of seed {seed}")
        try:
            with open(path, encoding="utf-8") as fh:
                result = read_report(fh.read(), path)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
        result.seed = seed
        results.append(result)
    return results


def seed_aggregate(results, column="mkpe_mm") -> list:
    """Per iteration across the results' seeds (each result must carry
    its seed), in ascending seed order: (iteration, labeled_count, mean,
    sample variance) of one report column. Empty cells are left out; the
    mean is None when every cell is, the variance below two values.
    Raises InvariantViolation when the results' row counts or one
    iteration's labeled counts differ."""
    if not results:
        raise InvariantViolation("aggregate of zero campaign results")
    results = sorted(results, key=lambda r: r.seed)
    n_rows = {len(r.rows) for r in results}
    if len(n_rows) != 1:
        raise InvariantViolation("campaign results have differing row counts")
    out = []
    for i in range(n_rows.pop()):
        rows = [r.rows[i] for r in results]
        counts = {r.labeled_count for r in rows}
        if len(counts) != 1:
            raise InvariantViolation("labeled counts differ across seeds")
        vals = np.array([v for r in rows if (v := getattr(r, column)) is not None])
        mean = float(vals.mean()) if len(vals) else None
        var = float(vals.var(ddof=1)) if len(vals) > 1 else None
        out.append((rows[0].iteration, counts.pop(), mean, var))
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
    InvariantViolation before anything is written, as does a config that
    does not fit the dataset."""
    if os.path.isdir(out_dir):
        ours = {f"report_seed{seed}.csv" for seed in config.seeds}
        for name in sorted(os.listdir(out_dir)):
            if _REPORT_NAME.fullmatch(name) and name not in ours:
                raise InvariantViolation(
                    f"{os.path.join(out_dir, name)} is a report of an earlier run that "
                    "this run would not overwrite; use another --out directory"
                )
    dataset = load_dataset(config.dataset)
    _check_config(dataset, config)
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
