"""Campaign loop behavior, report serialization, and config handling."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import multiprocessing
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim import campaign, geometry, predictor
from annosim.analysis import cost_report
from annosim.campaign import (
    CSV_COLUMNS,
    STRATEGY_TABLE,
    aggregate_csv_text,
    read_reports,
    report_csv_text,
    run,
    run_campaign,
    seed_aggregate,
)
from annosim.cli import main
from annosim.config import (
    AnalysisConfig,
    CampaignConfig,
    SelfTrainingConfig,
    config_from_dict,
    load_config,
    resolve,
    save_resolved,
)
from annosim.dataset import Dataset, Frame, SyntheticSpec, generate_synthetic, save_dataset
from annosim.errors import (
    EmptyHeatmap, IllConditioned, InvariantViolation, NoConsensus, ParseError
)
from annosim.geometry import triangulate_frames
from annosim.heatmap import HeatmapSpec, PeakParams
from annosim.predictor import NoiseModel, summarize_pool
from annosim.pseudolabel import VARIANTS
from annosim.selection import STRATEGIES, PoolState, score_bsb

SMALL_SPEC = SyntheticSpec(
    clusters=4,
    frames_per_cluster=10,
    heldout_frames=10,
    keypoints=5,
    cameras=4,
    seed=5,
)

NOISE_FREE = NoiseModel(
    sigma_base_px=0.0, sigma_floor_px=0.0, outlier_prob_base=0.0, multi_peak_prob=0.0
)


def small_config(**over):
    base = dict(
        strategy="rand",
        init_labeled=6,
        batch_per_iter=4,
        iterations=3,
        seeds=(0,),
        analysis=AnalysisConfig(clusters=5, root_index=2, seed=0),
    )
    base.update(over)
    return CampaignConfig(**base)


TRI_FIELDS = [f.name for f in dataclasses.fields(geometry.FrameTriangulation)]


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    # Byte comparison: NaN matches NaN, and +0.0 differs from -0.0.
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def assert_same_triangulation(a, b):
    for name in TRI_FIELDS:
        assert_same_bytes(getattr(a, name), getattr(b, name))


def predicted_points(rt, frame_ids, summary, iteration):
    """The frames' (F, V, K, 2) predicted keypoints, as a chunk task infers
    them, each frame projected on its own."""
    return np.stack(
        [
            predictor.infer(
                fid, rt.gt_pose(fid), rt.cameras, summary, rt.model, iteration,
                include_heatmaps=False,
            ).points
            for fid in frame_ids
        ]
    )


def losing_triangulation(lost):
    """A triangulate_frames that leaves the (frame, keypoint) pairs of
    lost without consensus: NaN points, no inlier view."""
    triangulate = campaign.triangulate_frames

    def triangulate_losing(cameras, predictions, **kwargs):
        tri = triangulate(cameras, predictions, **kwargs)
        points, mask = tri.points.copy(), tri.inlier_mask.copy()
        for f, k in lost:
            points[f, k], mask[f, k] = np.nan, False
        for array in (points, mask):
            array.flags.writeable = False
        return dataclasses.replace(tri, points=points, inlier_mask=mask)

    return triangulate_losing


def small_summary(rt):
    """The pool summary of the first 6 train frames as labels."""
    poses = [rt.gt_pose(f) for f in rt.train_ids[:6]]
    return summarize_pool(poses, len(rt.train_ids), root_index=rt.config.cs_root_index)


def _pid_and_negation(x):
    """(the pid of the process that ran it, -x)."""
    return os.getpid(), -x


@pytest.fixture(scope="module")
def small_ds():
    return generate_synthetic(SMALL_SPEC)


@pytest.fixture(scope="module")
def small_scene(small_ds, tmp_path_factory):
    """SMALL_SPEC's scene file, as save_dataset writes it."""
    path = tmp_path_factory.mktemp("scene") / "small.json"
    save_dataset(small_ds, path)
    return path


@pytest.fixture(scope="module")
def camp_rand(small_ds):
    return run_campaign(small_ds, small_config(), seed=0)


@pytest.fixture(scope="module")
def camp_st(small_ds):
    cfg = small_config(
        st=SelfTrainingConfig(enabled=True, fraction=0.5, variant="alternating")
    )
    return run_campaign(small_ds, cfg, seed=0)


class TestLoop:
    def test_row_arithmetic(self, camp_rand):
        n_train = 40
        assert len(camp_rand.rows) == 4
        for i, row in enumerate(camp_rand.rows):
            assert row.iteration == i
            assert row.labeled_count == 6 + 4 * i
            assert row.labeled_fraction == pytest.approx(row.labeled_count / n_train)
            assert 0.0 <= row.entropy <= 1.0
            assert np.isfinite(row.mkpe_mm) and row.mkpe_mm >= 0.0

    def test_hours_match_cost_model(self, camp_rand):
        for i, row in enumerate(camp_rand.rows):
            assert row.hours_elapsed == pytest.approx(
                cost_report(i, row.labeled_count).al_hours
            )

    def test_row_zero_has_no_inference_fields(self, camp_rand):
        assert camp_rand.rows[0].mean_epsilon is None
        assert camp_rand.rows[0].pseudo_count == 0
        assert camp_rand.rows[0].pseudo_drift_mean_mm is None

    def test_zero_iterations(self, small_ds):
        result = run_campaign(small_ds, small_config(iterations=0), seed=1)
        assert len(result.rows) == 1
        assert result.details == []
        assert result.rows[0].labeled_count == 6

    def test_initial_pool_is_strategy_independent(self, small_ds):
        # Row 0 is computed before any strategy-specific work, so it must
        # be identical for campaigns that differ only in strategy.
        rows0 = []
        for strat in ("rand", "mvc", "bsb"):
            cfg = small_config(strategy=strat, iterations=1)
            rows0.append(run_campaign(small_ds, cfg, seed=2).rows[0])
        for row in rows0[1:]:
            assert row == rows0[0]

    def test_noise_free_reaches_gt(self, small_ds):
        cfg = small_config(noise=NOISE_FREE, iterations=2)
        result = run_campaign(small_ds, cfg, seed=0)
        for row in result.rows:
            assert row.mkpe_mm <= 1e-6

    def test_selection_sets_partition(self, camp_rand):
        seen = set()
        for detail in camp_rand.details:
            picked = set(detail.selected)
            assert len(picked) == 4
            assert not picked & seen
            seen |= picked
        assert camp_rand.rows[-1].labeled_count == 6 + len(seen)

    def test_budget_validation(self, small_ds):
        cfg = small_config(init_labeled=30, batch_per_iter=10, iterations=2)
        with pytest.raises(InvariantViolation, match="budget"):
            run_campaign(small_ds, cfg, seed=0)

    @pytest.mark.parametrize("variant, held", [("alternating", 2), ("constant", 2), ("enlarge", 4)])
    def test_budget_counts_the_pseudo_set(self, small_ds, variant, held):
        # 40 train frames, 2 iterations of 10 and 2 pseudo-labels each. The
        # last selection needs its 10 candidates beside the pseudo set: 2
        # frames, or both iterations' 4 under enlarge. One frame less used
        # to pass the budget check and fail at the last selection.
        def config(init):
            st_on = SelfTrainingConfig(enabled=True, variant=variant)
            return small_config(init_labeled=init, batch_per_iter=10, iterations=2, st=st_on)

        with pytest.raises(InvariantViolation, match=f"budget needs 41 .*{held} of them pseudo"):
            run_campaign(small_ds, config(21 - held), seed=0)
        assert run_campaign(small_ds, config(20 - held), seed=0).rows[-1].labeled_count == 40 - held

    def test_root_index_validation(self, small_ds):
        with pytest.raises(InvariantViolation, match="cs_root_index"):
            run_campaign(small_ds, small_config(cs_root_index=5), seed=0)

    def test_clusters_beyond_the_train_split_rejected(self, small_ds):
        # The entropy diagnostic clusters the 40 train frames: 41 clusters
        # used to fail in kmeans_poses, a runtime failure, not a config error.
        def config(clusters):
            return small_config(iterations=1, analysis=AnalysisConfig(clusters=clusters))

        with pytest.raises(InvariantViolation, match="analysis.clusters 41 exceeds the 40"):
            run_campaign(small_ds, config(41), seed=0)
        assert len(run_campaign(small_ds, config(40), seed=0).rows) == 2

    def test_map_uses_the_pool_for_more_than_one_item(self, small_ds, pid_pool):
        # _Runtime.map is the one place that decides where campaign work
        # runs: one item stays in this process, several go to the pool.
        rt = campaign._Runtime(small_ds, small_config(), seed=0)
        assert list(rt.map(_pid_and_negation, [1, 2])) == [(os.getpid(), -1), (os.getpid(), -2)]
        with pid_pool(2) as rt.process_pool:
            for items in ([4], [1, 2, 3]):
                got = list(rt.map(_pid_and_negation, items))
                assert [v for _, v in got] == [v for _, v in map(_pid_and_negation, items)]
                pids = [pid for pid, _ in got]
                if len(items) == 1:
                    assert pids == [os.getpid()] and rt.process_pool.pids == []
                else:
                    assert rt.process_pool.pids == pids and os.getpid() not in pids

    def test_deterministic_rerun(self, small_ds, camp_rand):
        again = run_campaign(small_ds, small_config(), seed=0)
        assert report_csv_text(again) == report_csv_text(camp_rand)

    @pytest.mark.parametrize(
        "strategy, st_on, outlier_prob",
        [(s, False, 0.0) for s in STRATEGIES]
        + [("rand", True, 0.0), ("coreset", False, 0.05), ("mvc", True, 0.05)],
        ids=list(STRATEGIES) + ["rand+st", "coreset+outliers", "mvc+st+outliers"],
    )
    def test_worker_count_invisible(
        self, small_ds, monkeypatch, pid_pool, strategy, st_on, outlier_prob
    ):
        # With outliers some keypoints lose consensus, and predicted_poses
        # fills them in by DLT: the path of NaN rows in FrameTriangulation.
        # Triangulation batches of 8 keypoints make each frame of the small
        # scene (5 keypoints) a chunk of its own, so every pass of the
        # campaign has several chunks and goes to the process pool.
        st_cfg = SelfTrainingConfig(enabled=st_on, fraction=0.5)
        noise = NoiseModel(outlier_prob_base=outlier_prob)

        def report(workers):
            cfg = small_config(
                strategy=strategy, iterations=2, st=st_cfg, noise=noise, workers=workers
            )
            return report_csv_text(run_campaign(small_ds, cfg, seed=0))

        reports = {"default batch": report(1)}
        fills, tri_pids, pools = [], [], []
        dlt, tri = campaign.triangulate_dlt_many, campaign.triangulate_frames

        def counting_dlt(projections, points):
            fills.append(len(points))
            return dlt(projections, points)

        def recording_tri(*args, **kwargs):
            # A call in a pool process appends to that process's copy.
            tri_pids.append(os.getpid())
            return tri(*args, **kwargs)

        def new_pool(max_workers):
            pools.append(pid_pool(max_workers))
            return pools[-1]

        monkeypatch.setattr(campaign, "triangulate_dlt_many", counting_dlt)
        monkeypatch.setattr(campaign, "triangulate_frames", recording_tri)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", new_pool)
        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 8)
        # Enough cores that the pool has `workers` processes on any host.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for workers in (1, 2, 3):
            tri_pids.clear()
            reports[workers] = report(workers)
            assert multiprocessing.active_children() == []
            if workers == 1:
                # One worker starts no pool and runs every chunk, one
                # triangulation call each, in this process.
                assert pools == [] and set(tri_pids) == {os.getpid()}
                chunks = len(tri_pids)
                continue
            # One pool per campaign, of `workers` processes, ran every
            # chunk, and this process triangulated nothing.
            pool = pools[-1]
            assert len(pools) == workers - 1 and pool.max_workers == workers
            assert tri_pids == [] and len(pool.pids) == chunks
            assert os.getpid() not in pool.pids
        assert len(set(reports.values())) == 1
        if outlier_prob:
            assert fills, "no keypoint lost consensus, so no DLT fill-in ran"

    def test_worker_pool_is_invisible(self, small_ds, monkeypatch, pid_pool):
        # _Runtime.predict of frames with outlier views and keypoints that
        # reach no consensus gives the same poses, scores and
        # triangulation arrays, byte for byte, on 1, 2 or 3 processes, in
        # one chunk or in one chunk per frame. Its triangulation is that of
        # one triangulate_frames call on the whole stack, and its poses are
        # the robust points with each lost keypoint's DLT fill-in.
        cfg = small_config(strategy="bsb", noise=NoiseModel(outlier_prob_base=0.4))
        rt = campaign._Runtime(small_ds, cfg, seed=0)
        summary = small_summary(rt)
        ids = rt.train_ids[6:]
        poses, scores, reference = rt.predict(ids, summary, 1, score=True)
        points = predicted_points(rt, ids, summary, 1)
        whole = triangulate_frames(
            rt.cameras,
            points,
            threshold_px=cfg.ransac_threshold_px,
            mc_error=cfg.mc_error,
            failure_penalty_px2=rt.penalty_px2,
        )
        assert_same_triangulation(reference, whole)
        no_consensus = ~reference.inlier_mask.any(axis=2)
        assert no_consensus.any() and not no_consensus.all()
        assert_same_bytes(poses[~no_consensus], reference.points[~no_consensus])
        for f, k in zip(*np.nonzero(no_consensus)):
            fill = geometry.triangulate_dlt(list(zip(rt.cameras, points[f, :, k])))
            assert_same_bytes(poses[f, k], fill)
        assert list(scores) == ids and None not in scores.values()

        default_batch = geometry._TRIANGULATE_BATCH
        for workers in (1, 2, 3):
            with pid_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
                rt.process_pool = pool
                for batch in (8, default_batch):
                    with monkeypatch.context() as patch:
                        patch.setattr(geometry, "_TRIANGULATE_BATCH", batch)
                        got_poses, got_scores, got = rt.predict(ids, summary, 1, score=True)
                    # The 34 frames make one default chunk, run in this
                    # process; batches of 8 keypoints make one chunk per
                    # frame, each run by one of the pool's processes.
                    if pool is not None:
                        assert len(pool.pids) == (len(ids) if batch == 8 else 0)
                        assert os.getpid() not in pool.pids
                        pool.pids = []
                    assert_same_bytes(got_poses, poses)
                    assert got_scores == scores
                    assert_same_triangulation(got, reference)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("raise_in", ["select_batch", "triangulate_frames"])
    def test_no_process_outlives_a_campaign_that_raises(self, small_ds, monkeypatch, raise_in):
        # A campaign that raises after its pool has started its processes
        # leaves none running: from selection, in this process at
        # iteration 1, or from a triangulation call, in a pool process at
        # iteration 0's evaluation. The message names the raising process.
        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 8)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        real = getattr(campaign, raise_in)
        parent = os.getpid()
        running = []

        def failing(*args, **kwargs):
            out = real(*args, **kwargs)
            if os.getpid() == parent:
                running.append(len(multiprocessing.active_children()))
            if raise_in == "select_batch" or os.getpid() != parent:
                raise IllConditioned(f"injected failure in {os.getpid()}")
            return out

        monkeypatch.setattr(campaign, raise_in, failing)
        with pytest.raises(IllConditioned, match="injected failure in ") as raised:
            run_campaign(small_ds, small_config(workers=2), seed=0)
        raised_in = int(str(raised.value).split()[-1])
        if raise_in == "select_batch":
            assert raised_in == parent and running == [2]
        else:
            # Every pass has several chunks, so none triangulated here.
            assert raised_in != parent and running == []
        assert multiprocessing.active_children() == []

    def test_scoring_failure_in_the_pool_surfaces_intact(
        self, small_ds, small_scene, monkeypatch, tmp_path, capsys
    ):
        # A scorer that raises in a pool process: the parent raises the
        # same class and message, no process outlives the campaign, and
        # `annosim run` exits 3 with a "runtime failure" line. Batches of 40
        # keypoints cut the unlabeled pass into chunks of at most 8 frames,
        # which go to the pool, and each chunk scores its first 3 frames
        # first.
        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 40)
        monkeypatch.setattr(campaign, "SCORE_CHUNK", 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        parent = os.getpid()

        def failing(frame_ids, *args, **kwargs):
            if os.getpid() != parent:
                raise EmptyHeatmap(f"injected in chunk of {len(frame_ids)}")
            return score_bsb(frame_ids, *args, **kwargs)

        monkeypatch.setattr(campaign, "score_bsb", failing)
        cfg = small_config(dataset=str(small_scene), strategy="bsb", workers=2)
        with pytest.raises(EmptyHeatmap) as raised:
            run_campaign(small_ds, cfg, seed=0)
        assert type(raised.value) is EmptyHeatmap
        assert str(raised.value) == "injected in chunk of 3"
        assert multiprocessing.active_children() == []
        save_resolved(cfg, tmp_path / "cfg.yaml")
        argv = ["run", "--config", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "runtime failure: injected in chunk of 3\n"
        assert multiprocessing.active_children() == []

    def test_pool_bounded_by_the_cores(self, small_ds, monkeypatch):
        # Under fork a pool starts all of its processes at its first task,
        # so `workers` beyond the cores would fork that many; reports do
        # not depend on the count. This factory starts no process: its
        # campaigns run as if they had no pool.
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return contextlib.nullcontext()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        reports = set()
        for cores, workers in ((None, 1), (2, 5000), (1, 5000), (None, 5000), (8, 3)):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            cfg = small_config(strategy="bsb", iterations=1, workers=workers)
            reports.add(report_csv_text(run_campaign(small_ds, cfg, seed=0)))
        assert sizes == [2, 3]
        assert len(reports) == 1

    @pytest.mark.parametrize("strategy", ["bsb", "mpe"])
    def test_scoring_chunks_on_the_pool(self, small_ds, monkeypatch, pid_pool, tmp_path, strategy):
        # At the default batch every pass of the small scene is one chunk,
        # which infers, scores and triangulates in this process; the pool
        # runs nothing. Batches of 40 keypoints cut the passes into chunks
        # of at most 8 frames: then a 2- or 3-process pool does all three
        # and this process none. A chunk scores in sub-chunks of
        # SCORE_CHUNK frames. Neither the worker count nor the chunking
        # shows in the report.
        def report(workers):
            cfg = small_config(strategy=strategy, iterations=2, workers=workers)
            return report_csv_text(run_campaign(small_ds, cfg, seed=0))

        reports = {"one scoring chunk": report(1)}
        log = tmp_path / "calls"
        pools = []

        def new_pool(max_workers):
            pools.append(pid_pool(max_workers))
            return pools[-1]

        def recording(name, fn, size):
            # A local closure, as perfbench's tracer installs: it does not
            # pickle. It runs in whichever process runs the chunk, and
            # appends its call to a file that every process shares.
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{name} {os.getpid()} {size(args)}\n")
                return fn(*args, **kwargs)

            return wrapper

        def calls():
            lines = log.read_text().splitlines()
            log.unlink()
            return [(name, int(pid), int(n)) for name, pid, n in map(str.split, lines)]

        scorer_name = f"score_{strategy}"
        recorders = {
            "infer": recording("infer", campaign.infer, lambda args: 1),
            scorer_name: recording("score", getattr(campaign, scorer_name), lambda a: len(a[0])),
            "triangulate_frames": recording(
                "triangulate", campaign.triangulate_frames, lambda args: len(args[1])
            ),
        }
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(recorders[scorer_name])
        for name, wrapper in recorders.items():
            monkeypatch.setattr(campaign, name, wrapper)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", new_pool)
        monkeypatch.setattr(campaign, "SCORE_CHUNK", 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        names = {"infer", "score", "triangulate"}

        # One chunk per pass: 34 and 30 unlabeled frames score in 12 and
        # 10 sub-chunks.
        for workers in (1, 2):
            reports[f"one chunk, {workers}"] = report(workers)
            got = calls()
            assert {name for name, _, _ in got} == names
            assert {pid for _, pid, _ in got} == {os.getpid()}
            assert [n for name, _, n in got if name == "score"] == [3] * 11 + [1] + [3] * 10
        assert len(pools) == 1 and pools[0].pids == []

        # Chunks of 7, 7, 7, 7 and 6 frames, then of 8, 8, 7 and 7.
        sub_chunks = [3, 3, 1] * 4 + [3, 3] + [3, 3, 2] * 2 + [3, 3, 1] * 2
        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 40)
        counts = set()
        for workers in (1, 2, 3):
            reports[workers] = report(workers)
            got = calls()
            pids = {pid for _, pid, _ in got}
            scored = [n for name, _, n in got if name == "score"]
            counts.add(tuple(sorted((name, n) for name, _, n in got)))
            assert {name for name, _, _ in got} == names
            if workers == 1:
                assert pids == {os.getpid()} and scored == sub_chunks
                continue
            pool = pools[-1]
            assert pool.max_workers == workers and os.getpid() not in pids
            assert pids <= set(pool.pids) and sorted(scored) == sorted(sub_chunks)
        # The same calls of the same sizes wherever they ran.
        assert len(counts) == 1
        assert len(set(reports.values())) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("strategy", ["bsb", "mpe"])
    def test_no_frame_prediction_crosses_a_process(self, small_ds, monkeypatch, strategy):
        # A chunk task keeps its FramePredictions and returns arrays only:
        # with FramePrediction unpicklable, a campaign cut into chunks of
        # at most 8 frames runs on 2 processes and gives the 1-worker
        # report.
        def refuse(self):
            raise pickle.PicklingError("a FramePrediction was pickled")

        monkeypatch.setattr(predictor.FramePrediction, "__reduce__", refuse)
        with pytest.raises(pickle.PicklingError, match="FramePrediction"):
            pickle.dumps(predictor.FramePrediction(0, np.zeros((1, 1, 2)), 1.0, 0.0))
        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 40)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        reports = []
        for workers in (1, 2):
            cfg = small_config(strategy=strategy, iterations=2, workers=workers)
            reports.append(report_csv_text(run_campaign(small_ds, cfg, seed=0)))
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    def test_chunk_task_pickles(self, small_ds, monkeypatch):
        # What predict sends through map, its bound _predict_chunk task and
        # the chunks, survives pickling, and the copy computes the same.
        rt = campaign._Runtime(small_ds, small_config(strategy="bsb"), seed=0)
        sent = []

        def recording_map(fn, items):
            sent.append((fn, list(items)))
            return map(fn, sent[-1][1])

        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 40)
        monkeypatch.setattr(rt, "map", recording_map)
        rt.predict(rt.train_ids[6:], small_summary(rt), 1, score=True)
        [(task, items)] = sent
        assert task.func is campaign._predict_chunk and len(items) == 5
        copy = pickle.loads(pickle.dumps(task))
        for item in items:
            want_poses, want_scores, want_tri = task(item)
            poses, scores, tri = copy(pickle.loads(pickle.dumps(item)))
            assert_same_bytes(poses, want_poses)
            assert scores == want_scores and len(scores) == len(item[0])
            for a, b in zip(tri, want_tri, strict=True):
                assert_same_bytes(a, b)
            # No per-view coordinates come back: the one array with a
            # views axis is the inlier mask, a flag per (frame, keypoint,
            # view). small_ds has 5 keypoints and 4 views.
            n, kp, views = len(item[0]), rt.kp, rt.n_views
            shapes = [a.shape for a in (poses, *tri)]
            assert shapes == [(n, kp, 3), (n, kp, 3), (n, kp, views), (n, kp), (n,), (n,)]
            assert tri[1].dtype == bool

    def test_spawned_pool_gives_the_same_report(self, small_ds, monkeypatch):
        # Every argument travels with its task, so a pool whose processes
        # import annosim afresh (spawn; Python 3.14 makes forkserver the
        # Linux default) gives the 1-worker report.
        monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", 40)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def report(workers):
            cfg = small_config(strategy="bsb", iterations=2, workers=workers)
            return report_csv_text(run_campaign(small_ds, cfg, seed=0))

        one = report(1)
        spawn = multiprocessing.get_context("spawn")
        executor = concurrent.futures.ProcessPoolExecutor

        def spawning_pool(max_workers):
            return executor(max_workers=max_workers, mp_context=spawn)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning_pool)
        assert report(2) == one
        assert multiprocessing.active_children() == []

    def test_runs_without_per_keypoint_objects(self, small_ds, monkeypatch):
        # The campaign reads triangulations as arrays only: it never builds
        # a KeypointTriangulation, also when keypoints lose consensus, and
        # never splits a stack into one-frame stacks.
        class Forbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the campaign built a KeypointTriangulation")

        def no_split(self):
            raise AssertionError("the campaign split a triangulation stack")

        monkeypatch.setattr(geometry, "KeypointTriangulation", Forbidden)
        monkeypatch.setattr(geometry.FrameTriangulation, "__iter__", no_split)
        cfg = small_config(
            strategy="coreset",
            st=SelfTrainingConfig(enabled=True, fraction=0.5),
            noise=NoiseModel(outlier_prob_base=0.05),
        )
        result = run_campaign(small_ds, cfg, seed=0)
        assert len(result.rows) == cfg.iterations + 1

    def test_heldout_drops_are_counted(self, small_ds, camp_rand):
        # A 0.01 px threshold leaves no keypoint with consensus, and among
        # the outliers some all-view DLT fill-ins find no clean null space:
        # evaluate_mkpe leaves those held-out keypoints out of the mean and
        # counts them, where the clean scene leaves none out.
        cfg = small_config(noise=NoiseModel(outlier_prob_base=0.5), ransac_threshold_px=0.01)
        result = run_campaign(small_ds, cfg, seed=0)
        clean = [d.eval_skipped_keypoints for d in camp_rand.details]
        skipped = [d.eval_skipped_keypoints for d in result.details]
        assert clean == [0] * len(clean)
        assert sum(skipped) > 0
        assert all(np.isfinite(row.mkpe_mm) for row in result.rows)

    def test_predicted_pose_fills_in_a_copy(self, small_ds, monkeypatch):
        # Keypoint 0 of a noise-free frame without consensus: predict fills
        # it in by DLT and leaves the triangulation's arrays as they were.
        rt = campaign._Runtime(small_ds, small_config(noise=NOISE_FREE), seed=0)
        fid = rt.train_ids[0]
        monkeypatch.setattr(campaign, "triangulate_frames", losing_triangulation([(0, 0)]))
        poses, _, tri = rt.predict([fid], small_summary(rt), 1)
        pose = poses[0]
        assert np.allclose(pose[0], rt.gt_pose(fid)[0], atol=1e-6)
        assert np.array_equal(pose[1:], tri.points[0, 1:])
        assert np.isnan(tri.points[0, 0]).all()

    def test_aligned_predicted_poses_zero_a_lost_root(self, small_ds, monkeypatch):
        # Two frames. Frame 0 loses its root keypoint to consensus and its
        # DLT fill-in is ill-conditioned: its aligned pose is all zeros.
        # Frame 1 keeps its robust points, root-aligned.
        rt = campaign._Runtime(small_ds, small_config(cs_root_index=1), seed=0)
        root = rt.config.cs_root_index
        calls = []

        def failing_dlt(projections, points):
            calls.append(points.shape)
            return np.full((len(points), 3), np.nan)

        monkeypatch.setattr(campaign, "triangulate_frames", losing_triangulation([(0, root)]))
        monkeypatch.setattr(campaign, "triangulate_dlt_many", failing_dlt)
        poses, _, tri = rt.predict(rt.train_ids[:2], small_summary(rt), 1)
        aligned = rt.aligned_predicted_poses(poses)
        assert calls == [(1, rt.n_views, 2)]
        assert aligned.shape == (2, rt.kp, 3)
        assert np.array_equal(aligned[0], np.zeros((rt.kp, 3)))
        assert np.array_equal(aligned[1], tri.points[1] - tri.points[1, root])
        assert np.isnan(poses[0, root]).all()

    def test_triangulation_arrays_are_read_only(self, small_ds, monkeypatch):
        # predict's triangulation, of one chunk or concatenated from two.
        rt = campaign._Runtime(small_ds, small_config(), seed=0)
        for batch in (geometry._TRIANGULATE_BATCH, 8):
            monkeypatch.setattr(geometry, "_TRIANGULATE_BATCH", batch)
            tri = rt.predict(rt.train_ids[:2], small_summary(rt), 1)[2]
            for name in TRI_FIELDS:
                array = getattr(tri, name)
                assert array.shape[0] == 2 and not array.flags.writeable

    def test_keypoint_on_a_principal_plane_rejected(self, small_ds, monkeypatch):
        # One keypoint of one held-out frame moved along camera 2's axis
        # onto its principal plane, where it has no image: _Runtime
        # refuses the scene before any pass, though no chunk would
        # project that frame before the first held-out evaluation.
        camera = small_ds.cameras[2]
        frames = list(small_ds.frames)
        at = next(i for i, f in enumerate(frames) if f.id == small_ds.heldout_ids[-1])
        pose = frames[at].pose.copy()
        row = camera.projection[2]
        pose[3] -= (row[:3] @ pose[3] + row[3]) / (row[:3] @ row[:3]) * row[:3]
        assert abs(row[:3] @ pose[3] + row[3]) <= geometry._W_EPS
        frames[at] = Frame(frames[at].id, pose)
        scene = dataclasses.replace(small_ds, frames=frames)

        def no_pass(*args):
            raise AssertionError("a prediction pass ran")

        monkeypatch.setattr(campaign, "_predict_chunk", no_pass)
        with pytest.raises(InvariantViolation, match="projects degenerately"):
            campaign._Runtime(scene, small_config(), seed=0)
        with pytest.raises(InvariantViolation, match="projects degenerately"):
            run_campaign(scene, small_config(), seed=0)

    def test_empty_heldout_split_rejected(self, small_ds):
        no_heldout = Dataset(
            cameras=small_ds.cameras,
            frames=small_ds.frames,
            train_ids=small_ds.train_ids,
            heldout_ids=[],
            keypoint_count=small_ds.keypoint_count,
        )
        with pytest.raises(InvariantViolation, match="held-out split is empty"):
            run_campaign(no_heldout, small_config(), seed=0)

    def test_seed_changes_trajectory(self, small_ds, camp_rand):
        other = run_campaign(small_ds, small_config(), seed=9)
        assert report_csv_text(other) != report_csv_text(camp_rand)


@pytest.fixture(scope="module")
def default_ds():
    return generate_synthetic(SyntheticSpec())


class TestPassMemory:
    """Traced memory of prediction passes on the default scene (8 views,
    15 keypoints): a pass holds only what its report and selection read."""

    def test_one_pass_peak(self, default_ds, traced_peak):
        # One pass over 480 frames, in 8 chunks of 60, peaks at 5.8 MB:
        # one chunk's inference and triangulation batch. With the pass's
        # (F, V, K, 2) points, the ground-truth projections of every frame
        # and a kernel chunk's per-view arrays alive beside the next
        # chunk's kernel, it peaked at 9.7 MB.
        rt = campaign._Runtime(default_ds, CampaignConfig(), seed=0)
        summary = summarize_pool(
            [rt.gt_pose(f) for f in rt.train_ids[:20]], len(rt.train_ids)
        )
        ids = rt.train_ids[20:]
        rt.predict(ids[:60], summary, 1)  # numpy's lazy imports
        (poses, _, tri), peak = traced_peak(rt.predict, ids, summary, 1)
        assert poses.shape == (480, 15, 3) and len(tri.epsilon) == 480
        assert peak < 7e6

    def test_next_pass_starts_without_the_last_ones_arrays(
        self, default_ds, traced_peak, monkeypatch
    ):
        # A 2-iteration rand campaign with pseudo-labels. The memory live
        # when iteration 2's pass over the unlabeled pool starts exceeds
        # that at iteration 1's by 22 KB: the labeled pool, rows and
        # details grew. Holding iteration 1's pass (poses and
        # triangulation of 480 frames) would add 0.5 MB; a pseudo-label
        # that views its pass's points keeps those points alive.
        cfg = CampaignConfig(
            strategy="rand", st=SelfTrainingConfig(enabled=True), iterations=2
        )
        predict, live = campaign._Runtime.predict, []

        def recording_predict(self, frame_ids, *args, **kwargs):
            live.append((len(frame_ids), tracemalloc.get_traced_memory()[0]))
            return predict(self, frame_ids, *args, **kwargs)

        run_campaign(default_ds, cfg, seed=0)  # numpy's lazy imports
        monkeypatch.setattr(campaign._Runtime, "predict", recording_predict)
        result, peak = traced_peak(run_campaign, default_ds, cfg, 0)
        # Held-out evaluation, then per iteration the unlabeled pass and
        # the evaluation.
        assert [n for n, _ in live] == [100, 480, 100, 470, 100]
        assert live[3][1] - live[1][1] < 470 * 15 * 3 * 8
        assert live[4][1] - live[2][1] < 470 * 15 * 3 * 8
        assert peak < 7e6
        assert all(d.pseudo for d in result.details)


class TestHostilePredictors:
    @given(
        outlier_prob=st.floats(0.0, 0.5),
        multi_peak_prob=st.floats(0.0, 1.0),
        strategy=st.sampled_from(STRATEGIES),
        variant=st.sampled_from(VARIANTS),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_pool_and_report_invariants(
        self, small_ds, outlier_prob, multi_peak_prob, strategy, variant, seed
    ):
        # Outlier-heavy and ghost-peak-heavy predictors on the 40-frame
        # training split, with self-training on: the pool stays a partition
        # of the training frames at every selection, pseudo-labels are
        # unlabeled frames, and the run either gives a finite MKPE row per
        # iteration or raises NoConsensus.
        train = set(small_ds.train_ids)
        pools, choose = [], campaign.select_batch

        def recording_select(name, pool, *args, **kwargs):
            pools.append((set(pool.labeled), set(pool.unlabeled), set(pool.pseudo)))
            return choose(name, pool, *args, **kwargs)

        cfg = small_config(
            strategy=strategy,
            noise=NoiseModel(outlier_prob_base=outlier_prob, multi_peak_prob=multi_peak_prob),
            st=SelfTrainingConfig(enabled=True, fraction=0.5, variant=variant),
        )
        result = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign, "select_batch", recording_select)
            try:
                result = run_campaign(small_ds, cfg, seed=seed)
            except NoConsensus:
                pass
        for labeled, unlabeled, pseudo in pools:
            assert not labeled & unlabeled and labeled | unlabeled == train
            assert pseudo <= unlabeled
        if result is None:
            return
        assert len(pools) == len(result.details) == cfg.iterations
        for (labeled, unlabeled, pseudo), detail in zip(pools, result.details):
            assert {p.frame_id for p in detail.pseudo} == pseudo
            assert set(detail.selected) <= unlabeled - pseudo
        assert result.rows[-1].labeled_count == len(pools[-1][0]) + cfg.batch_per_iter
        mkpe = np.array([row.mkpe_mm for row in result.rows])
        assert np.all(np.isfinite(mkpe)) and np.all(mkpe >= 0.0)

    @given(
        outlier_prob=st.floats(0.0, 1.0),
        multi_peak_prob=st.floats(0.0, 1.0),
        strategy=st.sampled_from(STRATEGIES),
        variant=st.sampled_from(VARIANTS),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=2, unique=True),
    )
    @settings(max_examples=15, deadline=None)
    def test_cli_exit_codes(
        self, small_scene, tmp_path_factory, outlier_prob, multi_peak_prob, strategy,
        variant, seeds,
    ):
        # The same hostile predictors through `annosim run`: exit 0 with the
        # whole run directory written, or exit 3 with a "runtime failure"
        # line; never 2 and never a traceback.
        root = tmp_path_factory.mktemp("hostile")
        cfg = small_config(
            dataset=str(small_scene),
            strategy=strategy,
            seeds=tuple(seeds),
            noise=NoiseModel(outlier_prob_base=outlier_prob, multi_peak_prob=multi_peak_prob),
            st=SelfTrainingConfig(enabled=True, fraction=0.5, variant=variant),
        )
        save_resolved(cfg, root / "cfg.yaml")
        out, err = root / "run", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["run", "--config", str(root / "cfg.yaml"), "--out", str(out)])
        if rc == 0:
            written = {f"report_seed{seed}.csv" for seed in seeds}
            assert {p.name for p in out.iterdir()} == written | {"aggregate.csv", "config.yaml"}
            assert all(len(r.rows) == cfg.iterations + 1 for r in read_reports(out))
            aggregate = (out / "aggregate.csv").read_text().splitlines()
            assert len(aggregate) == cfg.iterations + 2
        else:
            assert rc == 3, err.getvalue()
            assert err.getvalue().startswith("runtime failure: ")
            assert "Traceback" not in err.getvalue()


class TestStrategyTable:
    def test_one_entry_per_strategy(self):
        assert sorted(STRATEGY_TABLE) == sorted(STRATEGIES)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_calls_go_through_campaign_attributes(self, small_ds, monkeypatch, strategy):
        # Every iteration selects once, with the pool as the second
        # positional argument, and bsb/mpe score exactly the frames that
        # are unlabeled when the batch is selected. Wrappers installed on
        # the campaign module see every call.
        events = []

        def counting(name, record):
            fn = getattr(campaign, name)

            def wrapper(*args, **kwargs):
                events.append(record(args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(campaign, name, wrapper)

        counting("select_batch", lambda args: ("select", args[0], args[1], set(args[1].unlabeled)))
        counting("score_bsb", lambda args: ("bsb", list(args[0])))
        counting("score_mpe", lambda args: ("mpe", list(args[0])))
        run_campaign(small_ds, small_config(strategy=strategy, iterations=2), seed=0)

        selects = [e for e in events if e[0] == "select"]
        assert len(selects) == 2
        scored = set()
        for event in events:
            if event[0] == "select":
                _, name, pool, unlabeled = event
                assert name == strategy and isinstance(pool, PoolState)
                if strategy in ("bsb", "mpe"):
                    assert scored == unlabeled
                scored = set()
            else:
                assert event[0] == strategy
                assert not scored & set(event[1])
                assert len(set(event[1])) == len(event[1])
                scored.update(event[1])
        assert not scored


class TestSelfTraining:
    def test_pseudo_counts(self, camp_st):
        # fraction 0.5 of batch 4 -> 2 pseudo-labels per iteration.
        for row in camp_st.rows[1:]:
            assert row.pseudo_count == len(
                camp_st.details[row.iteration - 1].pseudo
            )
            assert row.pseudo_count <= 2

    def test_alternating_history_disjoint(self, camp_st):
        history = camp_st.pseudo_id_history()
        for prev, cur in zip(history, history[1:]):
            assert not prev & cur

    def test_pseudo_full_consensus_flag(self, camp_st):
        assert all(d.pseudo_all_views_inliers for d in camp_st.details)

    def test_drift_matches_detail(self, camp_st):
        for row, detail in zip(camp_st.rows[1:], camp_st.details):
            if row.pseudo_count:
                assert detail.drift.count == row.pseudo_count
                assert row.pseudo_drift_mean_mm == detail.drift.mean_mm
            else:
                assert row.pseudo_drift_mean_mm is None

    def test_pseudo_never_selected(self, camp_st):
        for detail in camp_st.details:
            pseudo_ids = {p.frame_id for p in detail.pseudo}
            assert not pseudo_ids & set(detail.selected)

    def test_off_by_default(self, camp_rand):
        assert all(r.pseudo_count == 0 for r in camp_rand.rows)
        assert all(not d.pseudo for d in camp_rand.details)


class TestReportCsv:
    def test_header_exact(self, camp_rand):
        text = report_csv_text(camp_rand)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert text.splitlines()[0] == (
            "iteration,labeled_count,labeled_fraction,mkpe_mm,mean_epsilon,"
            "pseudo_count,pseudo_drift_mean_mm,entropy,hours_elapsed"
        )

    def test_none_serializes_empty(self, camp_rand):
        row0 = report_csv_text(camp_rand).splitlines()[1].split(",")
        assert row0[CSV_COLUMNS.index("mean_epsilon")] == ""
        assert row0[CSV_COLUMNS.index("pseudo_drift_mean_mm")] == ""

    def test_cells_round_trip_floats(self, camp_rand):
        lines = report_csv_text(camp_rand).splitlines()
        for line, row in zip(lines[1:], camp_rand.rows):
            cells = line.split(",")
            assert float(cells[CSV_COLUMNS.index("mkpe_mm")]) == row.mkpe_mm
            assert int(cells[0]) == row.iteration

    def test_aggregate_statistics(self, small_ds, camp_rand):
        other = run_campaign(small_ds, small_config(), seed=1)
        text = aggregate_csv_text([camp_rand, other])
        lines = text.splitlines()
        assert lines[0] == "iteration,labeled_count,mkpe_mean_mm,mkpe_var_mm2"
        for line, r0, r1 in zip(lines[1:], camp_rand.rows, other.rows):
            cells = line.split(",")
            vals = np.array([r0.mkpe_mm, r1.mkpe_mm])
            assert float(cells[2]) == pytest.approx(vals.mean(), rel=1e-12)
            assert float(cells[3]) == pytest.approx(vals.var(ddof=1), rel=1e-12)

    def test_aggregate_single_seed_has_empty_variance(self, camp_rand):
        lines = aggregate_csv_text([camp_rand]).splitlines()
        assert all(line.endswith(",") for line in lines[1:])

    def test_aggregate_mismatch_rejected(self, small_ds, camp_rand):
        short = run_campaign(small_ds, small_config(iterations=1), seed=0)
        with pytest.raises(InvariantViolation, match="row counts"):
            aggregate_csv_text([camp_rand, short])
        with pytest.raises(InvariantViolation):
            aggregate_csv_text([])


def ascending_seed_mean(results, i, column):
    """The mean of row i's non-empty `column` cells over the results in
    ascending seed order, as a CSV cell."""
    ordered = sorted(results, key=lambda r: r.seed)
    values = [v for r in ordered if (v := getattr(r.rows[i], column)) is not None]
    return repr(float(np.mean(values))) if values else ""


class TestSeedOrder:
    """aggregate.csv, `compare` and `analyze` take the same seed means:
    seed_aggregate's, in ascending seed order, whatever the order of
    config.seeds or of the report file names (report_seed10 sorts before
    report_seed2)."""

    @pytest.mark.parametrize(
        "seeds", [(1, 2, 0), (5, 3, 11, 7), tuple(range(12))], ids=["3", "4", "12"]
    )
    def test_run_compare_and_analyze_agree(self, small_scene, tmp_path, capsys, seeds):
        cfg = small_config(
            dataset=str(small_scene),
            seeds=seeds,
            st=SelfTrainingConfig(enabled=True, fraction=0.5),
        )
        save_resolved(cfg, tmp_path / "cfg.yaml")
        out = tmp_path / "run"
        assert main(["run", "--config", str(tmp_path / "cfg.yaml"), "--out", str(out)]) == 0
        assert main(["analyze", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == 0
        compared = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1 : cfg.iterations + 2]
        aggregate = (out / "aggregate.csv").read_text().splitlines()[1:]
        results = read_reports(out)
        assert sorted(r.seed for r in results) == sorted(seeds)

        mkpe = seed_aggregate(results)
        entropy = seed_aggregate(results, "entropy")
        drift = seed_aggregate(results, "pseudo_drift_mean_mm")
        analysis = ["iteration,entropy_mean,pseudo_drift_mean_mm"]
        for i in range(cfg.iterations + 1):
            mean = ascending_seed_mean(results, i, "mkpe_mm")
            assert aggregate[i].split(",")[2] == compared[i][3] == repr(mkpe[i][2]) == mean
            assert repr(entropy[i][2]) == ascending_seed_mean(results, i, "entropy")
            drift_cell = ascending_seed_mean(results, i, "pseudo_drift_mean_mm")
            assert drift_cell == ("" if drift[i][2] is None else repr(drift[i][2]))
            analysis.append(f"{i},{entropy[i][2]!r},{drift_cell}")
        assert (out / "analysis.csv").read_text() == "\n".join(analysis) + "\n"
        assert drift[0][2] is None and all(d[2] is not None for d in drift[1:])


# sha256 of report_csv_text for seed-0 campaigns on a 31-view rig (the
# Panoptic HD rig's camera count), 2 iterations. Taken on numpy 2.4.
RIG31_DIGESTS = {
    "rand": "a60383622f5a3c1eb2aff53adaaa6dd40cb8f67f95fb545d5fa2179fd0e31f60",
    "coreset": "4a96ca81668b2fd088041eac3c08f2eee8ea73136377375eed0401cec3348f55",
}


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason=f"31-view digests were taken on numpy 2.4.x, this is {np.__version__}",
)
@pytest.mark.parametrize("strategy", sorted(RIG31_DIGESTS))
def test_31_view_report_digests(strategy):
    """Regression pin for work on paper-scale rigs: the 31-view reports of
    rand, and of coreset with outliers on, keep their bytes."""
    ds = generate_synthetic(
        SyntheticSpec(cameras=31, clusters=6, frames_per_cluster=10, heldout_frames=20)
    )
    cfg = CampaignConfig(
        strategy=strategy,
        init_labeled=10,
        batch_per_iter=5,
        iterations=2,
        noise=NoiseModel(outlier_prob_base=0.05 if strategy == "coreset" else 0.0),
        analysis=AnalysisConfig(clusters=5),
    )
    text = report_csv_text(run_campaign(ds, cfg, seed=0))
    assert hashlib.sha256(text.encode()).hexdigest() == RIG31_DIGESTS[strategy]


class TestRunDirectory:
    def test_writes_expected_files(self, small_ds, tmp_path):
        ds_path = tmp_path / "ds.yaml"
        save_dataset(small_ds, ds_path)
        cfg = small_config(
            dataset=str(ds_path), iterations=1, seeds=(0, 1), batch_per_iter=2
        )
        out = tmp_path / "results"
        results = run(cfg, out)
        assert {p.name for p in out.iterdir()} == {
            "config.yaml",
            "report_seed0.csv",
            "report_seed1.csv",
            "aggregate.csv",
        }
        written = (out / "report_seed0.csv").read_text()
        assert written == report_csv_text(results[0])
        # Resolved config must load back to an equal config.
        assert load_config(out / "config.yaml") == cfg


class TestConfig:
    def test_defaults(self):
        cfg = CampaignConfig()
        assert cfg.strategy == "rand"
        assert cfg.seeds == (0, 1, 2)
        assert cfg.st.enabled is False
        assert cfg.noise == NoiseModel()

    def test_pseudo_amount_rounds(self):
        cfg = small_config(
            batch_per_iter=10, st=SelfTrainingConfig(enabled=True, fraction=0.25)
        )
        assert cfg.pseudo_amount() == 2
        cfg = small_config(
            batch_per_iter=10, st=SelfTrainingConfig(enabled=True, fraction=0.26)
        )
        assert cfg.pseudo_amount() == 3

    def test_from_dict_nested_sections(self):
        cfg = config_from_dict(
            {
                "strategy": "mvc",
                "seeds": [4, 5],
                "noise": {"sigma_base_px": 0.5},
                "st": {"enabled": True, "variant": "enlarge"},
            }
        )
        assert cfg.strategy == "mvc"
        assert cfg.seeds == (4, 5)
        assert cfg.noise.sigma_base_px == 0.5
        assert cfg.noise.sigma_floor_px == NoiseModel().sigma_floor_px
        assert cfg.st.variant == "enlarge"

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            config_from_dict({"strateggy": "rand"})
        with pytest.raises(ParseError, match="unknown key"):
            config_from_dict({"noise": {"sigma": 1.0}})

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            CampaignConfig(strategy="oracle")
        with pytest.raises(InvariantViolation):
            CampaignConfig(init_labeled=0)
        with pytest.raises(InvariantViolation):
            CampaignConfig(iterations=-1)
        with pytest.raises(InvariantViolation):
            CampaignConfig(seeds=())
        with pytest.raises(InvariantViolation):
            CampaignConfig(mc_error="absolute")
        with pytest.raises(InvariantViolation):
            CampaignConfig(workers=0)
        with pytest.raises(ParseError):
            config_from_dict({"seeds": []})

    @pytest.mark.parametrize(
        "cls, key, value",
        [
            (CampaignConfig, "workers", 1.5),
            (CampaignConfig, "init_labeled", True),
            (CampaignConfig, "iterations", 2.0),
            (CampaignConfig, "batch_per_iter", 2.5),
            (AnalysisConfig, "clusters", 3.0),
            (NoiseModel, "seed", False),
            (HeatmapSpec, "width", 64.0),
            (PeakParams, "window", 3.0),
            (SyntheticSpec, "cameras", 8.0),
        ],
    )
    def test_integer_fields_take_only_integers(self, cls, key, value):
        # Built in Python, directly or by dataclasses.replace, a config
        # checks its int fields as the YAML reader does; numpy integers
        # pass.
        with pytest.raises(InvariantViolation, match=f"{cls.__name__}.{key} must be an integer"):
            cls(**{key: value})
        with pytest.raises(InvariantViolation, match=f"{cls.__name__}.{key} must be an integer"):
            dataclasses.replace(cls(), **{key: value})
        default = getattr(cls(), key)
        assert getattr(cls(**{key: np.int64(default)}), key) == default

    def test_reader_and_constructor_share_the_integer_rule(self):
        # errors.scalar_type_error decides for both: numpy integers pass, a bool
        # fails, the reader's ParseError naming <path>.<field>.
        config = config_from_dict({"workers": np.int64(2), "analysis": {"clusters": np.int32(3)}})
        assert (config.workers, config.analysis.clusters) == (2, 3)
        with pytest.raises(ParseError, match="config.workers must be an integer"):
            config_from_dict({"workers": True})
        # An integer is a valid float.
        config = config_from_dict({"ransac_threshold_px": 3, "st": {"fraction": 0}})
        assert (config.ransac_threshold_px, config.st.fraction) == (3, 0)

    @pytest.mark.parametrize(
        "section, key, value, kind",
        [
            ("st", "enabled", "false", "true or false"),
            ("st", "fraction", True, "a number"),
            (None, "ransac_threshold_px", True, "a number"),
            (None, "dataset", 5, "a string"),
            ("cost", "minutes_per_frame", False, "a number"),
            ("heatmap", "sigma_px", "2.0", "a number"),
        ],
    )
    def test_scalar_fields_take_only_their_type(self, section, key, value, kind):
        # The reader names <path>.<field>; built in Python, the section's
        # dataclass checks the same rule.
        data, path = ({key: value}, "config") if section is None else (
            {section: {key: value}}, f"config.{section}"
        )
        with pytest.raises(ParseError, match=f"^{path}.{key} must be {kind}"):
            config_from_dict(data)
        cls = CampaignConfig if section is None else type(getattr(CampaignConfig(), section))
        with pytest.raises(InvariantViolation, match=f"{cls.__name__}.{key} must be {kind}"):
            cls(**{key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "section, key",
        [(None, "ransac_threshold_px"), ("cost", "minutes_per_frame"),
         ("heatmap", "sigma_px"), ("noise", "sigma_base_px")],
    )
    def test_float_fields_take_only_finite_numbers(self, section, key, value):
        # NaN passes a range check written as a comparison, so the type
        # rule itself refuses non-finite floats, in the reader and in the
        # dataclasses.
        data, path = ({key: value}, "config") if section is None else (
            {section: {key: value}}, f"config.{section}"
        )
        kind = "a number other than NaN or infinity"
        with pytest.raises(ParseError, match=f"^{path}.{key} must be {kind}, got {value!r}$"):
            config_from_dict(data)
        cls = CampaignConfig if section is None else type(getattr(CampaignConfig(), section))
        with pytest.raises(InvariantViolation, match=f"{cls.__name__}.{key} must be {kind}"):
            cls(**{key: value})

    def test_resolve_materializes_defaults(self):
        out = resolve(CampaignConfig())
        assert out["noise"]["sigma_base_px"] == NoiseModel().sigma_base_px
        assert out["heatmap"]["width"] == 64
        assert out["seeds"] == [0, 1, 2]

    def test_save_and_load_round_trip(self, tmp_path):
        cfg = small_config(strategy="coreset", mc_error="euclidean")
        path = tmp_path / "cfg.yaml"
        save_resolved(cfg, path)
        assert load_config(path) == cfg

    def test_st_variant_validation(self):
        with pytest.raises(InvariantViolation):
            SelfTrainingConfig(variant="bootstrap")
        with pytest.raises(InvariantViolation):
            SelfTrainingConfig(fraction=1.5)

    def test_replace_keeps_validation(self):
        cfg = small_config()
        with pytest.raises(InvariantViolation):
            dataclasses.replace(cfg, batch_per_iter=0)


def test_every_exported_name_resolves():
    import annosim

    assert len(set(annosim.__all__)) == len(annosim.__all__)
    assert [name for name in annosim.__all__ if not hasattr(annosim, name)] == []
