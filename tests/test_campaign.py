"""Campaign loop behavior, report serialization, and config handling."""

import dataclasses
import threading

import numpy as np
import pytest

from annosim import campaign, geometry
from annosim.analysis import cost_report
from annosim.campaign import (
    CSV_COLUMNS,
    STRATEGY_TABLE,
    aggregate_csv_text,
    report_csv_text,
    run,
    run_campaign,
)
from annosim.config import (
    AnalysisConfig,
    CampaignConfig,
    SelfTrainingConfig,
    config_from_dict,
    load_config,
    resolve,
    save_resolved,
)
from annosim.dataset import Dataset, SyntheticSpec, generate_synthetic, save_dataset
from annosim.errors import IllConditioned, InvariantViolation, ParseError
from annosim.predictor import NoiseModel
from annosim.selection import STRATEGIES, PoolState

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


@pytest.fixture(scope="module")
def small_ds():
    return generate_synthetic(SMALL_SPEC)


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

    def test_root_index_validation(self, small_ds):
        with pytest.raises(InvariantViolation, match="cs_root_index"):
            run_campaign(small_ds, small_config(cs_root_index=5), seed=0)

    def test_deterministic_rerun(self, small_ds, camp_rand):
        again = run_campaign(small_ds, small_config(), seed=0)
        assert report_csv_text(again) == report_csv_text(camp_rand)

    @pytest.mark.parametrize(
        "strategy, st_on, outlier_prob",
        [(s, False, 0.0) for s in STRATEGIES]
        + [("rand", True, 0.0), ("coreset", False, 0.05), ("mvc", True, 0.05)],
        ids=list(STRATEGIES) + ["rand+st", "coreset+outliers", "mvc+st+outliers"],
    )
    def test_worker_count_invisible(self, small_ds, monkeypatch, strategy, st_on, outlier_prob):
        # With outliers some keypoints lose consensus, and predicted_poses
        # fills them in by DLT: the path of NaN rows in FrameTriangulation.
        # Triangulation batches of 8 keypoints put the small scene's
        # triangulation on the worker pool too.
        fills, tri_workers = [], []
        dlt, tri = campaign.triangulate_dlt, campaign.triangulate_frames

        def counting_dlt(observations):
            fills.append(len(observations))
            return dlt(observations)

        def small_batches(*args, **kwargs):
            tri_workers.append(kwargs["workers"])
            return tri(*args, chunk=8, **kwargs)

        monkeypatch.setattr(campaign, "triangulate_dlt", counting_dlt)
        monkeypatch.setattr(campaign, "triangulate_frames", small_batches)
        st_cfg = SelfTrainingConfig(enabled=st_on, fraction=0.5)
        noise = NoiseModel(outlier_prob_base=outlier_prob)
        reports = [
            report_csv_text(
                run_campaign(
                    small_ds,
                    small_config(
                        strategy=strategy, iterations=2, st=st_cfg, noise=noise, workers=workers
                    ),
                    seed=0,
                )
            )
            for workers in (1, 3)
        ]
        assert reports[0] == reports[1]
        half = len(tri_workers) // 2
        assert tri_workers == [1] * half + [3] * half
        if outlier_prob:
            assert fills, "no keypoint lost consensus, so no DLT fill-in ran"

    @pytest.mark.parametrize("strategy", ["bsb", "mpe"])
    def test_scoring_chunks_on_the_pool(self, small_ds, monkeypatch, strategy):
        # The small scene's unlabeled pool fits in one scoring chunk; chunks
        # of 3 frames put a dozen of them on the worker pool. Inference
        # stays in the calling thread, and neither the worker count nor
        # the chunk size shows in the report.
        def report(workers):
            cfg = small_config(strategy=strategy, iterations=2, workers=workers)
            return report_csv_text(run_campaign(small_ds, cfg, seed=0))

        one_chunk = report(1)
        monkeypatch.setattr(campaign, "SCORE_CHUNK", 3)
        calling = threading.get_ident()
        infer_threads, chunks = set(), []
        infer, scorer = campaign.infer, getattr(campaign, f"score_{strategy}")

        def recording_infer(*args, **kwargs):
            infer_threads.add(threading.get_ident())
            return infer(*args, **kwargs)

        def recording_scorer(frame_ids, *args, **kwargs):
            chunks.append((len(frame_ids), threading.get_ident() == calling))
            return scorer(frame_ids, *args, **kwargs)

        monkeypatch.setattr(campaign, "infer", recording_infer)
        monkeypatch.setattr(campaign, f"score_{strategy}", recording_scorer)
        reports = {}
        for workers in (1, 3):
            chunks.clear()
            reports[workers] = report(workers)
            assert len(chunks) > 2 * 2 and max(size for size, _ in chunks) == 3
            assert all(on_calling == (workers == 1) for _, on_calling in chunks)
        assert reports[1] == reports[3] == one_chunk
        assert infer_threads == {calling}

    def test_runs_without_per_keypoint_objects(self, small_ds, monkeypatch):
        # The campaign reads triangulations as arrays only: it never builds
        # a KeypointTriangulation, also when keypoints lose consensus.
        class Forbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the campaign built a KeypointTriangulation")

        monkeypatch.setattr(geometry, "KeypointTriangulation", Forbidden)
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

    def test_predicted_pose_fills_in_a_copy(self, small_ds):
        # Keypoint 0 of a frame without consensus: predicted_poses fills it
        # in by DLT and leaves the triangulation's arrays as they were.
        rt = campaign._Runtime(small_ds, small_config(), seed=0)
        fid = rt.train_ids[0]
        points = rt.gt2d(fid)
        ft = rt.triangulate(points[None])[0]
        lost = ft.points.copy()
        lost[0] = np.nan
        mask = ft.inlier_mask.copy()
        mask[0] = False
        for array in (lost, mask):
            array.flags.writeable = False
        ft = dataclasses.replace(ft, points=lost, inlier_mask=mask, inlier_count=0)
        assert ft.per_keypoint[0] is None
        pose = rt.predicted_poses([ft], points[None])[0]
        assert np.allclose(pose[0], rt.gt_pose(fid)[0], atol=1e-6)
        assert np.array_equal(pose[1:], lost[1:])
        assert np.isnan(ft.points[0]).all()

    def test_aligned_predicted_poses_zero_a_lost_root(self, small_ds, monkeypatch):
        # Two frames. Frame 0 loses its root keypoint to consensus and its
        # DLT fill-in fails: its aligned pose is all zeros. Frame 1 keeps
        # its robust points, root-aligned.
        rt = campaign._Runtime(small_ds, small_config(cs_root_index=1), seed=0)
        root = rt.config.cs_root_index
        points = np.stack([rt.gt2d(f) for f in rt.train_ids[:2]])
        fts = rt.triangulate(points)
        lost = fts[0].points.copy()
        lost[root] = np.nan
        lost.flags.writeable = False
        fts[0] = dataclasses.replace(fts[0], points=lost)
        calls = []

        def failing_dlt(observations):
            calls.append(len(observations))
            raise IllConditioned("forced")

        monkeypatch.setattr(campaign, "triangulate_dlt", failing_dlt)
        aligned = rt.aligned_predicted_poses(fts, points)
        assert calls == [rt.n_views]
        assert aligned.shape == (2, rt.kp, 3)
        assert np.array_equal(aligned[0], np.zeros((rt.kp, 3)))
        assert np.array_equal(aligned[1], fts[1].points - fts[1].points[root])
        assert np.isnan(fts[0].points[root]).all()

    def test_triangulation_arrays_are_read_only(self, small_ds):
        rt = campaign._Runtime(small_ds, small_config(), seed=0)
        ft = rt.triangulate(rt.gt2d(rt.train_ids[0])[None])[0]
        for array in (ft.points, ft.inlier_mask, ft.reproj_error_px2):
            assert not array.flags.writeable

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
