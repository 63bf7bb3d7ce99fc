"""The synthetic predictor: noise law, determinism, pool coupling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.errors import EmptyPool, InvariantViolation
from annosim.geometry import project
from annosim.heatmap import HeatmapSpec, PeakParams, gaussian_values_stack, local_peaks_stack
from annosim.pose import align_root, pose_distance
from annosim.predictor import (
    NoiseModel,
    heatmap_windows,
    infer,
    outlier_probability,
    prediction_sigma,
    summarize_pool,
)

SPEC = HeatmapSpec(width=64, height=64, sigma_px=2.0)


def gt2d(cameras, pose):
    return np.stack([[project(c, p) for p in pose] for c in cameras])


@pytest.fixture()
def pose(rng):
    return rng.uniform(-300.0, 300.0, size=(5, 3))


@pytest.fixture()
def pool(pose, rng):
    others = rng.uniform(-300.0, 300.0, size=(3, 5, 3))
    return summarize_pool([pose, *others], total_count=40, root_index=0)


class TestSummarizePool:
    def test_labeled_fraction_ratio(self, rng):
        poses = list(rng.normal(0, 100.0, size=(200, 4, 3)))
        s = summarize_pool(poses, total_count=5008)
        assert s.labeled_fraction == pytest.approx(200 / 5008)
        assert s.labeled_fraction == pytest.approx(0.03994, abs=1e-4)

    def test_fully_labeled(self, rng):
        poses = list(rng.normal(0, 100.0, size=(7, 4, 3)))
        assert summarize_pool(poses, total_count=7).labeled_fraction == 1.0

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPool):
            summarize_pool([], total_count=10)

    def test_poses_are_root_aligned(self, rng):
        poses = list(rng.normal(0, 100.0, size=(3, 4, 3)))
        s = summarize_pool(poses, total_count=10, root_index=2)
        assert np.allclose(s.aligned_poses[:, 2], 0.0)


class TestNoiseLaw:
    def test_sigma_at_zero_distance_full_pool(self):
        m = NoiseModel(sigma_base_px=2.0, sigma_floor_px=0.5)
        assert prediction_sigma(m, 0.0, 1.0) == pytest.approx(2.5)

    def test_sigma_grows_with_distance(self):
        m = NoiseModel(sigma_base_px=1.0, sigma_floor_px=0.0, coverage_scale_mm=100.0)
        assert prediction_sigma(m, 100.0, 1.0) == pytest.approx(2.0)
        assert prediction_sigma(m, 300.0, 1.0) == pytest.approx(4.0)

    def test_pool_decay_power(self):
        m = NoiseModel(sigma_base_px=1.0, sigma_floor_px=0.0, pool_exponent=0.5)
        assert prediction_sigma(m, 0.0, 0.25) == pytest.approx(2.0)

    def test_pool_decay_none(self):
        m = NoiseModel(sigma_base_px=1.0, sigma_floor_px=0.0, pool_exponent=0.0)
        assert prediction_sigma(m, 0.0, 0.25) == pytest.approx(1.0)

    def test_outlier_probability_clipped(self):
        m = NoiseModel(outlier_prob_base=0.4, coverage_scale_mm=100.0)
        assert outlier_probability(m, 100.0) == pytest.approx(0.8)
        assert outlier_probability(m, 10000.0) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(InvariantViolation):
            NoiseModel(sigma_base_px=-1.0)
        with pytest.raises(InvariantViolation):
            NoiseModel(coverage_scale_mm=0.0)
        with pytest.raises(InvariantViolation):
            NoiseModel(outlier_prob_base=1.5)
        with pytest.raises(InvariantViolation):
            NoiseModel(pool_exponent=-0.1)


class TestInfer:
    def test_noise_free_limit_equals_gt(self, ring8, pose, pool):
        model = NoiseModel(
            sigma_base_px=0.0,
            sigma_floor_px=0.0,
            outlier_prob_base=0.0,
            multi_peak_prob=0.0,
        )
        fp = infer(0, pose, ring8, pool, model, iteration=1, spec=SPEC)
        assert np.array_equal(fp.points, gt2d(ring8, pose))
        assert fp.sigma_px == 0.0

    def test_repeat_call_bit_identical(self, ring8, pose, pool):
        model = NoiseModel(seed=7)
        a = infer(3, pose, ring8, pool, model, iteration=2, spec=SPEC)
        b = infer(3, pose, ring8, pool, model, iteration=2, spec=SPEC)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.heatmap_stack, b.heatmap_stack)

    def test_points_independent_of_heatmap_request(self, ring8, pose, pool):
        model = NoiseModel(seed=7, multi_peak_prob=0.5)
        with_maps = infer(3, pose, ring8, pool, model, 2, spec=SPEC, include_heatmaps=True)
        without = infer(3, pose, ring8, pool, model, 2, spec=SPEC, include_heatmaps=False)
        assert np.array_equal(with_maps.points, without.points)
        assert without.heatmap_stack is None

    def test_distinct_keys_decorrelate(self, ring8, pose, pool):
        model = NoiseModel(seed=7)
        base = infer(3, pose, ring8, pool, model, 2, spec=SPEC, include_heatmaps=False)
        other_frame = infer(4, pose, ring8, pool, model, 2, spec=SPEC, include_heatmaps=False)
        other_iter = infer(3, pose, ring8, pool, model, 3, spec=SPEC, include_heatmaps=False)
        other_seed = infer(
            3, pose, ring8, pool, dataclasses.replace(model, seed=8), 2,
            spec=SPEC, include_heatmaps=False,
        )
        for other in (other_frame, other_iter, other_seed):
            assert not np.array_equal(base.points, other.points)

    def test_draw_layout_replay(self, ring8, pose, pool):
        # The documented draw order (noise, outlier coin, outlier angle,
        # ghost coin, ghost position) is a contract: replaying it must
        # reproduce points and heatmaps exactly.
        model = NoiseModel(seed=11, outlier_prob_base=0.3, multi_peak_prob=0.4)
        fp = infer(5, pose, ring8, pool, model, 4, spec=SPEC, image_size=(1000.0, 1000.0))

        n_views, n_kp = len(ring8), pose.shape[0]
        r = np.random.default_rng(np.random.SeedSequence((11, 4, 5)))
        noise = r.standard_normal((n_views, n_kp, 2)) * fp.sigma_px
        coin = r.random((n_views, n_kp))
        angle = r.random((n_views, n_kp)) * 2.0 * np.pi
        ghost_coin = r.random((n_views, n_kp))
        ghost_pos = r.random((n_views, n_kp, 2))

        expected = gt2d(ring8, pose) + noise
        p_out = outlier_probability(model, fp.nearest_distance_mm)
        hit = coin < p_out
        offset = model.outlier_offset_px * np.stack(
            [np.cos(angle), np.sin(angle)], axis=-1
        )
        expected = np.where(hit[..., None], gt2d(ring8, pose) + offset, expected)
        assert np.array_equal(fp.points, expected)

        centers = (expected * (SPEC.width / 1000.0, SPEC.height / 1000.0)).reshape(-1, 2)
        maps = gaussian_values_stack(centers, SPEC, np.ones(len(centers)))
        ghosted = (ghost_coin < model.multi_peak_prob).reshape(-1)
        ghosts = ghost_pos.reshape(-1, 2)[ghosted] * (SPEC.width, SPEC.height)
        maps[ghosted] += gaussian_values_stack(ghosts, SPEC, np.full(ghosted.sum(), 0.5))
        assert np.array_equal(
            fp.heatmap_stack, maps.reshape(n_views, n_kp, SPEC.height, SPEC.width)
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 20))
    @settings(max_examples=40)
    def test_nearest_distance_is_pose_distance(self, ring8, seed, n_labeled, n_kp):
        # The coverage distance d of the noise law is pose_distance to the
        # nearest root-aligned labeled pose, bit for bit.
        r = np.random.default_rng(seed)
        pose = r.uniform(-300.0, 300.0, size=(n_kp, 3))
        root = int(r.integers(n_kp))
        labeled = list(r.uniform(-300.0, 300.0, size=(n_labeled, n_kp, 3)))
        summary = summarize_pool(labeled, total_count=10, root_index=root)
        fp = infer(0, pose, ring8, summary, NoiseModel(), 1, include_heatmaps=False)
        want = min(pose_distance(align_root(pose, root), p) for p in summary.aligned_poses)
        assert np.float64(fp.nearest_distance_mm).tobytes() == np.float64(want).tobytes()

    def test_all_outliers_displace_by_offset(self, ring8, pose, pool):
        model = NoiseModel(
            sigma_base_px=0.0, sigma_floor_px=0.0, outlier_prob_base=1.0,
            outlier_offset_px=60.0, multi_peak_prob=0.0,
        )
        fp = infer(0, pose, ring8, pool, model, 1, spec=SPEC)
        d = np.linalg.norm(fp.points - gt2d(ring8, pose), axis=-1)
        assert np.allclose(d, 60.0, atol=1e-9)

    @pytest.mark.parametrize("multi_peak_prob", [0.0, 0.1, 1.0])
    def test_heatmap_windows_match_stack(self, ring8, pose, pool, multi_peak_prob):
        model = NoiseModel(seed=3, outlier_prob_base=0.2, multi_peak_prob=multi_peak_prob)
        params = PeakParams()
        preds = [infer(f, pose, ring8, pool, model, 1, spec=SPEC) for f in range(4)]
        windows = heatmap_windows(preds, params)
        assert windows.shape == (len(preds), len(ring8), pose.shape[0])
        # The frames' maps, numbered flat in (frame, view, keypoint) order.
        flat = np.stack([fp.heatmap_stack for fp in preds]).reshape(-1, SPEC.height, SPEC.width)
        for maps, values, rows, cols in windows.groups:
            for m, v, r, c in zip(maps, values, rows, cols):
                assert np.array_equal(v, flat[m][np.ix_(r, c)])
        assert local_peaks_stack(windows, params) == local_peaks_stack(flat, params)

    def test_heatmap_windows_need_heatmaps(self, ring8, pose, pool):
        fp = infer(0, pose, ring8, pool, NoiseModel(), 1, spec=SPEC, include_heatmaps=False)
        with pytest.raises(InvariantViolation):
            heatmap_windows([fp])

    def test_error_monotone_in_coverage(self, ring8, rng):
        # Closer labeled pose => smaller nearest distance => smaller sigma
        # => smaller mean error over many iterations.
        pose = rng.uniform(-200.0, 200.0, size=(5, 3))
        far = pose + rng.normal(0, 120.0, size=pose.shape)
        near = pose + rng.normal(0, 5.0, size=pose.shape)
        pool_far = summarize_pool([far], total_count=10)
        pool_near = summarize_pool([near, far], total_count=10)
        model = NoiseModel(sigma_base_px=1.0, sigma_floor_px=0.1, pool_exponent=0.0)
        truth = gt2d(ring8, pose)

        def mean_err(pool):
            errs = []
            for it in range(500):
                fp = infer(0, pose, ring8, pool, model, it, spec=SPEC, include_heatmaps=False)
                errs.append(np.linalg.norm(fp.points - truth, axis=-1).mean())
            return float(np.mean(errs))

        assert mean_err(pool_near) < mean_err(pool_far)

    def test_error_monotone_in_pool_size(self, ring8, pose, pool, rng):
        model = NoiseModel(sigma_base_px=1.0, sigma_floor_px=0.1, pool_exponent=0.5)
        small = dataclasses.replace(pool, labeled_fraction=0.05)
        large = dataclasses.replace(pool, labeled_fraction=0.8)
        truth = gt2d(ring8, pose)

        def mean_err(p):
            errs = []
            for it in range(500):
                fp = infer(0, pose, ring8, p, model, it, spec=SPEC, include_heatmaps=False)
                errs.append(np.linalg.norm(fp.points - truth, axis=-1).mean())
            return float(np.mean(errs))

        assert mean_err(large) < mean_err(small)
