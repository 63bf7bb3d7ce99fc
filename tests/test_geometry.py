"""Projection, triangulation, and robust consensus."""

import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim import geometry
from annosim.dataset import SyntheticSpec, generate_synthetic, ring_cameras
from annosim.errors import (
    DegenerateProjection,
    DimensionMismatch,
    InsufficientViews,
    InvariantViolation,
    NoConsensus,
)
from annosim.geometry import (
    _NULLSPACE_RATIO,
    CameraParams,
    aggregate_epsilon,
    project,
    project_many,
    robust_triangulate,
    triangulate_dlt,
    triangulate_frames,
)
from annosim.predictor import NoiseModel, infer, summarize_pool


def identity_camera(cam_id=0, translation=(0.0, 0.0, 0.0)):
    """Unit-focal camera at a given translation, looking along +z."""
    return CameraParams(
        id=cam_id,
        intrinsics=np.eye(3),
        rotation=np.eye(3),
        translation=np.asarray(translation, dtype=float),
    )


def project_all(cameras, point):
    return np.stack([project(c, point) for c in cameras])


class TestCameraParams:
    def test_projection_matrix_composition(self):
        cam = identity_camera(translation=(-1.0, 0.0, 0.0))
        expected = np.hstack([np.eye(3), [[-1.0], [0.0], [0.0]]])
        assert np.array_equal(cam.projection, expected)

    def test_center_inverts_translation(self, ring8):
        for cam in ring8:
            assert np.allclose(cam.rotation @ cam.center + cam.translation, 0.0, atol=1e-9)

    def test_rejects_lower_triangle_in_intrinsics(self):
        k = np.eye(3)
        k[1, 0] = 0.5
        with pytest.raises(InvariantViolation):
            CameraParams(id=0, intrinsics=k, rotation=np.eye(3), translation=np.zeros(3))

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(InvariantViolation):
            CameraParams(
                id=0, intrinsics=np.eye(3), rotation=np.eye(3) * 1.01, translation=np.zeros(3)
            )

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvariantViolation):
            CameraParams(id=0, intrinsics=np.eye(3), rotation=r, translation=np.zeros(3))


class TestProject:
    def test_principal_ray(self):
        cam = identity_camera()
        assert np.allclose(project(cam, (0.0, 0.0, 5.0)), (0.0, 0.0))

    def test_translated_camera(self):
        # Homogeneous coordinates (0-1, 0, 5) dehomogenize to (-0.2, 0).
        cam = identity_camera(translation=(-1.0, 0.0, 0.0))
        assert np.allclose(project(cam, (0.0, 0.0, 5.0)), (-0.2, 0.0))

    def test_zero_depth_degenerate(self):
        cam = identity_camera()
        with pytest.raises(DegenerateProjection):
            project(cam, (1.0, 1.0, 0.0))

    def test_project_many_matches_project(self, ring8, rng):
        pts = rng.uniform(-400, 400, size=(6, 3))
        stacked = np.stack([c.projection for c in ring8])
        uv = project_many(stacked, pts)
        for v, cam in enumerate(ring8):
            for i in range(len(pts)):
                assert np.allclose(uv[v, i], project(cam, pts[i]), atol=1e-9)

    def test_project_many_marks_degenerate_rows_inf(self):
        cam = identity_camera()
        uv = project_many(cam.projection[None], np.array([[1.0, 1.0, 0.0]]))
        assert np.all(np.isinf(uv[0, 0]))


class TestTriangulateDlt:
    def test_two_view_consistency(self):
        cams = [identity_camera(0), identity_camera(1, translation=(-1.0, 0.0, 0.0))]
        point = np.array([0.0, 0.0, 5.0])
        obs = [(c, project(c, point)) for c in cams]
        assert np.allclose(triangulate_dlt(obs), point, atol=1e-6)

    def test_ring_recovery(self, ring8, rng):
        for _ in range(20):
            point = rng.uniform(-500.0, 500.0, size=3)
            obs = [(c, project(c, point)) for c in ring8]
            rec = triangulate_dlt(obs)
            assert np.linalg.norm(rec - point) <= 1e-6 * max(1.0, np.linalg.norm(point))

    def test_single_observation_rejected(self):
        cam = identity_camera()
        with pytest.raises(InsufficientViews):
            triangulate_dlt([(cam, (0.0, 0.0))])

    def test_bad_observation_shape(self):
        cams = [identity_camera(0), identity_camera(1, translation=(-1.0, 0.0, 0.0))]
        with pytest.raises(DimensionMismatch):
            triangulate_dlt([(cams[0], (0.0, 0.0, 0.0)), (cams[1], (0.0, 0.0, 0.0))])


class TestRobustTriangulate:
    def test_noiseless_all_inliers(self, ring8, rng):
        point = rng.uniform(-500.0, 500.0, size=3)
        kt = robust_triangulate(ring8, project_all(ring8, point), threshold_px=5.0)
        assert kt.inlier_mask.all()
        assert kt.reproj_error_px2 <= 1e-9
        assert np.allclose(kt.point, point, atol=1e-6)

    def test_single_corrupted_view_excluded(self, ring8, rng):
        point = rng.uniform(-500.0, 500.0, size=3)
        obs = project_all(ring8, point)
        obs[3] += (100.0, 0.0)
        kt = robust_triangulate(ring8, obs, threshold_px=5.0)
        assert not kt.inlier_mask[3]
        assert kt.inlier_mask.sum() == 7
        assert np.linalg.norm(kt.point - point) <= 1e-6

    def test_inconsistent_rays_no_consensus(self):
        cams = [identity_camera(0), identity_camera(1, translation=(-1.0, 0.0, 0.0))]
        point = np.array([0.0, 0.0, 5.0])
        obs = project_all(cams, point)
        obs[1] += (50.0, 40.0)
        with pytest.raises(NoConsensus):
            robust_triangulate(cams, obs, threshold_px=5.0)

    def test_threshold_must_be_positive(self, ring8):
        with pytest.raises(InvariantViolation):
            robust_triangulate(ring8, np.zeros((8, 2)), threshold_px=0.0)

    def test_deterministic(self, ring8, rng):
        point = rng.uniform(-500.0, 500.0, size=3)
        obs = project_all(ring8, point) + rng.normal(0, 2.0, size=(8, 2))
        a = robust_triangulate(ring8, obs, threshold_px=5.0)
        b = robust_triangulate(ring8, obs, threshold_px=5.0)
        assert np.array_equal(a.point, b.point)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.reproj_error_px2 == b.reproj_error_px2

    @given(st.integers(0, 7), st.floats(51.0, 500.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_monotone_corruption(self, view, offset_px, seed):
        # A far outlier is masked, so the recovered point stays put.
        cams = ring_cameras(8, 3000.0, 400.0, 700.0, 1000.0)
        point = np.random.default_rng(seed).uniform(-500.0, 500.0, size=3)
        clean = project_all(cams, point)
        kt_clean = robust_triangulate(cams, clean, threshold_px=5.0)
        corrupted = clean.copy()
        corrupted[view] += offset_px / np.sqrt(2.0)
        kt_bad = robust_triangulate(cams, corrupted, threshold_px=5.0)
        assert not kt_bad.inlier_mask[view]
        assert np.linalg.norm(kt_bad.point - kt_clean.point) <= 1e-6


class TestFrameTriangulate:
    def test_epsilon_arithmetic(self):
        # One keypoint, two views, residual distances 2 px and 4 px.
        dist2 = np.array([[4.0, 16.0]])
        failed = np.array([False])
        assert aggregate_epsilon(dist2, failed) == pytest.approx(10.0)

    def test_epsilon_euclidean_mode(self):
        dist2 = np.array([[4.0, 16.0]])
        failed = np.array([False])
        assert aggregate_epsilon(dist2, failed, mc_error="euclidean") == pytest.approx(3.0)

    def test_epsilon_failure_penalty(self):
        dist2 = np.array([[4.0, 16.0], [0.0, 0.0]])
        failed = np.array([False, True])
        got = aggregate_epsilon(dist2, failed, failure_penalty_px2=100.0)
        assert got == pytest.approx((4.0 + 16.0 + 100.0 + 100.0) / 4.0)

    def test_epsilon_rejects_unknown_mode(self):
        with pytest.raises(InvariantViolation):
            aggregate_epsilon(np.zeros((1, 2)), np.array([False]), mc_error="abs")

    def test_noiseless_frame(self, ring8, rng):
        pose = rng.uniform(-400.0, 400.0, size=(5, 3))
        preds = np.stack([[project(c, p) for p in pose] for c in ring8])
        ft = triangulate_frames(ring8, preds[None], threshold_px=5.0)[0]
        assert ft.epsilon <= 1e-9
        assert ft.inlier_count == len(ring8)
        assert np.allclose(ft.points, pose, atol=1e-6)

    def test_inlier_count_is_min_over_keypoints(self, ring8, rng):
        pose = rng.uniform(-400.0, 400.0, size=(2, 3))
        preds = np.stack([[project(c, p) for p in pose] for c in ring8])
        preds[2, 1] += (100.0, 0.0)  # corrupt keypoint 1 in one view
        ft = triangulate_frames(ring8, preds[None], threshold_px=5.0)[0]
        counts = [kt.inlier_mask.sum() for kt in ft.per_keypoint]
        assert counts == [8, 7]
        assert ft.inlier_count == 7

    def test_failed_keypoint_becomes_none(self):
        cams = [identity_camera(0), identity_camera(1, translation=(-1.0, 0.0, 0.0))]
        pose = np.array([[0.0, 0.0, 5.0], [0.1, 0.1, 5.0]])
        preds = np.stack([[project(c, p) for p in pose] for c in cams])
        preds[1, 0] += (80.0, 80.0)  # keypoint 0 loses its only pair
        ft = triangulate_frames(cams, preds[None], threshold_px=5.0)[0]
        assert ft.per_keypoint[0] is None
        assert ft.per_keypoint[1] is not None
        assert ft.inlier_count == 0
        assert np.isnan(ft.points[0]).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_epsilon_invariant_to_view_and_keypoint_order(self, seed):
        cams = ring_cameras(6, 3000.0, 400.0, 700.0, 1000.0)
        r = np.random.default_rng(seed)
        pose = r.uniform(-400.0, 400.0, size=(4, 3))
        preds = np.stack([[project(c, p) for p in pose] for c in cams])
        preds += r.normal(0, 1.0, size=preds.shape)
        base = triangulate_frames(cams, preds[None], threshold_px=5.0)[0]

        vperm = r.permutation(len(cams))
        kperm = r.permutation(pose.shape[0])
        cams_p = [cams[v] for v in vperm]
        preds_p = preds[vperm][:, kperm]
        permuted = triangulate_frames(cams_p, preds_p[None], threshold_px=5.0)[0]
        assert permuted.epsilon == pytest.approx(base.epsilon, rel=1e-9)
        assert permuted.inlier_count == base.inlier_count

    def test_batch_matches_per_frame(self, ring8, rng):
        poses = rng.uniform(-400.0, 400.0, size=(5, 3, 3))
        preds = np.stack(
            [[[project(c, p) for p in pose] for c in ring8] for pose in poses]
        )
        preds += rng.normal(0, 1.0, size=preds.shape)
        batch = triangulate_frames(ring8, preds, threshold_px=5.0)
        for f in range(len(poses)):
            single = triangulate_frames(ring8, preds[f : f + 1], threshold_px=5.0)[0]
            assert single.epsilon == batch[f].epsilon
            assert single.inlier_count == batch[f].inlier_count
            assert np.array_equal(single.points, batch[f].points, equal_nan=True)

    def test_batch_chunking_is_invisible(self, ring8, rng):
        poses = rng.uniform(-400.0, 400.0, size=(7, 4, 3))
        preds = np.stack(
            [[[project(c, p) for p in pose] for c in ring8] for pose in poses]
        )
        preds += rng.normal(0, 1.5, size=preds.shape)
        a = triangulate_frames(ring8, preds, threshold_px=5.0, chunk=4)
        b = triangulate_frames(ring8, preds, threshold_px=5.0, chunk=4096)
        for x, y in zip(a, b):
            assert x.epsilon == y.epsilon
            assert np.array_equal(x.points, y.points, equal_nan=True)

    def test_empty_stack(self, ring8):
        assert triangulate_frames(ring8, np.empty((0, 8, 3, 2))) == []

    def test_worker_pool_is_invisible(self, ring8, rng, monkeypatch):
        # Outlier views in some keypoints, and keypoints whose views all
        # see unrelated points and so reach no consensus.
        poses = rng.uniform(-400.0, 400.0, size=(6, 5, 3))
        preds = np.stack([[[project(c, p) for p in pose] for c in ring8] for pose in poses])
        preds += rng.normal(0, 1.0, size=preds.shape)
        preds[:, 2:4, 1] += rng.normal(0.0, 40.0, size=(6, 2, 2))
        preds[1::2, :, 3] = rng.uniform(0.0, 1000.0, size=(3, 8, 2))
        reference = triangulate_frames(ring8, preds, threshold_px=5.0)
        no_consensus = ~np.array([ft.inlier_mask.any(axis=1) for ft in reference])
        assert no_consensus.any() and not no_consensus.all()

        solve, threads = geometry._robust_triangulate_batch, set()

        def recording_batch(*args):
            threads.add(threading.get_ident())
            time.sleep(0.005)  # long enough for every worker to take a batch
            return solve(*args)

        monkeypatch.setattr(geometry, "_robust_triangulate_batch", recording_batch)
        for workers in (1, 2, 3):
            for chunk in (4, geometry._TRIANGULATE_BATCH):
                threads.clear()
                got = triangulate_frames(
                    ring8, preds, threshold_px=5.0, chunk=chunk, workers=workers
                )
                # The 30 keypoints make one default batch, which needs no pool.
                assert (len(threads) > 1) == (workers > 1 and chunk == 4)
                for x, y in zip(got, reference):
                    for name in ("points", "inlier_mask", "reproj_error_px2"):
                        a, b = getattr(x, name), getattr(y, name)
                        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
                    assert (x.epsilon, x.inlier_count) == (y.epsilon, y.inlier_count)


def exhaustive_batch(projections, points, threshold_px):
    """Every pair of every keypoint, as one batch: the reference that the
    staged early exit of _robust_triangulate_batch must reproduce bit for
    bit. Returns (points, inlier_mask, dist2, ok, mean_inlier_err)."""
    n_views = projections.shape[0]
    pairs = np.array(list(itertools.combinations(range(n_views), 2)))
    rows = geometry._dlt_rows(projections, points)
    a_pairs = rows[:, pairs].reshape(points.shape[0], len(pairs), 4, 4)
    xh, valid = geometry._solve_nullspace(a_pairs)
    d2 = geometry._reproj_dist2(projections, xh, points[:, None, :, :])
    inliers = d2 <= threshold_px**2
    inliers[~valid] = False
    counts = inliers.sum(axis=2)
    with np.errstate(invalid="ignore"):
        mean_err = np.where(
            counts > 0, np.sum(np.where(inliers, d2, 0.0), axis=2) / np.maximum(counts, 1), np.inf
        )
    best_count = counts.max(axis=1)
    at_max = counts == best_count[:, None]
    err_masked = np.where(at_max, mean_err, np.inf)
    best_pair = np.argmax(at_max & (err_masked == err_masked.min(axis=1)[:, None]), axis=1)
    b_idx = np.arange(points.shape[0])
    hyp_mask = inliers[b_idx, best_pair]
    ok = best_count >= 2
    refit_a = rows * hyp_mask[:, :, None, None]
    refit_xh, refit_ok = geometry._solve_nullspace(refit_a.reshape(-1, 2 * n_views, 4))
    final_xh = np.where((refit_ok & ok)[:, None], refit_xh, xh[b_idx, best_pair])
    d2_final = geometry._reproj_dist2(projections, final_xh, points)
    final_mask = d2_final <= threshold_px**2
    final_mask[~ok] = False
    final_counts = final_mask.sum(axis=1)
    ok &= final_counts >= 2
    with np.errstate(invalid="ignore"):
        final_err = np.where(
            ok,
            np.sum(np.where(final_mask, d2_final, 0.0), axis=1) / np.maximum(final_counts, 1),
            np.inf,
        )
    w = final_xh[:, 3]
    pts = final_xh[:, :3] / np.where(np.abs(w) > geometry._W_EPS, w, 1.0)[:, None]
    pts[~ok] = np.nan
    final_mask[~ok] = False
    return pts, final_mask, d2_final, ok, final_err


def assert_same_as_exhaustive(projections, points, threshold_px):
    staged = geometry._robust_triangulate_batch(projections, points, threshold_px)
    reference = exhaustive_batch(projections, points, threshold_px)
    for name, want in zip(("points", "inlier_mask", "dist2", "ok", "mean_inlier_err"), reference):
        got = getattr(staged, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        # Byte comparison: NaN matches NaN, and +0.0 differs from -0.0.
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
    return staged


def all_view_keypoints(projections, points, threshold_px):
    """Keypoints some single pair explains in every view (early exit)."""
    pairs = np.concatenate(geometry._pair_stages(projections.shape[0]))
    rows = geometry._dlt_rows(projections, points)
    inliers = geometry._pair_hypotheses(rows, projections, points, pairs, threshold_px)[2]
    return inliers.all(axis=2).any(axis=1)


class TestStagedPairs:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=20)
    def test_outlier_views_bit_identical(self, seed, noise_px):
        r = np.random.default_rng(seed)
        cams = ring_cameras(8, 3000.0, 400.0, 700.0, 1000.0)
        projections = np.stack([c.projection for c in cams])
        pose = r.uniform(-400.0, 400.0, size=(300, 3))
        obs = np.stack([project_all(cams, p) for p in pose])
        obs += r.normal(0.0, noise_px, size=obs.shape)
        for b in range(len(obs)):  # 0-3 outlier views per keypoint
            bad = r.choice(8, size=int(r.integers(0, 4)), replace=False)
            obs[b, bad] += r.normal(0.0, 40.0, size=(len(bad), 2))
        settled = all_view_keypoints(projections, obs, 5.0)
        assert settled.any() and not settled.all()
        assert_same_as_exhaustive(projections, obs, 5.0)

    def test_degenerate_refit_keeps_winning_pair_point(self):
        # Random observations with a huge threshold: most keypoints have a
        # pair that keeps every view, and a few of those have an all-view
        # refit without a clean null space.
        cams = ring_cameras(3, 3000.0, 400.0, 700.0, 1000.0)
        projections = np.stack([c.projection for c in cams])
        obs = np.random.default_rng(5).uniform(0.0, 1000.0, size=(20000, 3, 2))
        rows = geometry._dlt_rows(projections, obs)
        _, refit_ok = geometry._solve_nullspace(rows.reshape(-1, 6, 4))
        degenerate = all_view_keypoints(projections, obs, 1e6) & ~refit_ok
        assert degenerate.sum() >= 3
        staged = assert_same_as_exhaustive(projections, obs, 1e6)
        assert staged.ok[degenerate].all()

    def test_pair_systems_at_nullspace_ratio_boundary(self):
        # Observations at the origin make a pair's system exactly the rows
        # -P[:2] of its two cameras, so each system can be given singular
        # values whose ratio straddles _NULLSPACE_RATIO by a few ulps.
        r = np.random.default_rng(11)
        n = 200
        projections, points = [], []
        for i in range(n):
            ratio = _NULLSPACE_RATIO + (i % 9 - 4) * 1e-16
            u, _ = np.linalg.qr(r.normal(size=(4, 4)))
            v, _ = np.linalg.qr(r.normal(size=(4, 4)))
            a = u @ np.diag([10.0, 5.0, 1.0, ratio]) @ v.T
            cams = np.zeros((3, 3, 4))
            cams[0, :2], cams[1, :2] = -a[:2], -a[2:]
            cams[2, :2] = r.normal(size=(2, 4))
            cams[:, 2] = (0.0, 0.0, 0.0, 1.0)
            projections.append(cams)
            points.append(np.vstack([np.zeros((2, 2)), r.normal(size=(1, 2))]))
        valid = []
        for cams, obs in zip(projections, points):
            a = geometry._dlt_rows(cams, obs[None])[0, :2].reshape(4, 4)
            s = np.linalg.svd(a, compute_uv=False)
            assert s[-1] == pytest.approx(_NULLSPACE_RATIO * s[-2], rel=1e-12)
            valid.append(bool(geometry._solve_nullspace(a)[1]))
            for threshold in (1e-3, 1e9):
                assert_same_as_exhaustive(cams, obs[None], threshold)
        assert any(valid) and not all(valid)

    def test_residual_exactly_at_threshold(self, ring8):
        # The threshold is set to the worst residual of pair (0, 1), the
        # first stage, so that pair keeps every view exactly at the
        # threshold and loses one just below it.
        r = np.random.default_rng(3)
        projections = np.stack([c.projection for c in ring8])
        pose = r.uniform(-400.0, 400.0, size=(40, 3))
        obs = np.stack([project_all(ring8, p) for p in pose])
        obs += r.normal(0.0, 1.0, size=obs.shape)
        rows = geometry._dlt_rows(projections, obs)
        first = np.array([[0, 1]])
        worst = geometry._pair_hypotheses(rows, projections, obs, first, 1.0)[1][:, 0].max(axis=1)
        hits = 0
        for b in np.argsort(worst):
            at = float(np.sqrt(worst[b]))
            if at**2 != worst[b]:
                continue
            below = np.nextafter(at, 0.0)
            while below**2 >= worst[b]:
                below = np.nextafter(below, 0.0)
            for t, keeps_all in ((at, True), (below, False)):
                one = slice(b, b + 1)
                inliers = geometry._pair_hypotheses(rows[one], projections, obs[one], first, t)[2]
                assert inliers.all() == keeps_all
                assert_same_as_exhaustive(projections, obs, t)
            hits += 1
            if hits == 3:
                break
        assert hits == 3

    @pytest.mark.parametrize("depth, sure", [(geometry._W_EPS, False), (1.0, True)])
    def test_hypothesis_at_behind_camera_cutoff(self, ring8, depth, sure):
        # View 7's third projection row is moved so that the point has
        # homogeneous depth `depth` in it. Pair (0, 1) recovers the point,
        # so its hypothesis sits at the w <= _W_EPS cutoff of view 7, a
        # decision the Jacobi path leaves to SVD, or 1 mm clear of it.
        point = np.array([120.0, -80.0, 40.0])
        projections = np.stack([c.projection for c in ring8])
        projections[7, 2, 3] = depth - projections[7, 2, :3] @ point
        obs = np.vstack([project_all(ring8[:7], point), [[600.0, 300.0]]])[None]
        rows = geometry._dlt_rows(projections, obs)
        first = np.array([[0, 1]])
        xh, _, inliers, first_sure = geometry._pair_hypotheses(rows, projections, obs, first, 5.0)
        w = projections[7, 2] @ xh[0, 0]
        assert abs(w - depth) <= 1e-9 * np.abs(projections[7, 2]) @ np.abs(xh[0, 0])
        assert inliers[0, 0, :7].all()
        assert first_sure[0] == sure
        assert geometry._staged_pairs(rows, projections, obs, 5.0, exact=False)[2][0] == sure
        assert_same_as_exhaustive(projections, obs, 5.0)


def random_rotations(r, n):
    return np.stack([np.linalg.qr(r.normal(size=(4, 4)))[0] for _ in range(n)])


def systems_with_singular_values(r, singular_values, n=400):
    """n random 4x4 systems U diag(singular_values) V^T."""
    u, v = random_rotations(r, n), random_rotations(r, n)
    return u @ (np.asarray(singular_values, dtype=float)[:, None] * v.transpose(0, 2, 1))


def assert_jacobi_matches_svd(a, vector_tol):
    """The Jacobi kernel against np.linalg.svd on stacked (M, 4, 4) systems.

    Where the kernel is sure, ok matches SVD's exactly; singular values
    match to 1e-13 of the largest, and on systems with a clean null space
    the unit null vectors match, up to sign, to vector_tol. Returns sure.
    """
    x, sv, _ = geometry._jacobi_chunk(a)
    _, s, vt = np.linalg.svd(a)
    _, ok, sure = geometry._jacobi_nullspace(a)
    _, want_ok = geometry._solve_nullspace(a)
    assert np.array_equal(ok[sure], want_ok[sure])
    want_sv = np.stack([s[:, -1], s[:, -2], s[:, 0]])
    assert np.all(np.abs(sv - want_sv) <= 1e-13 * s[:, 0])
    v = vt[:, -1]
    deviation = np.minimum(np.abs(x - v).max(axis=1), np.abs(x + v).max(axis=1))
    assert np.all(deviation[sure & want_ok] <= vector_tol)
    return sure


def disagreeing_pairs_keypoint(ring8):
    """Views 0-3 see one point and views 4-7 another, without noise, so
    pairs (0, 1) and (4, 5) both explain four views with mean errors that
    differ by rounding alone, and their masks differ."""
    a, b = np.array([100.0, -50.0, 20.0]), np.array([-300.0, 250.0, -100.0])
    obs = np.vstack([project_all(ring8[:4], a), project_all(ring8[4:], b)])
    return np.stack([c.projection for c in ring8]), obs[None]


class TestJacobiKernel:
    def test_random_systems(self, rng):
        sure = assert_jacobi_matches_svd(rng.normal(size=(2000, 4, 4)), 1e-12)
        assert sure.all()

    def test_badly_scaled_columns(self, rng):
        # Column norms spread over 8 decades, far wider than in the DLT
        # pair systems (under 3).
        a = rng.normal(size=(2000, 4, 4)) * 10.0 ** rng.uniform(-4, 4, size=(2000, 1, 4))
        sure = assert_jacobi_matches_svd(a, 1e-9)
        assert sure.mean() > 0.9

    def test_rank_three(self, rng):
        sure = assert_jacobi_matches_svd(systems_with_singular_values(rng, [5, 2, 1, 0]), 1e-13)
        assert sure.mean() > 0.9

    def test_rank_two_is_never_sure(self, rng):
        # A two-dimensional null space: SVD's ok rests on rounding noise.
        sure = assert_jacobi_matches_svd(systems_with_singular_values(rng, [5, 2, 0, 0]), 0.0)
        assert not sure.any()

    @pytest.mark.parametrize(
        "singular_values, clean",
        [([3, 2, 1, 1], False), ([4, 4, 4, 1], True), ([3, 1, 1, 0.2], True)],
    )
    def test_repeated_singular_values(self, rng, singular_values, clean):
        a = systems_with_singular_values(rng, singular_values)
        sure = assert_jacobi_matches_svd(a, 1e-13)
        assert sure.all()
        assert np.all(geometry._jacobi_nullspace(a)[1] == clean)

    @pytest.mark.parametrize(
        "norms", [[2.0, 2.0, 1.0, 1.0], [1.0, 3.0, 1.0, 3.0], [5.0, 1.0, 1.0, 1.0]]
    )
    def test_tied_row_norms_keep_row_order(self, norms):
        # Orthogonal rows are already converged, so the rows are ordered
        # by norm alone; among rows of one norm the lower index counts as
        # the smaller. The null vector is then the unit vector of the
        # first row of least norm, whatever sort numpy uses.
        a = np.diag(norms)[None]
        x, sv, converged = geometry._jacobi_chunk(a)
        assert converged.all()
        ordered = sorted(norms)
        assert sv[:, 0].tolist() == [ordered[0], ordered[1], ordered[3]]
        assert np.abs(x[0]).tolist() == np.eye(4)[int(np.argmin(norms))].tolist()

    def test_extreme_scales(self, rng):
        a = rng.normal(size=(500, 4, 4))
        for scale in (1e-200, 1e200):
            assert assert_jacobi_matches_svd(a * scale, 1e-12).all()

    def test_non_finite_systems_are_not_sure(self, rng):
        a = rng.normal(size=(3, 4, 4))
        a[0, 1, 2], a[1, 0, 0], a[2, 3, 3] = np.nan, np.inf, -np.inf
        assert not geometry._jacobi_nullspace(a)[2].any()

    def test_systems_at_nullspace_ratio_boundary_are_not_sure(self, rng):
        # The systems of test_pair_systems_at_nullspace_ratio_boundary: SVD
        # decides them by ulps, so the kernel leaves them to SVD.
        ratio = _NULLSPACE_RATIO + (np.arange(400) % 9 - 4) * 1e-16
        u, v = random_rotations(rng, 400), random_rotations(rng, 400)
        sv = np.stack([np.full(400, 10.0), np.full(400, 5.0), np.ones(400), ratio], axis=1)
        a = u @ (sv[:, :, None] * v.transpose(0, 2, 1))
        assert not assert_jacobi_matches_svd(a, 0.0).any()

    def test_rival_winners_with_different_masks_go_to_svd(self, ring8):
        projections, obs = disagreeing_pairs_keypoint(ring8)
        rows = geometry._dlt_rows(projections, obs)
        _, ok, sure = geometry._staged_pairs(rows, projections, obs, 5.0, exact=False)
        assert ok[0] and not sure[0]
        staged = assert_same_as_exhaustive(projections, obs, 5.0)
        assert staged.inlier_mask[0].sum() == 4

    def test_clear_winner_is_sure(self, ring8):
        # The same keypoint with one view of the second point moved by
        # 1 px: its pairs' errors are now far apart.
        projections, obs = disagreeing_pairs_keypoint(ring8)
        obs[0, 6] += 1.0
        rows = geometry._dlt_rows(projections, obs)
        _, ok, sure = geometry._staged_pairs(rows, projections, obs, 5.0, exact=False)
        assert ok[0] and sure[0]
        assert_same_as_exhaustive(projections, obs, 5.0)

    @pytest.mark.parametrize("outlier_prob", [0.0, 0.05])
    def test_default_scene_rarely_falls_back_to_svd(self, outlier_prob):
        # Every training frame of the default scene through the predictor,
        # as a campaign's first round sees it. A kernel that sent
        # everything to SVD would still be exact, but slow.
        ds = generate_synthetic(SyntheticSpec())
        frames = ds.train_ids
        pool = summarize_pool(ds.poses(frames[:20]), total_count=len(frames))
        model = NoiseModel(outlier_prob_base=outlier_prob)
        obs = np.stack(
            [
                infer(f, ds.poses([f])[0], ds.cameras, pool, model, 1, include_heatmaps=False).points
                for f in frames
            ]
        )  # (F, N, K, 2)
        obs = obs.transpose(0, 2, 1, 3).reshape(-1, len(ds.cameras), 2)
        projections = np.stack([c.projection for c in ds.cameras])
        rows = geometry._dlt_rows(projections, obs)
        sure = geometry._staged_pairs(rows, projections, obs, 5.0, exact=False)[2]
        assert (~sure).mean() < 0.01
        assert_same_as_exhaustive(projections, obs, 5.0)


class TestRoundTripProperty:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=50)
    def test_generate_project_recover(self, seed, n_views):
        r = np.random.default_rng(seed)
        cams = ring_cameras(n_views, 3000.0, 400.0, 700.0, 1000.0)
        point = r.uniform(-500.0, 500.0, size=3)
        rec = triangulate_dlt([(c, project(c, point)) for c in cams])
        assert np.linalg.norm(rec - point) <= 1e-6 * max(1.0, np.linalg.norm(point))
