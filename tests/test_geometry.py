"""Projection, triangulation, and robust consensus."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annosim import geometry
from annosim.dataset import SyntheticSpec, generate_synthetic, ring_cameras
from annosim.errors import (
    DegenerateProjection,
    DimensionMismatch,
    IllConditioned,
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
    triangulate_dlt_many,
    triangulate_frames,
)
from annosim.predictor import NoiseModel, infer, summarize_pool

# The FrameTriangulation fields, each an array with the frame axis first.
NAMES = ("points", "inlier_mask", "reproj_error_px2", "epsilon", "inlier_count")


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


    def test_batched_solve_equals_per_keypoint_dlt(self, ring8):
        # Contaminated 8-view keypoints, and random 3-view observations,
        # 4 of which give a system with no clean null space: each row of
        # the one batched solve is the one-row solve of its keypoint byte
        # for byte, all NaN exactly where triangulate_dlt, a one-row
        # solve, raises IllConditioned.
        ring3 = ring_cameras(3, 3000.0, 400.0, 700.0, 1000.0)
        cases = [
            (ring8, noisy_observations(ring8, np.random.default_rng(7), 200, outlier_views=3)),
            (ring3, np.random.default_rng(5).uniform(0.0, 1000.0, size=(4000, 3, 2))),
        ]
        ill = 0
        for cams, obs in cases:
            projections = np.stack([c.projection for c in cams])
            got = triangulate_dlt_many(projections, obs)
            assert got.shape == (len(obs), 3)
            for row, points in zip(got, obs):
                assert row.tobytes() == triangulate_dlt_many(projections, points[None])[0].tobytes()
                try:
                    want = triangulate_dlt(list(zip(cams, points)))
                except IllConditioned:
                    assert np.isnan(row).all()
                    ill += 1
                else:
                    assert row.tobytes() == want.tobytes()
        assert ill == 4


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
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(InvariantViolation, match="threshold_px must be positive"):
                robust_triangulate(ring8, np.zeros((8, 2)), threshold_px=bad)

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
        tri = triangulate_frames(ring8, preds[None], threshold_px=5.0)
        assert tri.epsilon.shape == tri.inlier_count.shape == (1,)
        assert tri.epsilon[0] <= 1e-9
        assert tri.inlier_count[0] == len(ring8)
        assert np.allclose(tri.points[0], pose, atol=1e-6)

    def test_inlier_count_is_min_over_keypoints(self, ring8, rng):
        pose = rng.uniform(-400.0, 400.0, size=(2, 3))
        preds = np.stack([[project(c, p) for p in pose] for c in ring8])
        preds[2, 1] += (100.0, 0.0)  # corrupt keypoint 1 in one view
        tri = triangulate_frames(ring8, preds[None], threshold_px=5.0)
        counts = [kt.inlier_mask.sum() for kt in tri.per_keypoint]
        assert counts == [8, 7]
        assert tri.inlier_count.tolist() == [7]

    def test_failed_keypoint_becomes_none(self):
        cams = [identity_camera(0), identity_camera(1, translation=(-1.0, 0.0, 0.0))]
        pose = np.array([[0.0, 0.0, 5.0], [0.1, 0.1, 5.0]])
        preds = np.stack([[project(c, p) for p in pose] for c in cams])
        preds[1, 0] += (80.0, 80.0)  # keypoint 0 loses its only pair
        tri = triangulate_frames(cams, preds[None], threshold_px=5.0)
        assert tri.per_keypoint[0] is None
        assert tri.per_keypoint[1] is not None
        assert tri.inlier_count.tolist() == [0]
        assert np.isnan(tri.points[0, 0]).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_epsilon_invariant_to_view_and_keypoint_order(self, seed):
        cams = ring_cameras(6, 3000.0, 400.0, 700.0, 1000.0)
        r = np.random.default_rng(seed)
        pose = r.uniform(-400.0, 400.0, size=(4, 3))
        preds = np.stack([[project(c, p) for p in pose] for c in cams])
        preds += r.normal(0, 1.0, size=preds.shape)
        base = triangulate_frames(cams, preds[None], threshold_px=5.0)

        vperm = r.permutation(len(cams))
        kperm = r.permutation(pose.shape[0])
        cams_p = [cams[v] for v in vperm]
        preds_p = preds[vperm][:, kperm]
        permuted = triangulate_frames(cams_p, preds_p[None], threshold_px=5.0)
        assert permuted.epsilon[0] == pytest.approx(base.epsilon[0], rel=1e-9)
        assert permuted.inlier_count[0] == base.inlier_count[0]

    def test_batch_matches_per_frame(self, ring8, rng):
        poses = rng.uniform(-400.0, 400.0, size=(5, 3, 3))
        preds = np.stack(
            [[[project(c, p) for p in pose] for c in ring8] for pose in poses]
        )
        preds += rng.normal(0, 1.0, size=preds.shape)
        batch = triangulate_frames(ring8, preds, threshold_px=5.0)
        for f in range(len(poses)):
            single = triangulate_frames(ring8, preds[f : f + 1], threshold_px=5.0)
            assert single.epsilon[0] == batch.epsilon[f]
            assert single.inlier_count[0] == batch.inlier_count[f]
            assert np.array_equal(single.points[0], batch.points[f], equal_nan=True)

    def test_stack_shapes_and_per_frame_views(self, ring8, rng):
        # One stack of F frames, every field read-only. Iterating yields
        # its one-frame stacks, and per_keypoint lists its keypoints in
        # (frame, keypoint) order: the two forms the benchmark tracer reads.
        poses = rng.uniform(-400.0, 400.0, size=(3, 4, 3))
        preds = np.stack([[[project(c, p) for p in pose] for c in ring8] for pose in poses])
        preds[1, :, 2] = rng.uniform(0.0, 1000.0, size=(8, 2))  # no consensus
        tri = triangulate_frames(ring8, preds, threshold_px=5.0)
        shapes = [(3, 4, 3), (3, 4, 8), (3, 4), (3,), (3,)]
        for name, shape in zip(NAMES, shapes):
            assert getattr(tri, name).shape == shape
            assert not getattr(tri, name).flags.writeable
        frames = list(tri)
        assert len(frames) == 3
        for f, one in enumerate(frames):
            for name in NAMES:
                a, b = getattr(one, name), getattr(tri, name)[f : f + 1]
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
        listed = tri.per_keypoint
        assert [kt is None for kt in listed] == [False] * 6 + [True] + [False] * 5
        for (f, k), kt in zip(itertools.product(range(3), range(4)), listed):
            if kt is not None:
                assert np.array_equal(kt.point, tri.points[f, k])
                assert np.array_equal(kt.inlier_mask, tri.inlier_mask[f, k])
                assert kt.reproj_error_px2 == tri.reproj_error_px2[f, k]

    def test_empty_stack(self, ring8):
        tri = triangulate_frames(ring8, np.empty((0, 8, 3, 2)))
        assert len(tri.epsilon) == 0
        assert tri.points.shape == (0, 3, 3) and tri.inlier_mask.shape == (0, 3, 8)
        assert list(tri) == [] and tri.per_keypoint == []

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 6), max_size=4),
        st.sampled_from(geometry.MC_ERROR_MODES),
    )
    @settings(max_examples=20)
    def test_parts_concatenate_to_the_whole(self, ring8, seed, cuts, mc_error):
        # A stack cut anywhere, each part triangulated on its own and the
        # parts' arrays concatenated: all five arrays equal one call on the
        # whole stack bit for bit, with outlier views and keypoints whose
        # views all see unrelated points, so reach no consensus. The
        # campaign triangulates its passes chunk by chunk on this.
        r = np.random.default_rng(seed)
        poses = r.uniform(-400.0, 400.0, size=(6, 5, 3))
        projections = np.stack([c.projection for c in ring8])
        preds = project_many(projections, poses).transpose(1, 0, 2, 3).copy()
        preds += r.normal(0, 1.0, size=preds.shape)
        preds[:, 2:4, 1] += r.normal(0.0, 40.0, size=(6, 2, 2))
        lost = (r.random(6) < 0.5) | (np.arange(6) == 0)
        preds[lost, :, 3:] = r.uniform(0.0, 1000.0, size=(lost.sum(), 8, 2, 2))

        def solve(stack):
            return triangulate_frames(
                ring8, stack, threshold_px=5.0, mc_error=mc_error, failure_penalty_px2=7.5e5
            )

        whole = solve(preds)
        # Unrelated points agree in two views now and then.
        assume((~whole.inlier_mask.any(axis=2)).any())
        bounds = [0, *sorted(cuts), len(preds)]
        parts = [solve(preds[a:b]) for a, b in zip(bounds, bounds[1:])]
        for name in NAMES:
            got = np.concatenate([getattr(part, name) for part in parts])
            want = getattr(whole, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name


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
    pts, mask, dist2, ok, err = exhaustive_batch(projections, points, threshold_px)
    # A keypoint is ok exactly when it keeps an inlier view, so the batch
    # solve returns no ok of its own.
    assert np.array_equal(ok, mask.any(axis=1))
    names = ("points", "inlier_mask", "dist2", "mean_inlier_err")
    for name, got, want in zip(names, staged, (pts, mask, dist2, err), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        # Byte comparison: NaN matches NaN, and +0.0 differs from -0.0.
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
    return staged


def all_view_keypoints(projections, points, threshold_px):
    """Keypoints some single pair explains in every view (early exit)."""
    pairs = np.concatenate(geometry._pair_stages(projections.shape[0]))
    rows = geometry._dlt_rows(projections, points)
    inliers = geometry._pair_hypotheses(rows, projections, points, pairs, threshold_px)[1]
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
        assert staged[1].any(axis=1)[degenerate].all()

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
        a = rows[:, first].reshape(len(rows), 1, 4, 4)
        xh = geometry._exact_hypotheses(a, projections, obs[:, None], 1.0)[0]
        d2 = geometry._reproj_dist2(projections, xh, obs[:, None])
        worst = d2[:, 0].max(axis=1)
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
                inliers = geometry._pair_hypotheses(rows[one], projections, obs[one], first, t)[1]
                assert inliers.all() == keeps_all
                assert_same_as_exhaustive(projections, obs, t)
            hits += 1
            if hits == 3:
                break
        assert hits == 3

    @pytest.mark.parametrize("depth, sure", [(geometry._W_EPS, False), (1.0, True)])
    def test_hypothesis_at_behind_camera_cutoff(self, ring8, monkeypatch, depth, sure):
        # View 7's third projection row is moved so that the point has
        # homogeneous depth `depth` in it. Pair (0, 1) recovers the point,
        # by the pair kernel and by SVD, so its hypothesis sits at the w <=
        # _W_EPS cutoff of view 7, a decision the pair kernel leaves to
        # SVD, or 1 mm clear of it.
        point = np.array([120.0, -80.0, 40.0])
        projections = np.stack([c.projection for c in ring8])
        projections[7, 2, 3] = depth - projections[7, 2, :3] @ point
        obs = np.vstack([project_all(ring8[:7], point), [[600.0, 300.0]]])[None]
        rows = geometry._dlt_rows(projections, obs)
        first = np.array([[0, 1]])
        kernel_y = geometry._pair_kernel(rows[:, :2], first)[0][:, 0]
        a = rows[:, first].reshape(1, 1, 4, 4)
        svd_xh = geometry._exact_hypotheses(a, projections, obs[:, None], 25.0)[0][0, 0]
        for xh in (np.append(kernel_y, 1.0), svd_xh):
            w = projections[7, 2] @ xh
            assert abs(w - depth) <= 1e-9 * np.abs(projections[7, 2]) @ np.abs(xh)
        solve, solved = geometry._exact_hypotheses, []

        def recording_solve(a, *args):
            solved.append(len(a))
            return solve(a, *args)

        monkeypatch.setattr(geometry, "_exact_hypotheses", recording_solve)
        _, inliers = geometry._pair_hypotheses(rows, projections, obs, first, 5.0)
        assert inliers[0, 0, :7].all()
        assert solved == ([] if sure else [1])
        assert_same_as_exhaustive(projections, obs, 5.0)

    @pytest.mark.parametrize("sure_of_nothing", [True, False])
    def test_fallback_gets_exactly_the_unsure_keypoints(self, ring8, monkeypatch, sure_of_nothing):
        # With sure_of_nothing, the staged search says it is sure of no
        # keypoint, so every one goes to _exhaustive_pairs, and the output
        # must not change by a byte. The cases are contaminated 8-view
        # keypoints with the rival winners of disagreeing_pairs_keypoint
        # among them, and the 3-view set of
        # test_degenerate_refit_keeps_winning_pair_point.
        ring3 = ring_cameras(3, 3000.0, 400.0, 700.0, 1000.0)
        contaminated = noisy_observations(ring8, np.random.default_rng(31), 500, outlier_views=3)
        contaminated[::100] = disagreeing_pairs_keypoint(ring8)[1]
        cases = [
            (ring8, contaminated, 5.0),
            (ring3, np.random.default_rng(5).uniform(0.0, 1000.0, size=(20000, 3, 2)), 1e6),
        ]
        staged, exhaustive = geometry._staged_pairs, geometry._exhaustive_pairs
        for cams, obs, threshold in cases:
            projections = np.stack([c.projection for c in cams])
            want = assert_same_as_exhaustive(projections, obs, threshold)
            unsure, received = [], []

            def search(*args):
                xh, ok, sure = staged(*args)
                if sure_of_nothing:
                    sure[:] = False
                unsure.append(~sure)
                return xh, ok, sure

            def fallback(rows, projections, points, threshold_px):
                received.append((rows, points))
                return exhaustive(rows, projections, points, threshold_px)

            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_staged_pairs", search)
                patch.setattr(geometry, "_exhaustive_pairs", fallback)
                got = geometry._robust_triangulate_batch(projections, obs, threshold)
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
            (redo,) = unsure
            assert redo.any() and (sure_of_nothing or not redo.all())
            (rows, points), = received
            assert np.array_equal(rows, geometry._dlt_rows(projections, obs)[redo])
            assert np.array_equal(points, obs[redo])


def noisy_observations(cams, r, n, outlier_views=0):
    """n random points seen by every camera with 1 px noise, and up to
    outlier_views views per point moved by 40 px: (n, N, 2)."""
    pose = r.uniform(-400.0, 400.0, size=(n, 3))
    obs = np.stack([project_all(cams, p) for p in pose]) + r.normal(0.0, 1.0, size=(n, len(cams), 2))
    for b in range(n):
        bad = r.choice(len(cams), size=int(r.integers(0, outlier_views + 1)), replace=False)
        obs[b, bad] += r.normal(0.0, 40.0, size=(len(bad), 2))
    return obs


class TestTransientMemory:
    def test_31_view_batch_keeps_no_pair_view_distances(self, traced_peak):
        # One float (B, P, N) array of 300 keypoints at 31 views is
        # 300 * 465 * 31 * 8 B = 34.6 MB. The pair search keeps one mean
        # inlier error per pair, its kernel's per-view arrays live one
        # chunk at a time, and the last stage's hypotheses are held once:
        # the whole call on keypoints with up to 4 outlier views peaks at
        # 17.2 MB, below 0.55 of one such array (31.0 MB with the pair
        # points and the last stage held three times, 20.3 MB with it
        # held twice).
        cams = ring_cameras(31, 3000.0, 400.0, 700.0, 1000.0)
        obs = noisy_observations(cams, np.random.default_rng(17), 300, outlier_views=4)
        preds = obs.transpose(1, 0, 2)[None]  # one frame of 300 keypoints
        tri, peak = traced_peak(triangulate_frames, cams, preds)
        assert tri.inlier_mask[0].sum(axis=1).min() >= 31 - 4
        assert peak < 0.55 * 300 * 465 * 31 * 8


class TestHostileRigs:
    """The pair kernel on rigs and observations far from the default scene:
    every result must still equal the exhaustive SVD solve."""

    def test_two_cameras_share_a_centre(self, ring8):
        # Camera 1 sits at camera 0's centre with a longer lens, so pair
        # (0, 1) has no baseline: its two rays meet only at that centre.
        c0 = ring8[0]
        twin = CameraParams(1, c0.intrinsics * [[1.3], [1.3], [1.0]], c0.rotation, c0.translation)
        cams = [c0, twin, *ring8[2:]]
        projections = np.stack([c.projection for c in cams])
        obs = noisy_observations(cams, np.random.default_rng(21), 300, outlier_views=3)
        assert_same_as_exhaustive(projections, obs, 5.0)

    def test_opposite_cameras(self):
        # Two cameras facing each other across the ring: their rays to a
        # point near the axis between them are nearly parallel.
        cams = ring_cameras(2, 3000.0, 0.0, 700.0, 1000.0)
        projections = np.stack([c.projection for c in cams])
        r = np.random.default_rng(22)
        pose = np.column_stack([r.uniform(-400, 400, 300), r.normal(0, 1.0, 300), r.normal(0, 1.0, 300)])
        obs = np.stack([project_all(cams, p) for p in pose]) + r.normal(0, 0.5, size=(300, 2, 2))
        staged = assert_same_as_exhaustive(projections, obs, 5.0)
        assert staged[1].any()

    def test_pair_hypothesis_near_infinity(self, ring8):
        # Views 0 and 1 see a point 10^7 mm out along camera 0's optical
        # axis, the others a point in the working volume: pair (0, 1) has
        # nearly parallel rays, a nearly singular H and a point near
        # infinity.
        r = np.random.default_rng(23)
        axis = ring8[0].rotation[2]
        far = ring8[0].center + 1e7 * axis + r.normal(0.0, 1e3, size=(50, 3))
        obs = noisy_observations(ring8, r, 50)
        obs[:, :2] = [project_all(ring8[:2], p) for p in far]
        projections = np.stack([c.projection for c in ring8])
        assert_same_as_exhaustive(projections, obs, 5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations(self, ring8, bad):
        # SVD cannot solve a non-finite system and raises; the kernel sends
        # such systems to it, so both paths fail alike. The public calls
        # reject the observations before any solve.
        obs = noisy_observations(ring8, np.random.default_rng(24), 20)
        obs[7, 5, 1] = bad
        projections = np.stack([c.projection for c in ring8])
        with pytest.raises(np.linalg.LinAlgError):
            exhaustive_batch(projections, obs, 5.0)
        with pytest.raises(np.linalg.LinAlgError):
            geometry._robust_triangulate_batch(projections, obs, 5.0)
        with pytest.raises(InvariantViolation, match="finite"):
            triangulate_frames(ring8, obs.transpose(1, 0, 2)[None])
        with pytest.raises(InvariantViolation, match="finite"):
            robust_triangulate(ring8, obs[7])
        with pytest.raises(InvariantViolation, match="finite"):
            triangulate_dlt(list(zip(ring8, obs[7])))


def random_rotations(r, n):
    return np.stack([np.linalg.qr(r.normal(size=(4, 4)))[0] for _ in range(n)])


def systems_with_singular_values(r, singular_values, n=400):
    """n random 4x4 systems U diag(singular_values) V^T."""
    u, v = random_rotations(r, n), random_rotations(r, n)
    return u @ (np.asarray(singular_values, dtype=float)[:, None] * v.transpose(0, 2, 1))


def kernel_solve(a):
    """The pair kernel on stacked (M, 4, 4) systems, each read as the two
    2-row blocks of a view pair: (y (M, 3), valid (M,), bound (M,))."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        y, valid, bound = geometry._pair_kernel(a.reshape(-1, 2, 2, 4), np.array([[0, 1]]))
    return y.T, valid, bound


def assert_kernel_matches_svd(a, vector_tol):
    """The pair kernel against np.linalg.svd on stacked (M, 4, 4) systems.

    A certified system has a clean null space by SVD's test, its point is
    within the certified bound of SVD's, give or take SVD's own error
    (eps * s_max / (s2 - s1) in angle, which dehomogenizing stretches by
    up to 1 + |y|^2), and its unit null vector matches SVD's, up to sign,
    to vector_tol. Returns the certified mask.
    """
    y, valid, bound = kernel_solve(a)
    want, want_ok = geometry._solve_nullspace(a)
    assert want_ok[valid].all()
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore"):
        svd_err = 8 * np.finfo(float).eps * s[:, 0] / (s[:, 2] - s[:, 3])
    svd_err *= 1.0 + np.sum(want[:, :3] ** 2, axis=1)
    gap = np.linalg.norm(y - want[:, :3], axis=1)
    assert np.all(gap[valid] <= (bound + svd_err)[valid])
    x = np.concatenate([y, np.ones((len(y), 1))], axis=1)
    v = want / np.linalg.norm(want, axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    deviation = np.minimum(np.abs(x - v).max(axis=1), np.abs(x + v).max(axis=1))
    assert np.all(deviation[valid] <= vector_tol)
    return valid


def disagreeing_pairs_keypoint(ring8):
    """Views 0-3 see one point and views 4-7 another, without noise, so
    pairs (0, 1) and (4, 5) both explain four views with mean errors that
    differ by rounding alone, and their masks differ."""
    a, b = np.array([100.0, -50.0, 20.0]), np.array([-300.0, 250.0, -100.0])
    obs = np.vstack([project_all(ring8[:4], a), project_all(ring8[4:], b)])
    return np.stack([c.projection for c in ring8]), obs[None]


class TestJacobiKernel:
    """The pair kernel: Newton on the secular equation of each pair's Gram
    matrix and its certificate. The class and test names are those of the
    one-sided Jacobi kernel that the Gram kernel replaced; the cases are
    the same."""

    def test_random_systems(self, rng):
        valid = assert_kernel_matches_svd(rng.normal(size=(2000, 4, 4)), 1e-12)
        assert valid.all()

    def test_badly_scaled_columns(self, rng):
        # Column norms spread over 8 decades, far wider than in the DLT
        # pair systems (under 4).
        a = rng.normal(size=(2000, 4, 4)) * 10.0 ** rng.uniform(-4, 4, size=(2000, 1, 4))
        valid = assert_kernel_matches_svd(a, 1e-9)
        assert valid.mean() > 0.9

    def test_rank_three(self, rng):
        valid = assert_kernel_matches_svd(systems_with_singular_values(rng, [5, 2, 1, 0]), 1e-13)
        assert valid.mean() > 0.9

    def test_rank_two_is_never_sure(self, rng):
        # A two-dimensional null space: SVD's ok rests on rounding noise.
        valid = assert_kernel_matches_svd(systems_with_singular_values(rng, [5, 2, 0, 0]), 0.0)
        assert not valid.any()

    @pytest.mark.parametrize(
        "singular_values, clean",
        [([3, 2, 1, 1], False), ([4, 4, 4, 1], True), ([3, 1, 1, 0.2], True)],
    )
    def test_repeated_singular_values(self, rng, singular_values, clean):
        # The kernel certifies every clean system and never one without a
        # clean null space.
        valid = assert_kernel_matches_svd(systems_with_singular_values(rng, singular_values), 1e-13)
        assert np.all(valid == clean)

    @pytest.mark.parametrize(
        "norms", [[2.0, 2.0, 1.0, 1.0], [1.0, 3.0, 1.0, 3.0], [5.0, 1.0, 1.0, 1.0]]
    )
    def test_tied_row_norms_keep_row_order(self, norms):
        # Orthogonal rows of which the least norm is shared: SVD picks one
        # of the tied null vectors by its own row order, so the kernel
        # leaves the system to SVD.
        a = np.diag(norms)[None]
        assert not kernel_solve(a)[1].any()
        assert not geometry._solve_nullspace(a)[1].any()

    def test_exact_null_vectors_within_bound(self, rng):
        # Rank-3 systems with small integer rows orthogonal to (y, 1) for
        # an integer y, graded like DLT systems (the w column 10^3 to 10^4
        # times larger): every entry is exact, so (y, 1) is the exact null
        # vector, and the bound must hold against it, not against SVD.
        y = rng.integers(-2000, 2000, size=(1000, 3)).astype(float)
        xyz = rng.integers(-1000, 1000, size=(1000, 4, 3)).astype(float)
        a = np.concatenate([xyz, -np.einsum("mrk,mk->mr", xyz, y)[..., None]], axis=2)
        got, valid, bound = kernel_solve(a)
        assert valid.mean() > 0.99
        assert np.all(np.linalg.norm(got - y, axis=1)[valid] <= bound[valid])

    def test_extreme_scales(self, rng):
        # The view Gram matrices are formed from rows scaled by a power of
        # two, so squares of 1e200 neither overflow nor underflow.
        a = rng.normal(size=(500, 4, 4))
        for scale in (1e-200, 1e200):
            assert assert_kernel_matches_svd(a * scale, 1e-12).all()

    def test_non_finite_systems_are_not_sure(self, rng):
        a = rng.normal(size=(3, 4, 4))
        a[0, 1, 2], a[1, 0, 0], a[2, 3, 3] = np.nan, np.inf, -np.inf
        assert not kernel_solve(a)[1].any()

    def test_systems_at_nullspace_ratio_boundary_are_not_sure(self, rng):
        # The systems of test_pair_systems_at_nullspace_ratio_boundary: SVD
        # decides them by ulps, so the kernel leaves them to SVD.
        ratio = _NULLSPACE_RATIO + (np.arange(400) % 9 - 4) * 1e-16
        u, v = random_rotations(rng, 400), random_rotations(rng, 400)
        sv = np.stack([np.full(400, 10.0), np.full(400, 5.0), np.ones(400), ratio], axis=1)
        a = u @ (sv[:, :, None] * v.transpose(0, 2, 1))
        assert not assert_kernel_matches_svd(a, 0.0).any()

    def test_ratio_within_margin_is_left_to_svd(self, rng):
        # DLT-shaped systems (s_max along the w axis' part orthogonal to the
        # null vector (y, 1)) with s1 = 0.99 s2 - gap and s_max = 1000. SVD
        # calls every one clean. A gap of 3e-4 is inside _CERTIFY_MARGIN *
        # s_max, which stands for SVD's own rounding, so the kernel
        # certifies none; a gap of 3e-2 is well outside it.
        v = []
        for _ in range(400):
            x = np.append(rng.normal(size=3), 1.0)
            x /= np.linalg.norm(x)
            w = np.eye(4)[3] - x[3] * x
            rest = np.linalg.qr(np.column_stack([x, w, rng.normal(size=(4, 2))]))[0][:, 2:]
            v.append(np.column_stack([w / np.linalg.norm(w), rest, x]))
        u, v = random_rotations(rng, 400), np.stack(v)
        for gap, least in ((3e-4, 0.0), (3e-2, 0.9)):
            sv = np.array([1000.0, 5.0, 1.0, _NULLSPACE_RATIO - gap])
            a = u @ (sv[:, None] * v.transpose(0, 2, 1))
            assert geometry._solve_nullspace(a)[1].all()
            # SVD's own null vector is only good to about eps * 1000 / 0.04
            # here, 5.6e-12.
            valid = assert_kernel_matches_svd(a, 1e-11)
            assert valid.mean() > least if least else not valid.any()

    def test_rival_winners_with_different_masks_go_to_svd(self, ring8):
        projections, obs = disagreeing_pairs_keypoint(ring8)
        rows = geometry._dlt_rows(projections, obs)
        _, ok, sure = geometry._staged_pairs(rows, projections, obs, 5.0)
        assert ok[0] and not sure[0]
        staged = assert_same_as_exhaustive(projections, obs, 5.0)
        assert staged[1][0].sum() == 4

    def test_clear_winner_is_sure(self, ring8):
        # The same keypoint with one view of the second point moved by
        # 1 px: its pairs' errors are now far apart.
        projections, obs = disagreeing_pairs_keypoint(ring8)
        obs[0, 6] += 1.0
        rows = geometry._dlt_rows(projections, obs)
        _, ok, sure = geometry._staged_pairs(rows, projections, obs, 5.0)
        assert ok[0] and sure[0]
        assert_same_as_exhaustive(projections, obs, 5.0)

    @pytest.mark.parametrize("outlier_prob", [0.0, 0.05])
    def test_default_scene_rarely_falls_back_to_svd(self, outlier_prob, monkeypatch):
        # Every training frame of the default scene through the predictor,
        # as a campaign's first round sees it. A kernel that sent
        # everything to SVD would still be exact, but slow. Counted: the
        # pair systems the kernel solves, those it leaves to SVD, and the
        # keypoints whose winner goes back through every pair by SVD.
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
        counts = {"systems": 0, "resolved": 0}
        kernel, resolve = geometry._pair_hypotheses, geometry._exact_hypotheses

        def counting_kernel(rows, projections, points, pairs, threshold_px, out=None):
            counts["systems"] += len(points) * len(pairs)
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_exact_hypotheses", counting_resolve)
                return kernel(rows, projections, points, pairs, threshold_px, out)

        def counting_resolve(a, *args):
            counts["resolved"] += len(a)
            return resolve(a, *args)

        monkeypatch.setattr(geometry, "_pair_hypotheses", counting_kernel)
        rows = geometry._dlt_rows(projections, obs)
        sure = geometry._staged_pairs(rows, projections, obs, 5.0)[2]
        assert counts["systems"] >= 28 * len(obs) * 0.5
        assert counts["resolved"] / counts["systems"] + (~sure).mean() < 0.01
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
