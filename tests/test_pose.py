"""Pose containers, root alignment, pose distance, MKPE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.errors import DimensionMismatch, IndexOutOfRange
from annosim.pose import align_root, as_pose, keypoint_errors, pose_distance

finite3 = st.tuples(
    st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)
)


def poses(k_min=1, k_max=6):
    return st.lists(finite3, min_size=k_min, max_size=k_max).map(np.asarray)


class TestAlignRoot:
    def test_already_rooted_unchanged(self):
        p = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert np.array_equal(align_root(p, 0), p)

    def test_uniform_pose_collapses_to_origin(self):
        p = np.full((4, 3), 5.0)
        assert np.array_equal(align_root(p, 0), np.zeros((4, 3)))

    def test_root_row_exactly_zero(self):
        p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        aligned = align_root(p, 2)
        assert np.array_equal(aligned[2], np.zeros(3))

    def test_root_index_out_of_range(self):
        p = np.zeros((3, 3))
        with pytest.raises(IndexOutOfRange):
            align_root(p, 3)
        with pytest.raises(IndexOutOfRange):
            align_root(p, -1)

    def test_as_pose_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            as_pose(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            as_pose(np.zeros((0, 3)))


class TestPoseDistance:
    def test_identity_zero(self):
        p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert pose_distance(p, p) == 0.0

    def test_uniform_shift(self):
        p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert pose_distance(p, p + (3.0, 0.0, 0.0)) == pytest.approx(3.0)

    def test_mean_of_per_keypoint_distances(self):
        a = np.zeros((2, 3))
        b = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert pose_distance(a, b) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pose_distance(np.zeros((2, 3)), np.zeros((3, 3)))

    @given(poses(2, 5), finite3)
    @settings(max_examples=50)
    def test_invariant_to_shared_translation_after_alignment(self, p, t):
        q = p + np.asarray(t)
        d = pose_distance(align_root(p, 0), align_root(q, 0))
        assert d == pytest.approx(0.0, abs=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_pseudometric_on_random_triples(self, seed):
        r = np.random.default_rng(seed)
        a, b, c = r.normal(0, 100.0, size=(3, 5, 3))
        dab = pose_distance(a, b)
        assert dab == pytest.approx(pose_distance(b, a), abs=1e-9)
        assert pose_distance(a, a) == 0.0
        assert dab + pose_distance(b, c) >= pose_distance(a, c) - 1e-9


class TestMkpe:
    """keypoint_errors, the per-keypoint distances every MKPE averages."""

    def test_exact_prediction_zero(self):
        truth = np.arange(12, dtype=float).reshape(2, 2, 3)
        assert np.array_equal(keypoint_errors(truth, truth), np.zeros((2, 2)))

    def test_one_frame_two_keypoints(self):
        truth = np.zeros((1, 2, 3))
        pred = np.array([[[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]])
        assert np.array_equal(keypoint_errors(pred, truth), [[1.0, 3.0]])

    def test_pooled_mean_over_frames(self):
        truth = np.zeros((2, 1, 3))
        pred = np.array([[[2.0, 0.0, 0.0]], [[4.0, 0.0, 0.0]]])
        assert keypoint_errors(pred, truth).mean() == pytest.approx(3.0)

    def test_no_alignment_applied(self):
        # A rigid translation of the prediction counts as error.
        truth = np.zeros((1, 3, 3))
        pred = truth + (0.0, 0.0, 7.0)
        assert np.allclose(keypoint_errors(pred, truth), 7.0)

    def test_nan_estimate_gives_nan(self):
        truth = np.zeros((2, 2, 3))
        pred = np.ones((2, 2, 3))
        pred[1, 0] = np.nan
        errors = keypoint_errors(pred, truth)
        assert np.isnan(errors[1, 0])
        assert np.allclose(np.delete(errors.ravel(), 2), np.sqrt(3.0))

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            keypoint_errors(np.zeros((1, 2, 3)), np.zeros((2, 2, 3)))
        with pytest.raises(DimensionMismatch):
            keypoint_errors(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            keypoint_errors(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_frame_permutation_equivariance(self, seed):
        r = np.random.default_rng(seed)
        pred = r.normal(0, 10.0, size=(6, 4, 3))
        truth = r.normal(0, 10.0, size=(6, 4, 3))
        perm = r.permutation(6)
        assert np.array_equal(
            keypoint_errors(pred, truth)[perm], keypoint_errors(pred[perm], truth[perm])
        )
