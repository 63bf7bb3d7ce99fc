"""Pose clustering, batch entropy, and annotation cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.analysis import (
    CostModel,
    CostReport,
    batch_entropy,
    cluster_entropy,
    cost_report,
    kmeans_poses,
)
from annosim.errors import EmptyCounts, InvariantViolation, TooFewPoses


def blob_poses(rng, center, n, keypoints=4, spread=1.0):
    base = rng.normal(0.0, 50.0, size=(keypoints, 3)) + center
    return base[None] + rng.normal(0.0, spread, size=(n, keypoints, 3))


class TestKmeans:
    def test_k_equals_n_zero_inertia(self, rng):
        poses = rng.normal(0.0, 100.0, size=(5, 3, 3))
        model = kmeans_poses(poses, k=5, seed=0)
        assert model.k == 5
        assert sorted(model.assignments) == [0, 1, 2, 3, 4]
        assert model.inertia == pytest.approx(0.0, abs=1e-9)

    def test_two_blobs_recovered(self, rng):
        a = blob_poses(rng, np.array([0.0, 0.0, 0.0]), 30)
        b = blob_poses(rng, np.array([500.0, 0.0, 0.0]), 30)
        model = kmeans_poses(np.concatenate([a, b]), k=2, seed=1)
        first, second = model.assignments[:30], model.assignments[30:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_too_few_poses(self, rng):
        with pytest.raises(TooFewPoses):
            kmeans_poses(rng.normal(size=(3, 2, 3)), k=4)

    def test_deterministic(self, rng):
        poses = rng.normal(0.0, 100.0, size=(40, 3, 3))
        m1 = kmeans_poses(poses, k=4, seed=7)
        m2 = kmeans_poses(poses, k=4, seed=7)
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(m1.assignments, m2.assignments)

    def test_predict_matches_assignments(self, rng):
        # Lloyd runs to an assignment fixpoint, so re-predicting the
        # training poses must reproduce the stored labels.
        poses = rng.normal(0.0, 100.0, size=(50, 4, 3))
        model = kmeans_poses(poses, k=6, seed=3)
        assert np.array_equal(model.predict(poses), model.assignments)

    def test_predict_nearest_center(self, rng):
        a = blob_poses(rng, np.array([0.0, 0.0, 0.0]), 20)
        b = blob_poses(rng, np.array([800.0, 0.0, 0.0]), 20)
        model = kmeans_poses(np.concatenate([a, b]), k=2, seed=0)
        label_a = model.assignments[0]
        fresh = blob_poses(rng, np.array([0.0, 0.0, 0.0]), 5)
        assert np.array_equal(model.predict(fresh), [label_a] * 5)


class TestClusterEntropy:
    def test_reference_distributions(self):
        assert cluster_entropy((29, 6, 0, 10, 3, 18, 1, 39, 5, 14)) == pytest.approx(
            0.7953, abs=1e-3
        )
        assert cluster_entropy((37, 1, 0, 9, 0, 12, 0, 48, 0, 18)) == pytest.approx(
            0.6341, abs=1e-3
        )

    def test_uniform_is_one(self):
        assert cluster_entropy([10] * 7) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_is_zero(self):
        assert cluster_entropy([0, 42, 0, 0]) == 0.0

    def test_single_cluster_is_zero(self):
        assert cluster_entropy([13]) == 0.0

    def test_empty_and_invalid(self):
        with pytest.raises(EmptyCounts):
            cluster_entropy([])
        with pytest.raises(EmptyCounts):
            cluster_entropy([0, 0, 0])
        with pytest.raises(EmptyCounts):
            cluster_entropy([5, -1])

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=12).filter(sum))
    @settings(max_examples=100)
    def test_bounded_and_permutation_invariant(self, counts):
        h = cluster_entropy(counts)
        assert 0.0 <= h <= 1.0 + 1e-12
        assert cluster_entropy(counts[::-1]) == pytest.approx(h, abs=1e-12)


class TestBatchEntropy:
    def test_counts_batch_membership(self, rng):
        a = blob_poses(rng, np.array([0.0, 0.0, 0.0]), 25)
        b = blob_poses(rng, np.array([600.0, 0.0, 0.0]), 25)
        model = kmeans_poses(np.concatenate([a, b]), k=2, seed=0)
        # Batch drawn from one blob: entropy 0. Balanced batch: entropy 1.
        assert batch_entropy(model, a[:8]) == pytest.approx(0.0, abs=1e-12)
        both = np.concatenate([a[:4], b[:4]])
        assert batch_entropy(model, both) == pytest.approx(1.0, abs=1e-12)


class TestCostReport:
    def test_worked_example(self):
        rep = cost_report(iterations=3, frames_labeled=300)
        assert rep == CostReport(al_hours=8.0, conventional_hours=5.0)

    def test_zero_iterations(self):
        rep = cost_report(iterations=0, frames_labeled=120)
        assert rep.al_hours == pytest.approx(2.0)
        assert rep.conventional_hours == pytest.approx(2.0)

    def test_zero_frames(self):
        rep = cost_report(iterations=4, frames_labeled=0)
        assert rep.al_hours == pytest.approx(4.0)
        assert rep.conventional_hours == 0.0

    def test_custom_rates(self):
        cost = CostModel(minutes_per_frame=2.0, hours_per_training=0.5)
        rep = cost_report(iterations=2, frames_labeled=30, cost=cost)
        assert rep.al_hours == pytest.approx(30 * 2.0 / 60.0 + 2 * 0.5)
        assert rep.conventional_hours == pytest.approx(1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvariantViolation):
            cost_report(iterations=-1, frames_labeled=10)
        with pytest.raises(InvariantViolation):
            cost_report(iterations=1, frames_labeled=-10)
        with pytest.raises(InvariantViolation):
            CostModel(minutes_per_frame=-0.1)

    @given(
        st.integers(0, 50),
        st.integers(0, 5000),
        st.integers(0, 50),
        st.integers(0, 5000),
    )
    @settings(max_examples=60)
    def test_linearity(self, i1, f1, i2, f2):
        a = cost_report(i1, f1)
        b = cost_report(i2, f2)
        both = cost_report(i1 + i2, f1 + f2)
        assert both.al_hours == pytest.approx(a.al_hours + b.al_hours, abs=1e-9)
        assert both.conventional_hours == pytest.approx(
            a.conventional_hours + b.conventional_hours, abs=1e-9
        )
