"""Pseudo-label schedules, eligibility, and drift statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.errors import DimensionMismatch, InvariantViolation
from annosim.geometry import FrameTriangulation, project, triangulate_frames
from annosim.pseudolabel import (
    DriftSummary,
    drift_stats,
    eligible,
    select_pseudo_labels,
)
from annosim.selection import PoolState

N_VIEWS = 8


def fake_ft(epsilon, inlier_count, keypoints=1):
    """FrameTriangulation stub; schedule logic only reads epsilon and
    inlier_count."""
    return FrameTriangulation(
        points=np.full((keypoints, 3), np.nan),
        inlier_mask=np.zeros((keypoints, N_VIEWS), dtype=bool),
        reproj_error_px2=np.full(keypoints, np.inf),
        epsilon=epsilon,
        inlier_count=inlier_count,
    )


def make_pool(tri_map, labeled=()):
    return PoolState(labeled=set(labeled), unlabeled=set(tri_map))


class TestSchedule:
    def trace_pool(self):
        # Frames A=1 (0.1, full consensus), B=2 (0.2, one view short),
        # C=3 (0.3, full consensus).
        tri = {
            1: fake_ft(0.1, N_VIEWS),
            2: fake_ft(0.2, N_VIEWS - 1),
            3: fake_ft(0.3, N_VIEWS),
        }
        return make_pool(tri), tri

    def test_accepts_lowest_epsilon_full_consensus(self):
        pool, tri = self.trace_pool()
        got = select_pseudo_labels(pool, set(), 2, tri, N_VIEWS)
        assert got == [1, 3]

    def test_alternating_excludes_previous_set(self):
        pool, tri = self.trace_pool()
        got = select_pseudo_labels(pool, {1, 3}, 2, tri, N_VIEWS, variant="alternating")
        assert got == []

    def test_zero_amount(self):
        pool, tri = self.trace_pool()
        assert select_pseudo_labels(pool, set(), 0, tri, N_VIEWS) == []

    def test_constant_repicks_regardless_of_previous(self):
        pool, tri = self.trace_pool()
        got = select_pseudo_labels(pool, {1, 3}, 2, tri, N_VIEWS, variant="constant")
        assert got == [1, 3]

    def test_enlarge_keeps_carryover_and_adds(self):
        tri = {
            1: fake_ft(0.1, N_VIEWS),
            2: fake_ft(0.2, N_VIEWS),
            3: fake_ft(0.3, N_VIEWS),
            4: fake_ft(0.4, N_VIEWS),
        }
        pool = make_pool(tri)
        got = select_pseudo_labels(pool, {3}, 2, tri, N_VIEWS, variant="enlarge")
        # Carryover 3 kept, plus the 2 best new frames.
        assert set(got) == {1, 2, 3}

    def test_enlarge_drops_carryover_that_got_annotated(self):
        tri = {1: fake_ft(0.1, N_VIEWS), 2: fake_ft(0.2, N_VIEWS)}
        pool = make_pool(tri)
        got = select_pseudo_labels(pool, {3, 1}, 1, tri, N_VIEWS, variant="enlarge")
        assert got == [1, 2]

    def test_returns_fewer_when_pool_lacks_consensus(self):
        tri = {1: fake_ft(0.1, N_VIEWS - 2), 2: fake_ft(0.2, N_VIEWS)}
        pool = make_pool(tri)
        assert select_pseudo_labels(pool, set(), 5, tri, N_VIEWS) == [2]

    def test_epsilon_tie_breaks_to_lower_id(self):
        tri = {7: fake_ft(0.5, N_VIEWS), 4: fake_ft(0.5, N_VIEWS)}
        pool = make_pool(tri)
        assert select_pseudo_labels(pool, set(), 1, tri, N_VIEWS) == [4]

    def test_missing_triangulation_rejected(self):
        tri = {1: fake_ft(0.1, N_VIEWS)}
        pool = PoolState(labeled=set(), unlabeled={1, 2})
        with pytest.raises(InvariantViolation):
            select_pseudo_labels(pool, set(), 1, tri, N_VIEWS)

    def test_unknown_variant_rejected(self):
        pool, tri = self.trace_pool()
        with pytest.raises(InvariantViolation):
            select_pseudo_labels(pool, set(), 1, tri, N_VIEWS, variant="greedy")

    def test_eligibility_is_full_consensus(self):
        assert eligible(fake_ft(1.0, N_VIEWS), N_VIEWS)
        assert not eligible(fake_ft(0.0, N_VIEWS - 1), N_VIEWS)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    @settings(max_examples=50)
    def test_ordering_invariant(self, seed, amount):
        # Selected max epsilon <= unselected-but-eligible min epsilon.
        r = np.random.default_rng(seed)
        tri = {
            f: fake_ft(float(r.random()), N_VIEWS if r.random() < 0.7 else N_VIEWS - 1)
            for f in range(12)
        }
        pool = make_pool(tri)
        got = select_pseudo_labels(pool, set(), amount, tri, N_VIEWS)
        assert len(got) <= amount
        eligible_rest = [
            f for f in pool.unlabeled
            if f not in got and tri[f].inlier_count == N_VIEWS
        ]
        if got and eligible_rest:
            assert max(tri[f].epsilon for f in got) <= min(
                tri[f].epsilon for f in eligible_rest
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_alternation_disjointness_over_iterations(self, seed):
        r = np.random.default_rng(seed)
        tri = {f: fake_ft(float(r.random()), N_VIEWS) for f in range(10)}
        pool = make_pool(tri)
        prev = set()
        for _ in range(6):
            got = set(select_pseudo_labels(pool, prev, 3, tri, N_VIEWS))
            assert not got & prev
            prev = got


class TestPseudoTargets:
    """Eligibility of real triangulations: a pseudo-label needs every
    keypoint triangulated with every view an inlier."""

    def noiseless_preds(self, ring8, pose):
        return np.stack([[project(c, p) for p in pose] for c in ring8])

    def test_requires_full_consensus(self, ring8, rng):
        pose = rng.uniform(-300.0, 300.0, size=(2, 3))
        preds = self.noiseless_preds(ring8, pose)
        assert eligible(triangulate_frames(ring8, preds[None])[0], len(ring8))
        # Keypoint 0 keeps its true position in one view only.
        preds[1:, 0] += rng.uniform(-300.0, 300.0, size=(len(ring8) - 1, 2))
        ft = triangulate_frames(ring8, preds[None])[0]
        assert ft.per_keypoint[0] is None and ft.per_keypoint[1] is not None
        assert not eligible(ft, len(ring8))

    def test_requires_all_views_inliers(self, ring8, rng):
        pose = rng.uniform(-300.0, 300.0, size=(2, 3))
        preds = self.noiseless_preds(ring8, pose)
        preds[5, 0] += (100.0, 0.0)
        ft = triangulate_frames(ring8, preds[None])[0]
        assert all(kt is not None for kt in ft.per_keypoint)
        assert not eligible(ft, len(ring8))


class TestDriftStats:
    def test_noiseless_zero(self, rng):
        poses = {f: rng.normal(0, 100.0, size=(4, 3)) for f in range(3)}
        d = drift_stats(poses, {f: p.copy() for f, p in poses.items()})
        assert d.count == 3
        assert d.mean_mm == d.median_mm == d.max_mm == 0.0

    def test_single_frame_known_error(self):
        gt = {5: np.zeros((2, 3))}
        pseudo = {5: np.full((2, 3), 1.2 / np.sqrt(3.0))}
        d = drift_stats(pseudo, gt)
        assert d.count == 1
        assert d.mean_mm == pytest.approx(1.2)
        assert d.median_mm == pytest.approx(1.2)
        assert d.max_mm == pytest.approx(1.2)

    def test_empty_sets(self):
        d = drift_stats({}, {})
        assert d == DriftSummary(0, d.mean_mm, d.median_mm, d.max_mm)
        assert np.isnan(d.mean_mm)

    def test_id_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            drift_stats({1: np.zeros((2, 3))}, {2: np.zeros((2, 3))})
