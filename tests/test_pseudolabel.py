"""Pseudo-label schedules, eligibility, and drift statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.errors import DimensionMismatch, InvariantViolation
from annosim.geometry import FrameTriangulation, project, triangulate_frames
from annosim.pseudolabel import (
    VARIANTS,
    DriftSummary,
    drift_stats,
    eligible,
    select_pseudo_labels,
)
from annosim.selection import PoolState

N_VIEWS = 8


def fake_stack(frames):
    """(ids, stack) for a {frame id: (epsilon, inlier_count)} mapping, rows
    in the mapping's order: a FrameTriangulation stub, since schedule
    logic only reads epsilon and inlier_count."""
    ids = list(frames)
    n = len(ids)
    stack = FrameTriangulation(
        points=np.full((n, 1, 3), np.nan),
        inlier_mask=np.zeros((n, 1, N_VIEWS), dtype=bool),
        reproj_error_px2=np.full((n, 1), np.inf),
        epsilon=np.array([frames[f][0] for f in ids], dtype=float),
        inlier_count=np.array([frames[f][1] for f in ids], dtype=int),
    )
    return ids, stack


def make_pool(ids, labeled=()):
    return PoolState(labeled=set(labeled), unlabeled=set(ids) - set(labeled))


def reference_schedule(pool, prev_pseudo, amount, residual, ok, variant):
    """The per-id schedule loop that select_pseudo_labels computes with
    array masks, kept as its reference. residual and ok map every
    unlabeled frame id to its epsilon and its eligibility."""
    prev = set(prev_pseudo)
    ordered = sorted(pool.unlabeled, key=lambda f: (residual[f], f))
    if variant == "enlarge":
        chosen = sorted(prev & pool.unlabeled, key=lambda f: (residual[f], f))
    else:
        chosen = []
    taken = set(chosen)
    kept_count = len(chosen)
    for fid in ordered:
        if len(chosen) - kept_count >= amount:
            break
        if fid in taken:
            continue
        if variant == "alternating" and fid in prev:
            continue
        if ok[fid]:
            chosen.append(fid)
            taken.add(fid)
    return chosen


class TestSchedule:
    def trace_pool(self):
        # Frames A=1 (0.1, full consensus), B=2 (0.2, one view short),
        # C=3 (0.3, full consensus).
        ids, tri = fake_stack({1: (0.1, N_VIEWS), 2: (0.2, N_VIEWS - 1), 3: (0.3, N_VIEWS)})
        return make_pool(ids), ids, tri

    def test_accepts_lowest_epsilon_full_consensus(self):
        pool, ids, tri = self.trace_pool()
        got = select_pseudo_labels(pool, set(), 2, ids, tri, N_VIEWS)
        assert got == [1, 3]

    def test_alternating_excludes_previous_set(self):
        pool, ids, tri = self.trace_pool()
        got = select_pseudo_labels(pool, {1, 3}, 2, ids, tri, N_VIEWS, variant="alternating")
        assert got == []

    def test_zero_amount(self):
        pool, ids, tri = self.trace_pool()
        assert select_pseudo_labels(pool, set(), 0, ids, tri, N_VIEWS) == []

    def test_constant_repicks_regardless_of_previous(self):
        pool, ids, tri = self.trace_pool()
        got = select_pseudo_labels(pool, {1, 3}, 2, ids, tri, N_VIEWS, variant="constant")
        assert got == [1, 3]

    def test_enlarge_keeps_carryover_and_adds(self):
        ids, tri = fake_stack({f: (f / 10, N_VIEWS) for f in (1, 2, 3, 4)})
        pool = make_pool(ids)
        got = select_pseudo_labels(pool, {3}, 2, ids, tri, N_VIEWS, variant="enlarge")
        # Carryover 3 kept, plus the 2 best new frames.
        assert set(got) == {1, 2, 3}

    def test_enlarge_drops_carryover_that_got_annotated(self):
        ids, tri = fake_stack({1: (0.1, N_VIEWS), 2: (0.2, N_VIEWS)})
        pool = make_pool(ids)
        got = select_pseudo_labels(pool, {3, 1}, 1, ids, tri, N_VIEWS, variant="enlarge")
        assert got == [1, 2]

    def test_returns_fewer_when_pool_lacks_consensus(self):
        ids, tri = fake_stack({1: (0.1, N_VIEWS - 2), 2: (0.2, N_VIEWS)})
        pool = make_pool(ids)
        assert select_pseudo_labels(pool, set(), 5, ids, tri, N_VIEWS) == [2]

    def test_epsilon_tie_breaks_to_lower_id(self):
        ids, tri = fake_stack({7: (0.5, N_VIEWS), 4: (0.5, N_VIEWS)})
        pool = make_pool(ids)
        assert select_pseudo_labels(pool, set(), 1, ids, tri, N_VIEWS) == [4]

    def test_missing_triangulation_rejected(self):
        ids, tri = fake_stack({1: (0.1, N_VIEWS)})
        pool = PoolState(labeled=set(), unlabeled={1, 2})
        with pytest.raises(InvariantViolation):
            select_pseudo_labels(pool, set(), 1, ids, tri, N_VIEWS)

    def test_ids_must_name_every_row(self):
        pool, ids, tri = self.trace_pool()
        with pytest.raises(DimensionMismatch):
            select_pseudo_labels(pool, set(), 1, ids + [4], tri, N_VIEWS)

    def test_unknown_variant_rejected(self):
        pool, ids, tri = self.trace_pool()
        with pytest.raises(InvariantViolation):
            select_pseudo_labels(pool, set(), 1, ids, tri, N_VIEWS, variant="greedy")

    def test_eligibility_is_full_consensus(self):
        _, tri = fake_stack({1: (1.0, N_VIEWS), 2: (0.0, N_VIEWS - 1)})
        assert eligible(tri, N_VIEWS).tolist() == [True, False]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    @settings(max_examples=50)
    def test_ordering_invariant(self, seed, amount):
        # Selected max epsilon <= unselected-but-eligible min epsilon.
        r = np.random.default_rng(seed)
        frames = {
            f: (float(r.random()), N_VIEWS if r.random() < 0.7 else N_VIEWS - 1)
            for f in range(12)
        }
        ids, tri = fake_stack(frames)
        pool = make_pool(ids)
        got = select_pseudo_labels(pool, set(), amount, ids, tri, N_VIEWS)
        assert len(got) <= amount
        eligible_rest = [
            f for f in pool.unlabeled
            if f not in got and frames[f][1] == N_VIEWS
        ]
        if got and eligible_rest:
            assert max(frames[f][0] for f in got) <= min(
                frames[f][0] for f in eligible_rest
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_alternation_disjointness_over_iterations(self, seed):
        r = np.random.default_rng(seed)
        ids, tri = fake_stack({f: (float(r.random()), N_VIEWS) for f in range(10)})
        pool = make_pool(ids)
        prev = set()
        for _ in range(6):
            got = set(select_pseudo_labels(pool, prev, 3, ids, tri, N_VIEWS))
            assert not got & prev
            prev = got

    @given(st.data(), st.sampled_from(VARIANTS), st.integers(0, 6))
    @settings(max_examples=200)
    def test_masks_match_the_per_id_loop(self, data, variant, amount):
        # Residuals with ties and inf, random eligibility, labeled frames
        # in the stack, and previous sets reaching outside it.
        ids = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=14, unique=True))
        residual = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, np.inf]), st.floats(0.0, 10.0, allow_nan=False)
        )
        frames = {
            f: (data.draw(residual), data.draw(st.sampled_from([N_VIEWS, N_VIEWS - 1])))
            for f in ids
        }
        labeled = data.draw(st.sets(st.sampled_from(ids)))
        prev = data.draw(st.sets(st.integers(0, 45)))
        _, tri = fake_stack(frames)
        pool = make_pool(ids, labeled)
        got = select_pseudo_labels(pool, prev, amount, ids, tri, N_VIEWS, variant)
        want = reference_schedule(
            pool,
            prev,
            amount,
            {f: eps for f, (eps, _) in frames.items()},
            {f: count == N_VIEWS for f, (_, count) in frames.items()},
            variant,
        )
        assert got == want


class TestPseudoTargets:
    """Eligibility of real triangulations: a pseudo-label needs every
    keypoint triangulated with every view an inlier."""

    def noiseless_preds(self, ring8, pose):
        return np.stack([[project(c, p) for p in pose] for c in ring8])

    def test_requires_full_consensus(self, ring8, rng):
        pose = rng.uniform(-300.0, 300.0, size=(2, 3))
        preds = self.noiseless_preds(ring8, pose)
        assert eligible(triangulate_frames(ring8, preds[None]), len(ring8)).tolist() == [True]
        # Keypoint 0 keeps its true position in one view only.
        preds[1:, 0] += rng.uniform(-300.0, 300.0, size=(len(ring8) - 1, 2))
        tri = triangulate_frames(ring8, preds[None])
        assert tri.per_keypoint[0] is None and tri.per_keypoint[1] is not None
        assert eligible(tri, len(ring8)).tolist() == [False]

    def test_requires_all_views_inliers(self, ring8, rng):
        pose = rng.uniform(-300.0, 300.0, size=(2, 3))
        preds = self.noiseless_preds(ring8, pose)
        preds[5, 0] += (100.0, 0.0)
        tri = triangulate_frames(ring8, preds[None])
        assert all(kt is not None for kt in tri.per_keypoint)
        assert eligible(tri, len(ring8)).tolist() == [False]


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
