"""Pseudo-label schedules, eligibility, and drift statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.errors import DimensionMismatch, InvariantViolation
from annosim.geometry import project, triangulate_frames
from annosim.pseudolabel import VARIANTS, DriftSummary, drift_stats, select_pseudo_labels
from annosim.selection import PoolState

N_VIEWS = 8


def fake_stack(frames):
    """(ids, (epsilon, full-consensus flag)) for a {frame id: (epsilon,
    inlier_count)} mapping, rows in the mapping's order: the two (F,)
    arrays a prediction pass gives select_pseudo_labels, a frame flagged
    when its inlier_count is every view."""
    ids = list(frames)
    epsilon = np.array([frames[f][0] for f in ids], dtype=float)
    full = np.array([frames[f][1] for f in ids]) == N_VIEWS
    return ids, (epsilon, full)


def make_pool(ids, labeled=(), pseudo=()):
    """A pool of ids with labeled moved out of the unlabeled set and
    pseudo, last iteration's pseudo-labels, inside it."""
    return PoolState(
        labeled=set(labeled), unlabeled=set(ids) - set(labeled), pseudo=set(pseudo)
    )


def reference_schedule(pool, amount, residual, ok, variant):
    """The per-id schedule loop that select_pseudo_labels computes with
    array masks, kept as its reference. residual and ok map every
    unlabeled frame id to its epsilon and its eligibility."""
    prev = set(pool.pseudo)
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
    def trace_pool(self, pseudo=()):
        # Frames A=1 (0.1, full consensus), B=2 (0.2, one view short),
        # C=3 (0.3, full consensus).
        ids, arrays = fake_stack({1: (0.1, N_VIEWS), 2: (0.2, N_VIEWS - 1), 3: (0.3, N_VIEWS)})
        return make_pool(ids, pseudo=pseudo), ids, arrays

    def test_accepts_lowest_epsilon_full_consensus(self):
        pool, ids, arrays = self.trace_pool()
        got = select_pseudo_labels(pool, 2, ids, *arrays)
        assert got == [1, 3]

    def test_alternating_excludes_previous_set(self):
        pool, ids, arrays = self.trace_pool(pseudo={1, 3})
        got = select_pseudo_labels(pool, 2, ids, *arrays, variant="alternating")
        assert got == []

    def test_zero_amount(self):
        pool, ids, arrays = self.trace_pool()
        assert select_pseudo_labels(pool, 0, ids, *arrays) == []

    def test_constant_repicks_regardless_of_previous(self):
        pool, ids, arrays = self.trace_pool(pseudo={1, 3})
        got = select_pseudo_labels(pool, 2, ids, *arrays, variant="constant")
        assert got == [1, 3]

    def test_enlarge_keeps_carryover_and_adds(self):
        ids, arrays = fake_stack({f: (f / 10, N_VIEWS) for f in (1, 2, 3, 4)})
        pool = make_pool(ids, pseudo={3})
        got = select_pseudo_labels(pool, 2, ids, *arrays, variant="enlarge")
        # Carryover 3 kept, plus the 2 best new frames.
        assert set(got) == {1, 2, 3}

    def test_enlarge_drops_carryover_that_got_annotated(self):
        # Frame 3, labeled now, is in the stack but no longer in the pool's
        # pseudo set, which PoolState keeps inside the unlabeled frames.
        ids, arrays = fake_stack({1: (0.1, N_VIEWS), 2: (0.2, N_VIEWS), 3: (0.0, N_VIEWS)})
        pool = make_pool(ids, labeled={3}, pseudo={1})
        got = select_pseudo_labels(pool, 1, ids, *arrays, variant="enlarge")
        assert got == [1, 2]

    def test_returns_fewer_when_pool_lacks_consensus(self):
        ids, arrays = fake_stack({1: (0.1, N_VIEWS - 2), 2: (0.2, N_VIEWS)})
        pool = make_pool(ids)
        assert select_pseudo_labels(pool, 5, ids, *arrays) == [2]

    def test_epsilon_tie_breaks_to_lower_id(self):
        ids, arrays = fake_stack({7: (0.5, N_VIEWS), 4: (0.5, N_VIEWS)})
        pool = make_pool(ids)
        assert select_pseudo_labels(pool, 1, ids, *arrays) == [4]

    def test_missing_triangulation_rejected(self):
        ids, arrays = fake_stack({1: (0.1, N_VIEWS)})
        pool = PoolState(labeled=set(), unlabeled={1, 2})
        with pytest.raises(InvariantViolation):
            select_pseudo_labels(pool, 1, ids, *arrays)

    def test_ids_must_name_every_row(self):
        pool, ids, (epsilon, full) = self.trace_pool()
        with pytest.raises(DimensionMismatch):
            select_pseudo_labels(pool, 1, ids + [4], epsilon, full)
        with pytest.raises(DimensionMismatch):
            select_pseudo_labels(pool, 1, ids, epsilon[:2], full)
        with pytest.raises(DimensionMismatch):
            select_pseudo_labels(pool, 1, ids, epsilon, full[:2])

    def test_unknown_variant_rejected(self):
        pool, ids, arrays = self.trace_pool()
        with pytest.raises(InvariantViolation):
            select_pseudo_labels(pool, 1, ids, *arrays, variant="greedy")

    def test_eligibility_is_full_consensus(self):
        # Frame 2 has the lower residual but lacks one view.
        ids, arrays = fake_stack({1: (1.0, N_VIEWS), 2: (0.0, N_VIEWS - 1)})
        assert select_pseudo_labels(make_pool(ids), 2, ids, *arrays) == [1]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    @settings(max_examples=50)
    def test_ordering_invariant(self, seed, amount):
        # Selected max epsilon <= unselected-but-eligible min epsilon.
        r = np.random.default_rng(seed)
        frames = {
            f: (float(r.random()), N_VIEWS if r.random() < 0.7 else N_VIEWS - 1)
            for f in range(12)
        }
        ids, arrays = fake_stack(frames)
        pool = make_pool(ids)
        got = select_pseudo_labels(pool, amount, ids, *arrays)
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
        ids, arrays = fake_stack({f: (float(r.random()), N_VIEWS) for f in range(10)})
        pool = make_pool(ids)
        for _ in range(6):
            got = set(select_pseudo_labels(pool, 3, ids, *arrays))
            assert not got & pool.pseudo
            pool.pseudo = got

    @given(st.data(), st.sampled_from(VARIANTS), st.integers(0, 6))
    @settings(max_examples=200)
    def test_masks_match_the_per_id_loop(self, data, variant, amount):
        # Residuals with ties and inf, random eligibility, labeled frames
        # in the stack, and previous sets drawn from the unlabeled frames,
        # the only ones a PoolState holds.
        ids = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=14, unique=True))
        residual = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, np.inf]), st.floats(0.0, 10.0, allow_nan=False)
        )
        frames = {
            f: (data.draw(residual), data.draw(st.sampled_from([N_VIEWS, N_VIEWS - 1])))
            for f in ids
        }
        labeled = data.draw(st.sets(st.sampled_from(ids)))
        unlabeled = sorted(set(ids) - labeled)
        prev = data.draw(st.sets(st.sampled_from(unlabeled))) if unlabeled else set()
        _, arrays = fake_stack(frames)
        pool = make_pool(ids, labeled, prev)
        got = select_pseudo_labels(pool, amount, ids, *arrays, variant)
        want = reference_schedule(
            pool,
            amount,
            {f: eps for f, (eps, _) in frames.items()},
            {f: count == N_VIEWS for f, (_, count) in frames.items()},
            variant,
        )
        assert got == want


class TestPseudoTargets:
    """Eligibility of real triangulations: a pseudo-label needs every
    keypoint triangulated with every view an inlier, the flag a
    prediction pass computes as inlier_count == number of views."""

    def noiseless_preds(self, ring8, pose):
        return np.stack([[project(c, p) for p in pose] for c in ring8])

    def chosen(self, ring8, preds):
        """The pseudo-labels of a one-frame pool of preds' triangulation."""
        tri = triangulate_frames(ring8, preds[None])
        full = tri.inlier_count == len(ring8)
        return select_pseudo_labels(make_pool([0]), 1, [0], tri.epsilon, full)

    def test_requires_full_consensus(self, ring8, rng):
        pose = rng.uniform(-300.0, 300.0, size=(2, 3))
        preds = self.noiseless_preds(ring8, pose)
        assert self.chosen(ring8, preds) == [0]
        # Keypoint 0 keeps its true position in one view only.
        preds[1:, 0] += rng.uniform(-300.0, 300.0, size=(len(ring8) - 1, 2))
        tri = triangulate_frames(ring8, preds[None])
        assert tri.per_keypoint[0] is None and tri.per_keypoint[1] is not None
        assert self.chosen(ring8, preds) == []

    def test_requires_all_views_inliers(self, ring8, rng):
        pose = rng.uniform(-300.0, 300.0, size=(2, 3))
        preds = self.noiseless_preds(ring8, pose)
        preds[5, 0] += (100.0, 0.0)
        tri = triangulate_frames(ring8, preds[None])
        assert all(kt is not None for kt in tri.per_keypoint)
        assert self.chosen(ring8, preds) == []


class TestDriftStats:
    def test_noiseless_zero(self, rng):
        poses = rng.normal(0, 100.0, size=(3, 4, 3))
        d = drift_stats(poses, poses.copy())
        assert d.count == 3
        assert d.mean_mm == d.median_mm == d.max_mm == 0.0

    def test_single_frame_known_error(self):
        gt = np.zeros((1, 2, 3))
        pseudo = np.full((1, 2, 3), 1.2 / np.sqrt(3.0))
        d = drift_stats(pseudo, gt)
        assert d.count == 1
        assert d.mean_mm == pytest.approx(1.2)
        assert d.median_mm == pytest.approx(1.2)
        assert d.max_mm == pytest.approx(1.2)

    def test_empty_sets(self):
        d = drift_stats(np.empty((0, 2, 3)), np.empty((0, 2, 3)))
        assert d == DriftSummary(0, d.mean_mm, d.median_mm, d.max_mm)
        assert np.isnan(d.mean_mm)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            drift_stats(np.zeros((1, 2, 3)), np.zeros((2, 2, 3)))
