"""Pool bookkeeping, frame scores, and batch selection."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim.errors import (
    BudgetExceedsPool,
    DimensionMismatch,
    EmptyHeatmap,
    EmptyPool,
    InvariantViolation,
)
from annosim.campaign import STRATEGY_TABLE
from annosim.geometry import FrameTriangulation
from annosim.heatmap import (
    Heatmap,
    HeatmapSpec,
    HeatmapWindows,
    PeakParams,
    gaussian_values,
    peak_windows,
)
from annosim.predictor import NoiseModel, heatmap_windows, infer, summarize_pool
from annosim.selection import (
    FrameScore,
    PoolState,
    score_bsb,
    score_mpe,
    select_batch,
)

SPEC = HeatmapSpec(width=64, height=64, sigma_px=2.0)


def single_peak():
    return Heatmap(gaussian_values((20.0, 20.0), SPEC))


def double_peak(amp2=1.0):
    vals = gaussian_values((16.0, 30.0), SPEC) + gaussian_values((48.0, 30.0), SPEC, amp2)
    return Heatmap(vals)


def line_pose(x):
    """1-D pose embedded in 3D, single keypoint."""
    return np.array([[float(x), 0.0, 0.0]])


def score_bytes(scores):
    return np.array([s.value for s in scores]).tobytes()


def one_frame_windows(fp):
    """A frame's HeatmapWindows of shape (views, keypoints)."""
    windows = heatmap_windows([fp])
    return HeatmapWindows(windows.shape[1:], windows.groups, windows.single)


class TestPoolState:
    def test_detects_overlap(self):
        pool = PoolState(labeled={1}, unlabeled={1, 2})
        with pytest.raises(InvariantViolation):
            pool.check()

    def test_detects_pseudo_outside_unlabeled(self):
        pool = PoolState(labeled={1}, unlabeled={2}, pseudo={1})
        with pytest.raises(InvariantViolation):
            pool.check()

    def test_candidates_exclude_pseudo(self):
        pool = PoolState(labeled={0}, unlabeled={1, 2, 3}, pseudo={2})
        assert pool.candidates() == [1, 3]

    def test_annotate_moves_frames(self):
        pool = PoolState(labeled={0}, unlabeled={1, 2, 3})
        pool.annotate([2])
        assert pool.labeled == {0, 2}
        assert pool.unlabeled == {1, 3}

    def test_annotate_rejects_pseudo_and_labeled(self):
        pool = PoolState(labeled={0}, unlabeled={1, 2}, pseudo={2})
        with pytest.raises(InvariantViolation):
            pool.annotate([2])
        with pytest.raises(InvariantViolation):
            pool.annotate([0])


class TestScores:
    def test_bsb_two_views(self):
        # View margins 0.4 and 0.2, negated mean = -0.3.
        view_a = [double_peak(0.6)]
        view_b = [double_peak(0.8)]
        s = score_bsb(9, [view_a, view_b])
        assert s.frame_id == 9 and s.strategy == "bsb"
        assert s.value == pytest.approx(-0.3, abs=1e-12)

    def test_bsb_all_single_peak_is_minus_one(self):
        s = score_bsb(0, [[single_peak()], [single_peak()]])
        assert s.value == pytest.approx(-1.0)

    def test_bsb_equal_double_peaks_is_zero(self):
        s = score_bsb(0, [[double_peak(1.0)], [double_peak(1.0)]])
        assert s.value == pytest.approx(0.0, abs=1e-12)

    def test_bsb_accepts_raw_stack(self):
        views = [[double_peak(0.6)], [double_peak(0.8)]]
        stack = np.stack([[hm.values for hm in view] for view in views])
        assert score_bsb(1, stack).value == score_bsb(1, views).value

    def test_mpe_examples(self):
        assert score_mpe(0, [[single_peak()]]).value == 0.0
        equal = score_mpe(0, [[double_peak(1.0)]]).value
        assert equal == pytest.approx(np.log(2.0), abs=1e-12)
        mixed = score_mpe(0, [[double_peak(1.0)], [single_peak()]]).value
        assert mixed == pytest.approx(np.log(2.0) / 2.0, abs=1e-12)
        assert mixed == pytest.approx(0.3466, abs=1e-4)

    def test_one_frame_call_needs_view_keypoint_maps(self):
        with pytest.raises(DimensionMismatch):
            score_bsb(0, np.ones((2, 8, 8)))
        with pytest.raises(DimensionMismatch):
            score_bsb(0, [[single_peak()], []])
        with pytest.raises(DimensionMismatch):
            score_mpe([0, 1], np.ones((1, 2, 1, 8, 8)))

    @pytest.mark.parametrize("score", [score_bsb, score_mpe])
    def test_windows_score_like_full_maps(self, ring8, score):
        # A ghost-heavy predictor, its frames scored in chunks of 4: each
        # frame gets the score of the one-frame call on its full maps
        # and on its own windows, bit for bit.
        rng = np.random.default_rng(8)
        pose = rng.uniform(-300.0, 300.0, size=(6, 3))
        pool = summarize_pool([pose + rng.normal(0, 50.0, size=pose.shape)], total_count=10)
        model = NoiseModel(seed=2, multi_peak_prob=0.5, outlier_prob_base=0.1)
        preds = [infer(f, pose, ring8, pool, model, 1, spec=SPEC) for f in range(11)]
        got = []
        for lo in range(0, len(preds), 4):
            chunk = preds[lo : lo + 4]
            ids = [fp.frame_id for fp in chunk]
            scores = score(ids, heatmap_windows(chunk))
            assert [s.frame_id for s in scores] == ids
            raw = score(ids, np.stack([fp.heatmap_stack for fp in chunk]))
            assert score_bytes(raw) == score_bytes(scores)
            got += scores
        for s, fp in zip(got, preds):
            for one in (fp.heatmap_stack, one_frame_windows(fp)):
                want = score(fp.frame_id, one)
                assert s == want
                assert score_bytes([s]) == score_bytes([want])
        # Every chunk holds a frame with a ghost, which scores off the
        # value of a frame whose maps all have one peak.
        plain = score(0, [[single_peak()]]).value
        for lo in range(0, len(got), 4):
            assert any(s.value != plain for s in got[lo : lo + 4])

    def test_mvc_passthrough(self):
        # The mvc score of a candidate is its triangulation residual itself.
        pool = PoolState(labeled={0}, unlabeled={1, 2, 3}, pseudo={2})
        residuals = {1: 10.0, 2: 99.0, 3: 2.5}
        fts = {
            f: FrameTriangulation(np.empty((0, 3)), np.empty((0, 8), bool), np.empty(0), eps, 8)
            for f, eps in residuals.items()
        }
        _, inputs_of = STRATEGY_TABLE["mvc"]
        inputs = inputs_of(SimpleNamespace(pool=pool, fts=fts))
        assert inputs == {"scores": {1: 10.0, 3: 2.5}}
        assert select_batch("mvc", pool, 1, **inputs) == [1]

    def test_coreset_identical_pose_zero(self):
        # A candidate identical to a labeled pose is exactly 0 from the
        # labeled set: it goes after one 1e-9 mm away, despite its lower id.
        pose = np.random.default_rng(0).normal(0, 50.0, size=(4, 3))
        pool = PoolState(labeled={0}, unlabeled={1, 2, 3})
        cand = {1: pose, 2: pose + 10.0, 3: pose + 1e-9}
        got = select_batch(
            "coreset", pool, 3, candidate_poses=cand, labeled_poses=np.stack([pose])
        )
        assert got == [2, 3, 1]

    def test_coreset_min_over_labeled(self):
        # Labeled at 5 and -12: candidate 0 is 5 from the nearest (12 from
        # the farthest), candidate -5 is 7 (10). The min picks -5 first.
        pool = PoolState(labeled={0, 1}, unlabeled={2, 3})
        cand = {2: line_pose(0), 3: line_pose(-5)}
        labeled = np.stack([line_pose(5), line_pose(-12)])
        got = select_batch("coreset", pool, 1, candidate_poses=cand, labeled_poses=labeled)
        assert got == [3]

    def test_coreset_empty_labeled_rejected(self):
        pool = PoolState(labeled=set(), unlabeled={1, 2})
        cand = {1: line_pose(0), 2: line_pose(1)}
        with pytest.raises(EmptyPool):
            select_batch("coreset", pool, 1, candidate_poses=cand, labeled_poses=np.zeros((0, 1, 3)))

    def test_scores_must_be_finite(self):
        with pytest.raises(InvariantViolation):
            FrameScore(frame_id=0, strategy="mvc", value=np.inf)
        pool = PoolState(labeled={0}, unlabeled={1, 2})
        with pytest.raises(InvariantViolation):
            select_batch("mvc", pool, 1, scores={1: 0.5, 2: np.inf})


@pytest.mark.parametrize("score", [score_bsb, score_mpe])
class TestChunkScores:
    """A chunk of frames scored at once gives each frame the score of the
    one-frame call, bit for bit."""

    def test_hand_made_maps(self, score):
        spec = HeatmapSpec(width=96, height=96, sigma_px=2.0)

        def bumps(*amplitudes):
            at = [(8.0 + 16.0 * (i % 5), 8.0 + 40.0 * (i // 5)) for i in range(len(amplitudes))]
            return Heatmap(sum(gaussian_values(c, spec, a) for c, a in zip(at, amplitudes)))

        one = bumps(1.0)
        two_equal = bumps(1.0, 1.0)
        many = bumps(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4)  # more than max_peaks
        params = PeakParams(max_peaks=5)
        frames = [
            [[one, one], [one, one]],
            [[two_equal, one], [many, two_equal]],
            [[many, many], [one, two_equal]],
        ]
        stack = np.stack([[[hm.values for hm in view] for view in f] for f in frames])
        got = score([3, 1, 2], stack, params)
        want = [score(fid, f, params) for fid, f in zip([3, 1, 2], frames)]
        assert got == want
        assert score_bytes(got) == score_bytes(want)
        if score is score_bsb:
            assert got[0].value == -1.0
            # many's margin is 1 - 0.9: its cut list still starts 1.0, 0.9.
            assert got[2].value == pytest.approx(-(0.1 + (0.0 + 1.0) / 2) / 2, abs=1e-9)
        else:
            assert got[0].value == 0.0
            top5 = np.array([1.0, 0.9, 0.8, 0.7, 0.6])
            p = np.exp(top5) / np.exp(top5).sum()
            assert got[2].value == pytest.approx(
                (-(p * np.log(p)).sum() + np.log(2.0) / 2) / 2, abs=1e-9
            )

    def test_all_zero_map_in_a_chunk_raises(self, score):
        stack = np.stack([single_peak().values] * 4).reshape(2, 1, 2, 64, 64)
        stack[1, 0, 1] = 0.0
        with pytest.raises(EmptyHeatmap):
            score([0, 1], stack)
        # A bump far off the grid underflows to zero there: its windows
        # hold a one-peak entry of value 0.
        layers = [(np.arange(4), np.array([[20.0, 20.0]] * 3 + [[-900.0, 20.0]]), np.ones(4))]
        single, groups = peak_windows(layers, 4, SPEC)
        assert not groups
        with pytest.raises(EmptyHeatmap):
            score([0, 1], HeatmapWindows((2, 1, 2), [], single))


class TestSelectBatch:
    def make_pool(self, n=8, labeled=(0,)):
        return PoolState(
            labeled=set(labeled),
            unlabeled=set(range(n)) - set(labeled),
        )

    def test_static_strategy_is_top_k(self):
        pool = self.make_pool()
        scores = {f: float(10 - f) for f in pool.candidates()}
        got = select_batch("mvc", pool, 3, scores=scores)
        ranked = sorted(pool.candidates(), key=lambda f: (-scores[f], f))
        assert got == ranked[:3] == [1, 2, 3]

    def test_static_ties_break_to_lower_id(self):
        pool = self.make_pool()
        scores = {f: 1.0 for f in pool.candidates()}
        assert select_batch("bsb", pool, 3, scores=scores) == [1, 2, 3]

    def test_missing_score_rejected(self):
        pool = self.make_pool()
        scores = {f: 0.0 for f in pool.candidates() if f != 4}
        with pytest.raises(InvariantViolation):
            select_batch("mvc", pool, 2, scores=scores)

    def test_coreset_on_line_poses(self):
        # Labeled {0}; candidates at 1, 2, 10 on a line: the farthest
        # point from the labeled set is 10.
        pool = PoolState(labeled={0}, unlabeled={1, 2, 3})
        cand = {1: line_pose(1), 2: line_pose(2), 3: line_pose(10)}
        got = select_batch(
            "coreset", pool, 1, candidate_poses=cand, labeled_poses=np.stack([line_pose(0)])
        )
        assert got == [3]

    def test_coreset_greedy_spreads_picks(self):
        pool = PoolState(labeled={0}, unlabeled={1, 2, 3, 4})
        cand = {1: line_pose(1), 2: line_pose(9), 3: line_pose(10), 4: line_pose(11)}
        got = select_batch(
            "coreset", pool, 2, candidate_poses=cand, labeled_poses=np.stack([line_pose(0)])
        )
        # First pick 4 (x=11, farthest from x=0); then 2 (x=9, 2 mm from
        # the nearest center) beats 1 and 3 (both 1 mm from a center).
        assert got == [4, 2]

    def test_rand_reproducible_and_within_candidates(self):
        pool = self.make_pool(100)
        a = select_batch("rand", pool, 10, seed=42)
        b = select_batch("rand", pool, 10, seed=42)
        assert a == b
        assert len(set(a)) == 10
        assert set(a) <= set(pool.candidates())
        assert select_batch("rand", pool, 10, seed=43) != a

    def test_rand_stable_under_candidate_removal(self):
        # Dropping frames that were not selected must not change the batch.
        pool = self.make_pool(100)
        batch = select_batch("rand", pool, 10, seed=7)
        dropped = [f for f in pool.candidates() if f not in batch][:5]
        pool2 = PoolState(
            labeled=pool.labeled | set(dropped),
            unlabeled=pool.unlabeled - set(dropped),
        )
        assert select_batch("rand", pool2, 10, seed=7) == batch

    def test_rand_tuple_seed_accepted(self):
        pool = self.make_pool(30)
        a = select_batch("rand", pool, 5, seed=(3, 1))
        b = select_batch("rand", pool, 5, seed=(3, 1))
        assert a == b
        assert a != select_batch("rand", pool, 5, seed=(3, 2))

    def test_rand_roughly_uniform(self):
        pool = self.make_pool(11, labeled=(0,))
        counts = {f: 0 for f in pool.candidates()}
        trials = 600
        for s in range(trials):
            for f in select_batch("rand", pool, 2, seed=s):
                counts[f] += 1
        expected = trials * 2 / 10
        for f, c in counts.items():
            assert 0.5 * expected < c < 1.6 * expected

    def test_budget_validation(self):
        pool = self.make_pool(5)
        with pytest.raises(BudgetExceedsPool):
            select_batch("rand", pool, 5, seed=0)
        assert select_batch("rand", pool, 0, seed=0) == []
        with pytest.raises(InvariantViolation):
            select_batch("rand", pool, -1, seed=0)

    def test_rand_requires_seed(self):
        with pytest.raises(InvariantViolation):
            select_batch("rand", self.make_pool(), 2)

    def test_pseudo_frames_never_selected(self):
        pool = PoolState(labeled={0}, unlabeled=set(range(1, 20)), pseudo={3, 4})
        scores = {f: 100.0 if f in (3, 4) else 1.0 for f in range(1, 20)}
        got = select_batch("mvc", pool, 5, scores=scores)
        assert not set(got) & {3, 4}

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40)
    def test_batch_duplicate_free_subset(self, seed, budget):
        r = np.random.default_rng(seed)
        pool = PoolState(labeled={0}, unlabeled=set(range(1, 12)))
        scores = {f: float(r.random()) for f in pool.candidates()}
        got = select_batch("mpe", pool, budget, scores=scores)
        assert len(got) == len(set(got)) == budget
        assert set(got) <= set(pool.candidates())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_greedy_k_center_within_2x_optimal(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 10))
        budget = int(r.integers(1, 3))
        points = r.uniform(0.0, 100.0, size=n)
        poses = {f: line_pose(points[f]) for f in range(n)}
        pool = PoolState(labeled={0}, unlabeled=set(range(1, n)))
        labeled = np.stack([poses[0]])

        got = select_batch(
            "coreset", pool, budget,
            candidate_poses={f: poses[f] for f in pool.candidates()},
            labeled_poses=labeled,
        )

        def radius(chosen):
            centers = np.array([points[0]] + [points[f] for f in chosen])
            rest = [points[f] for f in pool.candidates() if f not in chosen]
            if not rest:
                return 0.0
            return max(np.abs(centers - x).min() for x in rest)

        optimal = min(
            radius(c) for c in itertools.combinations(pool.candidates(), budget)
        )
        assert radius(got) <= 2.0 * optimal + 1e-9
