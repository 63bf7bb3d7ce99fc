"""Acceptance gate: one test per release criterion.

Each test_criterion_* function asserts one end-to-end guarantee, from
frozen entropy reference values through directional benchmark claims to
byte-level determinism. The campaign-based criteria share one session
fixture that runs the full benchmark grid (5 strategies x 3 seeds, plus
self-training arms for rand and mvc) and records per-campaign wall time
so the runtime bounds are checked against what actually ran.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from annosim.analysis import cluster_entropy
from annosim.campaign import report_csv_text, run_campaign
from annosim.config import CampaignConfig, SelfTrainingConfig
from annosim.dataset import SyntheticSpec, generate_synthetic, ring_cameras
from annosim.geometry import project, robust_triangulate, triangulate_dlt
from annosim.heatmap import Heatmap, HeatmapSpec, PeakParams, gaussian_values, mpe_view
from annosim.pose import pose_distance
from annosim.selection import STRATEGIES, PoolState, score_bsb, select_batch

SEEDS = (0, 1, 2)


def _arm_seconds(walls, st):
    """Summed wall seconds per strategy, for runtime failure messages."""
    per = {}
    for (strategy, st_on, _), wall in walls.items():
        if st_on == st:
            per[strategy] = per.get(strategy, 0.0) + wall
    return ", ".join(f"{strategy} {wall:.0f}s" for strategy, wall in per.items())


def _final_mean(runs, strategy, st):
    return float(np.mean([runs[(strategy, st, s)].rows[-1].mkpe_mm for s in SEEDS]))


@pytest.fixture(scope="session")
def benchmark_ds():
    return generate_synthetic(SyntheticSpec())


@pytest.fixture(scope="session")
def campaigns(benchmark_ds):
    """(results, wall_times) keyed by (strategy, self_training, seed)."""
    arms = [(s, False) for s in STRATEGIES] + [("rand", True), ("mvc", True)]
    runs, walls = {}, {}
    for strategy, st_on in arms:
        cfg = CampaignConfig(
            strategy=strategy, st=SelfTrainingConfig(enabled=st_on)
        )
        for seed in SEEDS:
            t0 = time.perf_counter()
            runs[(strategy, st_on, seed)] = run_campaign(benchmark_ds, cfg, seed)
            walls[(strategy, st_on, seed)] = time.perf_counter() - t0
    return runs, walls


def test_criterion_01_cluster_entropy_reference_values():
    assert cluster_entropy((29, 6, 0, 10, 3, 18, 1, 39, 5, 14)) == pytest.approx(
        0.7953, abs=1e-3
    )
    assert cluster_entropy((37, 1, 0, 9, 0, 12, 0, 48, 0, 18)) == pytest.approx(
        0.6341, abs=1e-3
    )


def test_criterion_02_triangulation_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    n_inst = 1000
    errors = {n: [] for n in range(2, 9)}
    for _ in range(n_inst):
        radius = rng.uniform(2000.0, 4000.0)
        height = rng.uniform(-400.0, 400.0)
        cams = ring_cameras(8, radius, height, 700.0, 1000.0)
        point = rng.uniform(-500.0, 500.0, size=3)
        obs = np.array([project(c, point) for c in cams])

        rec = triangulate_dlt(list(zip(cams, obs)))
        assert np.linalg.norm(rec - point) <= 1e-6 * max(1.0, np.linalg.norm(point))

        noisy = obs + rng.normal(0.0, 1.0, size=(8, 2))
        for n in range(2, 9):
            idx = np.round(np.linspace(0.0, 8.0, n, endpoint=False)).astype(int)
            rec_n = triangulate_dlt([(cams[i], noisy[i]) for i in idx])
            errors[n].append(np.linalg.norm(rec_n - point))

    medians = [float(np.median(errors[n])) for n in range(2, 9)]
    assert all(b < a for a, b in zip(medians, medians[1:])), medians
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_robust_triangulation_recovers_from_one_bad_view():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n_inst = 500
    ok = 0
    for _ in range(n_inst):
        cams = ring_cameras(8, rng.uniform(2500.0, 3500.0), rng.uniform(0.0, 500.0), 700.0, 1000.0)
        point = rng.uniform(-500.0, 500.0, size=3)
        obs = np.array([project(c, point) for c in cams])
        bad = int(rng.integers(8))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        obs[bad] += 100.0 * np.array([np.cos(angle), np.sin(angle)])

        result = robust_triangulate(cams, obs, threshold_px=5.0)
        excluded = not result.inlier_mask[bad] and result.inlier_mask.sum() == 7
        recovered = np.linalg.norm(result.point - point) <= 1e-6
        ok += excluded and recovered

    assert ok >= 0.95 * n_inst, f"{ok}/{n_inst}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_greedy_k_center_within_twice_optimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 13))  # candidate pool of <= 12 poses
        n_labeled = int(rng.integers(1, 3))
        budget = int(rng.integers(1, min(4, n) + 1))
        cand = rng.uniform(-300.0, 300.0, size=(n, 3, 3))
        labeled = rng.uniform(-300.0, 300.0, size=(n_labeled, 3, 3))

        # Pairwise pose distances, brute-force radius over every subset.
        def radius(extra_idx):
            best = np.full(n, np.inf)
            for pool in (labeled, cand[list(extra_idx)]):
                for center in pool:
                    d = np.array([pose_distance(c, center) for c in cand])
                    best = np.minimum(best, d)
            return best.max()

        optimal = min(
            radius(s) for s in itertools.combinations(range(n), budget)
        )

        pool = PoolState(labeled=set(range(1000, 1000 + n_labeled)), unlabeled=set(range(n)))
        picked = select_batch(
            "coreset",
            pool,
            budget,
            candidate_poses={i: cand[i] for i in range(n)},
            labeled_poses=labeled,
        )
        assert radius(picked) <= 2.0 * optimal + 1e-9

    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_directional_strategy_ranking(campaigns):
    runs, walls = campaigns
    rand = _final_mean(runs, "rand", False)
    mvc = _final_mean(runs, "mvc", False)
    cs = _final_mean(runs, "coreset", False)
    bsb = _final_mean(runs, "bsb", False)
    mpe = _final_mean(runs, "mpe", False)

    assert mvc < 0.95 * rand, f"mvc {mvc:.3f} vs rand {rand:.3f}"
    assert cs < 0.95 * rand, f"coreset {cs:.3f} vs rand {rand:.3f}"
    assert abs(bsb - rand) <= 0.10 * rand, f"bsb {bsb:.3f} vs rand {rand:.3f}"
    assert abs(mpe - rand) <= 0.10 * rand, f"mpe {mpe:.3f} vs rand {rand:.3f}"

    total = sum(w for (_, st, _), w in walls.items() if not st)
    assert total < 300.0, f"benchmark grid took {total:.0f}s ({_arm_seconds(walls, False)})"


def test_criterion_06_self_training_gains_and_early_benefit(campaigns):
    runs, walls = campaigns
    for strategy in ("rand", "mvc"):
        plain = _final_mean(runs, strategy, False)
        st = _final_mean(runs, strategy, True)
        assert st <= plain, f"{strategy}+ST {st:.3f} vs {strategy} {plain:.3f}"

        early_wins = 0
        for seed in SEEDS:
            base = runs[(strategy, False, seed)].rows
            boosted = runs[(strategy, True, seed)].rows
            early_gap = base[2].mkpe_mm - boosted[2].mkpe_mm
            final_gap = base[-1].mkpe_mm - boosted[-1].mkpe_mm
            early_wins += early_gap + 1e-12 >= final_gap
        assert early_wins >= 2, f"{strategy}: early gap >= final gap in {early_wins}/3 seeds"

    extra = sum(w for (_, st, _), w in walls.items() if st)
    assert extra < 300.0, f"self-training arms took {extra:.0f}s ({_arm_seconds(walls, True)})"


def test_criterion_07_pseudo_label_alternation_invariant(campaigns):
    runs, _ = campaigns
    violations = 0
    for result in runs.values():
        history = result.pseudo_id_history()
        for prev, cur in zip(history, history[1:]):
            violations += bool(prev & cur)
        violations += sum(not d.pseudo_all_views_inliers for d in result.details)
    assert violations == 0


def test_criterion_08_pseudo_drift_below_unlabeled_error(campaigns):
    runs, _ = campaigns
    compared = 0
    for (strategy, st_on, seed), result in runs.items():
        if not st_on:
            continue
        for detail in result.details:
            if detail.drift.count == 0:
                continue
            compared += 1
            assert detail.drift.mean_mm <= detail.unlabeled_mkpe_mm, (
                f"{strategy} seed {seed} iteration {detail.iteration}: drift "
                f"{detail.drift.mean_mm:.3f} > unlabeled {detail.unlabeled_mkpe_mm:.3f}"
            )
    assert compared > 0


# sha256 of report_csv_text for every grid campaign, keyed as in the
# campaigns fixture: (strategy, self_training, seed). Taken on numpy 2.4.
GRID_DIGESTS = {
    ("rand", False, 0): "2e866bd66423fcc45f59ffac045e5d6df5f10a27ef9e29cd60e080b13ab48415",
    ("rand", False, 1): "bd102a353251e322f573fc3fbf6ea9560abbe16d4130924beb683cb96501314c",
    ("rand", False, 2): "c572b911662c3d388ede4e20a9bfc1dabf6fca84eee350db33ff226ef96fff0b",
    ("bsb", False, 0): "4a81b25a34d9a9dbdc9700cde1fbc88b911c88be9c331e5cb5edb7c2f24e3cf5",
    ("bsb", False, 1): "82f62e7df9f116bfcdd33a6a834c225be09e604d3f87cf8af82b97ebb306d167",
    ("bsb", False, 2): "f3ded9699148bb9aed93cba210fcc018381c6ebacdb307c09beb2569e4d3ac08",
    ("mpe", False, 0): "4a81b25a34d9a9dbdc9700cde1fbc88b911c88be9c331e5cb5edb7c2f24e3cf5",
    ("mpe", False, 1): "a970e74da8596f25d00aaf1b9f830aace36fd364560eb18088f798f443e653d0",
    ("mpe", False, 2): "acc0076a0bee2c9a9d8e6e4aa8d3b455b231b3ff36c7f850296a894b91ebbbdb",
    ("coreset", False, 0): "fd4389b50264cfed9fe40b62e1ca403ef039cbabb41c6e3ec316b5bc834704bc",
    ("coreset", False, 1): "9888bcbb52cd3d642cbce881896f207a059e1dc0fdcf6b5a1c0322bd7d43c53e",
    ("coreset", False, 2): "a19cdfb7ecd3411c7d4fb9ca3edf90055e3b14d773eee83b79227e032968f07b",
    ("mvc", False, 0): "630090b1bce3ca1dbc58c2e7a76230924b0d2aef7c225e0d938ab50a822bfe1f",
    ("mvc", False, 1): "15134e89a618a2adce86301730257ba58d68a8c53009ceb1b3205d3d3cb2ff0e",
    ("mvc", False, 2): "505465abc21a84f83431ad3d4bd79e858263595c55551f5b666958342a5aae23",
    ("rand", True, 0): "f349cb6a06611ec3f4d76d1e2e872fa86770d6732da226651f730de7e4f03111",
    ("rand", True, 1): "6a123107580dcad91be98c1c394307a53e6713b78e0fd28c976d09d9a4c6631e",
    ("rand", True, 2): "1ae5688eb5ae429a01818e260432152cf2645c8c3ea627767523fc2634324d6a",
    ("mvc", True, 0): "cbf295127c410ed5f8174f47504ce68a32847eaab5012c6446a7c10b19851dc3",
    ("mvc", True, 1): "079b89ecefc6ab09427bee56b2a747166fda2657621d4d1c8af63707ad1b6dde",
    ("mvc", True, 2): "da99d1b4f55e73daeeb7cc36bf2bc1c5a1e562299535389e8526225a19f6470d",
}


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason=f"grid digests were taken on numpy 2.4.x, this is {np.__version__}",
)
def test_grid_report_digests(campaigns):
    """Regression pin, not a release criterion: every grid report keeps the
    bytes it had when the digests were taken. A change that means to alter
    reports updates GRID_DIGESTS and says why; another numpy version may
    round differently, so the pin holds on numpy 2.4 only."""
    runs, _ = campaigns
    digests = {
        key: hashlib.sha256(report_csv_text(result).encode()).hexdigest()
        for key, result in runs.items()
    }
    changed = sorted(key for key in GRID_DIGESTS if digests.get(key) != GRID_DIGESTS[key])
    assert not changed and digests.keys() == GRID_DIGESTS.keys(), f"reports changed: {changed}"


def test_criterion_09_scoring_identities():
    spec = HeatmapSpec(width=64, height=64, sigma_px=2.0)
    params = PeakParams()
    single = Heatmap(gaussian_values(np.array([20.0, 30.0]), spec))
    assert mpe_view([single], params) == 0.0
    assert score_bsb(0, [[single]], params).value == pytest.approx(-1.0)

    two_equal = Heatmap(
        gaussian_values(np.array([12.0, 12.0]), spec)
        + gaussian_values(np.array([50.0, 50.0]), spec)
    )
    assert mpe_view([two_equal], params) == pytest.approx(np.log(2.0), abs=1e-12)
    assert score_bsb(0, [[two_equal]], params).value == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(0)
    for _ in range(50):
        frame = [[Heatmap(rng.random((32, 32))) for _ in range(3)] for _ in range(2)]
        score = score_bsb(0, frame, params).value
        assert -1.0 <= score <= 0.0

    triples = rng.normal(0.0, 100.0, size=(10_000, 3, 4, 3))
    for a, b, c in triples:
        assert pose_distance(a, c) <= pose_distance(a, b) + pose_distance(b, c) + 1e-9


def test_criterion_10_byte_identical_reports(benchmark_ds):
    cfg = CampaignConfig(
        strategy="mvc",
        iterations=4,
        st=SelfTrainingConfig(enabled=True),
    )
    first = report_csv_text(run_campaign(benchmark_ds, cfg, seed=1)).encode()
    again = report_csv_text(run_campaign(benchmark_ds, cfg, seed=1)).encode()
    threaded_cfg = CampaignConfig(
        strategy="mvc",
        iterations=4,
        workers=4,
        st=SelfTrainingConfig(enabled=True),
    )
    threaded = report_csv_text(run_campaign(benchmark_ds, threaded_cfg, seed=1)).encode()
    assert first == again
    assert first == threaded
