"""Closed-loop campaign benchmark for annosim.

One process runs whole ``annosim.campaign.run_campaign`` calls one after
another, each starting when the previous one returns: a fixed number of
them, then more while the next is expected to end within ``--seconds``.
Every report is checked; a campaign that raises or fails the
check counts as failed. After each campaign the scene is loaded once
more, so that ``setup_s`` is the median of loads spread over the whole
run. Run it through ``perfbench/run.py``, which pins the BLAS/OpenMP
pools before numpy is imported.

Each workload generates the default ``SyntheticSpec`` scene (500 train
and 100 held-out frames, 8 cameras, 15 keypoints) from its fixed
workload seed and writes it to YAML outside timing; the campaigns see
only what ``load_dataset`` reads back. The first ``REFERENCE_CAMPAIGNS``
campaigns of a run are seeded from the workload seed alone, so their
results, and ``final_mkpe_mm``, are the same on every run; the later
campaigns are seeded from the workload seed and ``--seed``.
Campaigns are cut to ``ITERATIONS`` iterations so that a run of
``run_seconds`` holds several of them; every step of an iteration still
runs.

With tracing off the run prints the end-to-end metrics. ``campaign_s``
and ``setup_s`` are medians of per-campaign and per-load times scaled to a
reference host speed by the sampler in hostspeed.py. The sampler runs
through every run, traced or not, so both modes carry its small load; the
unscaled wall medians go to standard error. With tracing on the run plays
each campaign seed twice, once traced and once not, in alternating order,
and prints per-campaign layer times and counts from the traced copies (see
tracing.py) plus the tracing overhead, all in unscaled wall seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from annosim import campaign
from annosim.config import CampaignConfig, SelfTrainingConfig
from annosim.dataset import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from annosim.predictor import NoiseModel

from hostspeed import HostSpeed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"

ITERATIONS = 2
# final_mkpe_mm averages the reference campaigns. Every run completes
# MIN_CAMPAIGNS campaigns whatever --seconds says, so that campaign_s is a
# median of at least three and at least one campaign is seeded from --seed.
REFERENCE_CAMPAIGNS = 2
MIN_CAMPAIGNS = 3


@dataclass(frozen=True)
class Workload:
    config: CampaignConfig
    spec: SyntheticSpec = SyntheticSpec()
    seed: int = 0  # the workload seed: scene and reference campaigns


WORKLOADS = {
    # Geometry-bound single-threaded baseline: no heatmaps, pseudo-labels on.
    "rand-st": Workload(
        CampaignConfig(
            strategy="rand",
            st=SelfTrainingConfig(enabled=True),
            iterations=ITERATIONS,
        )
    ),
    # Heatmap-bound; the only workload that uses the worker pool.
    "bsb-w2": Workload(CampaignConfig(strategy="bsb", workers=2, iterations=ITERATIONS)),
    # Contaminated predictor: fewer all-inlier keypoints, DLT fill-ins,
    # coreset re-triangulation of the labeled set and k-center selection.
    "coreset-outlier": Workload(
        CampaignConfig(
            strategy="coreset",
            noise=NoiseModel(outlier_prob_base=0.05),
            iterations=ITERATIONS,
        )
    ),
}

END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "final_mkpe_mm": "mm",
    "campaign_pass_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def campaign_seed(workload_seed: int, run_seed: int, index: int) -> int:
    """Seed of a run's index-th campaign; reference campaigns ignore run_seed."""
    key = [workload_seed, index]
    if index >= REFERENCE_CAMPAIGNS:
        key.append(run_seed)
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def check_report(result, config: CampaignConfig) -> list:
    """Problems found in one campaign's report; empty when it is sound."""
    rows = result.rows
    problems = []
    if len(rows) != config.iterations + 1:
        problems.append(f"{len(rows)} rows, expected {config.iterations + 1}")
    for i, row in enumerate(rows):
        expected = config.init_labeled + i * config.batch_per_iter
        if row.iteration != i or row.labeled_count != expected:
            problems.append(
                f"row {i}: iteration {row.iteration}, labeled_count "
                f"{row.labeled_count}, expected {expected}"
            )
        if not (math.isfinite(row.mkpe_mm) and row.mkpe_mm > 0):
            problems.append(f"row {i}: mkpe_mm {row.mkpe_mm!r} not finite and positive")
    if config.st.enabled:
        for row in rows[1:]:
            if row.pseudo_count != config.pseudo_amount():
                problems.append(
                    f"row {row.iteration}: pseudo_count {row.pseudo_count}, "
                    f"expected {config.pseudo_amount()}"
                )
        for detail in result.details:
            if detail.drift.count and not detail.drift.mean_mm <= detail.unlabeled_mkpe_mm:
                problems.append(
                    f"iteration {detail.iteration}: pseudo drift {detail.drift.mean_mm!r} "
                    f"above unlabeled MKPE {detail.unlabeled_mkpe_mm!r}"
                )
    return problems


def timed_load(path: Path, windows: list):
    """load_dataset(path), appending its (start, end) perf_counter times."""
    t0 = time.perf_counter()
    dataset = load_dataset(path)
    windows.append((t0, time.perf_counter()))
    return dataset


def wall_s(windows: list) -> list:
    return [end - start for start, end in windows]


def setup(workload: Workload, work_dir: Path):
    """Write the workload's scene, load it back and check it.

    Returns the dataset, the scene's path and a list holding the load's
    (start, end) times, to which the run's later loads are appended."""
    generated = generate_synthetic(dataclasses.replace(workload.spec, seed=workload.seed))
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"scene_seed{workload.seed}.yaml"
    save_dataset(generated, path)
    windows = []
    dataset = timed_load(path, windows)
    order = sorted(f.id for f in generated.frames)
    if not (
        len(dataset.cameras) == len(generated.cameras)
        and dataset.train_ids == generated.train_ids
        and dataset.heldout_ids == generated.heldout_ids
        and np.array_equal(dataset.poses(order), generated.poses(order))
    ):
        raise RuntimeError(f"{path} does not load back as the generated scene")
    return dataset, path, windows


class Loop:
    """Runs campaigns one at a time and keeps their times and failures."""

    def __init__(self, workload: Workload, dataset):
        self.config = workload.config
        self.dataset = dataset
        self.attempted = 0
        self.failed = 0
        self.windows = []  # (start, end) perf_counter times of each campaign
        self.finals = []  # final-row MKPE of each sound campaign, in order

    def run(self, seed: int) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = campaign.run_campaign(self.dataset, self.config, seed)
        except Exception:  # a failed campaign is counted, and the loop goes on
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        else:
            elapsed = time.perf_counter() - t0
            problems = check_report(result, self.config)
        self.windows.append((t0, t0 + elapsed))
        if problems:
            self.failed += 1
            self.finals.append(None)
            print(f"campaign seed {seed} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            self.finals.append(result.rows[-1].mkpe_mm)
        return elapsed


def closed_loop(seconds: float, min_rounds: int, one_round) -> None:
    """Call one_round(index) back to back: at least min_rounds times, then
    while another round at the median pace so far ends within seconds."""
    start = time.perf_counter()
    durations = []
    while len(durations) < min_rounds or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        one_round(len(durations))
        durations.append(time.perf_counter() - t0)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path = WORK_DIR):
    """One benchmark run; returns the result object that run.py prints."""
    with HostSpeed() as speed:
        dataset, path, loads = setup(workload, work_dir)
        loop = Loop(workload, dataset)
        if not trace:

            def one(i):
                loop.run(campaign_seed(workload.seed, seed, i))
                timed_load(path, loads)

            closed_loop(seconds, MIN_CAMPAIGNS, one)
            for name, windows in (("campaign_s", loop.windows), ("setup_s", loads)):
                print(f"wall {name} = {statistics.median(wall_s(windows))!r} s", file=sys.stderr)
            reference = loop.finals[:REFERENCE_CAMPAIGNS]
            metrics = {
                "campaign_s": statistics.median(speed.scaled(*w) for w in loop.windows),
                "setup_s": statistics.median(speed.scaled(*w) for w in loads),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "final_mkpe_mm": None if None in reference else statistics.fmean(reference),
                "campaign_pass_ratio": 1.0 - loop.failed / loop.attempted,
            }
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            traced, untraced = [], []

            def pair(i):
                # The same campaign traced and untraced; the order alternates
                # so that neither copy always runs second.
                for with_trace in (i % 2 == 1, i % 2 == 0):
                    if with_trace:
                        with tracer.installed():
                            traced.append(loop.run(campaign_seed(workload.seed, seed, i)))
                    else:
                        untraced.append(loop.run(campaign_seed(workload.seed, seed, i)))
                timed_load(path, loads)

            closed_loop(seconds, 1, pair)
            metrics = tracer.layer_metrics(len(traced))
            metrics["campaign.traced_s"] = statistics.median(traced)
            metrics["campaign.untraced_s"] = statistics.median(untraced)
            metrics["campaign.trace_overhead_s"] = (
                metrics["campaign.traced_s"] - metrics["campaign.untraced_s"]
            )
            metrics["dataset.load_s"] = statistics.median(wall_s(loads))
            units = {name: layer_unit(name) for name in metrics}
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def host_record() -> dict:
    """Host and thread settings printed with every result."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def print_result(workload: str, seed: int, out: dict) -> None:
    """Host record, one line per metric, then the JSON result line."""
    print("host " + json.dumps(host_record(), sort_keys=True))
    print(f"workload {workload} seed {seed}: {out['attempted']} campaigns, {out['failed']} failed")
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, args.seed, out)
    return 0
