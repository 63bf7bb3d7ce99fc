"""Shared fixtures and hypothesis setup for the test suite."""

import itertools
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from annosim import predictor
from annosim.dataset import ring_cameras

# Numeric tests stack SVDs and can blow past hypothesis' default deadline on
# a loaded machine; correctness here never depends on wall time.
settings.register_profile(
    "annosim",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("annosim")


@pytest.fixture(scope="session")
def ring8():
    """The benchmark camera rig: 8 cameras on a 3 m ring."""
    return ring_cameras(8, radius_mm=3000.0, height_mm=400.0, focal_px=700.0, image_size_px=1000.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def dense_maps():
    """Renderer of a FramePrediction's full (V, K, H, W) heatmaps, every
    map on the whole grid: the dense reference that windowed and
    one-peak scoring must match."""

    def render(fp):
        n_views, n_kp = fp.points.shape[:2]
        maps = predictor._render(fp.bumps, fp.spec, np.arange(n_views * n_kp))
        return maps.reshape(n_views, n_kp, fp.spec.height, fp.spec.width)

    return render


def _run_reporting_pid(fn, *args):
    """fn(*args) as (the pid of the process that ran it, its result)."""
    return os.getpid(), fn(*args)


class PidRecordingPool(ProcessPoolExecutor):
    """A process pool whose map records the pid of the process that ran
    each task, in task order, in .pids."""

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.max_workers = max_workers
        self.pids = []

    def map(self, fn, *iterables, **kwargs):
        tagged = super().map(_run_reporting_pid, itertools.repeat(fn), *iterables, **kwargs)
        for pid, result in tagged:
            self.pids.append(pid)
            yield result


def _traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes that tracemalloc traced while
    it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    """A function that runs fn(*args, **kwargs) under tracemalloc and
    returns (its result, the peak bytes traced): the memory tests'
    measure."""
    return _traced_peak


@pytest.fixture(scope="session")
def pid_pool():
    """The PidRecordingPool class: a process pool that reports where its
    tasks ran."""
    return PidRecordingPool


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion at the end."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "nodeid", "")
            if "test_criterion_" in name:
                short = name.split("::")[-1]
                lines.append((short, outcome.upper()))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for short, outcome in sorted(lines):
        terminalreporter.write_line(f"{short}: {outcome}")
