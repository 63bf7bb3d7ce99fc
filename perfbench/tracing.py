"""Per-layer tracing of annosim campaigns, applied from outside the package.

While a Tracer is installed, the public functions that
``annosim.campaign.run_campaign`` reaches through module attributes are
replaced by wrappers that record a span per call (name, start, end, parent
span) and hand the call's result to a counter of units of work. Nothing in ``src/`` is
edited; uninstalling restores the original functions.

Span names are the per-layer metric names without their ``_s`` suffix, so
``geometry.triangulate`` spans give ``geometry.triangulate_s``. A layer's
time is the self time of its spans (duration minus the part covered by
child spans), summed over threads. Spans opened on a thread with no open
span of its own (the campaign's worker pool) are children of the campaign
span, which is what ``campaign.parallel_s`` measures.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from annosim import campaign, predictor, selection

ROOT = "campaign"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# A counter runs after its call's span closes, also when the call raised;
# out is then None. Counting on the spot keeps no campaign results alive.


def _count_triangulation(tracer, args, out):
    if out is None:
        return
    n_views = len(args[0])
    keypoints = sum(len(ft.per_keypoint) for ft in out)
    resolved = [kt.inlier_mask for ft in out for kt in ft.per_keypoint if kt is not None]
    tracer.count("geometry.keypoints", keypoints)
    tracer.count("geometry.pair_systems", keypoints * n_views * (n_views - 1) // 2)
    tracer.count("geometry.resolved", len(resolved))
    if resolved:
        tracer.count("geometry.all_inlier", int(np.stack(resolved).all(axis=1).sum()))


def _count_dlt_fill(tracer, args, out):
    tracer.count("geometry.dlt_fill_calls")
    if out is None:
        tracer.count("geometry.dlt_fill_failed")


def _count_frame(tracer, args, out):
    tracer.count("predictor.frames")


def _count_render(tracer, args, out):
    if out is None:
        return
    tracer.count("heatmap.render_bumps", out.shape[0])
    tracer.count("heatmap.render_bytes", out.shape[0] * out.shape[1] * out.shape[2] * 8)


def _count_peaks(tracer, args, out):
    if out is None:
        return
    tracer.count("heatmap.peak_maps", len(out))


def _count_candidates(tracer, args, out):
    tracer.count("selection.candidates", len(args[1].candidates()))


def _count_chosen(tracer, args, out):
    if out is None:
        return
    tracer.count("pseudolabel.chosen", len(out))


# (module, attribute, span name, counter)
WRAPPED = (
    (campaign, "run_campaign", ROOT, None),
    (campaign, "triangulate_frames", "geometry.triangulate", _count_triangulation),
    (campaign, "triangulate_dlt", "geometry.dlt_fill", _count_dlt_fill),
    (campaign, "infer", "predictor.infer", _count_frame),
    (campaign, "summarize_pool", "predictor.summarize", None),
    (predictor, "gaussian_values_stack", "heatmap.render", _count_render),
    (selection, "local_peaks_stack", "heatmap.peaks", _count_peaks),
    (campaign, "score_bsb", "selection.score", None),
    (campaign, "score_mpe", "selection.score", None),
    (campaign, "select_batch", "selection.select", _count_candidates),
    (campaign, "select_pseudo_labels", "pseudolabel.select", _count_chosen),
    (campaign, "drift_stats", "pseudolabel.drift", None),
    (campaign, "kmeans_poses", "analysis.kmeans", None),
    (campaign, "batch_entropy", "analysis.entropy", None),
)

TIMED_LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))


class Tracer:
    """Spans and counters of the campaigns run while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            span = Span(name, stack[-1] if stack else self._root)
            self.spans.append(span)
            if name == ROOT:
                self._root = index
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if name == ROOT:
                self._root = None

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            out = None
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
                return out
            finally:
                if counter is not None:
                    counter(self, args, out)

        return traced

    @contextmanager
    def installed(self):
        """Route the wrapped module attributes through this tracer."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in WRAPPED]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(WRAPPED, originals):
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self, campaigns: int) -> dict:
        """Per-campaign layer times and counts as {metric: value}."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        self_s = Counter({name: 0.0 for name in TIMED_LAYERS})
        parallel_s = 0.0
        for i, span in enumerate(self.spans):
            kids = [(c.start, c.end) for c in children[i]]
            covered = _covered(kids)
            self_s[span.name] += span.end - span.start - covered
            if span.name == ROOT:
                parallel_s += sum(end - start for start, end in kids) - covered

        per = 1.0 / campaigns
        keypoints = self.counts["geometry.keypoints"]
        out = {f"{name}_s": self_s[name] * per for name in TIMED_LAYERS if name != ROOT}
        out["campaign.self_s"] = self_s[ROOT] * per
        out["campaign.parallel_s"] = parallel_s * per
        out["geometry.keypoints"] = keypoints * per
        out["geometry.pair_systems"] = self.counts["geometry.pair_systems"] * per
        for name, key in (("consensus_ratio", "resolved"), ("all_inlier_ratio", "all_inlier")):
            out[f"geometry.{name}"] = self.counts[f"geometry.{key}"] / keypoints if keypoints else 0.0
        for key in (
            "geometry.dlt_fill_calls",
            "geometry.dlt_fill_failed",
            "predictor.frames",
            "heatmap.render_bumps",
            "heatmap.render_bytes",
            "heatmap.peak_maps",
            "selection.candidates",
            "pseudolabel.chosen",
        ):
            out[key] = self.counts[key] * per
        return out
