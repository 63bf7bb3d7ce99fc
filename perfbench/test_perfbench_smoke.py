"""Smoke test of the campaign benchmark on a tiny scene.

Runs every workload once untraced and once traced on a 40-frame scene and
checks that each metric BENCHMARK.json names is printed with its unit,
that the layers a workload does not use count exactly zero, and that the
report check rejects corrupted reports and final_mkpe_mm does not depend
on --seed. Also checks which host-speed samples scale an interval.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import campaign_bench as cb  # noqa: E402
import hostspeed  # noqa: E402
from annosim import campaign  # noqa: E402
from annosim.dataset import SyntheticSpec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SPEC = SyntheticSpec(clusters=4, frames_per_cluster=10, heldout_frames=10)


def tiny(name: str) -> cb.Workload:
    w = cb.WORKLOADS[name]
    return dataclasses.replace(
        w, spec=TINY_SPEC, config=dataclasses.replace(w.config, init_labeled=6, batch_per_iter=5)
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    return {
        (w["name"], trace): cb.measure(tiny(w["name"]), seed=0, seconds=0, trace=trace, work_dir=work)
        for w in BENCH["workloads"]
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(cb.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(results, capsys, trace, section):
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    for w in BENCH["workloads"]:
        out = results[(w["name"], trace)]
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        cb.print_result(w["name"], 0, out)
        lines = capsys.readouterr().out.strip().splitlines()
        printed = json.loads(lines[-1])
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in printed["metrics"].items()} == expected
        for name, unit in expected.items():
            value = printed["metrics"][name]["value"]
            assert isinstance(value, float)
            assert f"{name} = {value!r} {unit}" in lines


def test_unused_layers_count_exactly_zero(results):
    heatmap = ("heatmap.render_s", "heatmap.render_bumps", "heatmap.render_bytes",
               "heatmap.peaks_s", "heatmap.peak_maps")
    for name in ("rand-st", "coreset-outlier"):
        metrics = results[(name, True)]["metrics"]
        assert all(metrics[m]["value"] == 0 for m in heatmap), name
    bsb = results[("bsb-w2", True)]["metrics"]
    assert all(bsb[m]["value"] > 0 for m in heatmap)
    rand = results[("rand-st", True)]["metrics"]
    assert rand["geometry.dlt_fill_calls"]["value"] == 0
    assert rand["pseudolabel.chosen"]["value"] > 0


def test_end_to_end_metrics_are_positive(results):
    for w in BENCH["workloads"]:
        metrics = results[(w["name"], False)]["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), w["name"]


def test_final_mkpe_repeats_exactly_under_another_seed(results, tmp_path):
    for w in BENCH["workloads"]:
        again = cb.measure(tiny(w["name"]), seed=1, seconds=0, trace=False, work_dir=tmp_path)
        first = results[(w["name"], False)]["metrics"]["final_mkpe_mm"]["value"]
        assert again["metrics"]["final_mkpe_mm"]["value"] == first, w["name"]


def _corruptions():
    def drop_row(r):
        r.rows.pop()

    def nan_mkpe(r):
        r.rows[1].mkpe_mm = float("nan")

    def skip_label_step(r):
        r.rows[2].labeled_count += 1

    def wrong_pseudo_count(r):
        r.rows[1].pseudo_count = 0

    def drift_above_unlabeled(r):
        r.details[0].drift.mean_mm = r.details[0].unlabeled_mkpe_mm + 1.0

    return [drop_row, nan_mkpe, skip_label_step, wrong_pseudo_count, drift_above_unlabeled]


@pytest.fixture(scope="module")
def rand_st_report(tmp_path_factory):
    w = tiny("rand-st")
    dataset, _, _ = cb.setup(w, tmp_path_factory.mktemp("scene"))
    return w, dataset, campaign.run_campaign(dataset, w.config, 7)


@pytest.mark.parametrize("corrupt", _corruptions(), ids=lambda f: f.__name__)
def test_report_check_flags_corruption(rand_st_report, corrupt):
    w, _, result = rand_st_report
    assert cb.check_report(result, w.config) == []
    bad = copy.deepcopy(result)
    corrupt(bad)
    assert cb.check_report(bad, w.config)


def test_corrupted_campaigns_count_as_failed(rand_st_report, monkeypatch):
    w, dataset, result = rand_st_report
    bad = copy.deepcopy(result)
    bad.rows[1].mkpe_mm = -1.0
    monkeypatch.setattr(campaign, "run_campaign", lambda *args: bad)
    loop = cb.Loop(w, dataset)
    loop.run(0)
    monkeypatch.setattr(campaign, "run_campaign", lambda *args: result)
    loop.run(1)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert loop.finals == [None, result.rows[-1].mkpe_mm]


def test_scaled_time_uses_the_samples_inside_or_nearest_its_interval():
    speed = hostspeed.HostSpeed()  # never entered: no thread, samples set here
    speed._starts = [float(t) for t in range(10)]
    speed._times = [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 9.0, 9.0]
    assert speed.kernel_s(2.0, 7.0) == 4.0  # samples 2-6
    assert speed.kernel_s(0.0, 10.0) == 4.5  # all ten
    assert speed.kernel_s(6.2, 6.3) == 6.0  # none inside: the five nearest, 4-8
    assert speed.kernel_s(-5.0, -4.0) == 2.0  # before the first: samples 0-4
    assert speed.kernel_s(20.0, 21.0) == 9.0  # after the last: samples 5-9
    assert speed.scaled(2.0, 7.0) == pytest.approx(5.0 * hostspeed.REFERENCE_S / 4.0)
    speed._starts = speed._starts[:4]
    with pytest.raises(RuntimeError):
        speed.kernel_s(0.0, 10.0)
