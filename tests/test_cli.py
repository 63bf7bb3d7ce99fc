"""End-to-end command-line workflows against a temporary workspace."""

import csv
import dataclasses
import io
import itertools
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from annosim import campaign
from annosim.campaign import read_report, report_csv_text
from annosim.cli import main
from annosim.dataset import load_dataset

README = Path(__file__).resolve().parents[1] / "README.md"
COMPARE_HEADER = ["run", "iteration", "labeled_count", "mkpe_mean_mm", "vs_base_mm"]
REPORT_HEADER = (
    "iteration,labeled_count,labeled_fraction,mkpe_mm,mean_epsilon,"
    "pseudo_count,pseudo_drift_mean_mm,entropy,hours_elapsed"
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset file plus a campaign config small enough for CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds_path = root / "ds.yaml"
    gen_cfg = root / "gen.yaml"
    gen_cfg.write_text(
        yaml.safe_dump(
            {
                "clusters": 3,
                "frames_per_cluster": 8,
                "heldout_frames": 6,
                "keypoints": 4,
                "cameras": 3,
            }
        )
    )
    rc = main(["generate", "--config", str(gen_cfg), "--seed", "7", "--out", str(ds_path)])
    assert rc == 0
    cfg_path = root / "cfg.yaml"
    cfg_path.write_text(
        yaml.safe_dump(
            {
                "dataset": str(ds_path),
                "strategy": "rand",
                "init_labeled": 5,
                "batch_per_iter": 3,
                "iterations": 2,
                "seeds": [0, 1],
                "analysis": {"clusters": 4, "root_index": 1},
            }
        )
    )
    return root, ds_path, cfg_path


class TestGenerate:
    def test_output_is_loadable(self, workspace):
        _, ds_path, _ = workspace
        ds = load_dataset(ds_path)
        assert len(ds.frames) == 3 * 8 + 6
        assert ds.keypoint_count == 4

    def test_unknown_generator_key(self, workspace, tmp_path, capsys):
        bad = tmp_path / "gen.yaml"
        bad.write_text("clusterz: 3\n")
        rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x.yaml")])
        assert rc == 2
        assert "clusterz" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["cameras: 8.0", "seed: true"])
    def test_integer_fields_take_only_integers(self, tmp_path, capsys, line):
        gen = tmp_path / "gen.yaml"
        gen.write_text(line + "\n")
        out = tmp_path / "x.yaml"
        assert main(["generate", "--config", str(gen), "--out", str(out)]) == 2
        assert f"config.{line.split(':')[0]} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_multi_seed_rejected(self, workspace, tmp_path):
        assert main(["generate", "--seed", "1,2", "--out", str(tmp_path / "x.yaml")]) == 2

    @pytest.mark.parametrize("top", ["false", "0", '""', "[]"])
    def test_non_mapping_top_level(self, tmp_path, capsys, top):
        bad = tmp_path / "gen.yaml"
        bad.write_text(top + "\n")
        out = tmp_path / "x.yaml"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == 2
        assert "top level must be a mapping" in capsys.readouterr().err
        assert not out.exists()

    def test_out_under_a_file(self, workspace, tmp_path, capsys):
        root = workspace[0]
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "x.yaml"
        assert main(["generate", "--config", str(root / "gen.yaml"), "--out", str(out)]) == 2
        assert "runtime failure" not in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_empty_config_writes_default_scene(self, tmp_path, capsys):
        empty = tmp_path / "gen.yaml"
        empty.write_text("")
        out = tmp_path / "x.yaml"
        assert main(["generate", "--config", str(empty), "--out", str(out)]) == 0
        assert "600 frames" in capsys.readouterr().out
        assert len(load_dataset(out).frames) == 600


class TestRun:
    def test_full_workflow(self, workspace, capsys):
        root, _, cfg_path = workspace
        out = root / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "seed 0 [rand]" in printed and "seed 1 [rand]" in printed
        assert (out / "aggregate.csv").exists()

        assert main(["analyze", "--out", str(out)]) == 0
        analysis = (out / "analysis.csv").read_text().splitlines()
        assert analysis[0] == "iteration,entropy_mean,pseudo_drift_mean_mm"
        assert len(analysis) == 1 + 3  # iterations 0..2
        capsys.readouterr()

        assert main(["report", "--config", str(cfg_path)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0] == "iteration,labeled_count,al_hours,conventional_hours"
        assert table[1].startswith("0,5,")

    def test_reruns_are_byte_identical(self, workspace):
        root, _, cfg_path = workspace
        a, b = root / "run_a", root / "run_b"
        assert main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
        for name in ("report_seed0.csv", "report_seed1.csv", "aggregate.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_strategy_and_seed_overrides(self, workspace, capsys):
        root, _, cfg_path = workspace
        out = root / "run_mvc"
        rc = main(
            [
                "run",
                "--config", str(cfg_path),
                "--strategy", "mvc",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "seed 5 [mvc]" in capsys.readouterr().out
        assert (out / "report_seed5.csv").exists()
        resolved = yaml.safe_load((out / "config.yaml").read_text())
        assert resolved["strategy"] == "mvc" and resolved["seeds"] == [5]

    def test_stale_report_refused(self, workspace, tmp_path, capsys):
        # A rerun on fewer seeds would leave report_seed1.csv beside the new
        # report_seed0.csv, and compare/analyze would average it in.
        _, _, cfg_path = workspace
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path), "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(out / "report_seed1.csv") in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # The same seeds again overwrite their own reports.
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_off_centre_camera_rejected(self, workspace, tmp_path, capsys):
        _, ds_path, cfg_path = workspace
        scene = yaml.safe_load(ds_path.read_text())
        scene["cameras"][1]["intrinsics"][2] += 25.0  # camera 1's u0
        bad_ds = tmp_path / "off_centre.yaml"
        bad_ds.write_text(yaml.safe_dump(scene))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            yaml.safe_dump({**yaml.safe_load(cfg_path.read_text()), "dataset": str(bad_ds)})
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "camera 1: principal point" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("principal_point", [(0.0, 0.0), (-500.0, -500.0), (500.0, 0.0)])
    def test_principal_point_not_positive_rejected(
        self, workspace, tmp_path, capsys, principal_point
    ):
        # The image size is twice the principal point: at (0, 0) bsb divided
        # by zero (exit 3), and at (-500, -500) it ran to the end with every
        # heatmap bump off the grid.
        _, ds_path, cfg_path = workspace
        scene = yaml.safe_load(ds_path.read_text())
        for cam in scene["cameras"]:
            cam["intrinsics"][2], cam["intrinsics"][5] = principal_point
        bad_ds = tmp_path / "principal.yaml"
        bad_ds.write_text(yaml.safe_dump(scene))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            yaml.safe_dump(
                {**yaml.safe_load(cfg_path.read_text()), "dataset": str(bad_ds), "strategy": "bsb"}
            )
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be positive" in err
        assert not (tmp_path / "o").exists()

    def test_scene_units_other_than_mm(self, workspace, tmp_path, capsys):
        _, ds_path, cfg_path = workspace
        scene = yaml.safe_load(ds_path.read_text())
        scene["units"] = "cm"
        bad_ds = tmp_path / "cm.yaml"
        bad_ds.write_text(yaml.safe_dump(scene))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            yaml.safe_dump({**yaml.safe_load(cfg_path.read_text()), "dataset": str(bad_ds)})
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{bad_ds}: units 'cm'" in err and "runtime failure" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_is_a_file(self, workspace, tmp_path, capsys, under):
        _, _, cfg_path = workspace
        blocker = tmp_path / "file"
        blocker.write_text("not a run directory\n")
        out = blocker / "sub" if under else blocker
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "runtime failure" not in capsys.readouterr().err
        assert blocker.read_text() == "not a run directory\n"

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2

    def test_bad_yaml_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("strategy: [unclosed\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(b"strategy: rand\n# caf\xe9\xff\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err and "UTF-8" in err

    def test_directory_as_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"dataset: {tmp_path}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "runtime failure" not in capsys.readouterr().err

    def test_duplicate_config_key(self, workspace, tmp_path, capsys):
        _, _, cfg_path = workspace
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(cfg_path.read_text() + "strategy: mvc\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "duplicate key 'strategy'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_resolved_heldout_keypoint_is_runtime_failure(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # No keypoint reaches consensus and no DLT fill-in succeeds.
        triangulate = campaign.triangulate_frames

        def nothing_resolves(cameras, predictions, **kwargs):
            tri = triangulate(cameras, predictions, **kwargs)
            return dataclasses.replace(
                tri,
                points=np.full_like(tri.points, np.nan),
                inlier_mask=np.zeros_like(tri.inlier_mask),
                reproj_error_px2=np.full_like(tri.reproj_error_px2, np.inf),
            )

        def ill_conditioned(projections, points):
            return np.full((len(points), 3), np.nan)

        monkeypatch.setattr(campaign, "triangulate_frames", nothing_resolves)
        monkeypatch.setattr(campaign, "triangulate_dlt_many", ill_conditioned)
        _, _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: held-out evaluation produced no keypoints" in err

    def test_config_without_dataset(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("strategy: rand\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "seeds, flag",
        [([1, 1], None), ([True], None), ([0, 1], "2,2")],
        ids=["repeated", "bool", "repeated-flag"],
    )
    def test_repeated_or_bool_seeds_rejected(self, workspace, tmp_path, capsys, seeds, flag):
        # A repeated seed would run one campaign twice into one report and
        # an aggregate of zero variance. A YAML true is an int to Python:
        # it would run as seed 1 into report_seedTrue.csv, a name that
        # read_reports does not match.
        cfg = yaml.safe_load(workspace[2].read_text())
        cfg["seeds"] = seeds
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        argv = ["run", "--config", str(path), "--out", str(out)]
        assert main(argv + (["--seed", flag] if flag else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds" in err
        assert not out.exists()

    def test_budget_beside_pseudo_labels_exits_2(self, workspace, tmp_path, capsys):
        # 24 train frames: 18 + 2 * 3 labels fit, but the last selection
        # also needs room beside the pseudo-labelled frame, which is not a
        # candidate. The check used to pass, and seed 0 failed at its last
        # iteration with exit 3; now the run stops before it writes anything.
        cfg = yaml.safe_load(workspace[2].read_text())
        cfg.update(init_labeled=18, st={"enabled": True})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budget needs 25 train frames (1 of them" in err
        assert not out.exists()

    def test_clusters_beyond_the_train_split_exit_2(self, workspace, tmp_path, capsys):
        # 24 train frames cannot form 25 clusters. The run used to stop with
        # exit 3 in its first campaign; now it is a config error, caught
        # before the run directory is made.
        cfg = yaml.safe_load(workspace[2].read_text())
        cfg["analysis"]["clusters"] = 25
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "analysis.clusters 25 exceeds the 24" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("init_labeled", 2.5), ("batch_per_iter", 2.0), ("workers", 1.5), ("iterations", True)],
    )
    def test_integer_fields_take_only_integers(self, workspace, tmp_path, capsys, key, value):
        cfg = yaml.safe_load(workspace[2].read_text())
        cfg[key] = value
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"config.{key} must be an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("st.enabled", "false", "true or false"),
            ("st.fraction", True, "a number"),
            ("ransac_threshold_px", True, "a number"),
            ("dataset", 5, "a string"),
        ],
    )
    def test_scalar_fields_take_only_their_type(self, workspace, tmp_path, capsys, field, value, kind):
        cfg = yaml.safe_load(workspace[2].read_text())
        *sections, key = field.split(".")
        target = cfg
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = value
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"config.{field} must be {kind}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_over_the_digit_limit_exits_2(self, workspace, tmp_path, capsys):
        # `iterations` of 5,000 nines: more digits than Python converts to
        # an int, which the YAML reader once let through as a ValueError.
        text = workspace[2].read_text()
        assert text.count("iterations: 2\n") == 1
        path = tmp_path / "cfg.yaml"
        path.write_text(text.replace("iterations: 2\n", f"iterations: {'9' * 5000}\n"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid value in {path}: Exceeds the limit (4300 digits)")
        assert not out.exists()

    def test_non_finite_float_field_exits_2(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace[2].read_text())
        cfg.setdefault("cost", {})["minutes_per_frame"] = float("nan")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert "minutes_per_frame: .nan" in path.read_text()
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "config.cost.minutes_per_frame must be a number other than NaN or infinity" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("heatmap", "width", 64.5), ("noise", "seed", True), ("analysis", "clusters", 2.0)],
    )
    def test_section_integer_fields_take_only_integers(
        self, workspace, tmp_path, capsys, section, key, value
    ):
        cfg = yaml.safe_load(workspace[2].read_text())
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"config.{section}.{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()


def _write_reports(run_dir, rows_by_seed):
    run_dir.mkdir()
    for seed, rows in rows_by_seed.items():
        (run_dir / f"report_seed{seed}.csv").write_text(REPORT_HEADER + "\n" + rows)


class TestAnalyze:
    def test_worked_example(self, tmp_path, capsys):
        # Entropy means sum in ascending seed order (0, 2, 10), not in
        # file-name order (seed0, seed10, seed2): (0.2 + 0.1) + 0.3 gives
        # 0.6000000000000001, where (0.2 + 0.3) + 0.1 would give 0.6.
        out = tmp_path / "run"
        _write_reports(
            out,
            {
                0: "0,5,0.25,3.0,,0,,0.2,1.0\n1,8,0.4,2.0,0.25,1,1.5,0.7,2.0\n",
                10: "0,5,0.25,3.0,,0,,0.3,1.0\n1,8,0.4,2.0,0.5,1,,0.1,2.0\n",
                2: "0,5,0.25,3.0,,0,,0.1,1.0\n1,8,0.4,2.0,0.75,1,2.5,0.4,2.0\n",
            },
        )
        assert main(["analyze", "--out", str(out)]) == 0
        assert "(3 seeds)" in capsys.readouterr().out
        assert (out / "analysis.csv").read_text() == (
            "iteration,entropy_mean,pseudo_drift_mean_mm\n"
            "0,0.20000000000000004,\n"
            "1,0.4000000000000001,2.0\n"
        )

    @pytest.mark.parametrize(
        "seed1, message",
        [
            ("0,5,0.25,3.0,,0,,0.3,1.0\n", "differing row counts"),
            ("0,5,0.25,3.0,,0,,0.3,1.0\n1,9,0.45,2.0,0.5,1,,0.1,2.0\n", "labeled counts"),
        ],
        ids=["row count", "labeled count"],
    )
    def test_inconsistent_reports(self, tmp_path, capsys, seed1, message):
        # The same checks as compare's: seeds whose reports disagree on the
        # iterations or on the labeled counts have no common mean.
        out = tmp_path / "run"
        _write_reports(
            out, {0: "0,5,0.25,3.0,,0,,0.2,1.0\n1,8,0.4,2.0,0.25,1,1.5,0.7,2.0\n", 1: seed1}
        )
        assert main(["analyze", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "runtime failure" not in captured.err
        assert not (out / "analysis.csv").exists()


# Each malformed report, and the line and words its error names.
MALFORMED = {
    "missing column": (
        REPORT_HEADER.replace(",entropy", "") + "\n0,5,0.25,3.0,,0,,1.0\n",
        "line 1",
    ),
    "cell count": (REPORT_HEADER + "\n0,5,0.25,3.0,,0,,0.2\n", "line 2: 8 cells"),
    "non-numeric cell": (
        REPORT_HEADER + "\n0,5,0.25,3.0,,0,,0.2,1.0\nx,8,0.4,2.0,,1,,0.3,2.0\n",
        "line 3: iteration cell 'x' is not a number",
    ),
    "not UTF-8": (REPORT_HEADER + "\n0,5,0.25,3.0,,0,,0.2,caf\xe9\n", "is not valid UTF-8"),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_malformed_report_is_config_error(tmp_path, capsys, command, defect):
    text, where = MALFORMED[defect]
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "report_seed0.csv").write_bytes(text.encode("latin-1"))
    good = tmp_path / "good"
    _write_reports(good, {0: "0,5,0.25,3.0,,0,,0.2,1.0\n"})
    argv = ["analyze", "--out", str(bad)] if command == "analyze" else [
        "compare", str(good), str(bad)
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"report_seed0.csv {where}" in captured.err
    assert "runtime failure" not in captured.err
    if command == "compare":
        assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_two_reports_of_one_seed_are_config_error(tmp_path, capsys, command):
    # report_seed01.csv parses to seed 1 as report_seed1.csv does: read
    # twice, seed 1 would count as two seeds in every mean.
    rows = "0,5,0.25,3.0,,0,,0.2,1.0\n"
    run_dir = tmp_path / "run"
    _write_reports(run_dir, {0: rows, 1: rows, "01": rows})
    argv = ["analyze", "--out", str(run_dir)] if command == "analyze" else [
        "compare", str(run_dir), str(run_dir)
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {run_dir / 'report_seed01.csv'} and {run_dir / 'report_seed1.csv'} "
        "are both reports of seed 1\n"
    )
    assert captured.out == "" and not (run_dir / "analysis.csv").exists()


@pytest.fixture(scope="module")
def arms(workspace):
    """Two arms on seeds 0 and 1: rand, and mvc with self-training."""
    root, _, cfg_path = workspace
    rand, mvc_st = root / "arm_rand", root / "arm_mvc_st"
    assert main(["run", "--config", str(cfg_path), "--out", str(rand)]) == 0
    st_cfg = root / "mvc_st.yaml"
    doc = yaml.safe_load(cfg_path.read_text())
    st_cfg.write_text(yaml.safe_dump({**doc, "strategy": "mvc", "st": {"enabled": True}}))
    assert main(["run", "--config", str(st_cfg), "--out", str(mvc_st)]) == 0
    return rand, mvc_st


def _compare(capsys, *run_dirs):
    """Exit code and printed CSV rows of `annosim compare`."""
    capsys.readouterr()
    rc = main(["compare", *map(str, run_dirs)])
    return rc, list(csv.reader(io.StringIO(capsys.readouterr().out)))


class TestCompare:
    def test_read_report_is_exact(self, arms):
        text = (arms[1] / "report_seed1.csv").read_text()
        result = read_report(text)
        assert report_csv_text(result) == text
        assert len(result.rows) == 3
        assert result.rows[0].mean_epsilon is None
        assert result.rows[0].pseudo_drift_mean_mm is None
        assert all(r.pseudo_count and r.pseudo_drift_mean_mm for r in result.rows[1:])

    def test_means_against_base(self, arms, capsys):
        rand, mvc_st = arms
        rc, table = _compare(capsys, rand, mvc_st)
        assert rc == 0
        assert table[0] == COMPARE_HEADER
        assert [(r[0], r[1]) for r in table[1:]] == [
            (str(d), str(i)) for d in (rand, mvc_st) for i in range(3)
        ]
        base_means = {}
        for run_dir in (rand, mvc_st):
            rows = [r for r in table[1:] if r[0] == str(run_dir)]
            aggregate = (run_dir / "aggregate.csv").read_text().splitlines()[1:]
            for row, agg in zip(rows, aggregate):
                assert row[1:4] == agg.split(",")[:3]
                base_means.setdefault(row[1], float(row[3]))
                assert row[4] == repr(float(row[3]) - base_means[row[1]])
        assert [r[4] for r in table[1:4]] == ["0.0"] * 3

    def test_differing_seed_sets(self, arms, tmp_path, capsys):
        rand, _ = arms
        one_seed = tmp_path / "seed0"
        one_seed.mkdir()
        shutil.copy(rand / "report_seed0.csv", one_seed)
        rc, table = _compare(capsys, rand, one_seed)
        assert rc == 2 and table == []

    def test_differing_labeled_counts(self, arms, workspace, tmp_path, capsys):
        rand, _ = arms
        _, _, cfg_path = workspace
        cfg = tmp_path / "batch2.yaml"
        cfg.write_text(cfg_path.read_text().replace("batch_per_iter: 3", "batch_per_iter: 2"))
        batch2 = tmp_path / "batch2"
        assert main(["run", "--config", str(cfg), "--out", str(batch2)]) == 0
        rc, table = _compare(capsys, rand, batch2)
        assert rc == 2 and table == []
        # Within one run, the seeds' labeled counts must agree as well.
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        shutil.copy(rand / "report_seed0.csv", mixed)
        shutil.copy(batch2 / "report_seed1.csv", mixed)
        rc, table = _compare(capsys, rand, mixed)
        assert rc == 2 and table == []

    def test_run_without_reports(self, arms, tmp_path, capsys):
        capsys.readouterr()
        assert main(["compare", str(arms[0]), str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no report_seed" in captured.err

    @pytest.mark.parametrize("argv", [["compare"], ["compare", "runs/rand"]])
    def test_needs_base_and_run(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()


def _readme_steps(section):
    """The first sh block under a README section, as ("file", name, text)
    for `cat > name <<EOF` heredocs and ("run", line) for commands; a
    one-line `for v in A B; do CMD; done` gives one command per value."""
    block = README.read_text().split(f"## {section}\n", 1)[1]
    lines = iter(block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines())
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<EOF", line)
        loop = re.fullmatch(r"for (\w+) in ([^;]+); do (.+); done", line)
        if not line or line.startswith("#"):
            continue
        if heredoc:
            body = itertools.takewhile(lambda ln: ln != "EOF", lines)
            yield "file", heredoc.group(1), "\n".join(body)
        elif loop:
            for value in loop.group(2).split():
                yield "run", loop.group(3).replace(f"${loop.group(1)}", value)
        else:
            yield "run", line


def test_readme_compare_loop(workspace, tmp_path, monkeypatch, capsys):
    """Every command of the README's "Comparing arms" block runs, with the
    dataset, budget and seeds of the tiny workspace scene."""
    _, _, cfg_path = workspace
    tiny = yaml.safe_load(cfg_path.read_text())
    del tiny["strategy"]
    monkeypatch.chdir(tmp_path)
    compared = 0
    for step in _readme_steps("Comparing arms"):
        if step[0] == "file":
            doc = {**yaml.safe_load(step[2]), **tiny}
            (tmp_path / step[1]).write_text(yaml.safe_dump(doc))
            continue
        argv = shlex.split(step[1])
        assert argv[0] == "annosim", step[1]
        capsys.readouterr()
        assert main(argv[1:]) == 0, step[1]
        if argv[1] == "compare":
            table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            assert table[0] == COMPARE_HEADER
            assert len(table) == 1 + 3 * (len(argv) - 2)
            compared += 1
    assert compared == 3


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_analyze_empty_dir(self, tmp_path, capsys):
        assert main(["analyze", "--out", str(tmp_path)]) == 2
        assert "report_seed" in capsys.readouterr().err
