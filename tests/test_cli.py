"""End-to-end command-line workflows against a temporary workspace."""

import pytest
import yaml

from annosim import campaign
from annosim.cli import main
from annosim.dataset import load_dataset
from annosim.errors import IllConditioned


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

    def test_multi_seed_rejected(self, workspace, tmp_path):
        assert main(["generate", "--seed", "1,2", "--out", str(tmp_path / "x.yaml")]) == 2


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
            fts = triangulate(cameras, predictions, **kwargs)
            for ft in fts:
                ft.per_keypoint = [None] * len(ft.per_keypoint)
            return fts

        def ill_conditioned(observations):
            raise IllConditioned("no one-dimensional null space")

        monkeypatch.setattr(campaign, "triangulate_frames", nothing_resolves)
        monkeypatch.setattr(campaign, "triangulate_dlt", ill_conditioned)
        _, _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: held-out evaluation produced no keypoints" in err

    def test_config_without_dataset(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("strategy: rand\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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
