"""Shared YAML/text I/O: libyaml parity with the pure-Python path, and
atomic writes."""

import builtins
import dataclasses
import errno
import hashlib

import pytest
import yaml

from annosim import fileio
from annosim.campaign import run
from annosim.config import AnalysisConfig, CampaignConfig, load_config, save_resolved
from annosim.dataset import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from annosim.errors import ParseError

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML built without libyaml: only one path exists"
)


def python_yaml(monkeypatch):
    monkeypatch.setattr(fileio, "LOADER", yaml.SafeLoader)
    monkeypatch.setattr(fileio, "DUMPER", yaml.SafeDumper)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def default_scene(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.yaml"
    save_dataset(generate_synthetic(SyntheticSpec()), path)
    return path


@needs_libyaml
class TestLibyamlParity:
    def test_selected_classes(self):
        assert fileio.LOADER is yaml.CSafeLoader
        assert fileio.DUMPER is yaml.CSafeDumper

    def test_default_scene_loads_bit_identical(self, default_scene, monkeypatch):
        fast = load_dataset(default_scene)
        python_yaml(monkeypatch)
        slow = load_dataset(default_scene)
        assert fast.train_ids == slow.train_ids
        assert fast.heldout_ids == slow.heldout_ids
        assert (fast.keypoint_count, fast.units) == (slow.keypoint_count, slow.units)
        for a, b in zip(fast.cameras, slow.cameras, strict=True):
            assert a.id == b.id
            for name in ("intrinsics", "rotation", "translation"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for a, b in zip(fast.frames, slow.frames, strict=True):
            assert a.id == b.id
            assert a.pose.tobytes() == b.pose.tobytes()

    def test_save_dataset_bytes_identical(self, default_scene, tmp_path, monkeypatch):
        python_yaml(monkeypatch)
        slow = tmp_path / "slow.yaml"
        save_dataset(generate_synthetic(SyntheticSpec()), slow)
        assert digest(slow) == digest(default_scene)

    def test_save_resolved_bytes_identical(self, tmp_path, monkeypatch):
        fast, slow = tmp_path / "fast.yaml", tmp_path / "slow.yaml"
        save_resolved(CampaignConfig(), fast)
        python_yaml(monkeypatch)
        save_resolved(CampaignConfig(), slow)
        assert slow.read_text() == fast.read_text()


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
class TestDuplicateKeys:
    """A repeated mapping key is an error under either loader, not a
    silent last-value-wins."""

    def check(self, path, text, load, loader, monkeypatch, line):
        path.write_text(text)
        monkeypatch.setattr(fileio, "LOADER", loader)
        where = f"(?s)invalid YAML in .* at line {line}: .*duplicate key"
        with pytest.raises(ParseError, match=where):
            load(path)

    def test_top_level_config_key(self, tmp_path, loader, monkeypatch):
        text = "strategy: mvc\ninit_labeled: 5\nstrategy: rand\n"
        self.check(tmp_path / "cfg.yaml", text, load_config, loader, monkeypatch, 3)

    def test_nested_config_key(self, tmp_path, loader, monkeypatch):
        text = "strategy: mvc\nst:\n  enabled: true\n  fraction: 0.2\n  enabled: false\n"
        self.check(tmp_path / "cfg.yaml", text, load_config, loader, monkeypatch, 5)

    def test_scene_key(self, tmp_path, loader, monkeypatch):
        scene = tmp_path / "scene.yaml"
        save_dataset(generate_synthetic(SyntheticSpec(clusters=2, heldout_frames=2)), scene)
        lines = scene.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("keypoint_count:"))
        text = "".join(lines[: at + 1] + ["keypoint_count: 3\n"] + lines[at + 1 :])
        self.check(scene, text, load_dataset, loader, monkeypatch, at + 2)

    def test_merge_keys_may_be_overridden(self, tmp_path, loader, monkeypatch):
        path = tmp_path / "merge.yaml"
        path.write_text("base: &b {x: 1, y: 2}\nover:\n  <<: *b\n  x: 3\n")
        monkeypatch.setattr(fileio, "LOADER", loader)
        assert fileio.read_yaml(path)["over"] == {"x": 3, "y": 2}


def fail_half_way(monkeypatch, name_part):
    """Make fileio's writes to files whose name contains `name_part` write
    half their text and then fail, as a full disk would."""

    def opener(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if "w" not in mode or name_part not in str(file):
            return fh

        class HalfWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, text):
                fh.write(text[: len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        return HalfWriter()

    monkeypatch.setattr(fileio, "open", opener, raising=False)


class TestAtomicWrites:
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.yaml"
        save_dataset(generate_synthetic(SyntheticSpec(clusters=2, heldout_frames=2)), path)
        before = path.read_bytes()
        larger = generate_synthetic(SyntheticSpec(clusters=3, heldout_frames=2))
        fail_half_way(monkeypatch, "ds.yaml")
        with pytest.raises(OSError, match="No space"):
            save_dataset(larger, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ds.yaml"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        fail_half_way(monkeypatch, "new.txt")
        with pytest.raises(OSError):
            fileio.write_text(tmp_path / "new.txt", "x" * 1000)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_run_keeps_earlier_reports(self, tmp_path, monkeypatch):
        ds_path = tmp_path / "ds.yaml"
        spec = SyntheticSpec(
            clusters=3, frames_per_cluster=6, heldout_frames=4, keypoints=4, cameras=3
        )
        save_dataset(generate_synthetic(spec), ds_path)
        cfg = CampaignConfig(
            dataset=str(ds_path),
            init_labeled=4,
            batch_per_iter=2,
            iterations=1,
            seeds=(0,),
            analysis=AnalysisConfig(clusters=3, root_index=1),
        )
        out = tmp_path / "run"
        run(cfg, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fail_half_way(monkeypatch, "aggregate.csv")
        with pytest.raises(OSError):
            run(dataclasses.replace(cfg, seeds=(0, 1)), out)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) == set(before) | {"report_seed1.csv"}
        assert after["aggregate.csv"] == before["aggregate.csv"]
        assert after["report_seed0.csv"] == before["report_seed0.csv"]
