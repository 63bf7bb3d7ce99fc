"""Shared YAML/JSON/text I/O: libyaml parity with the pure-Python path,
JSON scenes against their YAML form, and atomic writes."""

import builtins
import dataclasses
import errno
import hashlib
import json

import pytest
import yaml

from annosim import dataset as dataset_module
from annosim import fileio
from annosim.campaign import run
from annosim.config import AnalysisConfig, CampaignConfig, load_config, save_resolved
from annosim.dataset import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from annosim.errors import AnnosimError, ParseError

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML built without libyaml: only one path exists"
)


def python_yaml(monkeypatch):
    monkeypatch.setattr(fileio, "LOADER", yaml.SafeLoader)
    monkeypatch.setattr(fileio, "DUMPER", yaml.SafeDumper)


def write_yaml_scene(ds, path):
    """Write ds's scene file in YAML form through `fileio.write_yaml`, as
    save_dataset did before it wrote JSON."""
    fileio.write_yaml(path, dataset_module._scene_doc(ds), sort_keys=True, default_flow_style=None)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_bit_identical(a, b):
    """Datasets a and b hold the same ids, splits and bytes."""
    assert a.train_ids == b.train_ids
    assert a.heldout_ids == b.heldout_ids
    assert a.keypoint_count == b.keypoint_count
    for x, y in zip(a.cameras, b.cameras, strict=True):
        assert x.id == y.id
        for name in ("intrinsics", "rotation", "translation"):
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes()
    for x, y in zip(a.frames, b.frames, strict=True):
        assert x.id == y.id
        assert x.pose.tobytes() == y.pose.tobytes()


@pytest.fixture(scope="module")
def default_ds():
    return generate_synthetic(SyntheticSpec())


@pytest.fixture(scope="module")
def default_scene(default_ds, tmp_path_factory):
    """The default scene as save_dataset writes it: JSON."""
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_dataset(default_ds, path)
    return path


@pytest.fixture(scope="module")
def default_yaml_scene(default_ds, tmp_path_factory):
    """The default scene in YAML form, written through libyaml when present."""
    path = tmp_path_factory.mktemp("scene") / "scene.yaml"
    write_yaml_scene(default_ds, path)
    return path


@needs_libyaml
class TestLibyamlParity:
    def test_selected_classes(self):
        assert fileio.LOADER is yaml.CSafeLoader
        assert fileio.DUMPER is yaml.CSafeDumper

    def test_default_scene_loads_bit_identical(self, default_yaml_scene, monkeypatch):
        fast = load_dataset(default_yaml_scene)
        python_yaml(monkeypatch)
        assert_bit_identical(fast, load_dataset(default_yaml_scene))

    def test_save_dataset_bytes_identical(self, default_ds, default_yaml_scene, tmp_path, monkeypatch):
        python_yaml(monkeypatch)
        slow = tmp_path / "slow.yaml"
        write_yaml_scene(default_ds, slow)
        assert digest(slow) == digest(default_yaml_scene)

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

    def scene_with_repeated_key(self, path, write, line):
        """Text of the scene `write` writes to `path`, with `line` inserted
        after the line that starts with the same key; and that line's number."""
        write(generate_synthetic(SyntheticSpec(clusters=2, heldout_frames=2)), path)
        key = line.split(":")[0] + ":"
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, text in enumerate(lines) if text.startswith(key))
        return "".join(lines[: at + 1] + [line] + lines[at + 1 :]), at + 2

    def test_scene_key(self, tmp_path, loader, monkeypatch):
        scene = tmp_path / "scene.yaml"
        text, line = self.scene_with_repeated_key(scene, write_yaml_scene, "keypoint_count: 3\n")
        self.check(scene, text, load_dataset, loader, monkeypatch, line)

    def test_json_scene_key(self, tmp_path, loader, monkeypatch):
        # `json` refuses the repeated key and hands the text to the YAML
        # loader, which names the line.
        scene = tmp_path / "scene.json"
        text, line = self.scene_with_repeated_key(scene, save_dataset, '"keypoint_count": 3,\n')
        self.check(scene, text, load_dataset, loader, monkeypatch, line)

    def test_merge_keys_may_be_overridden(self, tmp_path, loader, monkeypatch):
        path = tmp_path / "merge.yaml"
        path.write_text("base: &b {x: 1, y: 2}\nover:\n  <<: *b\n  x: 3\n")
        monkeypatch.setattr(fileio, "LOADER", loader)
        assert fileio.read_yaml(path)["over"] == {"x": 3, "y": 2}


def never_yaml(monkeypatch):
    """Make every YAML read fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the YAML loader was called")

    monkeypatch.setattr(fileio, "read_yaml", refuse)
    monkeypatch.setattr(yaml, "load", refuse)


def outcome(path):
    """load_dataset(path), or the class of the error it raised."""
    try:
        return load_dataset(path)
    except AnnosimError as exc:
        return type(exc)


class TestJsonScenes:
    """save_dataset writes JSON, which `json` parses; the YAML form of the
    same scene loads the same Dataset."""

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
    def test_json_and_yaml_forms_load_bit_identical(
        self, default_scene, default_yaml_scene, loader, monkeypatch
    ):
        monkeypatch.setattr(fileio, "LOADER", loader)
        assert_bit_identical(load_dataset(default_scene), load_dataset(default_yaml_scene))

    def test_written_scene_never_reaches_yaml(self, default_ds, default_scene, monkeypatch):
        never_yaml(monkeypatch)
        assert_bit_identical(load_dataset(default_scene), default_ds)
        assert json.loads(default_scene.read_text())["units"] == "mm"

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
    def test_written_scene_loads_as_yaml(self, default_scene, loader, monkeypatch):
        # JSON is YAML: with `json` refusing everything, the YAML loader
        # reads the written scene as the same Dataset.
        from_json = load_dataset(default_scene)

        def refuse(*args, **kwargs):
            raise ValueError("not JSON")

        monkeypatch.setattr(fileio.json, "loads", refuse)
        monkeypatch.setattr(fileio, "LOADER", loader)
        assert_bit_identical(load_dataset(default_scene), from_json)

    @pytest.mark.parametrize("token", ["1e5", "1.0e5", "NaN", "Infinity"])
    @pytest.mark.parametrize("place", ["keypoints", "id"])
    def test_number_forms_agree(self, tmp_path, monkeypatch, token, place):
        # json reads these as floats and YAML 1.1 as strings; load_dataset
        # passes numbers through float() and refuses non-int ids.
        ds = generate_synthetic(SyntheticSpec(clusters=2, heldout_frames=2))
        doc = dataset_module._scene_doc(ds)
        frame = doc["frames"][1]
        if place == "id":
            frame["id"] = "@@"
        else:
            frame["keypoints"][4] = "@@"
        as_json, as_yaml = tmp_path / "s.json", tmp_path / "s.yaml"
        as_json.write_text(json.dumps(doc).replace('"@@"', token))
        as_yaml.write_text(yaml.safe_dump(doc).replace("'@@'", token))
        from_yaml = outcome(as_yaml)
        with monkeypatch.context() as patch:
            never_yaml(patch)
            from_json = outcome(as_json)
        if isinstance(from_yaml, type):
            assert from_json is from_yaml
        else:
            assert from_yaml.frames[1].pose[1, 1] == float(token)
            assert_bit_identical(from_json, from_yaml)

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff{}",  # a BOM
            '{"units": "mm", "units": "mm"}',
            "units: mm\nkeypoint_count: 1\n",
        ],
        ids=["bom", "repeated-key", "yaml"],
    )
    def test_non_json_goes_to_yaml(self, tmp_path, monkeypatch, text):
        path = tmp_path / "scene.yaml"
        path.write_text(text, encoding="utf-8")
        calls = []
        read_yaml = fileio.read_yaml
        monkeypatch.setattr(fileio, "read_yaml", lambda p: calls.append(p) or read_yaml(p))
        with pytest.raises(ParseError):
            load_dataset(path)
        assert calls == [path]


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
