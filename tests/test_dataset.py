"""Dataset validation, scene file round trips, and the synthetic generator."""

import dataclasses
import json
import re

import numpy as np
import pytest
import yaml

from annosim.campaign import run_campaign
from annosim.cli import _cmd_generate, build_parser, main
from annosim.config import CampaignConfig, load_config
from annosim.dataset import (
    Dataset,
    Frame,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    ring_cameras,
    save_dataset,
)
from annosim.errors import InvariantViolation, ParseError
from annosim.fileio import read_yaml, write_yaml
from annosim.geometry import CameraParams, project

SMALL = SyntheticSpec(
    clusters=3,
    frames_per_cluster=5,
    heldout_frames=4,
    keypoints=4,
    cameras=3,
    seed=11,
)


def two_cams():
    return ring_cameras(2, 3000.0, 400.0, 700.0, 1000.0)


def tiny_dataset():
    cams = two_cams()
    frames = [Frame(id=0, pose=np.zeros((1, 3))), Frame(id=1, pose=np.ones((1, 3)))]
    return Dataset(
        cameras=cams, frames=frames, train_ids=[0], heldout_ids=[1], keypoint_count=1
    )


class TestDatasetModel:
    def test_accessors(self):
        ds = tiny_dataset()
        assert ds.frame(1).id == 1
        assert ds.poses([1, 0]).shape == (2, 1, 3)
        assert np.array_equal(ds.poses([1])[0], np.ones((1, 3)))
        assert ds.image_size() == (1000.0, 1000.0)

    def test_duplicate_frame_ids_rejected(self):
        frames = [Frame(id=0, pose=np.zeros((1, 3)))] * 2
        with pytest.raises(InvariantViolation, match="unique"):
            Dataset(two_cams(), frames, [0], [], keypoint_count=1)

    def test_split_overlap_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(InvariantViolation, match="overlap"):
            Dataset(ds.cameras, ds.frames, [0, 1], [1], keypoint_count=1)

    def test_split_unknown_ids_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(InvariantViolation, match="unknown"):
            Dataset(ds.cameras, ds.frames, [0, 7], [1], keypoint_count=1)

    def test_keypoint_count_mismatch_rejected(self):
        frames = [Frame(id=0, pose=np.zeros((2, 3)))]
        with pytest.raises(InvariantViolation, match="keypoints"):
            Dataset(two_cams(), frames, [0], [], keypoint_count=3)

    def test_cameras_must_share_principal_point(self):
        # image_size() doubles camera 0's principal point for every view, so
        # an off-centre camera would get a wrong heatmap scale and penalty.
        cam0, cam1 = two_cams()
        k = cam1.intrinsics.copy()
        k[1, 2] += 30.0
        shifted = CameraParams(
            id=cam1.id, intrinsics=k, rotation=cam1.rotation, translation=cam1.translation
        )
        frames = [Frame(id=0, pose=np.zeros((1, 3)))]
        with pytest.raises(InvariantViolation, match="camera 1: principal point"):
            Dataset([cam0, shifted], frames, [0], [], keypoint_count=1)

    @pytest.mark.parametrize("principal_point", [(0.0, 0.0), (-500.0, -500.0), (500.0, -1.0)])
    def test_principal_point_must_be_positive(self, principal_point):
        # image_size() is twice the principal point, so a coordinate <= 0
        # gives a zero or negative image, heatmap scale and failure penalty.
        cams = []
        for cam in two_cams():
            k = cam.intrinsics.copy()
            k[:2, 2] = principal_point
            cams.append(CameraParams(cam.id, k, cam.rotation, cam.translation))
        frames = [Frame(id=0, pose=np.zeros((1, 3)))]
        with pytest.raises(InvariantViolation, match=r"principal point .* must be positive"):
            Dataset(cams, frames, [0], [], keypoint_count=1)

    def test_needs_two_cameras(self):
        with pytest.raises(InvariantViolation, match="cameras"):
            Dataset(two_cams()[:1], [], [], [], keypoint_count=1)

    def test_nonfinite_pose_rejected(self):
        with pytest.raises(InvariantViolation, match="finite"):
            Frame(id=0, pose=np.array([[np.nan, 0.0, 0.0]]))


class TestRingCameras:
    def test_geometry(self):
        cams = ring_cameras(6, 2500.0, 300.0, 800.0, 1200.0)
        assert len(cams) == 6
        for i, c in enumerate(cams):
            # Center sits on the ring at the requested height.
            assert np.hypot(c.center[0], c.center[1]) == pytest.approx(2500.0)
            assert c.center[2] == pytest.approx(300.0)
            # Looking at the origin: the world origin projects to the
            # principal point.
            assert project(c, np.zeros(3)) == pytest.approx((600.0, 600.0))
            assert np.allclose(c.rotation @ c.rotation.T, np.eye(3), atol=1e-12)
            assert c.id == i

    def test_evenly_spaced(self):
        cams = ring_cameras(4, 1000.0, 0.0, 700.0, 1000.0)
        angles = sorted(np.arctan2(c.center[1], c.center[0]) for c in cams)
        assert np.allclose(np.diff(angles), np.pi / 2.0, atol=1e-12)


class TestGenerator:
    def test_counts_and_split(self):
        ds = generate_synthetic(SMALL)
        assert len(ds.frames) == 3 * 5 + 4
        assert ds.train_ids == list(range(15))
        assert ds.heldout_ids == list(range(15, 19))
        assert ds.keypoint_count == 4
        assert len(ds.cameras) == 3

    def test_deterministic(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.pose, fb.pose)
        for ca, cb in zip(a.cameras, b.cameras):
            assert np.array_equal(ca.projection, cb.projection)

    def test_seed_changes_poses(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(
            SyntheticSpec(
                clusters=3,
                frames_per_cluster=5,
                heldout_frames=4,
                keypoints=4,
                cameras=3,
                seed=12,
            )
        )
        assert not np.array_equal(a.frames[0].pose, b.frames[0].pose)

    def test_all_keypoints_project_inside_images(self):
        # Default desk-scale scene: every ground-truth keypoint must land
        # inside every camera image, else heatmap supervision is undefined.
        ds = generate_synthetic(SyntheticSpec())
        w, h = ds.image_size()
        for f in ds.frames:
            for c in ds.cameras:
                for p in f.pose:
                    u, v = project(c, p)
                    assert 0.0 <= u < w and 0.0 <= v < h

    def test_single_cluster_runs(self):
        ds = generate_synthetic(
            SyntheticSpec(
                clusters=1, frames_per_cluster=4, heldout_frames=2, keypoints=3,
                cameras=2, seed=0,
            )
        )
        assert len(ds.frames) == 6

    def test_spec_validation(self):
        with pytest.raises(InvariantViolation):
            SyntheticSpec(clusters=0)
        with pytest.raises(InvariantViolation):
            SyntheticSpec(cameras=1)
        with pytest.raises(InvariantViolation):
            SyntheticSpec(heldout_frames=-1)
        with pytest.raises(InvariantViolation):
            SyntheticSpec(pose_scale_mm=0.0)
        with pytest.raises(InvariantViolation):
            SyntheticSpec(zipf_exponent=-0.5)


class TestFileRoundTrip:
    def test_lossless(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "ds.yaml"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.keypoint_count == ds.keypoint_count
        assert json.loads(path.read_text())["units"] == "mm"
        assert back.train_ids == ds.train_ids
        assert back.heldout_ids == ds.heldout_ids
        for fa, fb in zip(ds.frames, back.frames):
            assert fa.id == fb.id
            assert np.array_equal(fa.pose, fb.pose)
        for ca, cb in zip(ds.cameras, back.cameras):
            assert np.array_equal(ca.intrinsics, cb.intrinsics)
            assert np.array_equal(ca.rotation, cb.rotation)
            assert np.array_equal(ca.translation, cb.translation)

    def test_minimal_valid_file(self, tmp_path):
        cams = two_cams()
        ds = Dataset(
            cameras=cams,
            frames=[Frame(id=3, pose=np.array([[1.0, 2.0, 3.0]]))],
            train_ids=[3],
            heldout_ids=[],
            keypoint_count=1,
        )
        path = tmp_path / "mini.yaml"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.frame(3).pose[0, 2] == 3.0


class TestLoadErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        return path

    def valid_doc(self):
        ds = tiny_dataset()
        return {
            "keypoint_count": 1,
            "cameras": [
                {
                    "id": int(c.id),
                    "intrinsics": [float(x) for x in c.intrinsics.reshape(-1)],
                    "rotation": [float(x) for x in c.rotation.reshape(-1)],
                    "translation": [float(x) for x in c.translation],
                }
                for c in ds.cameras
            ],
            "frames": [
                {"id": f.id, "keypoints": [float(x) for x in f.pose.reshape(-1)]}
                for f in ds.frames
            ],
            "splits": {"train": [0], "heldout": [1]},
        }

    def dump(self, tmp_path, doc):
        return self.write(tmp_path, yaml.safe_dump(doc))

    def test_invalid_yaml(self, tmp_path):
        path = self.write(tmp_path, "cameras: [unclosed")
        with pytest.raises(ParseError, match="invalid YAML .* at line"):
            load_dataset(path)
        with pytest.raises(ParseError, match="invalid YAML .* at line"):
            load_config(path)
        args = build_parser().parse_args(
            ["generate", "--config", str(path), "--out", str(tmp_path / "x.yaml")]
        )
        with pytest.raises(ParseError, match="invalid YAML .* at line"):
            _cmd_generate(args)

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"units: \xff\n")
        with pytest.raises(ParseError, match=f"{path}.*UTF-8"):
            load_dataset(path)

    def test_non_mapping_top_level(self, tmp_path):
        with pytest.raises(ParseError, match="mapping"):
            load_dataset(self.write(tmp_path, "- 1\n- 2\n"))

    def test_missing_field(self, tmp_path):
        doc = self.valid_doc()
        del doc["splits"]
        with pytest.raises(ParseError, match="splits"):
            load_dataset(self.dump(tmp_path, doc))

    def test_wrong_matrix_arity(self, tmp_path):
        doc = self.valid_doc()
        doc["cameras"][0]["rotation"] = [1.0, 0.0]
        with pytest.raises(ParseError, match="9 numbers"):
            load_dataset(self.dump(tmp_path, doc))

    def test_non_numeric_entry(self, tmp_path):
        doc = self.valid_doc()
        doc["frames"][0]["keypoints"] = ["x", 0.0, 0.0]
        with pytest.raises(ParseError, match="non-numeric"):
            load_dataset(self.dump(tmp_path, doc))

    def test_number_too_large_for_a_float(self, tmp_path):
        doc = self.valid_doc()
        doc["frames"][0]["keypoints"] = [10**400, 0.0, 0.0]
        with pytest.raises(ParseError, match=r"frames\[0\] contains a non-numeric entry"):
            load_dataset(self.dump(tmp_path, doc))

    def test_non_integer_split_id(self, tmp_path):
        doc = self.valid_doc()
        doc["splits"]["train"] = [0.5]
        with pytest.raises(ParseError, match="non-integer"):
            load_dataset(self.dump(tmp_path, doc))

    @pytest.mark.parametrize("section", ["frames", "cameras"])
    @pytest.mark.parametrize("bad_id", [1.7, True])
    def test_non_integer_frame_or_camera_id(self, tmp_path, section, bad_id):
        # int() would read 1.7 as 1 and true as 1.
        doc = self.valid_doc()
        doc[section][1]["id"] = bad_id
        with pytest.raises(ParseError, match=rf"{section}\[1\]\.id: non-integer id"):
            load_dataset(self.dump(tmp_path, doc))

    @pytest.mark.parametrize("units", ["cm", "m", "MM", 1, None])
    def test_units_other_than_mm_rejected(self, tmp_path, units):
        # Coordinates are read as mm whatever the file says, so any other
        # declared unit is refused rather than silently rescaled.
        doc = self.valid_doc()
        doc["units"] = units
        path = self.dump(tmp_path, doc)
        with pytest.raises(ParseError, match=re.escape(f"{path}: units {units!r}")):
            load_dataset(path)
        doc["units"] = "mm"
        assert load_dataset(self.dump(tmp_path, doc)).keypoint_count == doc["keypoint_count"]

    @pytest.mark.parametrize("form", ["json", "yaml"])
    @pytest.mark.parametrize(
        "where, value, message",
        [
            (["cameras"], 5, r"dataset\.cameras must be a list"),
            (["cameras"], None, r"dataset\.cameras must be a list"),
            (["frames"], 5, r"dataset\.frames must be a list"),
            (["frames"], None, r"dataset\.frames must be a list"),
            (["keypoint_count"], True, r"dataset\.keypoint_count must be a positive"),
            (["frames", 1, "keypoints", 0], True, r"frames\[1\] contains a boolean"),
            (["cameras", 0, "intrinsics", 8], True, r"cameras\[0\] contains a boolean"),
            (["cameras", 0, "rotation", 2], False, r"cameras\[0\] contains a boolean"),
            (["cameras", 1, "translation", 0], False, r"cameras\[1\] contains a boolean"),
        ],
        ids=[
            "cameras-5", "cameras-null", "frames-5", "frames-null", "keypoint_count-true",
            "keypoints-true", "intrinsics-true", "rotation-false", "translation-false",
        ],
    )
    def test_wrong_types_exit_2(self, tmp_path, capsys, form, where, value, message):
        # Each of these once loaded silently (a boolean read as 0 or 1) or
        # raised a bare TypeError, which `annosim run` reports as exit 3.
        doc = self.valid_doc()
        *parents, last = where
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        path = tmp_path / f"bad.{form}"
        path.write_text(json.dumps(doc) if form == "json" else yaml.safe_dump(doc))
        self.assert_load_and_run_exit_2(tmp_path, capsys, path, message)

    def assert_load_and_run_exit_2(self, tmp_path, capsys, path, message):
        """load_dataset(path) raises ParseError matching message, and
        `annosim run` on it exits 2 with that error and no run directory."""
        with pytest.raises(ParseError, match=message):
            load_dataset(path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"dataset: {path}\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err) and "runtime failure" not in err
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("form", ["json", "yaml"])
    @pytest.mark.parametrize(
        "where, key, message",
        [
            ([], "unit", r"unknown field dataset\.unit; dataset holds only cameras, frames, "),
            (["cameras", 1], "focal", r"unknown field cameras\[1\]\.focal; cameras\[1\] holds"),
            (["frames", 0], "pose", r"unknown field frames\[0\]\.pose; frames\[0\] holds"),
            (["splits"], "val", r"unknown field splits\.val; splits holds only heldout, train"),
        ],
        ids=["top", "camera", "frame", "splits"],
    )
    def test_unknown_fields_exit_2(self, tmp_path, capsys, form, where, key, message):
        # A misspelt `units` once loaded as mm without a word, and any other
        # unknown key was ignored.
        doc = self.valid_doc()
        node = doc
        for step in where:
            node = node[step]
        node[key] = "m"
        path = tmp_path / f"bad.{form}"
        path.write_text(json.dumps(doc) if form == "json" else yaml.safe_dump(doc))
        self.assert_load_and_run_exit_2(tmp_path, capsys, path, message)

    @pytest.mark.parametrize("form", ["json", "yaml"])
    def test_integer_over_the_digit_limit_exits_2(self, tmp_path, capsys, form):
        # Python refuses to convert a decimal string of more than 4,300
        # digits to an int; the YAML constructor's ValueError once reached
        # `annosim run` as a runtime failure (exit 3).
        doc = self.valid_doc()
        text = json.dumps(doc) if form == "json" else yaml.safe_dump(doc)
        small = '"keypoint_count": 1' if form == "json" else "keypoint_count: 1\n"
        assert text.count(small) == 1
        path = tmp_path / f"big.{form}"
        path.write_text(text.replace(small, small.replace("1", "9" * 5000)))
        message = rf"invalid value in {re.escape(str(path))}: Exceeds the limit \(4300 digits\)"
        self.assert_load_and_run_exit_2(tmp_path, capsys, path, message)

    def test_duplicate_frame_id_is_semantic_error(self, tmp_path):
        doc = self.valid_doc()
        doc["frames"][1]["id"] = 0
        doc["splits"] = {"train": [0], "heldout": []}
        with pytest.raises(InvariantViolation, match="unique"):
            load_dataset(self.dump(tmp_path, doc))

    def test_non_orthonormal_rotation_is_semantic_error(self, tmp_path):
        doc = self.valid_doc()
        doc["cameras"][0]["rotation"] = [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]
        with pytest.raises(InvariantViolation):
            load_dataset(self.dump(tmp_path, doc))


class TestCameraValidation:
    def test_reflection_rejected(self):
        k = np.array([[700.0, 0.0, 500.0], [0.0, 700.0, 500.0], [0.0, 0.0, 1.0]])
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvariantViolation):
            CameraParams(id=0, intrinsics=k, rotation=reflect, translation=np.zeros(3))


def moved_to_camera0(ds, moved):
    """ds with the cameras in `moved` put on camera 0's centre, each keeping
    its rotation; dataclasses.replace runs Dataset's checks again."""
    c0 = ds.cameras[0].center
    cams = [
        CameraParams(c.id, c.intrinsics, c.rotation, -c.rotation @ c0) if c.id in moved else c
        for c in ds.cameras
    ]
    return dataclasses.replace(ds, cameras=cams)


class TestRigBaseline:
    @pytest.fixture(scope="class")
    def default_ds(self):
        return generate_synthetic(SyntheticSpec())

    def test_rig_without_baseline_is_rejected(self, default_ds, tmp_path):
        ids = [c.id for c in default_ds.cameras]
        message = "cameras 0, 1, 2, 3, 4, 5, 6, 7 share one centre"
        with pytest.raises(InvariantViolation, match=message):
            moved_to_camera0(default_ds, ids)
        path = tmp_path / "rig.yaml"
        save_dataset(default_ds, path)
        doc = read_yaml(path)
        c0 = default_ds.cameras[0].center
        for cam in doc["cameras"]:
            rotation = np.reshape(cam["rotation"], (3, 3))
            cam["translation"] = (-rotation @ c0).tolist()
        write_yaml(path, doc)
        with pytest.raises(InvariantViolation, match=message):
            load_dataset(path)

    def test_one_coincident_pair_still_runs(self, default_ds):
        ds = moved_to_camera0(default_ds, [1])
        cfg = CampaignConfig(strategy="rand", init_labeled=10, batch_per_iter=5, iterations=2)
        mkpe = [row.mkpe_mm for row in run_campaign(ds, cfg, seed=0).rows]
        assert len(mkpe) == 3 and np.all(np.isfinite(mkpe))
        assert mkpe[-1] < mkpe[0]
