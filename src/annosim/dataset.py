"""Dataset model, file I/O, and synthetic scene generation.

A dataset is N calibrated cameras, a set of frames each carrying a
ground-truth (K, 3) pose in mm, and disjoint train/heldout id splits. The
on-disk form is one document with `cameras`, `frames`, and `splits`
sections beside `keypoint_count` and `units`, and no other field:
`load_dataset` refuses an unknown one. Matrices are stored row-major as
flat number lists, written with full repr precision so a load/save round
trip is lossless. Scenes are written as JSON, one camera and one frame
per line; any YAML scene with the same sections still loads (see
`fileio.read_scene`).

The synthetic generator places cameras evenly on a horizontal ring looking
at the origin and draws poses from a mixture of Gaussian pose clusters
with Zipf mixture weights, so a few clusters dominate and the rest form a
long tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, ParseError, check_field_types
from .fileio import read_scene, write_json
from .geometry import CameraParams
from .pose import as_pose


@dataclass
class Frame:
    """One time instance: id plus its ground-truth 3D pose (K, 3) in mm."""

    id: int
    pose: np.ndarray

    def __post_init__(self):
        self.pose = as_pose(self.pose)
        if not np.all(np.isfinite(self.pose)):
            raise InvariantViolation(f"frame {self.id}: pose has non-finite values")


@dataclass
class Dataset:
    """Cameras, frames, and the train/heldout split."""

    cameras: list
    frames: list
    train_ids: list
    heldout_ids: list
    keypoint_count: int
    _by_id: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if len(self.cameras) < 2:
            raise InvariantViolation("dataset needs at least 2 cameras")
        ids = [f.id for f in self.frames]
        if len(set(ids)) != len(ids):
            raise InvariantViolation("frame ids must be unique")
        for f in self.frames:
            if f.pose.shape[0] != self.keypoint_count:
                raise InvariantViolation(
                    f"frame {f.id}: pose has {f.pose.shape[0]} keypoints, "
                    f"dataset declares {self.keypoint_count}"
                )
        id_set = set(ids)
        train, held = set(self.train_ids), set(self.heldout_ids)
        if train & held:
            raise InvariantViolation("train and heldout splits overlap")
        if not (train | held) <= id_set:
            raise InvariantViolation("split references unknown frame ids")
        cam_ids = [c.id for c in self.cameras]
        if len(set(cam_ids)) != len(cam_ids):
            raise InvariantViolation("camera ids must be unique")
        # image_size() reads camera 0's principal point for every view.
        center = self.cameras[0].intrinsics[:2, 2]
        for cam in self.cameras[1:]:
            if not np.array_equal(cam.intrinsics[:2, 2], center):
                raise InvariantViolation(
                    f"camera {cam.id}: principal point {cam.intrinsics[:2, 2].tolist()} "
                    f"differs from camera {self.cameras[0].id}'s {center.tolist()}; "
                    "all cameras must share one principal point"
                )
        # A coordinate <= 0 would give an image size, hence a heatmap scale
        # and a failure penalty, of zero or below.
        if not (center > 0).all():
            raise InvariantViolation(
                f"principal point {center.tolist()} must be positive; "
                "the image size is twice it"
            )
        # Triangulation needs two cameras apart: when all centres coincide,
        # every view sees a point along the same ray.
        centers = np.stack([cam.center for cam in self.cameras])
        apart = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
        if apart.max() <= 1e-9 * np.linalg.norm(centers, axis=-1).max():
            raise InvariantViolation(
                f"cameras {', '.join(str(c) for c in cam_ids)} share one centre "
                f"{centers[0].tolist()}; triangulation needs cameras with a baseline"
            )
        self._by_id = {f.id: f for f in self.frames}

    def frame(self, frame_id: int) -> Frame:
        return self._by_id[frame_id]

    def poses(self, frame_ids) -> np.ndarray:
        """(len(ids), K, 3) stack of ground-truth poses."""
        return np.stack([self._by_id[i].pose for i in frame_ids])

    def image_size(self) -> tuple:
        """(width, height) px, taken as twice the principal point that all
        cameras share (cameras are assumed centered, which the generator
        enforces)."""
        k = self.cameras[0].intrinsics
        return (2.0 * k[0, 2], 2.0 * k[1, 2])


# The fields a scene may hold, at the top level, in a camera, in a frame
# and in `splits`. save_dataset has only ever written these, so any other
# key is a typo (`unit` for `units`) or a field this loader would ignore.
_SCENE_FIELDS = ("cameras", "frames", "keypoint_count", "splits", "units")
_CAMERA_FIELDS = ("id", "intrinsics", "rotation", "translation")
_FRAME_FIELDS = ("id", "keypoints")
_SPLIT_FIELDS = ("heldout", "train")


def _known_fields(mapping, known, path):
    unknown = mapping.keys() - known
    if unknown:
        names = ", ".join(sorted(f"{path}.{key}" for key in unknown))
        raise ParseError(f"unknown field {names}; {path} holds only {', '.join(known)}")


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing required field {path}.{key}")
    return mapping[key]


def _require_list(mapping, key, path, what):
    value = _require(mapping, key, path)
    if not isinstance(value, list):
        raise ParseError(f"{path}.{key} must be a list of {what}")
    return value


def _num_list(value, count, path):
    if not isinstance(value, list) or len(value) != count:
        raise ParseError(f"{path} must be a list of {count} numbers")
    # Booleans are ints to Python, so float() would read true as 1.0.
    if any(type(x) is bool for x in value):
        raise ParseError(f"{path} contains a boolean where a number belongs")
    try:
        return [float(x) for x in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path} contains a non-numeric entry: {exc}") from exc


def _int_id(value, path):
    # Booleans are ints to Python; an id must be neither bool nor float.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{path}: non-integer id {value!r}")
    return value


def _id_list(splits, key):
    path = f"splits.{key}"
    return [_int_id(x, path) for x in _require_list(splits, key, "splits", "frame ids")]


def load_dataset(path) -> Dataset:
    """Parse and validate a dataset file.

    Structural problems (bad JSON or YAML, missing or unknown fields,
    wrong types or arity) raise ParseError naming the location; semantic
    problems (duplicate ids, invalid rotations, overlapping splits) raise
    InvariantViolation. Every number goes through float() and every id
    and `keypoint_count` must be an int, so the JSON and YAML forms of a
    scene load the same Dataset.
    """
    doc = read_scene(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    _known_fields(doc, _SCENE_FIELDS, "dataset")

    kp = _require(doc, "keypoint_count", "dataset")
    if not isinstance(kp, int) or isinstance(kp, bool) or kp < 1:
        raise ParseError("dataset.keypoint_count must be a positive integer")
    units = doc.get("units", "mm")
    if units != "mm":
        raise ParseError(f"{path}: units {units!r} not supported; scenes are in mm")

    cameras = []
    for i, cam in enumerate(_require_list(doc, "cameras", "dataset", "cameras")):
        where = f"cameras[{i}]"
        cam_id = _int_id(_require(cam, "id", where), f"{where}.id")
        _known_fields(cam, _CAMERA_FIELDS, where)
        cameras.append(
            CameraParams(
                id=cam_id,
                intrinsics=np.asarray(
                    _num_list(_require(cam, "intrinsics", where), 9, where)
                ).reshape(3, 3),
                rotation=np.asarray(
                    _num_list(_require(cam, "rotation", where), 9, where)
                ).reshape(3, 3),
                translation=np.asarray(
                    _num_list(_require(cam, "translation", where), 3, where)
                ),
            )
        )

    frames = []
    for i, fr in enumerate(_require_list(doc, "frames", "dataset", "frames")):
        where = f"frames[{i}]"
        flat = _num_list(_require(fr, "keypoints", where), 3 * kp, where)
        _known_fields(fr, _FRAME_FIELDS, where)
        frames.append(
            Frame(
                id=_int_id(_require(fr, "id", where), f"{where}.id"),
                pose=np.asarray(flat).reshape(kp, 3),
            )
        )

    splits = _require(doc, "splits", "dataset")
    train_ids, heldout_ids = _id_list(splits, "train"), _id_list(splits, "heldout")
    _known_fields(splits, _SPLIT_FIELDS, "splits")
    return Dataset(
        cameras=cameras,
        frames=frames,
        train_ids=train_ids,
        heldout_ids=heldout_ids,
        keypoint_count=kp,
    )


def _scene_doc(dataset: Dataset) -> dict:
    """The scene file's document: plain ints, floats, lists and dicts."""
    return {
        "units": "mm",
        "keypoint_count": dataset.keypoint_count,
        "cameras": [
            {
                "id": int(c.id),
                "intrinsics": [float(x) for x in c.intrinsics.reshape(-1)],
                "rotation": [float(x) for x in c.rotation.reshape(-1)],
                "translation": [float(x) for x in c.translation],
            }
            for c in dataset.cameras
        ],
        "frames": [
            {"id": int(f.id), "keypoints": [float(x) for x in f.pose.reshape(-1)]}
            for f in dataset.frames
        ],
        "splits": {
            "train": [int(i) for i in dataset.train_ids],
            "heldout": [int(i) for i in dataset.heldout_ids],
        },
    }


def save_dataset(dataset: Dataset, path) -> None:
    """Write the JSON form; floats keep full repr precision."""
    write_json(path, _scene_doc(dataset))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the generated scene and pose distribution.

    The default scene is the desk-scale benchmark: 20 clusters x 25 frames
    of training data plus 100 held-out frames, 8 cameras on a 3 m ring,
    15-keypoint poses inside a ~±650 mm working volume that projects well
    inside the 1000x1000 px images. The cluster count deliberately exceeds
    what a small initial pool can cover, and the Zipf tail keeps several
    clusters rare, so selection strategies have something to gain.
    """

    clusters: int = 20
    frames_per_cluster: int = 25
    heldout_frames: int = 100
    keypoints: int = 15
    cameras: int = 8
    ring_radius_mm: float = 3000.0
    ring_height_mm: float = 400.0
    pose_scale_mm: float = 300.0
    zipf_exponent: float = 1.2
    image_size_px: float = 1000.0
    focal_px: float = 700.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.clusters < 1 or self.frames_per_cluster < 1 or self.keypoints < 1:
            raise InvariantViolation("clusters, frames_per_cluster, keypoints must be >= 1")
        if self.cameras < 2:
            raise InvariantViolation("need at least 2 cameras")
        if self.heldout_frames < 0:
            raise InvariantViolation("heldout_frames must be >= 0")
        if min(self.ring_radius_mm, self.pose_scale_mm, self.image_size_px, self.focal_px) <= 0:
            raise InvariantViolation("scene dimensions must be positive")
        if self.zipf_exponent < 0:
            raise InvariantViolation("zipf_exponent must be >= 0")


def _look_at_rotation(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation with the camera's +z axis toward target."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    world_up = np.array([0.0, 0.0, 1.0])
    right = np.cross(world_up, forward)
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        raise InvariantViolation("camera looks straight along the world up axis")
    right = right / nr
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def ring_cameras(
    count: int,
    radius_mm: float,
    height_mm: float,
    focal_px: float,
    image_size_px: float,
) -> list:
    """Evenly spaced cameras on a horizontal ring, all looking at the origin."""
    half = image_size_px / 2.0
    k = np.array([[focal_px, 0.0, half], [0.0, focal_px, half], [0.0, 0.0, 1.0]])
    cams = []
    for i in range(count):
        angle = 2.0 * np.pi * i / count
        center = np.array(
            [radius_mm * np.cos(angle), radius_mm * np.sin(angle), height_mm]
        )
        rot = _look_at_rotation(center, np.zeros(3))
        cams.append(
            CameraParams(id=i, intrinsics=k, rotation=rot, translation=-rot @ center)
        )
    return cams


def generate_synthetic(spec: SyntheticSpec = SyntheticSpec()) -> Dataset:
    """Deterministically generate a dataset from a SyntheticSpec.

    Pose model: each cluster has a random template (a center plus fixed
    per-keypoint offsets); a frame picks a cluster with Zipf-weighted
    probability, spins the template by a uniform yaw about the vertical
    axis, then adds a clipped Gaussian whole-pose displacement shared by
    every keypoint plus small independent per-keypoint jitter. The yaw
    matters: root-aligned pose distance is blind to the shared
    displacement, and iid jitter alone averages out over K keypoints, so
    without it all same-cluster frames would look nearly equidistant. The
    yaw makes every cluster a continuous one-parameter family that a small
    labeled pool can only cover at a spread of angular gaps. Coordinates
    stay within ~2.4 * pose_scale_mm of the origin per axis, which keeps
    every keypoint inside the default camera images with margin.
    """
    rng = np.random.default_rng(spec.seed)
    cameras = ring_cameras(
        spec.cameras,
        spec.ring_radius_mm,
        spec.ring_height_mm,
        spec.focal_px,
        spec.image_size_px,
    )

    ps = spec.pose_scale_mm
    centers = rng.uniform(-ps, ps, size=(spec.clusters, 3))
    offsets = rng.uniform(-ps / 2.0, ps / 2.0, size=(spec.clusters, spec.keypoints, 3))
    weights = (np.arange(spec.clusters) + 1.0) ** (-spec.zipf_exponent)
    weights = weights / weights.sum()

    total = spec.clusters * spec.frames_per_cluster + spec.heldout_frames
    frames = []
    for fid in range(total):
        c = int(rng.choice(spec.clusters, p=weights))
        shift = np.clip(rng.normal(0.0, ps / 4.0, size=3), -ps / 2.0, ps / 2.0)
        jitter = np.clip(
            rng.normal(0.0, ps / 25.0, size=(spec.keypoints, 3)), -ps / 8.0, ps / 8.0
        )
        theta = rng.uniform(-np.pi, np.pi)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        yaw = np.array([[cos_t, -sin_t, 0.0], [sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
        shape = (offsets[c] + jitter) @ yaw.T
        frames.append(Frame(id=fid, pose=centers[c] + shift + shape))

    n_train = spec.clusters * spec.frames_per_cluster
    return Dataset(
        cameras=cameras,
        frames=frames,
        train_ids=list(range(n_train)),
        heldout_ids=list(range(n_train, total)),
        keypoint_count=spec.keypoints,
    )
