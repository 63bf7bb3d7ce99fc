"""Campaign configuration: nested dataclasses with a strict YAML loader.

Unknown keys are rejected rather than ignored so a typo in a config file
fails loudly at load time (exit code 2 at the CLI) instead of silently
running with defaults. resolve() materializes every default back into a
plain dict, which the harness writes into each run directory so the run is
reproducible from that file alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .analysis import CostModel
from .errors import InvariantViolation, ParseError, check_field_types, scalar_type_error
from .fileio import read_yaml, write_yaml
from .geometry import MC_ERROR_MODES
from .heatmap import HeatmapSpec, PeakParams
from .predictor import NoiseModel
from .pseudolabel import VARIANTS
from .selection import STRATEGIES


@dataclass(frozen=True)
class SelfTrainingConfig:
    enabled: bool = False
    fraction: float = 0.2  # pseudo-labels per iteration as a share of batch size
    variant: str = "alternating"

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.fraction <= 1.0:
            raise InvariantViolation("st.fraction must be in [0, 1]")
        if self.variant not in VARIANTS:
            raise InvariantViolation(f"unknown st.variant {self.variant!r}")


@dataclass(frozen=True)
class AnalysisConfig:
    clusters: int = 10
    root_index: int = 2  # waist-style root for clustering diagnostics
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.clusters < 1:
            raise InvariantViolation("analysis.clusters must be >= 1")
        if self.root_index < 0:
            raise InvariantViolation("analysis.root_index must be >= 0")


@dataclass(frozen=True)
class CampaignConfig:
    dataset: str = ""
    strategy: str = "rand"
    init_labeled: int = 20
    batch_per_iter: int = 10
    iterations: int = 8
    seeds: tuple = (0, 1, 2)
    ransac_threshold_px: float = 5.0
    mc_error: str = "squared"
    cs_root_index: int = 0  # alignment root for predictor coverage + coreset
    workers: int = 1
    st: SelfTrainingConfig = field(default_factory=SelfTrainingConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    peaks: PeakParams = field(default_factory=PeakParams)
    heatmap: HeatmapSpec = field(default_factory=HeatmapSpec)
    cost: CostModel = field(default_factory=CostModel)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.strategy not in STRATEGIES:
            raise InvariantViolation(f"unknown strategy {self.strategy!r}")
        if self.init_labeled < 1:
            raise InvariantViolation("init_labeled must be >= 1")
        if self.batch_per_iter < 1:
            raise InvariantViolation("batch_per_iter must be >= 1")
        if self.iterations < 0:
            raise InvariantViolation("iterations must be >= 0")
        if len(self.seeds) < 1:
            raise InvariantViolation("need at least one seed")
        # YAML booleans are ints to Python, and True would run as seed 1.
        if any(type(s) is not int or not 0 <= s < 2**64 for s in self.seeds):
            raise InvariantViolation(
                f"seeds must be unsigned 64-bit integers, got {list(self.seeds)}"
            )
        # A repeated seed would run one campaign twice into one report file.
        if len(set(self.seeds)) != len(self.seeds):
            raise InvariantViolation(f"seeds must not repeat, got {list(self.seeds)}")
        if self.ransac_threshold_px <= 0:
            raise InvariantViolation("ransac_threshold_px must be positive")
        if self.mc_error not in MC_ERROR_MODES:
            raise InvariantViolation(f"unknown mc_error {self.mc_error!r}")
        if self.cs_root_index < 0:
            raise InvariantViolation("cs_root_index must be >= 0")
        if self.workers < 1:
            raise InvariantViolation("workers must be >= 1")

    def pseudo_amount(self) -> int:
        """Pseudo-labels added per iteration: fraction of the batch size."""
        return int(round(self.st.fraction * self.batch_per_iter))


_SECTION_TYPES = {
    "st": SelfTrainingConfig,
    "noise": NoiseModel,
    "peaks": PeakParams,
    "heatmap": HeatmapSpec,
    "cost": CostModel,
    "analysis": AnalysisConfig,
}


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ParseError(f"{path} must be a mapping")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ParseError(f"unknown key(s) in {path}: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, value in data.items():
        sub = _SECTION_TYPES.get(key)
        if sub is not None and path == "config":
            kwargs[key] = _build(sub, value, f"{path}.{key}")
        elif (problem := scalar_type_error(types[key], value)) is not None:
            raise ParseError(f"{path}.{key} {problem}")
        elif key == "seeds":
            if not isinstance(value, list) or not value:
                raise ParseError("config.seeds must be a non-empty list")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ParseError(f"bad value in {path}: {exc}") from exc


def config_from_dict(data: dict) -> CampaignConfig:
    return _build(CampaignConfig, data, "config")


def load_config(path, cls=CampaignConfig):
    """The `cls` (a CampaignConfig unless given) that the YAML file at
    `path` describes. An empty file is {}; any other top level than a
    mapping, an unknown key or a bad value raises ParseError."""
    doc = read_yaml(path)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return _build(cls, doc, "config")


def resolve(config: CampaignConfig) -> dict:
    """Plain-dict form with every default materialized."""
    out = dataclasses.asdict(config)
    out["seeds"] = [int(s) for s in config.seeds]
    return out


def save_resolved(config: CampaignConfig, path) -> None:
    write_yaml(path, resolve(config), sort_keys=True)
