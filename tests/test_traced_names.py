"""Every function that perfbench's tracer wraps is reached by a campaign.

perfbench/tracing.py times and counts a campaign's layers by replacing
module attributes (campaign.drift_stats, predictor.gaussian_values_stack,
...) with wrappers. A refactor that calls such a function by another name
would leave its per-layer metric at zero without any error; this guard
runs tiny campaigns that between them use every layer and checks that
each wrapped name is called.
"""

import sys
from collections import Counter
from pathlib import Path

from annosim import campaign
from annosim.config import AnalysisConfig, CampaignConfig, SelfTrainingConfig
from annosim.dataset import SyntheticSpec, generate_synthetic
from annosim.predictor import NoiseModel

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracing import WRAPPED  # noqa: E402

# The campaign fills in lost keypoints through triangulate_dlt_many; the
# single-point name stays on the campaign module for the tracer alone.
NOT_CALLED = {"campaign.triangulate_dlt"}


def tiny_config(strategy, **over):
    return CampaignConfig(
        strategy=strategy,
        init_labeled=6,
        batch_per_iter=4,
        iterations=2,
        workers=1,
        analysis=AnalysisConfig(clusters=5, root_index=2, seed=0),
        **over,
    )


def test_every_traced_name_is_called(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = []
    for module, attr, _, _ in WRAPPED:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if name in NOT_CALLED and not hasattr(module, attr):
            continue
        names.append(name)
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))

    spec = SyntheticSpec(
        clusters=4, frames_per_cluster=10, heldout_frames=10, keypoints=5, cameras=4, seed=5
    )
    ds = generate_synthetic(spec)
    configs = [
        tiny_config("rand", st=SelfTrainingConfig(enabled=True, fraction=0.5)),
        tiny_config("bsb"),
        tiny_config("mpe"),
        tiny_config("coreset", noise=NoiseModel(outlier_prob_base=0.05)),
    ]
    for cfg in configs:
        campaign.run_campaign(ds, cfg, seed=0)

    missed = [name for name in names if not counts[name] and name not in NOT_CALLED]
    assert not missed, f"never called: {missed}"

