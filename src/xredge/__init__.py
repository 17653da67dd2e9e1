"""Battery-aware execution management for edge-assisted XR.

Closed-loop simulator of an XR client that chooses, once per second, how to
run its perception pipeline: locally at one of three quality tiers, or
offloaded to an edge server over a time-varying link. Includes the latency,
power, and battery models, a replay-trained Q-learning controller, fixed
baselines, and an experiment harness. Everything else is imported from its
module, for example `xredge.network.stable_profile`.
"""

from .environment import EnvConfig, XrEnvironment
from .harness import default_scenario, run_scenario
from .policies import RlPolicy

__all__ = ["EnvConfig", "RlPolicy", "XrEnvironment", "default_scenario", "run_scenario"]
