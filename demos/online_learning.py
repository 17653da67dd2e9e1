"""
Watch the Q-learning controller train online against the cyclic bandwidth.

The agent starts from random weights and learns during the single episode it
is evaluated on: no pretraining, no replay across runs. Early decisions are
mostly exploratory (epsilon starts at 1.0), and by the back half of the run
the policy has settled into offloading on fast phases and processing locally
on slow ones.
"""

import numpy as np

from xredge.environment import EnvConfig, XrEnvironment
from xredge.network import cycle_profile
from xredge.policies import RlPolicy

env = XrEnvironment(EnvConfig(profile=cycle_profile(), horizon_s=1200.0), seed=1)
policy = RlPolicy(seed=1 + 7919)

window_viol = []
window_local = []
print(f"{'t':>5} {'eps':>6} {'bw_Mbps':>8} {'local%':>7} {'compl%':>7} "
      f"{'soc%':>6} {'loss':>9}")

while not env.done:
    action = policy.select(env)
    out = env.step(action)
    policy.observe_outcome(out, env)

    window_viol.append(out.v_mean)
    window_local.append(1.0 if action % 2 == 0 else 0.0)
    if env.t % 100 == 0:
        compl = 100.0 * np.mean([v == 0.0 for v in window_viol])
        agent = policy.agent
        loss = agent.last_loss if agent.last_loss is not None else float("nan")
        print(f"{env.t:5.0f} {agent.epsilon:6.3f} {env.state.bandwidth_mbps:8g} "
              f"{100 * np.mean(window_local):7.1f} {compl:7.1f} "
              f"{env.state.soc:6.1f} {loss:9.5f}")
        window_viol.clear()
        window_local.clear()

print()
print(f"survived {env.t:g} s of {env.cfg.horizon_s:g}; "
      f"delivered {env.frames_delivered} of {env.frames_captured} frames")
