"""
Walk through the network model: the cyclic bandwidth schedule and the
long-tailed RTT distribution.

The cycle steps down through five levels (1000, 500, 100, 10, 1 Mbps) with a
60 s dwell each, then wraps. RTT is a 5 ms base plus lognormal jitter; the
closed-form mean excess above a slack threshold is what the predictive
baseline uses, so we sanity-check it against a Monte Carlo estimate here.
"""

import numpy as np

from xredge.network import RttModel, bandwidth_at, cycle_profile, rtt_samples

profile = cycle_profile()
print("bandwidth schedule, first full cycle:")
for i, level in enumerate(profile.levels_mbps):
    t0 = i * profile.dwell_s
    print(f"  t in [{t0:5.0f}, {t0 + profile.dwell_s:5.0f}) s -> {level:6g} Mbps")
print(f"wraps after {len(profile.levels_mbps) * profile.dwell_s:g} s: "
      f"bandwidth at t=301 s is {bandwidth_at(profile, 301.0):g} Mbps")
print()

rtt = RttModel()
rng = np.random.default_rng(0)
samples = np.array(rtt_samples(rtt, rng, 100_000))

print(f"RTT: base {rtt.base_ms:g} ms + lognormal jitter "
      f"(scale {rtt.jitter_scale_ms:g} ms, sigma {rtt.sigma:g})")
print(f"  analytic jitter mean : {rtt.jitter_mean_ms():8.4f} ms")
print(f"  monte carlo estimate : {np.mean(samples) - rtt.base_ms:8.4f} ms")
print(f"  p50 / p95 / p99 RTT  : {np.percentile(samples, 50):.2f} / "
      f"{np.percentile(samples, 95):.2f} / {np.percentile(samples, 99):.2f} ms")
print()

print("mean jitter excess above a slack threshold (closed form vs sampled):")
jitter = samples - rtt.base_ms
for slack in (0.2, 0.5, 1.0, 2.0, 5.0):
    analytic = rtt.jitter_excess_mean_ms(slack)
    mc = float(np.mean(np.maximum(jitter - slack, 0.0)))
    print(f"  slack {slack:4.1f} ms: {analytic:.5f} vs {mc:.5f}")
