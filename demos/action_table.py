"""
Enumerate the 18 execution configurations.

For each action id: the (quality, imu, mode) tuple, the client power draw,
and the deterministic part of the motion-to-photon latency. Offload rows show
the serialization + round-trip + server pipeline of an unqueued frame at a
chosen bandwidth; RTT jitter comes on top of these numbers at run time. Every
number comes from the environment's action table (`env.actions`), which
prices each configuration once per environment config.
"""

from xredge.actions import RESOLUTION
from xredge.environment import EnvConfig, XrEnvironment

BW_MBPS = 100.0

env = XrEnvironment(EnvConfig())
tab = env.actions

print(f"offload pipeline shown at {BW_MBPS:g} Mbps, base RTT {env.cfg.rtt.base_ms:g} ms")
print()
header = f"{'id':>2}  {'quality':8} {'imu':7} {'mode':8} {'power_W':>8} {'det_MTP_ms':>11}"
print(header)
print("-" * len(header))

for action, cfg in enumerate(tab.configs):
    if tab.is_local[action]:
        mtp = tab.mtp_local_ms[action]
    else:
        row = tab.offload_row[action]
        serialization_ms = tab.payload_offload_mbit[row] / BW_MBPS * 1000.0
        mtp = serialization_ms + tab.fixed_offload_ms[row]
    w, h = RESOLUTION[cfg.quality]
    print(
        f"{action:>2}  {cfg.quality.name:8} {cfg.imu.name:7} {cfg.mode.name:8} "
        f"{tab.power_w[action]:8.4f} {mtp:11.3f}   ({w}x{h})"
    )

print()
print("threshold for compliance is 30 ms; LOCAL rows sit at or below it by")
print("construction, OFFLOAD rows depend on the link")
