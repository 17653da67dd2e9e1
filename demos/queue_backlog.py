"""
What happens when full-quality offload meets a starved 1 Mbps uplink.

Each decision interval captures 20 frames (5.8 Mbit apiece); at 1 Mbps the
link moves well under one frame per interval, so the bounded uplink queue
fills, older frames go stale, and new captures start getting dropped. A
single switch back to local execution flushes the backlog.
"""

from xredge.environment import EnvConfig, XrEnvironment
from xredge.network import stable_profile

env = XrEnvironment(
    EnvConfig(profile=stable_profile(1.0), horizon_s=10.0),
    seed=0,
)

print("offloading HIGH quality over a 1 Mbps link:")
print(f"{'t_end':>5} {'delivered':>9} {'dropped':>8} {'depth':>6} "
      f"{'mean_viol':>10} {'reward':>8}")
for _ in range(8):
    out = env.step(5)                      # HIGH imu, HIGH quality, OFFLOAD
    i = out.info
    print(f"{env.t:5.0f} {out.mtp_ms.size:9d} "
          f"{i['frames_dropped']:8d} {env.queue.depth:6d} "
          f"{i['mean_v']:10.2f} {out.reward:8.3f}")

print()
print("switching to local execution flushes the queue:")
out = env.step(4)                          # HIGH imu, HIGH quality, LOCAL
i = out.info
print(f"{env.t:5.0f} {out.mtp_ms.size:9d} {i['frames_dropped']:8d} "
      f"{env.queue.depth:6d} {i['mean_v']:10.2f} {out.reward:8.3f}")
print()
print(f"episode totals: captured {env.frames_captured}, "
      f"delivered {env.frames_delivered}, dropped {env.queue.dropped}")
