"""Discrete execution-configuration space of the XR client.

Three knobs: camera image quality (3 levels), IMU sampling rate (LOW,
MEDIUM, HIGH: 100, 150, 200 Hz), execution mode (local or offloaded VIO).
Their cross product gives 18 configurations. Action ids iterate IMU rate
outermost (HIGH, MEDIUM, LOW), image quality next (LOW, MEDIUM, HIGH) and
execution mode innermost (LOCAL, OFFLOAD), so id 0 is (HIGH imu, LOW
quality, LOCAL) and id 17 is (LOW imu, HIGH quality, OFFLOAD).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class QualityLevel(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class ImuRate(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class ExecutionMode(IntEnum):
    LOCAL = 0
    OFFLOAD = 1


# camera resolution per quality level (width, height)
RESOLUTION = {
    QualityLevel.LOW: (376, 240),
    QualityLevel.MEDIUM: (564, 360),
    QualityLevel.HIGH: (752, 480),
}

N_ACTIONS = 18

# the id layout of the module docstring
_IMU_ORDER = (ImuRate.HIGH, ImuRate.MEDIUM, ImuRate.LOW)
_QUALITY_ORDER = (QualityLevel.LOW, QualityLevel.MEDIUM, QualityLevel.HIGH)


@dataclass(frozen=True)
class ExecutionConfig:
    """One point of the action space."""

    quality: QualityLevel
    imu: ImuRate
    mode: ExecutionMode


def quality_scale(quality: QualityLevel) -> float:
    """Pixel-count ratio of `quality` relative to the HIGH resolution.

    Scales everything that is proportional to image size: frame payload,
    processing time, server-side inference time.
    """
    w, h = RESOLUTION[quality]
    w_hi, h_hi = RESOLUTION[QualityLevel.HIGH]
    return (w * h) / (w_hi * h_hi)


def action_row(action_id) -> int:
    """`action_id` as a plain int if it is an int or numpy integer in [0, N_ACTIONS), else ValueError."""
    if type(action_id) is not int and (isinstance(action_id, bool) or not isinstance(action_id, (int, np.integer))):
        raise ValueError(f"action id must be an int, got {action_id!r}")
    if not 0 <= action_id < N_ACTIONS:
        raise ValueError(f"action id out of range [0, {N_ACTIONS}): {action_id}")
    return int(action_id)


def decode_action(action_id: int) -> ExecutionConfig:
    """Map an action id (0..17, see `action_row`) to its execution configuration."""
    row = action_row(action_id)
    return ExecutionConfig(quality=_QUALITY_ORDER[row % 6 // 2], imu=_IMU_ORDER[row // 6], mode=ExecutionMode(row % 2))


def all_configs() -> list[ExecutionConfig]:
    """All 18 configurations in action-id order."""
    return [decode_action(i) for i in range(N_ACTIONS)]
