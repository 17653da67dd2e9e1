"""Action-space encoding: id layout, pixel ratios, validation."""

import numpy as np
import pytest

from xredge.actions import (
    N_ACTIONS,
    RESOLUTION,
    ExecutionConfig,
    ExecutionMode,
    ImuRate,
    QualityLevel,
    action_row,
    all_configs,
    decode_action,
    quality_scale,
)
from xredge.environment import EnvConfig, XrEnvironment


def test_eighteen_actions():
    assert N_ACTIONS == 18
    assert len(all_configs()) == 18
    assert len(set(map(repr, all_configs()))) == 18


# spot rows computed by hand from the id layout (imu outermost in the order
# HIGH, MEDIUM, LOW; quality next as LOW, MEDIUM, HIGH; mode innermost)
TABLE_ROWS = {
    0: (QualityLevel.LOW, ImuRate.HIGH, ExecutionMode.LOCAL),
    4: (QualityLevel.HIGH, ImuRate.HIGH, ExecutionMode.LOCAL),
    5: (QualityLevel.HIGH, ImuRate.HIGH, ExecutionMode.OFFLOAD),
    8: (QualityLevel.MEDIUM, ImuRate.MEDIUM, ExecutionMode.LOCAL),
    12: (QualityLevel.LOW, ImuRate.LOW, ExecutionMode.LOCAL),
    17: (QualityLevel.HIGH, ImuRate.LOW, ExecutionMode.OFFLOAD),
}


@pytest.mark.parametrize("action_id,expected", sorted(TABLE_ROWS.items()))
def test_table_rows(action_id, expected):
    quality, imu, mode = expected
    cfg = decode_action(action_id)
    assert cfg == ExecutionConfig(quality=quality, imu=imu, mode=mode)


def test_mode_parity():
    # even ids are LOCAL, odd ids OFFLOAD, throughout the table
    for i in range(N_ACTIONS):
        expected = ExecutionMode.LOCAL if i % 2 == 0 else ExecutionMode.OFFLOAD
        assert decode_action(i).mode is expected


def test_quality_scale_exact():
    # pixel-count ratios of the fixed resolutions; exact by construction:
    # 376*240 / (752*480) = 1/4 and 564*360 / (752*480) = 9/16
    assert quality_scale(QualityLevel.LOW) == 0.25
    assert quality_scale(QualityLevel.MEDIUM) == 0.5625
    assert quality_scale(QualityLevel.HIGH) == 1.0


def test_resolution_table():
    assert RESOLUTION[QualityLevel.LOW] == (376, 240)
    assert RESOLUTION[QualityLevel.MEDIUM] == (564, 360)
    assert RESOLUTION[QualityLevel.HIGH] == (752, 480)


@pytest.mark.parametrize("bad", [-1, 18, 100, 2.0, "5", None, True])
def test_decode_rejects_bad_ids(bad):
    with pytest.raises(ValueError):
        decode_action(bad)


def _outcome(call, action):
    """("ok", value) of call(action), or ("error", message) of its ValueError."""
    try:
        return "ok", call(action)
    except ValueError as exc:
        return "error", str(exc)


STEP_CFG = EnvConfig(horizon_s=2.0)


@pytest.mark.parametrize("action", [
    *range(N_ACTIONS), np.int8(3), np.uint64(17), np.int64(4),
    -1, 18, 4.0, np.float64(4.0), "4", True, np.bool_(True), None,
], ids=repr)
def test_decode_and_step_take_the_same_action_ids(action):
    decoded, stepped = _outcome(decode_action, action), _outcome(XrEnvironment(STEP_CFG, seed=0).step, action)
    assert decoded[0] == stepped[0]
    if decoded[0] == "error":
        assert decoded[1] == stepped[1]
        return
    config, out = decoded[1], stepped[1]
    assert (out.quality, out.imu, out.mode) == (config.quality.value, config.imu.value, config.mode.name)
    assert config == decode_action(int(action)) and type(action_row(action)) is int
