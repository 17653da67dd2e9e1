"""Power model and battery bookkeeping."""

import pytest

from xredge.actions import decode_action
from xredge.energy import (
    Battery,
    PowerParams,
    client_power,
    lifetime_projection,
    proc_power,
)
from xredge.latency import ProcTimeTable

TABLE = ProcTimeTable()
POWER = PowerParams()


def test_proc_power_duty_cycle():
    # (t_proc / 50 ms) * 35 W
    assert proc_power(decode_action(4), TABLE, POWER) == pytest.approx(20.3)   # 29 ms
    assert proc_power(decode_action(5), TABLE, POWER) == pytest.approx(7.0)    # 10 ms
    assert proc_power(decode_action(12), TABLE, POWER) == pytest.approx(3.5525)


def test_client_power_reference_points():
    assert client_power(decode_action(4), TABLE, POWER) == pytest.approx(20.8)
    assert client_power(decode_action(5), TABLE, POWER) == pytest.approx(7.5)
    assert client_power(decode_action(12), TABLE, POWER) == pytest.approx(4.0525)
    assert client_power(decode_action(13), TABLE, POWER) == pytest.approx(2.25)


def test_power_ordering_over_action_space():
    # every offloaded configuration draws less than full local processing
    full_local = client_power(decode_action(4), TABLE, POWER)
    for i in range(1, 18, 2):
        assert client_power(decode_action(i), TABLE, POWER) < full_local


def test_soc_step_decrement():
    # 20.8 W for 1 s against 16.6 Wh: 2080 / (16.6*3600) percent
    drop = 20.8 * 1.0 / (16.6 * 3600.0) * 100.0
    b = Battery(16.6, 100.0, drain_factor=1.0)
    assert b.step(20.8, 1.0) == pytest.approx(20.8)
    assert b.soc == pytest.approx(100.0 - drop)
    b = Battery(16.6, 100.0, drain_factor=3.0)
    b.step(20.8, 1.0)
    assert b.soc == pytest.approx(100.0 - 3.0 * drop)
    assert drop == pytest.approx(0.0348059, abs=1e-6)


def test_soc_step_clamps_at_zero():
    b = Battery(16.6, 0.01, drain_factor=3.0)
    b.step(100.0, 3600.0)
    assert b.soc == 0.0


def test_soc_step_validation():
    with pytest.raises(ValueError):
        Battery(0.0, 50.0, 3.0)
    with pytest.raises(ValueError):
        Battery(16.6, 50.0, 3.0).step(-1.0, 1.0)
    with pytest.raises(ValueError):
        Battery(16.6, 50.0, 3.0).step(10.0, -1.0)


def test_lifetime_projection_identity():
    # full charge, 16.6 Wh at 20.8 W: 0.798 h
    assert lifetime_projection(100.0, 16.6, 20.8, drain_factor=1.0) == 16.6 / 20.8
    assert lifetime_projection(100.0, 16.6, 20.8, drain_factor=1.0) == pytest.approx(0.7981, abs=5e-4)
    # accelerated drain shortens it proportionally: 957.69 s at k=3
    assert lifetime_projection(100.0, 16.6, 20.8, drain_factor=3.0) * 3600 == pytest.approx(
        957.6923, abs=1e-3
    )
    # half charge halves it
    assert lifetime_projection(50.0, 16.6, 20.8, drain_factor=1.0) == pytest.approx(0.5 * 16.6 / 20.8)
    with pytest.raises(ValueError):
        lifetime_projection(100.0, 16.6, 0.0, drain_factor=1.0)


def test_battery_conservation_identity():
    bat = Battery(capacity_wh=16.6, soc=100.0, drain_factor=3.0)
    for i in range(500):
        bat.step(2.0 + (i % 7), 0.05)
    spent_pct = 100.0 - bat.soc
    assert bat.drain_factor * bat.energy_j == pytest.approx(
        spent_pct / 100.0 * bat.capacity_j, rel=1e-12
    )


def test_battery_depletes_mid_step():
    bat = Battery(capacity_wh=16.6, soc=100.0, drain_factor=3.0)
    # one huge step: only the powered fraction of dt is billed
    consumed = bat.step(20.8, 10_000.0)
    assert bat.depleted
    assert bat.soc == 0.0
    # energy for a full discharge at k=3 is capacity/3
    assert consumed == pytest.approx(16.6 * 3600.0 / 3.0, rel=1e-12)
    # and the implied runtime is the projection
    assert consumed / 20.8 == pytest.approx(957.6923, abs=1e-3)


def test_battery_stops_when_empty():
    bat = Battery(capacity_wh=1.0, soc=0.0001, drain_factor=1.0)
    bat.step(1000.0, 3600.0)
    assert bat.depleted
    assert bat.step(1000.0, 1.0) == 0.0


def test_battery_zero_power_free():
    bat = Battery(16.6, 100.0, 3.0)
    assert bat.step(0.0, 100.0) == 0.0
    assert bat.soc == 100.0
    # zero power or a zero-length tick: every tick counts, nothing is drawn
    assert bat.steps(0.0, 0.05, 20) == bat.steps(2.0, 0.0, 20) == (0.0, 20, None)
    assert (bat.soc, bat.energy_j) == (100.0, 0.0)


@pytest.mark.parametrize("capacity_wh, soc, drain_factor", [
    (0.0, 100.0, 3.0),
    (float("nan"), 100.0, 3.0),
    (float("inf"), 100.0, 3.0),
    (16.6, 101.0, 3.0),
    (16.6, float("nan"), 3.0),
    (16.6, 100.0, 0.0),
    (16.6, 100.0, float("nan")),
])
def test_battery_rejects_bad_constants(capacity_wh, soc, drain_factor):
    with pytest.raises(ValueError):
        Battery(capacity_wh, soc, drain_factor)


def test_battery_validation():
    bat = Battery(16.6, 100.0, 3.0)
    with pytest.raises(ValueError):
        bat.step(-1.0, 1.0)
    with pytest.raises(ValueError):
        bat.step(1.0, -1.0)


@pytest.mark.parametrize("bad", [
    {"tau_frame_ms": 0.0},
    {"tau_frame_ms": float("inf")},
    {"p_base_w": float("nan")},
    {"tdp_proc_w": -1.0},
])
def test_power_params_reject_bad_constants(bad):
    with pytest.raises(ValueError):
        PowerParams(**bad)
