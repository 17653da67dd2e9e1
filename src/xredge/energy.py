"""Client power draw and battery state.

Power is a baseline plus a processing term: the fraction of the frame period
spent processing, times the processor's thermal design power.

Battery drain applies a drain-acceleration factor k to the electrical load.
It reconciles nameplate capacity with observed endurance: real headsets lose
wall-clock battery several times faster than capacity/power predicts
(regulator losses, displays, radios, thermal derating). k multiplies drain
everywhere, including lifetime projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .actions import ExecutionConfig
from .config import check_non_negative
from .latency import ProcTimeTable, proc_time


@dataclass(frozen=True)
class PowerParams:
    p_base_w: float = 0.5          # idle baseline: sensors, display path
    tdp_proc_w: float = 35.0       # processor thermal design power
    w_proc: float = 1.0            # weight of the processing-duty term
    tau_frame_ms: float = 50.0     # frame period at 20 Hz

    def __post_init__(self):
        check_non_negative(self)
        if self.tau_frame_ms == 0:
            raise ValueError(f"frame period must be positive: {self.tau_frame_ms}")


def proc_power(cfg: ExecutionConfig, table: ProcTimeTable, params: PowerParams) -> float:
    """Processing power: duty cycle over the frame period times TDP."""
    return proc_time(cfg, table) / params.tau_frame_ms * params.tdp_proc_w


def client_power(cfg: ExecutionConfig, table: ProcTimeTable, params: PowerParams) -> float:
    """Total client power draw in watts for a configuration."""
    return params.p_base_w + params.w_proc * proc_power(cfg, table, params)


def lifetime_projection(
    soc: float,
    capacity_wh: float,
    power_w: float,
    drain_factor: float,
) -> float:
    """Remaining runtime in hours at constant power from the given SoC."""
    if power_w <= 0:
        raise ValueError(f"power must be positive: {power_w}")
    if capacity_wh <= 0:
        raise ValueError(f"capacity must be positive: {capacity_wh}")
    return (soc / 100.0) * capacity_wh / (drain_factor * power_w)


class Battery:
    """Mutable battery state with an energy ledger.

    energy_j accumulates the raw electrical energy actually drawn (before the
    drain-acceleration factor); the conservation identity is
    k * energy_j == (soc0 - soc) / 100 * capacity_j.
    """

    def __init__(self, capacity_wh: float, soc: float, drain_factor: float):
        if not 0.0 < capacity_wh < math.inf:
            raise ValueError(f"capacity must be positive and finite: {capacity_wh}")
        if not 0.0 <= soc <= 100.0:
            raise ValueError(f"SoC must be within [0, 100]: {soc}")
        if not 0.0 < drain_factor < math.inf:
            raise ValueError(f"drain factor must be positive and finite: {drain_factor}")
        self.capacity_wh = capacity_wh
        self.drain_factor = drain_factor
        self.soc = float(soc)
        self.energy_j = 0.0

    @property
    def capacity_j(self) -> float:
        return self.capacity_wh * 3600.0

    @property
    def depleted(self) -> bool:
        return self.soc <= 0.0

    def step(self, power_w: float, dt_s: float) -> float:
        """Drain for dt_s at power_w; returns the raw energy consumed in J.

        If the charge runs out mid-step the draw is truncated at the instant
        of depletion, so the returned energy covers only the powered fraction
        of dt_s.
        """
        return self.steps(power_w, dt_s, 1)[0]

    def steps(
        self, power_w: float, dt_s: float, n: int, t0: float = 0.0
    ) -> tuple[float, int, float | None]:
        """Up to n consecutive steps of dt_s at power_w, the first at time t0.

        Returns (energy, ticks, depleted_at): the raw energy consumed in J,
        summed tick by tick; the number of ticks that drew power, the one
        that ran the charge out included; and the instant the charge ran
        out, or None if it lasted. A depleted battery draws nothing.
        """
        if power_w < 0:
            raise ValueError(f"power must be non-negative: {power_w}")
        if dt_s < 0:
            raise ValueError(f"dt must be non-negative: {dt_s}")
        if self.depleted:
            return 0.0, 0, None
        full = power_w * dt_s
        drop_pct = self.drain_factor * power_w * dt_s / self.capacity_j * 100.0
        energy = 0.0
        for k in range(n):
            if drop_pct >= self.soc:
                consumed = full * (self.soc / drop_pct)
                self.soc = 0.0
                self.energy_j += consumed
                return energy + consumed, k + 1, t0 + k * dt_s + consumed / full * dt_s
            self.soc -= drop_pct
            self.energy_j += full
            energy += full
        return energy, n, None
