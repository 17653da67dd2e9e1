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

from dataclasses import dataclass

from .actions import ExecutionConfig
from .config import check_ranges, ranged
from .latency import ProcTimeTable, proc_time


@dataclass(frozen=True)
class PowerParams:
    p_base_w: float = ranged("[0, inf)", 0.5)        # idle baseline: sensors, display path
    tdp_proc_w: float = ranged("[0, inf)", 35.0)     # processor thermal design power
    tau_frame_ms: float = ranged("(0, inf)", 50.0)   # frame period at 20 Hz

    def __post_init__(self):
        check_ranges(self)


def proc_power(cfg: ExecutionConfig, table: ProcTimeTable, params: PowerParams) -> float:
    """Processing power: duty cycle over the frame period times TDP."""
    return proc_time(cfg, table) / params.tau_frame_ms * params.tdp_proc_w


def client_power(cfg: ExecutionConfig, table: ProcTimeTable, params: PowerParams) -> float:
    """Total client power draw in watts for a configuration."""
    return params.p_base_w + proc_power(cfg, table, params)


def lifetime_projection(
    soc: float,
    capacity_wh: float,
    power_w: float,
    drain_factor: float,
) -> float:
    """Remaining runtime in hours at constant positive power from the given SoC."""
    return (soc / 100.0) * capacity_wh / (drain_factor * power_w)


class Battery:
    """Mutable battery state with an energy ledger.

    energy_j accumulates the raw electrical energy actually drawn (before the
    drain-acceleration factor); the conservation identity is
    k * energy_j == (soc0 - soc) / 100 * capacity_j. The constants are taken
    as given: `EnvConfig` declares and checks their ranges.
    """

    def __init__(self, capacity_wh: float, soc: float, drain_factor: float):
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

    def steps(
        self, power_w: float, dt_s: float, n: int, t0: float = 0.0
    ) -> tuple[float, int, float | None]:
        """Up to n consecutive steps of dt_s at power_w, the first at time t0.

        Returns (energy, ticks, depleted_at): the raw energy consumed in J,
        summed tick by tick; the number of ticks that drew power, the one
        that ran the charge out included; and the instant the charge ran
        out, or None if it lasted. A depleted battery draws nothing.
        power_w and dt_s come from a checked `EnvConfig` and are not checked again.
        """
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
