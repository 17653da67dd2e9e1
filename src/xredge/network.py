"""Network emulation: cyclic bandwidth schedules and round-trip time.

Bandwidth follows a deterministic step profile (a fixed list of levels, each
held for a fixed dwell, repeating forever), so every run sees the exact same
schedule regardless of seed. RTT is base latency plus a lognormal jitter
draw, which a zero jitter scale turns off; the jitter is the only stochastic
part of the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_ranges, ranged

# default variable schedule: five levels, 60 s each, 300 s cycle
DEFAULT_LEVELS_MBPS = (1000.0, 500.0, 100.0, 10.0, 1.0)
DEFAULT_DWELL_S = 60.0


@dataclass(frozen=True)
class BandwidthProfile:
    """Cyclic step schedule of uplink bandwidth.

    levels_mbps: bandwidth level per phase, visited in order and repeated.
    dwell_s: seconds spent on each level.
    """

    levels_mbps: tuple[float, ...] = ranged("(0, inf)", DEFAULT_LEVELS_MBPS)
    dwell_s: float = ranged("(0, inf)", DEFAULT_DWELL_S)

    def __post_init__(self):
        check_ranges(self)
        if not self.levels_mbps:
            raise ValueError("profile needs at least one bandwidth level")

    @property
    def cycle_s(self) -> float:
        return len(self.levels_mbps) * self.dwell_s

    def describe(self) -> str:
        if len(self.levels_mbps) == 1:
            return f"stable({self.levels_mbps[0]:g}Mbps)"
        levels = ",".join(f"{b:g}" for b in self.levels_mbps)
        return f"cycle([{levels}]Mbps,dwell={self.dwell_s:g}s)"


def stable_profile(mbps: float) -> BandwidthProfile:
    """Constant-bandwidth profile."""
    return BandwidthProfile(levels_mbps=(float(mbps),), dwell_s=DEFAULT_DWELL_S)


def cycle_profile() -> BandwidthProfile:
    """The default five-level variable profile."""
    return BandwidthProfile()


def bandwidth_at(profile: BandwidthProfile, t_s: float) -> float:
    """Bandwidth in Mbps at absolute time t_s (seconds).

    Dwell boundaries belong to the next phase: t == dwell is level index 1.
    Simulated time starts at 0, so t_s is non-negative.
    """
    idx = int(t_s // profile.dwell_s) % len(profile.levels_mbps)
    return profile.levels_mbps[idx]


def level_index(profile: BandwidthProfile, t_s: np.ndarray) -> np.ndarray:
    """The index into levels_mbps that bandwidth_at reads, for each time in t_s."""
    idx = (t_s // profile.dwell_s).astype(np.int64)
    idx %= len(profile.levels_mbps)
    return idx


@dataclass(frozen=True)
class RttModel:
    """Round-trip time: base plus non-negative lognormal jitter.

    jitter = jitter_scale_ms * exp(sigma * Z), Z ~ N(0, 1), so jitter_scale_ms
    is the jitter median and sigma sets the tail weight; a zero scale makes
    every RTT base_ms, since 0.0 times a finite exp is 0.0. Defaults are
    calibrated so that an offloaded full-quality frame at high stable
    bandwidth sits right at the motion-to-photon threshold and goes over it
    on roughly a quarter of draws, while the tail stays light enough that
    reduced-quality offloading is effectively always compliant.
    """

    base_ms: float = ranged("[0, inf)", 5.0)
    jitter_scale_ms: float = ranged("[0, inf)", 0.065)
    sigma: float = ranged("[0, inf)", 1.6)

    def __post_init__(self):
        check_ranges(self)
        try:
            finite = math.isfinite(self.jitter_mean_ms())
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"jitter mean must be finite: scale {self.jitter_scale_ms}, sigma {self.sigma}")

    def jitter_mean_ms(self) -> float:
        """Analytic mean of the jitter distribution."""
        return self.jitter_scale_ms * math.exp(self.sigma**2 / 2.0)

    def jitter_excess_mean_ms(self, threshold_ms: float) -> float:
        """E[(jitter - threshold)+], the expected exceedance above a threshold.

        Closed form for the lognormal; used by model-based policies to price
        the violation risk of an action without sampling.
        """
        if threshold_ms <= 0.0:
            return self.jitter_mean_ms() - threshold_ms
        s, sig = self.jitter_scale_ms, self.sigma
        if s == 0.0 or sig == 0.0:
            return max(0.0, s - threshold_ms)
        z = math.log(threshold_ms / s) / sig
        return self.jitter_mean_ms() * _phi(sig - z) - threshold_ms * _phi(-z)


def _phi(x: float) -> float:
    """Standard normal CDF; erfc keeps full relative precision deep in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def rtt_samples(model: RttModel, rng: np.random.Generator, n: int) -> list[float]:
    """Draw n RTTs in ms with one call to the generator.

    Each RTT is bit-identical to one scalar draw,
    base_ms + jitter_scale_ms * exp(sigma * rng.standard_normal()), taken n
    times in turn. The exponential is math.exp on each sample: np.exp
    differs from it in the last bit on a few percent of inputs.
    """
    return _rtt_ms(model, rng.standard_normal(n).tolist())


def last_rtt(model: RttModel, rng: np.random.Generator, n: int) -> float:
    """rtt_samples(model, rng, n)[-1] for n >= 1, bit for bit and leaving the
    generator in the same state: it draws all n normals but exponentiates
    only the last. It is `last_rtts(model, rng, n, n)[0]`, kept to one
    `item` call for the step of a single interval."""
    return _rtt_ms(model, [rng.standard_normal(n).item(-1)])[0]


def last_rtts(model: RttModel, rng: np.random.Generator, n: int, total: int) -> list[float]:
    """last_rtt over consecutive intervals of n frames, `total` frames in all,
    the last interval possibly short: entries n - 1, 2n - 1, ... and
    total - 1 of rtt_samples(model, rng, total) for total >= 1, bit for bit
    and leaving the generator in the same state. It draws all the normals
    in one call but exponentiates only those."""
    z = rng.standard_normal(total)
    last = z[n - 1::n].tolist()
    if total % n:
        last.append(z.item(-1))
    return _rtt_ms(model, last)


def _rtt_ms(model: RttModel, normals: list[float]) -> list[float]:
    """The RTT of each standard normal draw z: base + scale * exp(sigma * z)."""
    base, scale, sigma = model.base_ms, model.jitter_scale_ms, model.sigma
    return [base + scale * math.exp(sigma * z) for z in normals]

