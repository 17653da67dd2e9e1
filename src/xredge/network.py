"""Network emulation: cyclic bandwidth schedules and round-trip time.

Bandwidth follows a deterministic step profile (a fixed list of levels, each
held for a fixed dwell, repeating forever), so every run sees the exact same
schedule regardless of seed. RTT is base latency plus an optional lognormal
jitter draw; the jitter is the only stochastic part of the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .config import check_non_negative

# default variable schedule: five levels, 60 s each, 300 s cycle
DEFAULT_LEVELS_MBPS = (1000.0, 500.0, 100.0, 10.0, 1.0)
DEFAULT_DWELL_S = 60.0


@dataclass(frozen=True)
class BandwidthProfile:
    """Cyclic step schedule of uplink bandwidth.

    levels_mbps: bandwidth level per phase, visited in order and repeated.
    dwell_s: seconds spent on each level.
    """

    levels_mbps: tuple[float, ...] = DEFAULT_LEVELS_MBPS
    dwell_s: float = DEFAULT_DWELL_S

    def __post_init__(self):
        if not isinstance(self.levels_mbps, (tuple, list)):
            raise ValueError(
                f"levels_mbps must be a sequence of bandwidths: {self.levels_mbps!r}"
            )
        if not self.levels_mbps:
            raise ValueError("profile needs at least one bandwidth level")
        if not all(0 < b < math.inf for b in self.levels_mbps):
            raise ValueError(f"bandwidth levels must be positive and finite: {self.levels_mbps}")
        if not 0 < self.dwell_s < math.inf:
            raise ValueError(f"dwell must be positive and finite: {self.dwell_s}")

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
    """
    if t_s < 0:
        raise ValueError(f"time must be non-negative: {t_s}")
    idx = int(t_s // profile.dwell_s) % len(profile.levels_mbps)
    return profile.levels_mbps[idx]


def level_index(profile: BandwidthProfile, t_s: np.ndarray) -> np.ndarray:
    """The index into levels_mbps that bandwidth_at reads, for each time in t_s."""
    idx = (t_s // profile.dwell_s).astype(np.int64)
    idx %= len(profile.levels_mbps)
    return idx


class RttDistribution(Enum):
    NONE = "none"
    LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class RttModel:
    """Round-trip time: base plus non-negative lognormal jitter.

    jitter = jitter_scale_ms * exp(sigma * Z), Z ~ N(0, 1), so jitter_scale_ms
    is the jitter median and sigma sets the tail weight. Defaults are
    calibrated so that an offloaded full-quality frame at high stable
    bandwidth sits right at the motion-to-photon threshold and goes over it
    on roughly a quarter of draws, while the tail stays light enough that
    reduced-quality offloading is effectively always compliant.
    """

    base_ms: float = 5.0
    jitter_scale_ms: float = 0.065
    sigma: float = 1.6
    distribution: RttDistribution = RttDistribution.LOGNORMAL

    def __post_init__(self):
        check_non_negative(self)
        try:
            finite = math.isfinite(self.jitter_mean_ms())
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"jitter mean must be finite: scale {self.jitter_scale_ms}, sigma {self.sigma}")

    def jitter_mean_ms(self) -> float:
        """Analytic mean of the jitter distribution."""
        if self.distribution is RttDistribution.NONE:
            return 0.0
        return self.jitter_scale_ms * math.exp(self.sigma**2 / 2.0)

    def jitter_excess_mean_ms(self, threshold_ms: float) -> float:
        """E[(jitter - threshold)+], the expected exceedance above a threshold.

        Closed form for the lognormal; used by model-based policies to price
        the violation risk of an action without sampling.
        """
        if self.distribution is RttDistribution.NONE:
            return max(0.0, -threshold_ms)
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


def rtt_sample(model: RttModel, rng: np.random.Generator) -> float:
    """Draw one RTT in ms."""
    return rtt_samples(model, rng, 1)[0]


def rtt_samples(model: RttModel, rng: np.random.Generator, n: int) -> list[float]:
    """Draw n RTTs in ms with one call to the generator.

    Each RTT is bit-identical to one scalar draw,
    base_ms + jitter_scale_ms * exp(sigma * rng.standard_normal()), taken n
    times in turn. The exponential is math.exp on each sample: np.exp
    differs from it in the last bit on a few percent of inputs.
    """
    if model.distribution is RttDistribution.NONE:
        return [model.base_ms] * n
    base, scale, sigma = model.base_ms, model.jitter_scale_ms, model.sigma
    return [base + scale * math.exp(sigma * z) for z in rng.standard_normal(n).tolist()]


def load_profile(path: str | Path) -> BandwidthProfile:
    """Read a bandwidth profile from a plain-text file.

    Format: one "<mbps> <dwell_s>" pair per line; blank lines and lines
    starting with '#' are ignored. All dwells must be equal because the
    schedule holds every level for the same duration.
    """
    levels: list[float] = []
    dwells: list[float] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<mbps> <dwell_s>', got {raw!r}")
        try:
            levels.append(float(parts[0]))
            dwells.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric entry in {raw!r}") from exc
    if not levels:
        raise ValueError(f"{path}: no bandwidth levels found")
    if any(d != dwells[0] for d in dwells):
        raise ValueError(f"{path}: all dwell values must be equal, got {dwells}")
    return BandwidthProfile(levels_mbps=tuple(levels), dwell_s=dwells[0])
