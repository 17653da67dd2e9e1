"""Bandwidth schedules and the RTT jitter model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xredge.network import (
    BandwidthProfile,
    RttDistribution,
    RttModel,
    bandwidth_at,
    cycle_profile,
    level_index,
    load_profile,
    rtt_sample,
    stable_profile,
)

# ---------------------------------------------------------------------------
# bandwidth schedule
# ---------------------------------------------------------------------------


def test_cycle_profile_shape():
    p = cycle_profile()
    assert p.levels_mbps == (1000.0, 500.0, 100.0, 10.0, 1.0)
    assert p.dwell_s == 60.0
    assert p.cycle_s == 300.0


@pytest.mark.parametrize(
    "t,expected",
    [
        (0.0, 1000.0),
        (30.0, 1000.0),
        (59.999, 1000.0),
        (60.0, 500.0),     # dwell boundary belongs to the next phase
        (70.0, 500.0),
        (120.0, 100.0),
        (180.0, 10.0),
        (240.0, 1.0),
        (250.0, 1.0),
        (299.999, 1.0),
        (300.0, 1000.0),   # wraps to a new cycle
        (310.0, 1000.0),
        (910.0, 1000.0),
    ],
)
def test_cycle_schedule_values(t, expected):
    assert bandwidth_at(cycle_profile(), t) == expected


@given(st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False))
def test_schedule_is_periodic(t):
    p = cycle_profile()
    assert bandwidth_at(p, t) == bandwidth_at(p, t + p.cycle_s)


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.floats(min_value=0.5, max_value=1e4), min_size=1, max_size=6, unique=True),
    dwell=st.floats(min_value=0.01, max_value=1000.0),
    times=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=30),
    multiples=st.lists(st.integers(0, 10_000), max_size=30),
)
def test_level_index_matches_bandwidth_at(levels, dwell, times, multiples):
    p = BandwidthProfile(tuple(levels), dwell)
    # exact multiples of the dwell and their neighbours sit on a phase boundary
    edges = [k * dwell for k in multiples]
    t = times + edges + [math.nextafter(x, math.inf) for x in edges] + [math.nextafter(x, 0.0) for x in edges]
    idx = level_index(p, np.array(t))
    assert idx.dtype == np.int64
    # the levels are distinct, so equal levels mean equal indices
    assert [p.levels_mbps[i] for i in idx.tolist()] == [bandwidth_at(p, x) for x in t]


def test_stable_profile_is_constant():
    p = stable_profile(1000.0)
    for t in (0.0, 59.0, 61.0, 12345.6):
        assert bandwidth_at(p, t) == 1000.0
    assert stable_profile(10).levels_mbps == (10.0,)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        bandwidth_at(cycle_profile(), -0.1)


def test_profile_rejects_scalar_levels():
    # a dotted-path sweep can hand a float where the tuple belongs; that must
    # surface as a clean ValueError, not an iteration crash
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=10.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=())
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=(100.0, 0.0))
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=(100.0,), dwell_s=0.0)
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=(100.0, math.nan))
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=(math.inf,))
    with pytest.raises(ValueError):
        BandwidthProfile(levels_mbps=(100.0,), dwell_s=math.nan)


def test_describe():
    assert stable_profile(1000).describe() == "stable(1000Mbps)"
    assert "dwell=60s" in cycle_profile().describe()


# ---------------------------------------------------------------------------
# RTT model
# ---------------------------------------------------------------------------


def test_rtt_none_is_deterministic():
    model = RttModel(base_ms=5.0, distribution=RttDistribution.NONE)
    rng = np.random.default_rng(0)
    assert all(rtt_sample(model, rng) == 5.0 for _ in range(10))
    assert model.jitter_mean_ms() == 0.0


def test_lognormal_samples_bounded_below_by_base():
    model = RttModel()
    rng = np.random.default_rng(1)
    draws = [rtt_sample(model, rng) for _ in range(1000)]
    assert min(draws) > model.base_ms


def test_lognormal_mean_matches_analytic():
    # moderate tail for a reliable Monte Carlo comparison
    model = RttModel(base_ms=5.0, jitter_scale_ms=2.0, sigma=1.0)
    analytic = 2.0 * math.exp(0.5)  # scale * e^(sigma^2/2) = 3.29744...
    assert model.jitter_mean_ms() == pytest.approx(analytic)
    rng = np.random.default_rng(7)
    jitters = model.jitter_scale_ms * np.exp(model.sigma * rng.standard_normal(100_000))
    assert np.mean(jitters) == pytest.approx(analytic, rel=0.05)


def test_jitter_excess_closed_form_vs_monte_carlo():
    model = RttModel(base_ms=5.0, jitter_scale_ms=2.0, sigma=1.0)
    rng = np.random.default_rng(11)
    jitters = model.jitter_scale_ms * np.exp(model.sigma * rng.standard_normal(200_000))
    for threshold in (0.5, 1.0, 2.0, 5.0):
        mc = np.mean(np.maximum(jitters - threshold, 0.0))
        assert model.jitter_excess_mean_ms(threshold) == pytest.approx(mc, rel=0.05)


def test_jitter_excess_edge_cases():
    model = RttModel(jitter_scale_ms=2.0, sigma=1.0)
    # non-positive threshold: the whole jitter mass is above it
    assert model.jitter_excess_mean_ms(0.0) == pytest.approx(model.jitter_mean_ms())
    assert model.jitter_excess_mean_ms(-1.0) == pytest.approx(model.jitter_mean_ms() + 1.0)
    none = RttModel(distribution=RttDistribution.NONE)
    assert none.jitter_excess_mean_ms(3.0) == 0.0
    assert none.jitter_excess_mean_ms(-3.0) == 3.0


@pytest.mark.parametrize("bad", [
    {"base_ms": -1.0}, {"base_ms": math.nan}, {"jitter_scale_ms": math.inf},
    {"sigma": -0.5}, {"sigma": math.nan}, {"base_ms": np.float64(math.nan)},
    {"base_ms": np.int64(-1)},
    # a jitter mean that overflows (exp of 500000) or is infinite
    {"sigma": 1000.0}, {"jitter_scale_ms": 1e308, "sigma": 2.0},
])
def test_rtt_validation(bad):
    with pytest.raises(ValueError):
        RttModel(**bad)


# ---------------------------------------------------------------------------
# profile files
# ---------------------------------------------------------------------------


def test_load_profile(tmp_path):
    f = tmp_path / "steps.txt"
    f.write_text("# comment line\n1000 30\n\n10 30\n1 30\n")
    p = load_profile(f)
    assert p.levels_mbps == (1000.0, 10.0, 1.0)
    assert p.dwell_s == 30.0


@pytest.mark.parametrize(
    "content",
    [
        "1000 60 extra\n",       # wrong token count
        "fast 60\n",             # non-numeric
        "1000 60\n10 30\n",      # unequal dwells
        "# only comments\n",     # no levels at all
        "nan 60\n",              # parses as a float, but is no bandwidth
    ],
)
def test_load_profile_rejects_malformed(tmp_path, content):
    f = tmp_path / "bad.txt"
    f.write_text(content)
    with pytest.raises(ValueError):
        load_profile(f)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.6])
@pytest.mark.parametrize("threshold", [1e-3, 0.2, 1.0, 5.0, 10.0, 25.0])
def test_jitter_excess_matches_scipy_lognorm_deep_in_the_tail(sigma, threshold):
    # E[(X - t)+] = E[X] P(Y > t) - t P(X > t), with Y the size-biased
    # lognormal (log-scale shifted by sigma^2); scipy's survival functions
    # keep full relative precision where 1 - cdf would cancel to zero
    lognorm = pytest.importorskip("scipy.stats").lognorm
    model = RttModel(sigma=sigma)
    s = model.jitter_scale_ms
    expected = (
        model.jitter_mean_ms() * lognorm.sf(threshold, sigma, scale=s * math.exp(sigma**2))
        - threshold * lognorm.sf(threshold, sigma, scale=s)
    )
    assert expected > 0.0
    assert model.jitter_excess_mean_ms(threshold) == pytest.approx(expected, rel=1e-9)


def test_jitter_excess_stays_positive_where_the_cdf_saturates():
    # 1 + erf(x) loses every digit below x of about -6; at sigma 0.5 a 10 ms
    # slack sits near -10 standard deviations, where the excess is 1.9e-24
    model = RttModel(sigma=0.5)
    assert model.jitter_excess_mean_ms(10.0) == pytest.approx(1.8818e-24, rel=1e-4)
