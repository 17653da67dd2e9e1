"""Bandwidth schedules and the RTT jitter model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xredge.network import (
    BandwidthProfile,
    RttModel,
    bandwidth_at,
    cycle_profile,
    last_rtt,
    last_rtts,
    level_index,
    rtt_samples,
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


@settings(max_examples=200, deadline=None)
@given(
    base_ms=st.floats(0.0, 1e300),
    # the largest sigma whose jitter mean, 0.0 * exp(sigma**2 / 2), is still finite
    sigma=st.floats(0.0, 37.6),
    n=st.integers(1, 50),
    seed=st.integers(0, 2**16),
)
def test_zero_jitter_scale_gives_the_base_on_every_draw(base_ms, sigma, n, seed):
    model = RttModel(base_ms=base_ms, jitter_scale_ms=0.0, sigma=sigma)
    assert model.jitter_mean_ms() == 0.0
    assert rtt_samples(model, np.random.default_rng(seed), n) == [base_ms] * n
    assert last_rtt(model, np.random.default_rng(seed), n) == base_ms


@pytest.mark.parametrize("model", [
    RttModel(base_ms=5.0, jitter_scale_ms=0.0),
    RttModel(),
    RttModel(sigma=1.6),
])
def test_rtt_samples_equal_one_draw_at_a_time(model):
    # a new environment draws its first RTT with n=1: the scalar lognormal formula, bit for bit
    batch = rtt_samples(model, np.random.default_rng(4), 50)
    rng = np.random.default_rng(4)
    assert [rtt_samples(model, rng, 1)[0] for _ in range(50)] == batch
    rng = np.random.default_rng(4)
    scalar = [model.base_ms + model.jitter_scale_ms * math.exp(model.sigma * rng.standard_normal())
              for _ in range(50)]
    assert scalar == batch


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("model", [
    RttModel(),
    # no base RTT to absorb a last-bit difference in the jitter's exponential
    RttModel(base_ms=0.0),
    RttModel(jitter_scale_ms=0.0),
])
def test_last_rtt_is_the_last_of_rtt_samples(model, n):
    # a local interval exponentiates only its last draw, but consumes all n
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert last_rtt(model, rng, n) == rtt_samples(model, ref, n)[-1]
        assert rng.bit_generator.state == ref.bit_generator.state
        # a run of intervals keeps each one's last draw, of a short last interval too
        for total in (n, 3 * n, 3 * n + 1, 3 * n + n // 2):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            samples = rtt_samples(model, ref, total)
            assert last_rtts(model, rng, n, total) == samples[n - 1::n] + samples[-1:] * (total % n > 0)
            assert rng.bit_generator.state == ref.bit_generator.state
        assert last_rtts(model, np.random.default_rng(seed), n, n) == [last_rtt(model, np.random.default_rng(seed), n)]


def test_lognormal_samples_bounded_below_by_base():
    model = RttModel()
    rng = np.random.default_rng(1)
    draws = rtt_samples(model, rng, 1000)
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
    # no jitter: nothing lies above a positive threshold, all of it above a negative one
    zero = RttModel(jitter_scale_ms=0.0)
    assert zero.jitter_excess_mean_ms(3.0) == 0.0
    assert zero.jitter_excess_mean_ms(-3.0) == 3.0


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
