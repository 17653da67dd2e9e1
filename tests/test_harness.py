"""Experiment harness: runs, metrics, artifacts, aggregation, sweeps."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xredge.actions import ExecutionMode, decode_action
from xredge.config import fold_sum, from_jsonable, to_jsonable
from xredge import environment
from xredge.environment import EnvConfig, XrEnvironment
from xredge.harness import (
    DECISION_COLUMNS,
    FRAME_COLUMNS,
    FRAME_CSV_CHUNK_ROWS,
    METRICS_SCHEMA_VERSION,
    MetricsRecord,
    ScenarioSpec,
    _capture_time_parts,
    _median,
    _percentile,
    aggregate_seeds,
    default_scenario,
    load_spec,
    per_bandwidth_compliance,
    replace_path,
    run_experiment,
    run_scenario,
    save_spec,
    sweep,
    write_frame_csv,
)
from xredge.network import BandwidthProfile, bandwidth_at, cycle_profile, stable_profile
from xredge.policies import ThresholdPolicy


def local_spec(horizon=1200.0, mbps=1000.0, seeds=(1,)):
    return default_scenario("local", "stable", horizon_s=horizon,
                            seeds=seeds, stable_mbps=mbps)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def test_local_run_metrics():
    res = run_experiment(local_spec(), seed=1)
    m = res.metrics
    assert m.schema_version == METRICS_SCHEMA_VERSION
    assert m.policy == "local"
    assert m.compliance_pct == 100.0
    # constant 20.8 W drains the 16.6 Wh pack in 957.69 s at 3x acceleration
    assert m.survived_s == pytest.approx(957.6923, abs=1e-3)
    assert m.avg_power_w == pytest.approx(20.8, rel=1e-6)
    assert m.compliance_per_watt == pytest.approx(100.0 / 20.8, rel=1e-6)
    assert m.projected_lifetime_min == pytest.approx(60 * 16.6 / (3 * 20.8), rel=1e-6)
    assert m.local_fraction_pct == 100.0
    assert m.offload_fraction_pct == 0.0
    assert m.action_histogram[4] == m.decisions
    assert sum(m.action_histogram) == m.decisions
    assert m.per_level_compliance_pct == {"1000": 100.0}
    assert m.soc_end_pct == 0.0
    assert m.frames_captured == m.frames_delivered + m.frames_dropped
    assert [len(res.decisions[c]) for c in DECISION_COLUMNS] == [m.decisions] * len(DECISION_COLUMNS)
    assert [res.frames[c].size for c in FRAME_COLUMNS] == [m.frames_delivered] * len(FRAME_COLUMNS)


def test_offload_starved_run():
    spec = default_scenario("offload", "stable", horizon_s=20.0,
                            seeds=(1,), stable_mbps=1.0)
    m = run_experiment(spec, seed=1).metrics
    assert m.compliance_pct < 2.0
    assert m.frames_captured - m.frames_delivered - m.frames_dropped == 20


def test_objective_is_survival_minus_lam_times_violation_sum():
    # offload meets the cycle's 10 and 1 Mbps levels, so violations accrue
    spec = replace_path(default_scenario("offload", "cycle", horizon_s=400.0, seeds=(1,)),
                        "env.reward.lam", 2)
    res = run_experiment(spec, seed=1)
    m = res.metrics
    assert m.violation_sum > 0.0
    assert m.violation_sum == fold_sum(res.decisions["v_mean"])
    assert m.objective == m.survived_s - 2.0 * m.violation_sum
    # a compliant run's objective is its survival time
    m = run_experiment(local_spec(horizon=30.0), seed=1).metrics
    assert (m.violation_sum, m.objective) == (0.0, m.survived_s)


def test_rerun_is_byte_identical(tmp_path):
    spec = local_spec(horizon=30.0)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(spec, seed=1, out_dir=a)
    run_experiment(spec, seed=1, out_dir=b)
    for name in ("metrics.json", "decisions.csv", "frames.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def reference_frame_csv(frames) -> bytes:
    """frames.csv as csv.writer writes the frame columns."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(FRAME_COLUMNS)
    writer.writerows(zip(
        frames["t_capture"].tolist(),
        frames["mtp_ms"].tolist(),
        frames["compliant"].astype(np.int8).tolist(),
        [ExecutionMode(m).name for m in frames["mode"].tolist()],
    ))
    return buf.getvalue().encode()


@pytest.mark.parametrize("policy, profile, horizon_s, mbps, case", [
    # mixed modes and verdicts, a partial last chunk
    ("threshold", "cycle", 300.0, None, "partial"),
    # 20 frames per second, so exactly two chunks
    ("local", "stable", 2 * FRAME_CSV_CHUNK_ROWS / 20, 1000.0, "two chunks"),
    # nothing gets through the uplink: the header alone
    ("offload", "stable", 3.0, 0.001, "empty"),
    # every frame of a full episode, capture times of up to four-digit seconds
    ("offload", "stable", 1200.0, 1000.0, "full"),
    # a 60 Hz frame: two capture times in three are off the millisecond grid
    ("threshold", "cycle", 300.0, None, "60 Hz"),
])
def test_frame_csv_is_csv_writer_bytes(tmp_path, policy, profile, horizon_s, mbps, case):
    spec = default_scenario(policy, profile, horizon_s=horizon_s, seeds=(1,), stable_mbps=mbps)
    if case == "60 Hz":
        spec = replace_path(spec, "env.power.tau_frame_ms", 1000 / 60)
    res = run_experiment(spec, seed=1, out_dir=tmp_path)
    n = res.metrics.frames_delivered
    if case == "full":
        assert n == 24000 and res.frames["t_capture"][-1] == 1199.95
    elif case == "60 Hz":
        off_grid = [tail == "" for tail in _capture_time_parts(res.frames["t_capture"])[1]]
        assert n > FRAME_CSV_CHUNK_ROWS and 0 < sum(off_grid) < n
    elif case == "partial":
        assert n > FRAME_CSV_CHUNK_ROWS and n % FRAME_CSV_CHUNK_ROWS
        assert set(res.frames["mode"].tolist()) == {0, 1}
        assert set(res.frames["compliant"].tolist()) == {False, True}
    else:
        assert n == {"two chunks": 2 * FRAME_CSV_CHUNK_ROWS, "empty": 0}[case]
    assert (tmp_path / "frames.csv").read_bytes() == reference_frame_csv(res.frames)


def test_frame_csv_formats_zeros_of_either_sign_apart(tmp_path):
    # a run of equal MTPs is formatted once; 0.0 == -0.0, but their bits and repr
    # differ. The first chunk holds runs; the second, mostly distinct values,
    # is formatted value by value
    runs = np.resize([0.0] * 3 + [-0.0] * 3 + [1.5] * 3 + [math.nan] * 3, FRAME_CSV_CHUNK_ROWS)
    distinct = np.random.default_rng(1).random(FRAME_CSV_CHUNK_ROWS) * 40.0
    distinct[::7] = -0.0
    mtp = np.concatenate([runs, distinct])
    frames = {"t_capture": np.arange(mtp.size) * 0.05, "mtp_ms": mtp, "compliant": mtp <= 30.0,
              "mode": np.zeros(mtp.size, np.int8)}
    write_frame_csv(tmp_path / "frames.csv", frames)
    assert (tmp_path / "frames.csv").read_bytes() == reference_frame_csv(frames)


def joined_capture_times(values) -> list[str]:
    heads, tails = _capture_time_parts(np.array(values, dtype=np.float64))
    return list(map("".join, zip(heads, tails)))


def ms_grid(ms: int) -> float:
    """The double nearest ms milliseconds, in seconds."""
    return ms / 1000


_GRID_MS = st.integers(0, 2**40 * 1000)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    # millisecond-grid values up to 2**40 s
    _GRID_MS.map(ms_grid),
    # their off-grid neighbours, one ulp away
    st.tuples(_GRID_MS, st.sampled_from([-math.inf, math.inf])).map(
        lambda p: float(np.nextafter(ms_grid(p[0]), p[1]))),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]),
    # at or above 2**40 s
    st.floats(min_value=2.0**40),
    st.floats(),
), min_size=1, max_size=40))
def test_capture_time_parts_join_to_repr(values):
    assert joined_capture_times(values) == list(map(repr, values))


def test_capture_time_parts_format_seconds_far_apart_in_one_chunk():
    # a chunk that spans 0 s and 1e11 s: one string per run of equal seconds,
    # not one per second between them
    values = [0.0, 1e11, 0.05, 1e11 + 0.05, 0.123]
    heads, tails = _capture_time_parts(np.array(values))
    assert heads == ["0", "100000000000", "0", "100000000000", "0"]
    assert tails == [".0", ".0", ".05", ".05", ".123"]
    assert joined_capture_times(values) == list(map(repr, values))


def reference_decision_csv(decisions) -> bytes:
    """decisions.csv as csv.writer writes the decision columns."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(DECISION_COLUMNS)
    writer.writerows(zip(*(decisions[c] for c in DECISION_COLUMNS)))
    return buf.getvalue().encode()


@pytest.mark.parametrize("policy, profile, horizon_s, mbps, case", [
    ("local", "stable", 30.0, 1000.0, "local"),
    # both modes, and congested intervals
    ("threshold", "cycle", 300.0, None, "threshold"),
    # nothing gets through the uplink: every interval's mean MTP is nan
    ("offload", "stable", 5.0, 0.001, "nan"),
    # the learner's epsilon, and an empty loss until its first train step
    ("rl", "cycle", 40.0, None, "rl"),
])
def test_decision_csv_is_csv_writer_bytes(tmp_path, policy, profile, horizon_s, mbps, case):
    spec = default_scenario(policy, profile, horizon_s=horizon_s, seeds=(1,), stable_mbps=mbps)
    res = run_experiment(spec, seed=1, out_dir=tmp_path)
    d = res.decisions
    if case == "threshold":
        assert set(d["mode"]) == {"LOCAL", "OFFLOAD"}
    elif case == "nan":
        assert all(math.isnan(m) for m in d["mtp_mean_ms"])
    elif case == "rl":
        assert all(type(e) is float for e in d["epsilon"])
        assert "" in d["loss"] and float in {type(x) for x in d["loss"]}
    else:
        assert set(d["epsilon"]) == set(d["loss"]) == {""}
    assert (tmp_path / "decisions.csv").read_bytes() == reference_decision_csv(d)


DECISION_HEADER = "t,action,quality,imu,mode,bandwidth_mbps,rtt_ms,mtp_mean_ms,v_mean,power_w,soc_pct,reward,epsilon,loss"


def test_zero_horizon_run_has_typed_empty_frame_columns(tmp_path):
    res = run_experiment(local_spec(horizon=0.0), seed=1, out_dir=tmp_path)
    assert res.metrics.decisions == 0
    assert list(res.frames) == FRAME_COLUMNS
    assert [(a.dtype, a.size) for a in res.frames.values()] == [
        (np.float64, 0), (np.float64, 0), (np.bool_, 0), (np.int8, 0)]
    assert (tmp_path / "frames.csv").read_bytes() == b"t_capture,mtp_ms,compliant,mode\r\n"
    assert (tmp_path / "decisions.csv").read_bytes() == DECISION_HEADER.encode() + b"\r\n"
    assert res.decisions == {c: [] for c in DECISION_COLUMNS}


def test_frame_modes_repeat_each_decisions_mode_over_its_frames(monkeypatch):
    # (action, frames delivered) of each decision, stepped or planned
    steps = []
    step, run_local = XrEnvironment.step, XrEnvironment.run_local

    def recording_step(env, action):
        out = step(env, action)
        steps.append((action, out.mtp_ms.size))
        return out

    def recording_run(env, action, until_s):
        # each interval delivers its n frames, but for a depleting last one
        run = run_local(env, action, until_s)
        n = env.actions.n_ticks
        steps.extend((action, min(n, run.mtp_ms.size - k * n)) for k in range(len(run.t)))
        return run

    monkeypatch.setattr(XrEnvironment, "step", recording_step)
    monkeypatch.setattr(XrEnvironment, "run_local", recording_run)
    res = run_experiment(default_scenario("threshold", "cycle", horizon_s=300.0), seed=1)
    assert [action for action, _ in steps] == res.decisions["action"]
    # both modes, and congested intervals that deliver other than 20 frames
    assert {action for action, _ in steps} == {4, 5}
    assert {n for _, n in steps} - {20}
    modes = res.frames["mode"].tolist()
    start = 0
    for action, n in steps:
        assert modes[start:start + n] == [decode_action(action).mode] * n
        start += n
    assert start == len(modes) == res.metrics.frames_delivered


def test_a_planned_run_the_policy_breaks_is_refused(monkeypatch):
    # threshold promises local action 4 to the end, then offloads once the bandwidth rises
    monkeypatch.setattr(ThresholdPolicy, "repeat_until", lambda self, env, action: math.inf)
    with pytest.raises(RuntimeError, match=r"^threshold did not repeat action 4 before t = inf s$"):
        run_experiment(default_scenario("threshold", "cycle", horizon_s=300.0), seed=1)


def test_metrics_file_excludes_timing(tmp_path):
    result = run_experiment(local_spec(horizon=10.0), seed=1, out_dir=tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert "latency_median_us" not in metrics
    assert set(timing) == {"latency_median_us", "latency_p95_us"}
    assert timing["latency_median_us"] >= 0.0
    assert timing == result.timing


def test_metrics_file_reads_back_as_the_run_record(tmp_path):
    result = run_experiment(default_scenario("threshold", "cycle", horizon_s=70.0), 1, tmp_path)
    record = from_jsonable(MetricsRecord, json.loads((tmp_path / "metrics.json").read_text()))
    assert record == result.metrics


def test_trace_csv_headers(tmp_path):
    run_experiment(local_spec(horizon=5.0), seed=1, out_dir=tmp_path)
    dec_header = (tmp_path / "decisions.csv").read_text().splitlines()[0]
    frm_header = (tmp_path / "frames.csv").read_text().splitlines()[0]
    assert dec_header.split(",") == DECISION_COLUMNS
    assert dec_header == DECISION_HEADER
    assert frm_header.split(",") == FRAME_COLUMNS


def test_learner_columns_hold_epsilon_and_loss_for_rl_only():
    spec = default_scenario("rl", "cycle", horizon_s=40.0, seeds=(1,))
    res = run_experiment(spec, seed=1)
    cfg = spec.dqn
    assert cfg.batch_size == 32
    # the learner trains once its buffer holds a batch, from the 32nd decision on
    loss = res.decisions["loss"]
    assert [type(x) for x in loss] == [str] * 31 + [float] * 9
    assert loss[:31] == [""] * 31
    # epsilon is read after the decision is counted
    assert res.decisions["epsilon"] == [
        max(cfg.eps_min, cfg.eps0 * cfg.eps_decay**(k + 1)) for k in range(40)]
    for policy in ("greedy", "local"):
        res = run_experiment(default_scenario(policy, "cycle", horizon_s=40.0, seeds=(1,)), seed=1)
        assert res.decisions["epsilon"] == res.decisions["loss"] == [""] * 40


def test_decision_rows_record_interval_start_bandwidth():
    spec = default_scenario("local", "cycle", horizon_s=65.0, seeds=(1,))
    res = run_experiment(spec, seed=1)
    assert res.decisions["bandwidth_mbps"][0] == 1000.0
    assert res.decisions["bandwidth_mbps"][60] == 500.0


def test_run_scenario_layout(tmp_path):
    spec = local_spec(horizon=5.0, seeds=(1, 2))
    results, agg = run_scenario(spec, out_dir=tmp_path)
    assert len(results) == 2
    root = tmp_path / spec.name
    for seed in (1, 2):
        for name in ("metrics.json", "decisions.csv", "frames.csv", "timing.json"):
            assert (root / f"seed_{seed}" / name).exists()
    saved = json.loads((root / "aggregate.json").read_text())
    assert saved == agg


# aggregate.json of two 120 s threshold/cycle seeds, generated when
# aggregate_seeds named its 15 metrics by hand: the list it now derives
# from MetricsRecord must write the same bytes
AGGREGATE_SHA256 = "9f265c327e809c77675b1e80bd6179d38f1b7f2abba881ece9ad20a6273e14ea"


def test_aggregate_file_bytes_are_pinned(tmp_path):
    spec = default_scenario("threshold", "cycle", horizon_s=120.0, seeds=(1, 2))
    results, agg = run_scenario(spec, out_dir=tmp_path)
    data = (tmp_path / spec.name / "aggregate.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == AGGREGATE_SHA256
    # every number of a run record is aggregated, but those that name the run
    record = results[0].metrics
    numbers = {f.name for f in dataclasses.fields(record)
               if type(getattr(record, f.name)) in (int, float)}
    aggregated = {name for name in numbers if isinstance(agg.get(name), dict)}
    assert numbers - aggregated == {"schema_version", "seed", "horizon_s"}


# ---------------------------------------------------------------------------
# metric helpers
# ---------------------------------------------------------------------------


def test_per_bandwidth_compliance_partition():
    t_capture = np.array([0.0, 59.9, 60.0, 125.0])
    compliant = np.array([True, False, True, True])
    pct, counts = per_bandwidth_compliance(t_capture, compliant, cycle_profile())
    assert pct == {"1000": 50.0, "500": 100.0, "100": 100.0}
    assert counts == {"1000": 2, "500": 1, "100": 1}
    assert sum(counts.values()) == t_capture.size


def reference_per_bandwidth_compliance(t_capture, compliant, profile):
    """The per-frame definition: one bandwidth_at and one :g label per frame."""
    totals, good = {}, {}
    for t, ok in zip(t_capture, compliant):
        level = f"{bandwidth_at(profile, t):g}"
        totals[level] = totals.get(level, 0) + 1
        good[level] = good.get(level, 0) + int(ok)
    return {k: 100.0 * good[k] / totals[k] for k in totals}, totals


@settings(max_examples=150, deadline=None)
@given(
    # 1000, 1000.0000001 and 999.99999999 all print as "1000" under :g
    levels=st.lists(st.sampled_from([1.0, 10.0, 100.0, 1000.0, 1000.0000001, 999.99999999]),
                    min_size=1, max_size=6),
    dwell=st.sampled_from([0.05, 0.3, 1.0, 60.0]),
    frames=st.lists(st.tuples(st.floats(min_value=0.0, max_value=2000.0), st.booleans()), max_size=60),
    on_edge=st.lists(st.tuples(st.integers(0, 500), st.booleans()), max_size=20),
)
def test_per_bandwidth_compliance_matches_the_per_frame_definition(levels, dwell, frames, on_edge):
    profile = BandwidthProfile(tuple(levels), dwell)
    rows = frames + [(k * dwell, ok) for k, ok in on_edge]
    t_capture = np.array([t for t, _ in rows], dtype=np.float64)
    compliant = np.array([ok for _, ok in rows], dtype=bool)
    expected = reference_per_bandwidth_compliance([t for t, _ in rows], [ok for _, ok in rows], profile)
    assert per_bandwidth_compliance(t_capture, compliant, profile) == expected


def make_record(seed, compliance, power, per_level=None):
    return MetricsRecord(
        schema_version=METRICS_SCHEMA_VERSION, scenario="s", policy="p",
        profile="stable", seed=seed, horizon_s=10.0, survived_s=10.0,
        decisions=10, compliance_pct=compliance, avg_power_w=power,
        projected_lifetime_min=1.0, local_fraction_pct=100.0,
        offload_fraction_pct=0.0, compliance_per_watt=compliance / power,
        objective=10.0, violation_sum=0.0, frames_captured=200,
        frames_delivered=200, frames_dropped=0, energy_j=power * 10,
        soc_end_pct=99.0, per_level_compliance_pct=per_level or {"1000": compliance},
        per_level_frames={"1000": 200}, action_histogram=[0] * 18,
    )


def test_aggregate_seeds_statistics():
    records = [
        make_record(1, 90.0, 10.0),
        make_record(2, 95.0, 12.0),
        make_record(3, 99.0, 11.0),
    ]
    agg = aggregate_seeds(records)
    assert agg["seeds"] == [1, 2, 3]
    assert agg["compliance_pct"] == {"median": 95.0, "min": 90.0, "max": 99.0}
    assert agg["avg_power_w"]["median"] == 11.0
    assert agg["per_level_compliance_pct"]["1000"] == 95.0
    with pytest.raises(ValueError):
        aggregate_seeds([])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True), st.integers(-2**40, 2**40)), min_size=1, max_size=12))
def test_median_and_p95_equal_numpys(values):
    # numpy warns where the two middle values overflow or are infinities of either sign
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.median(values))
    got = _median(values)
    assert got == want or (math.isnan(got) and math.isnan(want))
    finite = sorted(float(x) for x in values if math.isfinite(x) and abs(x) < 1e300)
    if finite:
        assert _percentile(finite, 95) == float(np.percentile(finite, 95))


def test_aggregate_handles_missing_levels():
    records = [
        make_record(1, 90.0, 10.0, per_level={"1000": 90.0, "10": 50.0}),
        make_record(2, 95.0, 10.0, per_level={"1000": 95.0}),
    ]
    agg = aggregate_seeds(records)
    assert agg["per_level_compliance_pct"]["10"] == 50.0


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


def test_replace_path_nested():
    spec = local_spec()
    swapped = replace_path(spec, "env.reward.lam", 2.0)
    assert swapped.env.reward.lam == 2.0
    assert spec.env.reward.lam == 1.0            # original untouched
    assert replace_path(spec, "dqn.gamma", 0.5).dqn.gamma == 0.5
    with pytest.raises((AttributeError, TypeError, ValueError)):
        replace_path(spec, "env.nope", 1.0)


def test_replace_path_coerces_to_field_type():
    from xredge.actions import ImuRate

    spec = local_spec()
    assert type(replace_path(spec, "env.reward.lam", 2).env.reward.lam) is float
    assert replace_path(spec, "dqn.batch_size", 16).dqn.batch_size == 16
    rho = replace_path(spec, "env.table.rho", {"low": 1, "medium": 1, "high": 2}).env.table.rho
    assert rho == {ImuRate.LOW: 1.0, ImuRate.MEDIUM: 1.0, ImuRate.HIGH: 2.0}
    with pytest.raises(ValueError, match="DqnConfig.batch_size: expected int"):
        replace_path(spec, "dqn.batch_size", 16.5)
    with pytest.raises(ValueError, match="DqnConfig.hidden: expected a list"):
        replace_path(spec, "dqn.hidden", 64)


def test_sweep_labels_and_values(tmp_path):
    spec = local_spec(horizon=5.0)
    rows = sweep(spec, "env.reward.lam", [0.5, 2.0], out_dir=tmp_path)
    assert len(rows) == 2
    assert [v for v, _ in rows] == [0.5, 2.0]
    names = [agg["scenario"] for _, agg in rows]
    assert names[0] != names[1]
    assert all(spec.name in n for n in names)


@pytest.mark.parametrize("param, values, raws", [
    ("env.tau_mtp_ms", [30, 30.0], "30 and 30.0"),
    ("env.reward.lam", [0.5, 2, 2.0], "2 and 2.0"),
    ("policy", ["local", "greedy", "local"], "'local' and 'local'"),
])
def test_sweep_refuses_values_of_one_scenario_before_any_run(tmp_path, param, values, raws):
    # the second run of a name overwrote the first's directory
    with pytest.raises(ValueError, match=f"sweep values {raws} are one scenario"):
        sweep(local_spec(horizon=5.0), param, values, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_spec_round_trip_stable_and_cycle(tmp_path):
    for spec in (local_spec(), default_scenario("rl", "cycle", seeds=(4, 5))):
        path = tmp_path / f"{spec.name}.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        assert loaded == spec
        assert from_jsonable(ScenarioSpec, to_jsonable(spec)) == spec


def test_default_scenario_names():
    assert default_scenario("rl", "cycle").name == "rl-cycle"
    assert default_scenario("local", "stable", stable_mbps=1000.0).name == "local-stable1000"
    assert default_scenario("rl", "cycle", name="custom").name == "custom"


@pytest.mark.parametrize("profile", ["cycle", "steps.json"])
def test_default_scenario_refuses_stable_mbps_for_another_profile(tmp_path, profile):
    # it used to be ignored, and the cycle ran
    path = profile if profile == "cycle" else str(tmp_path / profile)
    (tmp_path / "steps.json").write_text('{"levels_mbps": [1000, 10, 1], "dwell_s": 30}')
    with pytest.raises(ValueError, match=re.escape(f"stable_mbps is for the stable profile only, not {path!r}")):
        default_scenario("local", path, stable_mbps=5.0)


def test_default_scenario_horizon_and_seeds():
    spec = default_scenario("rl", "stable", horizon_s=600.0, seeds=(9,))
    assert spec.env.horizon_s == 600.0
    assert spec.seeds == (9,)
    assert spec.env.profile == stable_profile(1000.0)


def test_default_scenario_builds_one_action_table(monkeypatch):
    built = []

    class CountedTable(environment.ActionTable):
        def __init__(self, cfg):
            built.append(cfg)
            super().__init__(cfg)

    monkeypatch.setattr(environment, "ActionTable", CountedTable)
    spec = default_scenario("threshold", "stable", horizon_s=600.0, stable_mbps=25.0)
    assert len(built) == 1
    assert spec == ScenarioSpec(name="threshold-stable25", policy="threshold", env=dataclasses.replace(
        EnvConfig(), profile=stable_profile(25.0), horizon_s=600.0))
