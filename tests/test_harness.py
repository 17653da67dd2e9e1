"""Experiment harness: runs, metrics, artifacts, aggregation, sweeps."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xredge.actions import ExecutionMode
from xredge.config import from_jsonable, to_jsonable
from xredge.harness import (
    DECISION_COLUMNS,
    FRAME_COLUMNS,
    FRAME_CSV_CHUNK_ROWS,
    METRICS_SCHEMA_VERSION,
    MetricsRecord,
    ScenarioSpec,
    aggregate_seeds,
    default_scenario,
    load_spec,
    mode_fraction_series,
    per_bandwidth_compliance,
    replace_path,
    run_experiment,
    run_scenario,
    save_spec,
    sweep,
)
from xredge.network import BandwidthProfile, bandwidth_at, cycle_profile, stable_profile


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
    ("threshold", "cycle", 300.0, 1000.0, "partial"),
    # 20 frames per second, so exactly two chunks
    ("local", "stable", 2 * FRAME_CSV_CHUNK_ROWS / 20, 1000.0, "two chunks"),
    # nothing gets through the uplink: the header alone
    ("offload", "stable", 3.0, 0.001, "empty"),
])
def test_frame_csv_is_csv_writer_bytes(tmp_path, policy, profile, horizon_s, mbps, case):
    spec = default_scenario(policy, profile, horizon_s=horizon_s, seeds=(1,), stable_mbps=mbps)
    res = run_experiment(spec, seed=1, out_dir=tmp_path)
    n = res.metrics.frames_delivered
    if case == "partial":
        assert n > FRAME_CSV_CHUNK_ROWS and n % FRAME_CSV_CHUNK_ROWS
        assert set(res.frames["mode"].tolist()) == {0, 1}
        assert set(res.frames["compliant"].tolist()) == {False, True}
    else:
        assert n == {"two chunks": 2 * FRAME_CSV_CHUNK_ROWS, "empty": 0}[case]
    assert (tmp_path / "frames.csv").read_bytes() == reference_frame_csv(res.frames)


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
    assert frm_header.split(",") == FRAME_COLUMNS


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


def test_mode_fraction_series_hand_values():
    series = mode_fraction_series(["LOCAL", "OFFLOAD", "LOCAL"], window=2)
    assert series.tolist() == [1.0, 0.5, 0.5]
    with pytest.raises(ValueError):
        mode_fraction_series(["LOCAL"], window=0)


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
    from xredge.network import RttDistribution

    spec = local_spec()
    assert type(replace_path(spec, "env.reward.lam", 2).env.reward.lam) is float
    assert replace_path(spec, "dqn.batch_size", 16).dqn.batch_size == 16
    none = replace_path(spec, "env.rtt.distribution", "none")
    assert none.env.rtt.distribution is RttDistribution.NONE
    with pytest.raises(ValueError, match="DqnConfig.batch_size: expected int"):
        replace_path(spec, "dqn.batch_size", 16.5)
    with pytest.raises(ValueError, match="DqnConfig.hidden: expected a list"):
        replace_path(spec, "dqn.hidden", 64)


def test_sweep_labels_and_values(tmp_path):
    spec = local_spec(horizon=5.0)
    rows = sweep(spec, "env.reward.lam", [0.5, 2.0], out_dir=tmp_path)
    assert len(rows) == 2
    assert [v for v, _ in rows] == [0.5, 2.0]
    assert [agg["swept_value"] for _, agg in rows] == [0.5, 2.0]
    assert all(agg["swept_param"] == "env.reward.lam" for _, agg in rows)
    names = [agg["scenario"] for _, agg in rows]
    assert names[0] != names[1]
    assert all(spec.name in n for n in names)


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


def test_default_scenario_horizon_and_seeds():
    spec = default_scenario("rl", "stable", horizon_s=600.0, seeds=(9,))
    assert spec.env.horizon_s == 600.0
    assert spec.seeds == (9,)
    assert spec.env.profile == stable_profile(1000.0)
