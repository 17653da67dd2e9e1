"""Command-line entry points exercised in-process."""

import json

import pytest

from xredge.cli import _build_spec, build_parser, main
from xredge.environment import EnvConfig
from xredge.harness import ScenarioSpec, default_scenario


def test_run_writes_artifacts(tmp_path, capsys):
    rc = main([
        "run", "--policy", "local", "--profile", "stable", "--stable-mbps",
        "1000", "--horizon", "5", "--seeds", "1,2", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "local-stable1000" in out
    root = tmp_path / "local-stable1000"
    assert (root / "aggregate.json").exists()
    assert (root / "scenario.json").exists()
    assert (root / "seed_1" / "metrics.json").exists()
    assert (root / "seed_2" / "decisions.csv").exists()


def test_run_respects_out_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XREDGE_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--policy", "local", "--profile", "stable",
               "--horizon", "3", "--seeds", "1"])
    assert rc == 0
    assert (tmp_path / "envout" / "local-stable1000" / "aggregate.json").exists()


def test_run_accepts_scenario_file(tmp_path):
    from xredge.harness import save_spec

    spec = default_scenario("local", "stable", horizon_s=4.0, seeds=(7,),
                            name="filecase")
    path = tmp_path / "case.json"
    save_spec(spec, path)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "filecase" / "seed_7" / "metrics.json").exists()


def test_sweep_writes_summary(tmp_path):
    rc = main([
        "sweep", "--policy", "local", "--profile", "stable", "--horizon", "3",
        "--seeds", "1", "--param", "env.reward.lam", "--values", "0.5,2",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "sweep_env_reward_lam.json").read_text())
    assert [row["value"] for row in summary] == [0.5, 2.0]
    assert all(row["param"] == "env.reward.lam" for row in summary)
    assert all("compliance_pct" in row for row in summary)


def test_aggregate_and_report(tmp_path, capsys):
    main(["run", "--policy", "local", "--profile", "stable", "--horizon", "3",
          "--seeds", "1,2", "--out", str(tmp_path)])
    capsys.readouterr()

    rc = main(["aggregate", "--runs", str(tmp_path)])
    assert rc == 0
    agg = json.loads((tmp_path / "aggregate.json").read_text())
    assert agg["seeds"] == [1, 2]
    assert agg["compliance_pct"]["median"] == 100.0

    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "local-stable1000" in out
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("scenario,")
    assert csv_text.count("\n") == 3          # header + two seed rows


def test_aggregate_missing_dir_fails_cleanly(tmp_path, capsys):
    rc = main(["aggregate", "--runs", str(tmp_path / "absent")])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_omitted_flags_take_the_default_scenario():
    spec = _build_spec(build_parser().parse_args(["run"]))
    assert spec == default_scenario("rl", "cycle")
    assert spec.env.horizon_s == EnvConfig().horizon_s
    assert spec.seeds == ScenarioSpec().seeds
    stable = _build_spec(build_parser().parse_args(["run", "--profile", "stable"]))
    assert stable.env.profile.describe() == "stable(1000Mbps)"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_lists_policies():
    parser = build_parser()
    helptext = parser.format_help()
    assert "run" in helptext and "sweep" in helptext
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--policy", "bogus"])


def assert_clean_error(rc, capsys, *fragments):
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for fragment in fragments:
        assert fragment in lines[0]


def _bad_key(d):
    d["env"]["horzion_s"] = 5.0


def _str_for_int(d):
    d["env"]["queue_max_depth"] = "20"


def _bad_enum(d):
    d["env"]["rtt"]["distribution"] = "gaussian"


def _infinite_horizon_at_zero_power(d):
    # the battery never runs out, so only the horizon could end the run
    d["env"]["horizon_s"] = INF
    d["env"]["power"]["p_base_w"] = d["env"]["power"]["tdp_proc_w"] = 0


def _set(path, value):
    """An edit that sets the dotted `path` of a scenario's JSON form to `value`."""
    *parents, key = path.split(".")

    def edit(d):
        for p in parents:
            d = d[p]
        d[key] = value
    return edit


NAN, INF = float("nan"), float("inf")


# the model-constant cases ran before they were checked: the NaNs reported
# 100% compliance or wrote NaN power, a NaN dwell failed at the first step,
# and the zero p_max_w, infinite interval, overflowing jitter mean and
# infinite horizon escaped as tracebacks
@pytest.mark.parametrize("edit, fragment", [
    (_bad_key, "scenario.env: unknown field horzion_s"),
    (_str_for_int, "scenario.env.queue_max_depth: expected int"),
    (_bad_enum, "scenario.env.rtt.distribution: 'gaussian' is not one of"),
    (_set("env.profile.levels_mbps", [NAN]), "bandwidth levels must be positive and finite"),
    (_set("env.profile.dwell_s", NAN), "dwell must be positive and finite: nan"),
    (_set("env.rtt.base_ms", NAN), "base_ms must be finite and non-negative: nan"),
    (_set("env.rtt.sigma", INF), "sigma must be finite and non-negative: inf"),
    (_set("env.rtt.sigma", 1000), "jitter mean must be finite"),
    (_infinite_horizon_at_zero_power, "horizon must be non-negative and finite: inf"),
    (_set("env.capacity_wh", NAN), "capacity must be positive and finite: nan"),
    (_set("env.drain_factor", INF), "drain factor must be positive and finite: inf"),
    (_set("env.power.p_base_w", NAN), "p_base_w must be finite and non-negative: nan"),
    (_set("env.reward.p_max_w", 0), "p_max_w must be positive and finite: 0.0"),
    (_set("env.decision_interval_s", INF), "decision interval must be a positive integer multiple"),
    (_set("env.decision_interval_s", 1e308), "decision interval must be a positive integer multiple"),
])
def test_bad_scenario_file_fails_cleanly(tmp_path, capsys, edit, fragment):
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario("local", "stable", horizon_s=3.0, seeds=(1,)))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "o").exists()


def _zero_payload(d):
    d["env"]["frame"]["d_base_mbit"] = 0


def _negative_server_time(d):
    d["env"]["table"]["t_server_ms"] = -5


def _missing_rho_rate(d):
    del d["env"]["table"]["rho"]["low"]


@pytest.mark.parametrize("edit, fragment", [
    (_zero_payload, "frame payload must be positive and finite: 0"),
    (_negative_server_time, "t_server_ms must be finite and non-negative: -5"),
    (_missing_rho_rate, "rho needs a positive, finite multiplier per IMU rate"),
])
def test_bad_model_constant_fails_at_construction(tmp_path, capsys, edit, fragment):
    # without the checks, a zero payload failed at the first offloaded frame
    # and a negative server time ran and reported inflated compliance
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario("offload", "stable", horizon_s=3.0, seeds=(1,)))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "o").exists()


def test_nan_level_in_profile_file_fails_cleanly(tmp_path, capsys):
    profile = tmp_path / "steps.txt"
    profile.write_text("1000 60\nnan 60\n")
    rc = main(["run", "--policy", "local", "--profile", str(profile), "--horizon", "3",
               "--seeds", "1", "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, "bandwidth levels must be positive and finite")
    assert not (tmp_path / "o").exists()


def test_negative_horizon_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--policy", "local", "--horizon", "-5", "--out", str(tmp_path)])
    assert_clean_error(rc, capsys, "horizon")


@pytest.mark.parametrize("command", ["aggregate", "report"])
def test_metrics_with_extra_key_fails_cleanly(tmp_path, capsys, command):
    main(["run", "--policy", "local", "--profile", "stable", "--horizon", "3",
          "--seeds", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    path = tmp_path / "local-stable1000" / "seed_1" / "metrics.json"
    data = json.loads(path.read_text())
    data["extra"] = 1
    path.write_text(json.dumps(data))
    flag = "--runs" if command == "aggregate" else "--out"
    rc = main([command, flag, str(tmp_path)])
    assert_clean_error(rc, capsys, "unknown field extra")


def test_sweep_int_field(tmp_path):
    rc = main([
        "sweep", "--policy", "rl", "--profile", "stable", "--horizon", "40",
        "--seeds", "1", "--param", "dqn.batch_size", "--values", "16",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    (row,) = json.loads((tmp_path / "sweep_dqn_batch_size.json").read_text())
    assert row["value"] == 16 and type(row["value"]) is int
    assert (tmp_path / "rl-stable1000__dqn_batch_size_16" / "aggregate.json").exists()


def test_sweep_enum_field(tmp_path):
    rc = main([
        "sweep", "--policy", "local", "--profile", "stable", "--horizon", "3",
        "--seeds", "1", "--param", "env.rtt.distribution", "--values", "none",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    (row,) = json.loads((tmp_path / "sweep_env_rtt_distribution.json").read_text())
    assert row["value"] == "none"
