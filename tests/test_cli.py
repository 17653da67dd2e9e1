"""Command-line entry points, exercised in-process and, where the exit code
and stderr of the interpreter matter, as `python -m xredge.cli`."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import xredge
from xredge.cli import _build_spec, build_parser, main
from xredge.config import field_types
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


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flags, named", [
    (["--policy", "rl"], "--policy"), (["--profile", "cycle"], "--profile"),
    (["--stable-mbps", "5"], "--stable-mbps"), (["--horizon", "7"], "--horizon"),
    (["--seeds", "1"], "--seeds"), (["--name", "x"], "--name"),
    # named in the order of the help text
    (["--horizon", "7", "--policy", "rl"], "--policy, --horizon"),
])
def test_scenario_file_with_another_scenario_flag_fails_before_any_run(tmp_path, capsys, command, flags, named):
    # the flags used to be dropped: the file's local scenario ran for 2 s
    (tmp_path / "sc.json").write_text('{"policy": "local", "seeds": [1], "env": {"horizon_s": 2}}')
    sweep = ["--param", "env.reward.lam", "--values", "1"] if command == "sweep" else []
    rc = main([command, "--scenario", str(tmp_path / "sc.json"), *flags, *sweep, "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, f"--scenario cannot be combined with {named}")
    assert not (tmp_path / "o").exists()


def test_a_run_does_not_import_numpy_ma(tmp_path):
    # np.median and np.percentile import numpy.ma, 10-17 ms and 0.5 MB per process
    code = ("import sys; from xredge.cli import main; "
            f"main(['run', '--policy', 'threshold', '--horizon', '5', '--seeds', '1,2', '--out', {str(tmp_path)!r}]); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(xredge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.stdout.splitlines()[-1] == "False"


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


REPORT_TABLE = """\
scenario                     policy     seed  compl%  power_W     cpw  life_min  local% survived_s
--------------------------------------------------------------------------------------------------
local-stable1000             local         1  100.00    20.80    4.81     15.96   100.0        3.0
local-stable1000             local         2  100.00    20.80    4.81     15.96   100.0        3.0
offload-stable1000           offload       1   83.33     7.50   11.11     44.27     0.0        3.0
offload-stable1000           offload       2   68.33     7.50    9.11     44.27     0.0        3.0
"""
REPORT_CSV = (
    "scenario,policy,seed,compliance_pct,avg_power_w,compliance_per_watt,"
    "projected_lifetime_min,local_fraction_pct,survived_s\r\n"
    "local-stable1000,local,1,100.0,20.799999999999986,4.807692307692311,15.96153846153847,100.0,3.0\r\n"
    "local-stable1000,local,2,100.0,20.799999999999986,4.807692307692311,15.96153846153847,100.0,3.0\r\n"
    "offload-stable1000,offload,1,83.33333333333333,7.5,11.11111111111111,44.26666666666667,0.0,3.0\r\n"
    "offload-stable1000,offload,2,68.33333333333333,7.5,9.11111111111111,44.26666666666667,0.0,3.0\r\n"
)


def test_report_table_and_csv_bytes(tmp_path, capsys):
    for policy in ("local", "offload"):
        assert main(["run", "--policy", policy, "--profile", "stable", "--horizon", "3",
                     "--seeds", "1,2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path)]) == 0
    report_path = tmp_path / "report.csv"
    assert capsys.readouterr().out == REPORT_TABLE + f"wrote {report_path}\n"
    assert report_path.read_bytes() == REPORT_CSV.encode()


@pytest.mark.parametrize("runs, fragment", [
    ([["--policy", "local"], ["--policy", "offload"]],
     "cannot aggregate runs of different scenarios: scenario ['local-stable1000', 'offload-stable1000']"),
    ([["--policy", "local", "--name", "x"], ["--policy", "offload", "--name", "x"]],
     "cannot aggregate runs of different scenarios: policy ['local', 'offload']"),
    ([["--policy", "local", "--name", "x"], ["--policy", "local", "--name", "x", "--stable-mbps", "500"]],
     "cannot aggregate runs of different scenarios: profile ['stable(1000Mbps)', 'stable(500Mbps)']"),
    ([["--policy", "local"], ["--policy", "local"]], "cannot aggregate a seed twice: seeds [1, 1]"),
], ids=["two-scenarios", "two-policies", "two-profiles", "seed-twice"])
def test_aggregate_of_mixed_runs_fails_cleanly(tmp_path, capsys, runs, fragment):
    # each run in its own directory under the one that is aggregated
    for i, flags in enumerate(runs):
        rc = main(["run", *flags, "--profile", "stable", "--horizon", "3", "--seeds", "1",
                   "--out", str(tmp_path / str(i))])
        assert rc == 0
    capsys.readouterr()
    rc = main(["aggregate", "--runs", str(tmp_path)])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "aggregate.json").exists()


def test_aggregate_missing_dir_fails_cleanly(tmp_path, capsys):
    rc = main(["aggregate", "--runs", str(tmp_path / "absent")])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_aggregate_of_a_dir_without_runs_fails_cleanly(tmp_path, capsys):
    rc = main(["aggregate", "--runs", str(tmp_path)])
    assert_clean_error(rc, capsys, f"no metrics.json files under {tmp_path}")
    assert not (tmp_path / "aggregate.json").exists()


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


def test_greedy_noqueue_is_not_a_policy(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "greedy-noqueue"])
    assert exc.value.code == 2
    assert "invalid choice: 'greedy-noqueue'" in capsys.readouterr().err


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
    d["env"]["table"]["rho"]["turbo"] = d["env"]["table"]["rho"].pop("high")


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


def set_edge(data, path, value):
    """Set the dotted `path` of scenario JSON `data` to `value`: the first
    element of a list, the first entry of an object."""
    *parents, key = path.split(".")
    for p in parents:
        data = data[p]
    if isinstance(data[key], list):
        data[key][0] = value
    elif isinstance(data[key], dict):
        data[key][next(iter(data[key]))] = value
    else:
        data[key] = value


NAN, INF = float("nan"), float("inf")


# the model-constant cases ran before they were checked: the NaNs reported
# 100% compliance or wrote NaN power, a NaN dwell failed at the first step,
# and the zero p_max_w, infinite interval, overflowing jitter mean and
# infinite horizon escaped as tracebacks; of the learner's, a negative or
# NaN lr ran and a zero hidden width escaped as an OverflowError, as did a
# queue depth beyond a C ssize_t; a replay buffer or a hidden width of
# 2**63 failed with numpy's line, which names no field, and a 10M-wide
# hidden layer built a 1.9 GB network; a key that names no setting, such as
# the learner's shape or a removed alias, is unknown
@pytest.mark.parametrize("edit, fragment", [
    (_bad_key, "scenario.env: unknown field horzion_s"),
    (_str_for_int, "scenario.env.queue_max_depth: expected int"),
    (_set("env.queue_max_depth", 2**63), f"EnvConfig.queue_max_depth must be within [1, 1e18): {2**63}"),
    (_set("env.queue_max_depth", 10**30), f"EnvConfig.queue_max_depth must be within [1, 1e18): {10**30}"),
    (_bad_enum, "scenario.env.table.rho.turbo: 'turbo' is not one of"),
    (_set("env.profile.levels_mbps", [NAN]), "BandwidthProfile.levels_mbps must be within (0, inf): (nan,)"),
    (_set("env.profile.dwell_s", NAN), "BandwidthProfile.dwell_s must be within (0, inf): nan"),
    (_set("env.profile.dwell_s", 1e-308), "the horizon spans too many dwells: dwell 1e-308 s"),
    (_set("env.rtt.base_ms", NAN), "RttModel.base_ms must be within [0, inf): nan"),
    (_set("env.rtt.sigma", INF), "RttModel.sigma must be within [0, inf): inf"),
    (_set("env.rtt.sigma", 1000), "jitter mean must be finite"),
    (_infinite_horizon_at_zero_power, "EnvConfig.horizon_s must be within [0, inf): inf"),
    (_set("env.capacity_wh", NAN), "EnvConfig.capacity_wh must be within (0, inf): nan"),
    (_set("env.drain_factor", INF), "EnvConfig.drain_factor must be within (0, inf): inf"),
    (_set("env.power.p_base_w", NAN), "PowerParams.p_base_w must be within [0, inf): nan"),
    (_set("env.reward.p_max_w", 0), "RewardParams.p_max_w must be within (0, inf): 0.0"),
    (_set("env.decision_interval_s", INF), "EnvConfig.decision_interval_s must be within (0, inf): inf"),
    (_set("env.decision_interval_s", 1e308), "decision interval must be a positive integer multiple"),
    (_set("dqn.n_actions", 18), "scenario.dqn: unknown field n_actions"),
    (_set("dqn.obs_dim", 5), "scenario.dqn: unknown field obs_dim"),
    (_set("env.rtt.distribution", "none"), "scenario.env.rtt: unknown field distribution"),
    (_set("env.power.w_proc", 1.0), "scenario.env.power: unknown field w_proc"),
    (_set("env.rtt_max_ms", 50.0), "scenario.env: unknown field rtt_max_ms"),
    (_set("env.mtp_max_ms", 100.0), "scenario.env: unknown field mtp_max_ms"),
    (_set("dqn.train_per_decision", 1), "scenario.dqn: unknown field train_per_decision"),
    (_set("dqn.hidden", [0]), "DqnConfig.hidden must be within [1, inf): (0,)"),
    (_set("dqn.hidden", [2**63]), f"DqnConfig.hidden makes a Q-network of {24 * 2**63 + 18} parameters"),
    (_set("dqn.hidden", [10**7]), "DqnConfig.hidden makes a Q-network of 240000018 parameters, "
                                  "more than 10000000: (10000000,)"),
    (_set("dqn.hidden", [200_000_000, 200_000_000]), "DqnConfig.hidden makes a Q-network of 40000005000000018 parameters"),
    (_set("dqn.buffer_capacity", 2**63), f"DqnConfig.buffer_capacity must be within [1, 1e7): {2**63}"),
    (_set("dqn.buffer_capacity", 10**16), f"DqnConfig.buffer_capacity must be within [1, 1e7): {10**16}"),
    (_set("dqn.lr", -1), "DqnConfig.lr must be within (0, inf): -1.0"),
    (_set("dqn.lr", NAN), "DqnConfig.lr must be within (0, inf): nan"),
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
    (_zero_payload, "FrameSizeModel.d_base_mbit must be within (0, inf): 0.0"),
    (_negative_server_time, "ProcTimeTable.t_server_ms must be within [0, inf): -5.0"),
    (_missing_rho_rate, "rho needs a multiplier for each IMU rate"),
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


# within their declared ranges, but too large (or, for p_max_w and the frame
# period, too small) for the run path: each overflowed inside the run, to a
# traceback, an error naming no field, or an exit 0 with metrics of 0.0
@pytest.mark.parametrize("path, value, fragment", [
    ("env.power.tau_frame_ms", 5e-324, "decision interval must be a positive integer multiple"),
    ("env.table.t0_local_ms", 1.7e308, "derived mean MTP over an interval (ms) of action 0 must be finite: inf"),
    ("env.table.overhead_ms", 1.7e308, "derived mean MTP over an interval (ms) of action 0 must be finite: inf"),
    ("env.table.t_server_ms", 1.7e308, "derived mean MTP over an interval (ms) of action 1 must be finite: inf"),
    ("env.table.t_decode_ms", 1.7e308, "derived mean MTP over an interval (ms) of action 1 must be finite: inf"),
    ("env.rtt.base_ms", 1.7e308, "derived mean MTP over an interval (ms) of action 1 must be finite: inf"),
    ("env.table.rho", 1.7e308, "derived client power (W) of action 0 must be finite: inf"),
    ("env.reward.alpha_power", 1.7e308, "derived reward power term of action 0 must be finite: -inf"),
    ("env.reward.alpha_power", -1.7e308, "derived reward power term of action 0 must be finite: inf"),
    ("env.reward.p_max_w", 5e-324, "derived reward power term of action 0 must be finite: -inf"),
])
def test_model_constant_too_large_for_the_run_fails_at_construction(tmp_path, capsys, path, value, fragment):
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario("local", "cycle", horizon_s=3.0, seeds=(1,)))
    set_edge(data, path, value)
    (tmp_path / "bad.json").write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(tmp_path / "bad.json"), "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "o").exists()
    if path.endswith("rho"):
        return   # a sweep value is one JSON scalar or list, not a rho map
    # a sweep builds every value's scenario first, so it writes nothing either
    rc = main(["sweep", "--policy", "local", "--horizon", "3", "--seeds", "1", "--param", path,
               "--values", f"1.0,{value!r}", "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "o").exists()


def test_unallocatable_learner_size_fails_cleanly(tmp_path, capsys, monkeypatch):
    # with the network's bound raised past it, this width asks for more than
    # 2**57 bytes in one array, more than a 64-bit address space maps, so the
    # allocation fails at the request and touches nothing
    from xredge import dqn
    from xredge.config import to_jsonable

    monkeypatch.setattr(dqn, "MAX_PARAMETERS", 10**20)
    data = to_jsonable(default_scenario("rl", "cycle", horizon_s=3.0, seeds=(1,)))
    _set("dqn.hidden", [200_000_000, 200_000_000])(data)
    (tmp_path / "big.json").write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(tmp_path / "big.json"), "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, "error: out of memory: ", "Unable to allocate 284. PiB")
    assert not (tmp_path / "o").exists()


def test_zero_horizon_with_a_huge_interval_fails_cleanly(tmp_path, capsys):
    # a zero horizon never steps, but the action table holds one interval's frames
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario("local", "stable", horizon_s=0.0, seeds=(1,)))
    data["env"]["decision_interval_s"] = 1e8
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, "at most 100000 of them: 100000000.0 s vs 0.05 s")
    assert not (tmp_path / "o").exists()


# edge values of the fields that set how many frames a run and an interval hold
HORIZONS = [0, 1e-308, 0.05, 1, 3, INF, NAN, -1]
SPANS = [0, 1e-308, 0.05, 1, 1e6, 1e308, INF, NAN, -1]


def assert_runs_or_fails_cleanly(data):
    """`xredge run` of scenario JSON `data` either finishes with its metrics
    or stops at construction with one error line and writes no metrics."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "o"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--scenario", str(path), "--out", str(out)])
        metrics = list(out.rglob("metrics.json"))
        if rc == 0:
            assert len(metrics) == 1
        else:
            lines = err.getvalue().splitlines()
            assert rc == 1 and not metrics
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


@settings(max_examples=150, deadline=None)
@given(horizon=st.sampled_from(HORIZONS), interval=st.sampled_from(SPANS),
       dwell=st.sampled_from(SPANS))
def test_time_fields_either_run_or_fail_cleanly(horizon, interval, dwell):
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario("threshold", "cycle", seeds=(1,)))
    data["env"]["horizon_s"] = horizon
    data["env"]["decision_interval_s"] = interval
    data["env"]["profile"]["dwell_s"] = dwell
    assert_runs_or_fails_cleanly(data)


def _ranged_fields(cls, prefix=""):
    """(dotted path, interval, declared type) of each `ranged` field reachable
    from dataclass cls through its field types."""
    types = field_types(cls)
    for f in dataclasses.fields(cls):
        if "range" in f.metadata:
            yield prefix + f.name, f.metadata["range"], types[f.name]
        elif dataclasses.is_dataclass(types.get(f.name)):
            yield from _ranged_fields(types[f.name], f"{prefix}{f.name}.")


# the largest integer drawn: a huge size (hidden width, buffer capacity,
# trainings per decision) is a request for memory or time, not a bad value
INT_CAP = 1000


def _edge_values(interval, tp):
    """Each end of `interval`, the floats just outside and just inside it,
    1e-300, 1e300, NaN and +-inf; for an integer field also the integers next
    to each finite end and INT_CAP."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    values = [1e-300, 1e300, NAN, INF, -INF]
    for end, inward in ((lo, hi), (hi, lo)):
        values += [end, math.nextafter(end, inward), math.nextafter(end, -inward)]
        if int in (typing.get_args(tp) or (tp,)) and math.isfinite(end):
            values += [int(end) - 1, int(end), int(end) + 1, INT_CAP]
    return list(dict.fromkeys(values))


# one edit of a scenario file: a ranged field's dotted path and a value for it
RANGE_EDGES = [(path, v) for path, interval, tp in _ranged_fields(ScenarioSpec)
               for v in _edge_values(interval, tp)
               # a longer horizon is a request for a long run, not a bad value
               if not (path == "env.horizon_s" and v > 3.0)]


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["rl", "greedy", "offload", "threshold"]),
       edit=st.sampled_from(RANGE_EDGES))
def test_ranged_field_edges_either_run_or_fail_cleanly(policy, edit):
    # a value within its declared range may still be refused by a rule
    # between fields or a derived bound, but never past construction
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario(policy, "cycle", horizon_s=3.0, seeds=(1,)))
    set_edge(data, *edit)
    assert_runs_or_fails_cleanly(data)


def test_nan_level_in_profile_file_fails_cleanly(tmp_path, capsys):
    profile = tmp_path / "steps.json"
    profile.write_text('{"levels_mbps": [1000, NaN], "dwell_s": 60}')
    rc = main(["run", "--policy", "local", "--profile", str(profile), "--horizon", "3",
               "--seeds", "1", "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, "BandwidthProfile.levels_mbps must be within (0, inf): (1000.0, nan)")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, fragment", [
    ('{"levels_mbps": [NaN]}', "BandwidthProfile.levels_mbps must be within (0, inf): (nan,)"),
    ('{"levels_mbps": [Infinity]}', "BandwidthProfile.levels_mbps must be within (0, inf): (inf,)"),
    ('{"levels_mbps": [-Infinity]}', "BandwidthProfile.levels_mbps must be within (0, inf): (-inf,)"),
    ('{"levels_mbps": [1e400]}', "BandwidthProfile.levels_mbps must be within (0, inf): (inf,)"),
    ('{"levels_mbps": [0]}', "BandwidthProfile.levels_mbps must be within (0, inf): (0.0,)"),
    ('{"levels_mbps": [-1]}', "BandwidthProfile.levels_mbps must be within (0, inf): (-1.0,)"),
    ('{"levels_mbps": [5], "dwell_s": 0}', "BandwidthProfile.dwell_s must be within (0, inf): 0.0"),
    ('{"levels_mbps": [5], "dwell_s": NaN}', "BandwidthProfile.dwell_s must be within (0, inf): nan"),
    ('{"levels_mbps": [5], "dwell_s": Infinity}', "BandwidthProfile.dwell_s must be within (0, inf): inf"),
    ('{"levels_mbps": [5], "dwell_s": 1e-320}', "the horizon spans too many dwells: dwell 1e-320 s"),
    ("[]", "steps.json: expected an object, got []"),
    ('{"levels_mbps": []}', "profile needs at least one bandwidth level"),
    ('{"levels_mbps": [5], "dwel_s": 60}', "steps.json: unknown field dwel_s"),
    ('{"levels_mbps": ["fast"]}', "steps.json.levels_mbps[0]: expected float, got 'fast'"),
    # a profile in the text format of earlier versions
    ("# comment line\n1000 30\n10 30\n", "steps.json: Expecting value: line 1 column 1 (char 0)"),
    ("1000 30\n", "steps.json: Extra data: line 1 column 6 (char 5)"),
])
def test_edge_profile_file_fails_cleanly(tmp_path, capsys, text, fragment):
    profile = tmp_path / "steps.json"
    profile.write_text(text)
    rc = main(["run", "--policy", "offload", "--profile", str(profile), "--horizon", "3",
               "--seeds", "1", "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "o").exists()


# profile-file values, as JSON writes them: non-finite, overflowing, zero,
# negative, subnormal, ordinary and not a number
PROFILE_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "0", "-1", "5e-324", "1", "1000", '"fast"']
# each key of a profile object may be left out, and levels_mbps may be a list of
# zero to three values or one bare value; dwel_s is an unknown key
PROFILE_OBJECTS = st.fixed_dictionaries({}, optional={
    "levels_mbps": st.one_of(st.lists(st.sampled_from(PROFILE_TOKENS), max_size=3).map(
        lambda tokens: f"[{', '.join(tokens)}]"), st.sampled_from(PROFILE_TOKENS)),
    "dwell_s": st.sampled_from(PROFILE_TOKENS),
    "dwel_s": st.sampled_from(PROFILE_TOKENS),
}).map(lambda fields: "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["threshold", "offload"]), text=PROFILE_OBJECTS)
def test_profile_file_objects_either_run_or_fail_cleanly(policy, text):
    with tempfile.TemporaryDirectory() as tmp:
        profile, out = Path(tmp) / "steps.json", Path(tmp) / "o"
        profile.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--policy", policy, "--profile", str(profile), "--horizon", "3",
                       "--seeds", "1", "--out", str(out)])
        metrics = list(out.rglob("metrics.json"))
        if rc == 0:
            assert len(metrics) == 1
        else:
            err_lines = err.getvalue().splitlines()
            assert rc == 1 and not metrics
            assert len(err_lines) == 1 and err_lines[0].startswith("error: "), err_lines


@pytest.mark.parametrize("flags", [["--profile", "cycle"], ["--profile", "stable", "--stable-mbps", "20"]],
                         ids=["cycle", "stable20"])
def test_saved_profile_reruns_to_the_same_bytes(tmp_path, flags):
    # a run's scenario.json env.profile, as a profile file of its own
    argv = ["run", "--policy", "threshold", "--horizon", "70", "--seeds", "1", "--name", "x"]
    assert main([*argv, *flags, "--out", str(tmp_path / "a")]) == 0
    saved = json.loads((tmp_path / "a" / "x" / "scenario.json").read_text())
    (tmp_path / "profile.json").write_text(json.dumps(saved["env"]["profile"]))
    assert main([*argv, "--profile", str(tmp_path / "profile.json"), "--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.json", "decisions.csv", "frames.csv"):
        first, second = (tmp_path / side / "x" / "seed_1" / name for side in "ab")
        assert first.read_bytes() == second.read_bytes(), name


@pytest.mark.parametrize("profile", ["cycle", "steps.json"])
def test_stable_mbps_with_another_profile_fails_before_any_run(tmp_path, capsys, profile):
    # the flag used to be ignored, and the cycle ran
    (tmp_path / "steps.json").write_text('{"levels_mbps": [1000, 10, 1], "dwell_s": 30}')
    path = profile if profile == "cycle" else str(tmp_path / profile)
    rc = main(["run", "--policy", "local", "--profile", path, "--stable-mbps", "5", "--horizon", "3",
               "--seeds", "1", "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, f"stable_mbps is for the stable profile only, not {path!r}")
    assert not (tmp_path / "o").exists()


def _local_run(out):
    """A 3 s local run under `out`, and the path of its metrics.json."""
    main(["run", "--policy", "local", "--profile", "stable", "--horizon", "3",
          "--seeds", "1", "--out", str(out)])
    return out / "local-stable1000" / "seed_1" / "metrics.json"


@pytest.mark.parametrize("command, written", [("aggregate", "aggregate.json"), ("report", "report.csv")])
@pytest.mark.parametrize("edit, fragment", [
    (lambda text: "not json", ": Expecting value: line 1 column 1 (char 0)"),
    (lambda text: text.replace('"schema_version": 1', '"schema_version": 99'),
     ": schema_version must be 1: 99"),
], ids=["not-json", "schema-99"])
def test_hand_edited_metrics_file_fails_cleanly(tmp_path, capsys, command, written, edit, fragment):
    path = _local_run(tmp_path)
    capsys.readouterr()
    path.write_text(edit(path.read_text()))
    flag = "--runs" if command == "aggregate" else "--out"
    rc = main([command, flag, str(tmp_path)])
    # the error names the file
    assert_clean_error(rc, capsys, f"{path}{fragment}")
    assert not (tmp_path / written).exists()


@pytest.mark.parametrize("text, fragment", [
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    ("{'env': {}}", "Expecting property name enclosed in double quotes"),
])
def test_scenario_file_that_is_not_json_fails_cleanly(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, f"{path}: {fragment}")
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


def test_sweep_float_field_to_zero_jitter(tmp_path):
    # README's sweep without RTT jitter: the JSON int 0 sets a float field
    rc = main([
        "sweep", "--policy", "local", "--profile", "stable", "--horizon", "3",
        "--seeds", "1", "--param", "env.rtt.jitter_scale_ms", "--values", "0",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    (row,) = json.loads((tmp_path / "sweep_env_rtt_jitter_scale_ms.json").read_text())
    assert row["value"] == 0
    # the label shows the coerced float, and every RTT is the 5 ms base
    with open(tmp_path / "local-stable1000__env_rtt_jitter_scale_ms_0.0" / "seed_1" / "decisions.csv") as fh:
        assert {r["rtt_ms"] for r in csv.DictReader(fh)} == {"5.0"}


# a seed list wrote seed 1's artifacts and then failed (-2) or aggregated
# one run twice (1, 1)
@pytest.mark.parametrize("seeds, fragment", [
    ("1,-2", "ScenarioSpec.seeds must be within [0, inf): (1, -2)"),
    ("1,1", "seeds must be distinct: [1, 1]"),
    (",", "seeds must not be empty"),
    ("1,x", "seeds must be comma-separated integers: '1,x'"),
])
def test_bad_seeds_flag_fails_before_any_run(tmp_path, capsys, seeds, fragment):
    rc = main(["run", "--policy", "local", "--profile", "stable", "--horizon", "3",
               "--seeds", seeds, "--out", str(tmp_path)])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.rglob("metrics.json"))


def test_sweep_of_one_value_twice_fails_before_any_run(tmp_path, capsys):
    # 30 and 30.0 both name local-cycle__env_tau_mtp_ms_30.0, which the second run overwrote
    out = tmp_path / "runs"
    rc = main(["sweep", "--policy", "local", "--horizon", "5", "--seeds", "1",
               "--param", "env.tau_mtp_ms", "--values", "30,30.0", "--out", str(out)])
    assert_clean_error(rc, capsys, "sweep values 30 and 30.0 are one scenario, "
                                   "local-cycle__env_tau_mtp_ms_30.0")
    assert not out.exists()


def test_sweep_with_a_bad_value_fails_before_any_run(tmp_path, capsys):
    # the good first value used to run and write its artifacts first
    rc = main(["sweep", "--policy", "rl", "--profile", "stable", "--horizon", "3",
               "--seeds", "1", "--param", "dqn.lr", "--values", "0.001,-1",
               "--out", str(tmp_path)])
    assert_clean_error(rc, capsys, "DqnConfig.lr must be within (0, inf): -1.0")
    assert not list(tmp_path.rglob("metrics.json"))


@pytest.mark.parametrize("param, values, fragment", [
    ("env.tau_mtp_ms", ",", "no sweep values parsed from ','"),
    # a path that goes on past a float field, and an object field given a number
    ("env.tau_mtp_ms.x", "1", "float has no field 'x'"),
    ("env.table.rho", "1", "ProcTimeTable.rho: expected an object, got 1"),
])
def test_bad_sweep_flags_fail_before_any_run(tmp_path, capsys, param, values, fragment):
    rc = main(["sweep", "--policy", "local", "--horizon", "3", "--seeds", "1",
               "--param", param, "--values", values, "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "o").exists()


def test_sweep_to_an_unknown_policy_fails_before_any_run(tmp_path, capsys):
    # the known first value used to run and write its five files first
    rc = main(["sweep", "--policy", "threshold", "--horizon", "5", "--seeds", "1",
               "--param", "policy", "--values", "local,foo", "--out", str(tmp_path)])
    assert_clean_error(rc, capsys, "unknown policy kind: 'foo'")
    assert not list(tmp_path.iterdir())


# a policy name is exact: "RL" used to run rl under a second scenario name
@pytest.mark.parametrize("policy", ["foo", "RL"])
def test_unknown_policy_in_scenario_file_fails_before_any_run(tmp_path, capsys, policy):
    # a sweep that replaced the bad policy used to run the file's scenario
    from xredge.config import to_jsonable

    data = to_jsonable(default_scenario("threshold", "cycle", horizon_s=5.0, seeds=(1,)))
    data["policy"] = policy
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    for command in (["run"], ["sweep", "--param", "policy", "--values", "local"]):
        rc = main([*command, "--scenario", str(path), "--out", str(out)])
        assert_clean_error(rc, capsys, f"unknown policy kind: {policy!r}")
        assert not out.exists()


# a name is a directory under --out: these wrote seed_1/, aggregate.json and
# scenario.json into the parent of --out (..), or esc/ beside it (the sweep)
@pytest.mark.parametrize("command, name", [
    (["run", "--name", ".."], "'..'"),
    (["sweep", "--param", "name", "--values", '"a/../../esc"'], "'a/../../esc'"),
], ids=["run", "sweep"])
def test_scenario_name_that_leaves_out_fails_before_any_run(tmp_path, capsys, command, name):
    rc = main([*command, "--policy", "local", "--horizon", "3", "--seeds", "1",
               "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, f"scenario name must be one directory name: {name}")
    assert not list(tmp_path.iterdir())


# an empty --name ran under the default name, while a scenario file's "" failed
@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--param", "env.horizon_s", "--values", "3"],
], ids=["run", "sweep"])
def test_empty_scenario_name_fails_before_any_run(tmp_path, capsys, command):
    rc = main([*command, "--name", "", "--policy", "local", "--horizon", "3", "--seeds", "1",
               "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys, "scenario name must be one directory name: ''")
    assert not list(tmp_path.iterdir())


def test_sweep_values_starting_with_a_dash(tmp_path, capsys):
    # argparse reads `--values -Infinity` as a flag; the `=` form reaches the sweep
    argv = ["sweep", "--policy", "local", "--horizon", "3", "--seeds", "1",
            "--param", "env.horizon_s", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--values", "-Infinity"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc = main([*argv, "--values=-Infinity"])
    assert_clean_error(rc, capsys, "EnvConfig.horizon_s must be within [0, inf): -inf")
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    # the help text says so (whitespace dropped: the wrap may break the line)
    assert "--values=-Infinity" in "".join(capsys.readouterr().out.split())


def _python_m_cli(*argv, cwd):
    """Run `python -m xredge.cli` on argv in a child interpreter."""
    src = str(Path(xredge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "xredge.cli", *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=120)


# a sweep to an unknown policy, and a zero horizon with a 1e8 s interval (a
# request for 2,000,000-frame arrays), each through the interpreter's exit
@pytest.mark.parametrize("argv", [
    ["sweep", "--policy", "threshold", "--horizon", "5", "--seeds", "1",
     "--param", "policy", "--values", "local,foo"],
    ["run", "--scenario", "bad.json"],
], ids=["unknown-policy-sweep", "zero-horizon-huge-interval"])
def test_console_failure_exits_1_with_one_error_line(tmp_path, argv):
    (tmp_path / "bad.json").write_text(json.dumps({"env": {"horizon_s": 0, "decision_interval_s": 1e8}}))
    proc = _python_m_cli(*argv, "--out", "o", cwd=tmp_path)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not ((tmp_path / "o").exists() and any(p.is_file() for p in (tmp_path / "o").rglob("*")))


# the misuse edge values, as `--values` spells them, and strings
EDGE_VALUES = ["NaN", "Infinity", "-Infinity", "0", "-1", "1e308", "1e-308", "1e6", "0.5"]
STRING_VALUES = ["foo", "local", "LOCAL", "rl", "x/y", "[]", "[0]", "[-1]", "[1]", "[8]", "[0.5]"]
SWEPT = ["policy", "name", "env.horizon_s", "env.tau_mtp_ms", "seeds", "dqn.hidden"]


@settings(max_examples=200, deadline=None)
@given(param=st.sampled_from(SWEPT),
       values=st.lists(st.sampled_from(EDGE_VALUES + STRING_VALUES), min_size=1, max_size=3))
def test_sweep_values_either_run_or_fail_cleanly(param, values):
    # a 1e6 s horizon is a request for a long run, not a bad value
    assume(not (param == "env.horizon_s" and "1e6" in values))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["sweep", "--policy", "threshold", "--horizon", "5", "--seeds", "1",
                       "--param", param, "--values=" + ",".join(values), "--out", str(out)])
        if rc == 0:
            summary = json.loads((out / f"sweep_{param.replace('.', '_')}.json").read_text())
            assert len(summary) == len(values)
        else:
            lines = err.getvalue().splitlines()
            assert rc == 1 and not out.exists()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
