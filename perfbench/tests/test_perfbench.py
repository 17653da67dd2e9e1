"""Checks of the benchmark itself: layer coverage of the traced run, counters
that repeat, the per-episode output checks and the restoring of patched code.

Episodes here are short (SHORT_S simulated seconds); the benchmark's own
episodes are 1200 s, but none of these properties depends on the horizon.
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SHORT_S = 300.0
SEED = 1


def untraced_round(wl, digests=None):
    envs = []
    with tempfile.TemporaryDirectory() as tmp, tracing.patched(tracing.Patcher()) as p:
        tracing.capture_envs(p, envs)
        return workloads.run_round(wl, SEED, digests or {}, envs, Path(tmp), SHORT_S)


@pytest.fixture(scope="module")
def traced():
    """Per workload: the layer metrics of two traced rounds at one seed."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        digests = {e.key: e.digest for e in untraced_round(wl)}
        runs = []
        for _ in range(2):
            episodes, tr = worker.traced_round(wl, SEED, digests, SHORT_S)
            # tracing must not change a single byte of the results
            assert [e.problems for e in episodes] == [[]] * len(episodes)
            runs.append(tracing.layer_metrics(tr))
        out[name] = runs
    return out


def test_every_per_layer_metric_is_emitted(traced):
    # trace.overhead_s is added by worker.trace from the untraced rounds
    expected = {n for n, *_ in spec.PER_LAYER} - {"trace.overhead_s"}
    for runs in traced.values():
        assert set(runs[0]) == expected


def test_count_metrics_repeat_exactly(traced):
    counts = [n for n, unit, _ in spec.PER_LAYER if unit == "count"]
    assert any(n.startswith("latency.frames_") for n in counts)
    for name, (first, second) in traced.items():
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}, name


def test_greedy_prices_all_18_actions_per_decision(traced):
    m = traced["greedy-cycle"][0]
    assert m["policies.greedy_select.calls"] == SHORT_S
    assert m["policies.predicted_epoch_violation.calls"] == 18 * m["policies.greedy_select.calls"]


def test_each_workload_reaches_its_layers(traced):
    rl, greedy, static = (traced[n][0] for n in ("rl-cycle", "greedy-cycle", "static-cli"))
    assert rl["dqn.train_step.calls"] > 0 and rl["dqn.sync_target.calls"] > 0
    assert greedy["dqn.train_step.calls"] == 0
    assert greedy["environment.step_offload.us_p50"] == 0.0  # greedy stays local
    assert static["latency.frames_dropped"] > 0 and static["latency.queue_depth_max"] == 20
    assert static["harness.write_run.bytes"] > 0 and static["cli.self_us_total"] > 0
    assert static["policies.greedy_select.calls"] == 0


def test_traced_round_restores_every_patched_attribute():
    import xredge

    owners = [m for name, m in sys.modules.items() if name.startswith("xredge.")]
    owners += [c for m in list(owners) for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("xredge")]
    before = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    worker.traced_round(workloads.WORKLOADS["static-cli"], SEED, {}, SHORT_S)
    worker.traced_round(workloads.WORKLOADS["rl-cycle"], SEED, {}, SHORT_S)
    after = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert xredge.XrEnvironment.step is before[(id(xredge.XrEnvironment), "step")]


def test_tampered_digest_fails_the_episode():
    wl = workloads.WORKLOADS["static-cli"]
    digests = {e.key: e.digest for e in untraced_round(wl)}
    assert worker.episode_summary(untraced_round(wl, digests))["failed"] == 0

    key = workloads.episode_key("offload", "cycle", SEED)
    tampered = dict(digests, **{key: hashlib.sha256(b"not metrics").hexdigest()})
    summary = worker.episode_summary(untraced_round(wl, tampered))
    assert summary["attempted"] == len(wl.episodes)
    assert summary["failed"] == 1
    assert summary["problems"][0].startswith(key)


def test_open_ledgers_fail_the_episode():
    from xredge.harness import default_scenario, run_experiment

    envs = []
    with tracing.patched(tracing.Patcher()) as p:
        tracing.capture_envs(p, envs)
        result = run_experiment(default_scenario("offload", "cycle", horizon_s=SHORT_S), SEED)
    (env,) = envs
    data = workloads.metrics_bytes(result)
    digests = {"k": hashlib.sha256(data).hexdigest()}
    assert workloads.check_episode("k", data, env, digests).problems == []

    env.queue.dropped += 1
    assert "frame ledger" in workloads.check_episode("k", data, env, digests).problems[0]
    env.queue.dropped -= 1
    env.battery.energy_j *= 1 + 1e-7
    assert "energy ledger" in workloads.check_episode("k", data, env, digests).problems[0]


def test_in_memory_digest_is_of_the_metrics_json_bytes(tmp_path):
    from xredge.harness import default_scenario, run_experiment, write_run

    result = run_experiment(default_scenario("greedy", "cycle", horizon_s=SHORT_S), SEED)
    write_run(tmp_path, result)
    assert (tmp_path / "metrics.json").read_bytes() == workloads.metrics_bytes(result)


def test_scaled_takes_probes_out_and_scales_by_matching_probe():
    ref_py, ref_np = timing.REF_PYTHON_S, timing.REF_NUMPY_S
    log = timing.DecisionLog()
    # decisions start at 1, 2 and 4 and each spends 0.1 s in the controller;
    # the probe pair ending as the interval starts ran at reference speed,
    # the pair ending at 2 at half the python and a quarter of the numpy speed
    log.marks += [1.0, 2.0, 4.0]
    log.latency += [0.1, 0.1, 0.1]
    log.probe_end += [0.0, 2.0]
    log.python_s += [ref_py, 2 * ref_py]
    log.numpy_s += [ref_np, 4 * ref_np]
    probe = 2 * ref_py + 4 * ref_np
    chunks = [1.0, 1.0 - probe, 2.0, 1.0]
    factors = [1.0, 0.5, 0.5, 0.5]

    raw, scaled, latency = log.scaled(0.0, 5.0, "python")
    assert raw == pytest.approx(5.0 - probe)
    assert scaled == pytest.approx(sum(c * f for c, f in zip(chunks, factors)))
    assert latency.tolist() == pytest.approx([0.05, 0.05, 0.05])

    _, scaled, latency = log.scaled(0.0, 5.0, "numpy")
    ctrl = [0.0, 0.1, 0.1, 0.1]
    ctrl_factors = [1.0, 0.25, 0.25, 0.25]
    assert scaled == pytest.approx(sum(
        (c - k) * f + k * g for c, k, f, g in zip(chunks, ctrl, factors, ctrl_factors)))
    assert latency.tolist() == pytest.approx([0.025, 0.025, 0.025])


def test_benchmark_json_is_generated_from_spec():
    assert (BENCH.parent / "BENCHMARK.json").read_text() == spec.render()
    assert list(spec.WORKLOAD_WHY) == list(workloads.WORKLOADS)
    assert all(len(why) <= 200 for why in spec.WORKLOAD_WHY.values())


def test_run_fails_without_the_program(tmp_path):
    """Beside BENCHMARK.json and perfbench/ alone, run.py exits non-zero, printing no result."""
    (tmp_path / "BENCHMARK.json").write_text(spec.render())
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rl-cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
