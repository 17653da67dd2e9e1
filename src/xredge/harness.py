"""Experiment harness: seeded runs, metrics, aggregation, sweeps, traces.

A scenario bundles an environment configuration, a policy name, learner
hyperparameters and a seed list. Each (scenario, seed) run is fully
deterministic and produces a MetricsRecord plus decision/frame traces.
Wall-clock controller latency is recorded separately from the metrics so
that metric files are byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .actions import N_ACTIONS, ExecutionMode
from .config import field_types, from_jsonable, to_jsonable
from .dqn import DqnConfig
from .energy import lifetime_projection
from .environment import EnvConfig, XrEnvironment
from .network import BandwidthProfile, cycle_profile, level_index, load_profile, stable_profile
from .policies import RlPolicy, make_policy

METRICS_SCHEMA_VERSION = 1

# fixed trace column orders (documented interface)
DECISION_COLUMNS = [
    "t", "action", "quality", "imu", "mode", "bandwidth_mbps", "rtt_ms",
    "mtp_mean_ms", "v_mean", "power_w", "soc_pct", "reward", "epsilon", "loss",
]
FRAME_COLUMNS = ["t_capture", "mtp_ms", "compliant", "mode"]
# in memory: seconds, milliseconds, mtp_ms <= tau, an ExecutionMode value
FRAME_DTYPES = (np.float64, np.float64, np.bool_, np.int8)

# keeps the learner's stream distinct from the environment's for equal seeds
_AGENT_SEED_OFFSET = 7919


@dataclass(frozen=True)
class ScenarioSpec:
    name: str = "scenario"
    policy: str = "rl"
    env: EnvConfig = field(default_factory=EnvConfig)
    dqn: DqnConfig = field(default_factory=DqnConfig)
    seeds: tuple[int, ...] = (1, 2, 3)


@dataclass
class MetricsRecord:
    schema_version: int
    scenario: str
    policy: str
    profile: str
    seed: int
    horizon_s: float
    survived_s: float
    decisions: int
    compliance_pct: float
    avg_power_w: float
    projected_lifetime_min: float
    local_fraction_pct: float
    offload_fraction_pct: float
    compliance_per_watt: float
    objective: float
    violation_sum: float
    frames_captured: int
    frames_delivered: int
    frames_dropped: int
    energy_j: float
    soc_end_pct: float
    per_level_compliance_pct: dict[str, float]
    per_level_frames: dict[str, int]
    action_histogram: list[int]

    def to_metrics_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    """A run's metrics, traces and wall-clock controller cost. The traces are
    stored by column: `decisions` maps each DECISION_COLUMNS name to a list
    with one value per decision, `frames` each FRAME_COLUMNS name to an array
    (of its FRAME_DTYPES type) with one value per delivered frame, in delivery
    order. `timing` is what timing.json holds: controller latency that varies
    between reruns, so it is kept out of `metrics`."""

    metrics: MetricsRecord
    decisions: dict[str, list]
    frames: dict[str, np.ndarray]
    timing: dict[str, float]


def run_experiment(spec: ScenarioSpec, seed: int, out_dir: str | Path | None = None) -> RunResult:
    """Execute one seeded run of a scenario; optionally write its artifacts."""
    env = XrEnvironment(spec.env, seed=seed)
    policy = make_policy(spec.policy, spec.dqn, seed=seed + _AGENT_SEED_OFFSET)
    is_rl = isinstance(policy, RlPolicy)

    decisions: dict[str, list] = {c: [] for c in DECISION_COLUMNS}
    columns = [decisions[c] for c in DECISION_COLUMNS]
    cap = _frame_capacity(env)
    frames = {c: np.empty(cap, dtype) for c, dtype in zip(FRAME_COLUMNS, FRAME_DTYPES)}
    n_frames = 0
    latencies_s: list[float] = []

    env.reset()
    while not env.done:
        # the bandwidth this decision observes, the profile's level at env.t
        t0, bandwidth = env.t, env.state.bandwidth_mbps
        tic = time.perf_counter()
        action = policy.select(env)
        toc_select = time.perf_counter()
        outcome = env.step(action)
        tic_learn = time.perf_counter()
        policy.observe_outcome(outcome, env)
        toc_learn = time.perf_counter()
        latencies_s.append((toc_select - tic) + (toc_learn - tic_learn))

        info = outcome.info
        row = (
            t0, action, *env.actions.labels[action],
            bandwidth, info["rtt_ms"], info["mtp_mean_ms"],
            info["mean_v"], info["power_w"], outcome.state.soc, outcome.reward,
            policy.epsilon if is_rl else "",
            (policy.last_loss if policy.last_loss is not None else "") if is_rl else "",
        )
        for column, value in zip(columns, row):
            column.append(value)

        end = n_frames + outcome.mtp_ms.size
        if end > cap:  # only if rounding stretched the run
            cap *= 2
            frames = {c: np.concatenate([a, np.empty_like(a)]) for c, a in frames.items()}
        frames["t_capture"][n_frames:end] = outcome.t_capture
        frames["mtp_ms"][n_frames:end] = outcome.mtp_ms
        frames["mode"][n_frames:end] = env.actions.configs[action].mode
        n_frames = end

    frame_columns = {c: a[:n_frames] for c, a in frames.items()}
    np.less_equal(frame_columns["mtp_ms"], spec.env.tau_mtp_ms, out=frame_columns["compliant"])
    metrics = _compute_metrics(spec, seed, env, decisions, frame_columns)
    lat_us = sorted(x * 1e6 for x in latencies_s)
    timing = {
        "latency_median_us": float(np.median(lat_us)) if lat_us else 0.0,
        "latency_p95_us": float(np.percentile(lat_us, 95)) if lat_us else 0.0,
    }
    result = RunResult(metrics=metrics, decisions=decisions, frames=frame_columns, timing=timing)
    if out_dir is not None:
        write_run(Path(out_dir), result)
    return result


def _frame_capacity(env: XrEnvironment) -> int:
    """The most frames a run can capture: it ends at the horizon or when the
    battery, drawing at least the lowest action power, runs out."""
    cfg = env.cfg
    run_s = cfg.horizon_s
    p_min = min(env.actions.power_w)
    if p_min > 0:
        life_h = lifetime_projection(cfg.soc0, cfg.capacity_wh, p_min, cfg.drain_factor)
        run_s = min(run_s, 3600.0 * life_h)
    return env.actions.n_ticks * (math.ceil(run_s / cfg.decision_interval_s) + 1)


def _compute_metrics(spec, seed, env, decisions, frames) -> MetricsRecord:
    cfg = spec.env
    survived = env.survived_s
    delivered = frames["mtp_ms"].size
    compliant = int(np.count_nonzero(frames["compliant"]))
    compliance_pct = 100.0 * compliant / delivered if delivered else 0.0
    avg_power = env.battery.energy_j / survived if survived > 0 else 0.0
    lifetime_min = (
        60.0 * lifetime_projection(100.0, cfg.capacity_wh, avg_power, cfg.drain_factor)
        if avg_power > 0
        else float("inf")
    )
    n_dec = len(decisions["action"])
    local_dec = decisions["mode"].count("LOCAL")
    local_pct = 100.0 * local_dec / n_dec if n_dec else 0.0
    per_level, per_level_n = per_bandwidth_compliance(frames["t_capture"], frames["compliant"], cfg.profile)
    histogram = [decisions["action"].count(a) for a in range(N_ACTIONS)]

    return MetricsRecord(
        schema_version=METRICS_SCHEMA_VERSION,
        scenario=spec.name,
        policy=spec.policy,
        profile=cfg.profile.describe(),
        seed=seed,
        horizon_s=cfg.horizon_s,
        survived_s=survived,
        decisions=n_dec,
        compliance_pct=compliance_pct,
        avg_power_w=avg_power,
        projected_lifetime_min=lifetime_min,
        local_fraction_pct=local_pct,
        offload_fraction_pct=100.0 - local_pct,
        compliance_per_watt=compliance_pct / avg_power if avg_power > 0 else 0.0,
        objective=env.objective(),
        violation_sum=float(sum(env.v_per_epoch)),
        frames_captured=env.frames_captured,
        frames_delivered=delivered,
        frames_dropped=env.queue.dropped,
        energy_j=env.battery.energy_j,
        soc_end_pct=env.battery.soc,
        per_level_compliance_pct=per_level,
        per_level_frames=per_level_n,
        action_histogram=histogram,
    )


def per_bandwidth_compliance(
    t_capture: np.ndarray, compliant: np.ndarray, profile: BandwidthProfile
) -> tuple[dict[str, float], dict[str, int]]:
    """Compliance per bandwidth level, frames bucketed by capture-time level.

    Levels are keyed by their `:g` label, so levels that print alike share
    one bucket. Returns ({level: compliance_pct}, {level: frame_count}); the
    counts partition the frames.
    """
    idx = level_index(profile, t_capture)
    n_levels = len(profile.levels_mbps)
    level_totals = np.bincount(idx, minlength=n_levels).tolist()
    level_good = np.bincount(idx[compliant], minlength=n_levels).tolist()
    totals: dict[str, int] = {}
    good: dict[str, int] = {}
    for level, n, g in zip(profile.levels_mbps, level_totals, level_good):
        if n:
            key = f"{level:g}"
            totals[key] = totals.get(key, 0) + n
            good[key] = good.get(key, 0) + g
    pct = {k: 100.0 * good[k] / totals[k] for k in totals}
    return pct, totals


def mode_fraction_series(modes: list[str], window: int = 30) -> np.ndarray:
    """Rolling fraction of LOCAL decisions over a trailing window."""
    if window < 1:
        raise ValueError(f"window must be >= 1: {window}")
    is_local = np.array([1.0 if m == "LOCAL" else 0.0 for m in modes])
    out = np.empty(len(is_local))
    csum = np.concatenate([[0.0], np.cumsum(is_local)])
    for i in range(len(is_local)):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def aggregate_seeds(records: list[MetricsRecord]) -> dict:
    """Median/min/max across seeds for every scalar metric; medians for maps."""
    if not records:
        raise ValueError("no records to aggregate")
    scalars = [
        "survived_s", "decisions", "compliance_pct", "avg_power_w",
        "projected_lifetime_min", "local_fraction_pct", "offload_fraction_pct",
        "compliance_per_watt", "objective", "violation_sum", "frames_captured",
        "frames_delivered", "frames_dropped", "energy_j", "soc_end_pct",
    ]
    out: dict = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "scenario": records[0].scenario,
        "policy": records[0].policy,
        "profile": records[0].profile,
        "seeds": [r.seed for r in records],
    }
    for name in scalars:
        values = [getattr(r, name) for r in records]
        out[name] = {
            "median": float(np.median(values)),
            "min": float(min(values)),
            "max": float(max(values)),
        }
    levels = sorted({k for r in records for k in r.per_level_compliance_pct})
    out["per_level_compliance_pct"] = {
        k: float(np.median([
            r.per_level_compliance_pct[k] for r in records if k in r.per_level_compliance_pct
        ]))
        for k in levels
    }
    return out


def run_scenario(spec: ScenarioSpec, out_dir: str | Path | None = None) -> tuple[list[RunResult], dict]:
    """Run every seed of a scenario; returns per-seed results and the aggregate."""
    results = []
    for seed in spec.seeds:
        seed_dir = Path(out_dir) / spec.name / f"seed_{seed}" if out_dir is not None else None
        results.append(run_experiment(spec, seed, seed_dir))
    agg = aggregate_seeds([r.metrics for r in results])
    if out_dir is not None:
        agg_path = Path(out_dir) / spec.name / "aggregate.json"
        agg_path.parent.mkdir(parents=True, exist_ok=True)
        write_json(agg_path, agg)
    return results, agg


def replace_path(obj, path: str, value):
    """Functional deep-override of a dotted dataclass field path.

    The value is coerced to the field's type as in a scenario file.
    """
    head, _, rest = path.partition(".")
    types = field_types(type(obj))
    if head not in types:
        raise ValueError(f"{type(obj).__name__} has no field {head!r}")
    if rest:
        value = replace_path(getattr(obj, head), rest, value)
    else:
        value = from_jsonable(types[head], value, f"{type(obj).__name__}.{head}")
    return replace(obj, **{head: value})


def sweep(
    base: ScenarioSpec,
    param_path: str,
    values: list,
    out_dir: str | Path | None = None,
) -> list[tuple[object, dict]]:
    """One-factor-at-a-time sweep: vary one dotted parameter, rerun all seeds."""
    rows = []
    for v in values:
        spec = replace_path(base, param_path, v)
        # names and rows carry the coerced value: 2 for a float field is 2.0
        v = to_jsonable(reduce(getattr, param_path.split("."), spec))
        spec = replace(spec, name=f"{base.name}__{param_path.replace('.', '_')}_{v}")
        _, agg = run_scenario(spec, out_dir)
        agg["swept_param"] = param_path
        agg["swept_value"] = v
        rows.append((v, agg))
    return rows


# -- artifact writers ------------------------------------------------------


def write_json(path: Path, obj) -> None:
    """The one JSON layout of every artifact: sorted keys, two-space indent."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_run(out_dir: Path, result: RunResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_decision_csv(out_dir / "decisions.csv", result.decisions)
    write_frame_csv(out_dir / "frames.csv", result.frames)
    write_json(out_dir / "metrics.json", result.metrics.to_metrics_dict())
    write_json(out_dir / "timing.json", result.timing)


def write_decision_csv(path: Path, decisions: dict[str, list]) -> None:
    """One DECISION_COLUMNS row per decision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DECISION_COLUMNS)
        writer.writerows(zip(*(decisions[c] for c in DECISION_COLUMNS)))


# rows per write of frames.csv: bounds the Python objects alive at once
FRAME_CSV_CHUNK_ROWS = 1000
# one frames.csv row as csv.writer writes it: floats by repr, the flag as 0/1
_FRAME_ROW = "{!r},{!r},{:d},{}\r\n".format


def write_frame_csv(path: Path, frames: dict[str, np.ndarray]) -> None:
    """One FRAME_COLUMNS row per delivered frame, in csv.writer's bytes,
    written a chunk of rows at a time."""
    mode_names = [m.name for m in ExecutionMode]
    t_capture, mtp, compliant, mode = (frames[c] for c in FRAME_COLUMNS)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FRAME_COLUMNS) + "\r\n")
        for i in range(0, mtp.size, FRAME_CSV_CHUNK_ROWS):
            j = i + FRAME_CSV_CHUNK_ROWS
            fh.write("".join(map(
                _FRAME_ROW,
                t_capture[i:j].tolist(),
                mtp[i:j].tolist(),
                compliant[i:j].tolist(),
                [mode_names[m] for m in mode[i:j].tolist()],
            )))


# -- scenario files --------------------------------------------------------


def save_spec(spec: ScenarioSpec, path: str | Path) -> None:
    write_json(Path(path), to_jsonable(spec))


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read a scenario file; missing keys take their defaults."""
    return from_jsonable(ScenarioSpec, json.loads(Path(path).read_text()), "scenario")


def default_scenario(
    policy: str,
    profile: str,
    horizon_s: float = EnvConfig.horizon_s,
    seeds: tuple[int, ...] = ScenarioSpec.seeds,
    stable_mbps: float = 1000.0,
    name: str | None = None,
) -> ScenarioSpec:
    """Convenience scenario builder used by the CLI and tests."""
    if profile == "cycle":
        prof = cycle_profile()
        label = "cycle"
    elif profile == "stable":
        prof = stable_profile(stable_mbps)
        label = f"stable{stable_mbps:g}"
    else:
        prof = load_profile(profile)
        label = Path(profile).stem
    env = replace(EnvConfig(), profile=prof, horizon_s=horizon_s)
    return ScenarioSpec(
        name=name or f"{policy}-{label}",
        policy=policy,
        env=env,
        seeds=seeds,
    )
