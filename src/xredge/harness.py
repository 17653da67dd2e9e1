"""Experiment harness: seeded runs, metrics, aggregation, sweeps, traces.

A scenario bundles an environment configuration, a policy name, learner
hyperparameters and a seed list. Each (scenario, seed) run is fully
deterministic and produces a MetricsRecord plus decision/frame traces.
Wall-clock controller latency is recorded separately from the metrics so
that metric files are byte-reproducible.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from itertools import repeat
from pathlib import Path

import numpy as np

from .actions import N_ACTIONS, ExecutionMode
from .config import check_ranges, field_types, fold_sum, from_jsonable, ranged, to_jsonable
from .dqn import DqnConfig
from .energy import lifetime_projection
from .environment import ActionTable, EnvConfig, XrEnvironment
from .network import BandwidthProfile, cycle_profile, level_index, stable_profile
from .policies import POLICIES, RlPolicy, make_policy

METRICS_SCHEMA_VERSION = 1


# each decisions.csv column, in file order: one field of `_decision_row` each
DECISION_COLUMNS = ["t", "action", "quality", "imu", "mode", "bandwidth_mbps", "rtt_ms",
                    "mtp_mean_ms", "v_mean", "power_w", "soc_pct", "reward", "epsilon", "loss"]


def _decision_row(t0, bandwidth, action, env, outcome, agent) -> tuple:
    """What one decision keeps once its step has returned: one plain float,
    int or str per DECISION_COLUMNS column, in its order, so a run holds no
    container the cyclic GC walks. t0 and the bandwidth are the decision's,
    and agent is the rl learner or None."""
    state, info = env.state, outcome.info
    if agent is None:
        epsilon = loss = ""
    else:
        epsilon, loss = agent.epsilon, "" if agent.last_loss is None else agent.last_loss
    return (t0, action, *ActionTable.labels[action], bandwidth, state.rtt_ms, info["mtp_mean_ms"],
            info["mean_v"], state.power_w, state.soc, outcome.reward, epsilon, loss)


# fixed trace column order (documented interface)
FRAME_COLUMNS = ["t_capture", "mtp_ms", "compliant", "mode"]

# keeps the learner's stream distinct from the environment's for equal seeds
_AGENT_SEED_OFFSET = 7919


@dataclass(frozen=True)
class ScenarioSpec:
    name: str = "scenario"
    policy: str = "rl"
    env: EnvConfig = field(default_factory=EnvConfig)
    dqn: DqnConfig = field(default_factory=DqnConfig)
    seeds: tuple[int, ...] = ranged("[0, inf)", (1, 2, 3))

    def __post_init__(self):
        check_ranges(self)
        # the name is a directory under --out, so it must stay one component
        if self.name in ("", ".", "..") or {"/", os.sep, os.altsep} & set(self.name):
            raise ValueError(f"scenario name must be one directory name: {self.name!r}")
        # make_policy's own rule, checked before a run writes anything
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy kind: {self.policy!r}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct: {list(self.seeds)}")


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
    with one value per delivered frame, in delivery order: float64 seconds,
    float64 milliseconds, bool `mtp_ms <= tau_mtp_ms` and the int8
    ExecutionMode value. `timing` is what timing.json holds: controller
    latency that varies between reruns, so it is kept out of `metrics`."""

    metrics: MetricsRecord
    decisions: dict[str, list]
    frames: dict[str, np.ndarray]
    timing: dict[str, float]


def run_experiment(spec: ScenarioSpec, seed: int, out_dir: str | Path | None = None) -> RunResult:
    """Execute one seeded run of a scenario; optionally write its artifacts."""
    env = XrEnvironment(spec.env, seed=seed)
    policy = make_policy(spec.policy, spec.dqn, seed=seed + _AGENT_SEED_OFFSET)
    agent = policy.agent if isinstance(policy, RlPolicy) else None

    rows: list[tuple] = []
    # each step's delivered frames, concatenated once the run is over
    t_parts: list[np.ndarray] = []
    mtp_parts: list[np.ndarray] = []
    latencies_s: list[float] = []

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

        rows.append(_decision_row(t0, bandwidth, action, env, outcome, agent))
        t_parts.append(outcome.t_capture)
        mtp_parts.append(outcome.mtp_ms)

    # each decision column once, from the rows; a run that never steps gets empty lists
    kept = zip(*rows) if rows else repeat(())
    decisions = {c: list(next(kept)) for c in DECISION_COLUMNS}
    # a run that never steps still gets four typed, empty columns
    mtp = np.concatenate(mtp_parts or [np.empty(0)])
    modes = np.array([c.mode for c in env.actions.configs], np.int8)
    frames = {
        "t_capture": np.concatenate(t_parts or [np.empty(0)]),
        "mtp_ms": mtp,
        "compliant": mtp <= spec.env.tau_mtp_ms,
        # each decision's mode, repeated over the frames its step delivered
        "mode": np.repeat(modes[decisions["action"]], [m.size for m in mtp_parts]),
    }
    metrics = _compute_metrics(spec, seed, env, decisions, frames)
    lat_us = sorted(x * 1e6 for x in latencies_s)
    timing = {
        "latency_median_us": float(np.median(lat_us)) if lat_us else 0.0,
        "latency_p95_us": float(np.percentile(lat_us, 95)) if lat_us else 0.0,
    }
    result = RunResult(metrics=metrics, decisions=decisions, frames=frames, timing=timing)
    if out_dir is not None:
        write_run(Path(out_dir), result)
    return result


def _compute_metrics(spec, seed, env, decisions, frames) -> MetricsRecord:
    cfg = spec.env
    survived = env.t
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
    local_pct = 100.0 * decisions["mode"].count("LOCAL") / n_dec if n_dec else 0.0
    per_level, per_level_n = per_bandwidth_compliance(frames["t_capture"], frames["compliant"], cfg.profile)
    histogram = [decisions["action"].count(a) for a in range(N_ACTIONS)]
    violation_sum = fold_sum(decisions["v_mean"])

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
        objective=survived - cfg.reward.lam * violation_sum,
        violation_sum=violation_sum,
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


# every int or float metric but the ones that name the run
_AGGREGATED = [name for name, tp in field_types(MetricsRecord).items()
               if tp in (int, float) and name not in ("schema_version", "seed", "horizon_s")]


def aggregate_seeds(records: list[MetricsRecord]) -> dict:
    """Median/min/max across seeds for every scalar metric; medians for maps.

    The records must be one scenario's runs, each seed once."""
    if not records:
        raise ValueError("no records to aggregate")
    out: dict = {"schema_version": METRICS_SCHEMA_VERSION}
    for key in ("scenario", "policy", "profile"):
        values = list(dict.fromkeys(getattr(r, key) for r in records))
        if len(values) > 1:
            raise ValueError(f"cannot aggregate runs of different scenarios: {key} {values}")
        out[key] = values[0]
    out["seeds"] = seeds = [r.seed for r in records]
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"cannot aggregate a seed twice: seeds {seeds}")
    for name in _AGGREGATED:
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
        # each seed's run made the scenario's directory
        write_json(Path(out_dir) / spec.name / "aggregate.json", agg)
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
    """One-factor-at-a-time sweep: vary one dotted parameter, rerun all seeds.

    Every value's scenario is built before the first run, so a bad value
    fails before any artifact is written.
    """
    specs = []
    for v in values:
        spec = replace_path(base, param_path, v)
        # names and rows carry the coerced value: 2 for a float field is 2.0
        v = to_jsonable(reduce(getattr, param_path.split("."), spec))
        specs.append((v, replace(spec, name=f"{base.name}__{param_path.replace('.', '_')}_{v}")))
    return [(v, run_scenario(spec, out_dir)[1]) for v, spec in specs]


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
    """One DECISION_COLUMNS row per decision, in csv.writer's bytes: each
    cell is its `str`, and no cell holds a character that needs quoting."""
    rows = map(",".join, zip(*(map(str, decisions[c]) for c in DECISION_COLUMNS)))
    with open(path, "w", newline="") as fh:
        # the empty last line ends the last row
        fh.write("\r\n".join([",".join(DECISION_COLUMNS), *rows, ""]))


# rows per write of frames.csv: bounds the Python objects alive at once
FRAME_CSV_CHUNK_ROWS = 1000
# the end of a frames.csv row as csv.writer writes it, after the two floats
# (written by repr): indexed [compliant][mode], the flag written as 0/1
_FRAME_TAILS = [[f",{flag:d},{m.name}\r\n" for m in ExecutionMode] for flag in (False, True)]


def write_frame_csv(path: Path, frames: dict[str, np.ndarray]) -> None:
    """One FRAME_COLUMNS row per delivered frame, in csv.writer's bytes,
    formatted a column and written a chunk of rows at a time."""
    t_capture, mtp, compliant, mode = (frames[c] for c in FRAME_COLUMNS)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FRAME_COLUMNS) + "\r\n")
        for i in range(0, mtp.size, FRAME_CSV_CHUNK_ROWS):
            j = i + FRAME_CSV_CHUNK_ROWS
            tails = [_FRAME_TAILS[c][m] for c, m in zip(compliant[i:j].tolist(), mode[i:j].tolist())]
            fh.write("".join(map("".join, zip(
                map(repr, t_capture[i:j].tolist()),
                repeat(","),
                map(repr, mtp[i:j].tolist()),
                tails,
            ))))


# -- scenario files --------------------------------------------------------


def save_spec(spec: ScenarioSpec, path: str | Path) -> None:
    write_json(Path(path), to_jsonable(spec))


def read_json(path: Path):
    """A JSON file's value; a file that is not JSON raises ValueError naming it."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read a scenario file; missing keys take their defaults."""
    return from_jsonable(ScenarioSpec, read_json(Path(path)), "scenario")


def default_scenario(
    policy: str,
    profile: str,
    horizon_s: float = EnvConfig.horizon_s,
    seeds: tuple[int, ...] = ScenarioSpec.seeds,
    stable_mbps: float = 1000.0,
    name: str | None = None,
) -> ScenarioSpec:
    """The CLI's scenario: `profile` is "cycle", "stable" (at `stable_mbps`) or the
    path of a JSON file that holds a scenario file's `env.profile` object."""
    if profile == "cycle":
        prof = cycle_profile()
        label = "cycle"
    elif profile == "stable":
        prof = stable_profile(stable_mbps)
        label = f"stable{stable_mbps:g}"
    else:
        prof = from_jsonable(BandwidthProfile, read_json(Path(profile)), str(profile))
        label = Path(profile).stem
    env = replace(EnvConfig(), profile=prof, horizon_s=horizon_s)
    return ScenarioSpec(
        name=name if name is not None else f"{policy}-{label}",
        policy=policy,
        env=env,
        seeds=seeds,
    )
