"""Experiment harness: seeded runs, metrics, aggregation, sweeps, traces.

A scenario bundles an environment configuration, a policy name, learner
hyperparameters and a seed list. Each (scenario, seed) run is fully
deterministic and produces a MetricsRecord plus decision/frame traces.
Wall-clock controller latency is recorded separately from the metrics so
that metric files are byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .actions import N_ACTIONS, ExecutionMode
from .config import check_ranges, field_types, fold_sum, from_jsonable, ranged, to_jsonable
from .dqn import DqnConfig
from .energy import lifetime_projection
from .environment import ROW_FIELDS, EnvConfig, XrEnvironment
from .network import BandwidthProfile, cycle_profile, level_index, stable_profile
from .policies import POLICIES, RlPolicy, make_policy

METRICS_SCHEMA_VERSION = 1


# each decisions.csv column, in file order: an Outcome's row fields, then the learner's
DECISION_COLUMNS = [*ROW_FIELDS, "epsilon", "loss"]
# the row fields' span of an Outcome
_ROW = slice(len(ROW_FIELDS))


def _learner_cells(agent) -> tuple:
    """A decision's epsilon and loss cells, read once its outcome has been
    observed: the rl learner's, or two empty cells when agent is None."""
    if agent is None:
        return "", ""
    return agent.epsilon, "" if agent.last_loss is None else agent.last_loss


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
    # the frames of each step and of each planned run, concatenated once the
    # run is over, and the action that delivered them
    t_parts: list[np.ndarray] = []
    mtp_parts: list[np.ndarray] = []
    part_actions: list[int] = []
    latencies_s: list[float] = []
    is_local, repeat_until = env.actions.is_local, policy.repeat_until

    while not env.done:
        tic = time.perf_counter()
        action = policy.select(env)
        toc_select = time.perf_counter()
        outcome = env.step(action)
        tic_learn = time.perf_counter()
        policy.observe_outcome(outcome, env)
        toc_learn = time.perf_counter()
        latencies_s.append((toc_select - tic) + (toc_learn - tic_learn))

        # a row is a tuple of plain floats, ints and strs, which the cyclic GC stops tracking
        rows.append((*outcome[_ROW], *_learner_cells(agent)))
        t_parts.append(outcome.t_capture)
        mtp_parts.append(outcome.mtp_ms)
        part_actions.append(action)
        if env.done or not is_local[action]:
            continue
        until_s = repeat_until(env, action)
        if until_s <= env.t:
            continue
        # the decisions the policy repeats whatever their outcomes: one run,
        # then each decision's select, which must repeat the action, and
        # observe_outcome, timed as a stepped decision's are
        run = env.run_local(action, until_s)
        for _ in run.t:
            tic = time.perf_counter()
            if policy.select(env) != action:
                raise RuntimeError(f"{spec.policy} did not repeat action {action} before t = {until_s} s")
            policy.observe_outcome(None, env)
            latencies_s.append(time.perf_counter() - tic)
        rows.extend(zip(*run[_ROW], *map(repeat, _learner_cells(agent))))
        t_parts.append(run.t_capture)
        mtp_parts.append(run.mtp_ms)
        part_actions.append(action)

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
        # each part's mode, repeated over the frames it delivered
        "mode": np.repeat(modes[part_actions], [m.size for m in mtp_parts]),
    }
    metrics = _compute_metrics(spec, seed, env, decisions, frames)
    lat_us = sorted(x * 1e6 for x in latencies_s)
    timing = {
        "latency_median_us": _median(lat_us) if lat_us else 0.0,
        "latency_p95_us": _percentile(lat_us, 95) if lat_us else 0.0,
    }
    result = RunResult(metrics=metrics, decisions=decisions, frames=frames, timing=timing)
    if out_dir is not None:
        write_run(Path(out_dir), result)
    return result


def _median(values: list) -> float:
    """np.median of a non-empty list of numbers, bit for bit: the middle
    value, or the mean of the middle two, and nan if any value is nan.
    np.median would import numpy.ma, 10-17 ms and 0.5 MB per process."""
    xs = sorted(map(float, values))
    if any(map(math.isnan, xs)):
        return math.nan
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def _percentile(xs: list[float], q: float) -> float:
    """np.percentile(xs, q) of a sorted, non-empty list of finite floats, bit
    for bit: numpy's default linear interpolation, which also imports numpy.ma."""
    v = (len(xs) - 1) * (q / 100)
    i = math.floor(v)
    a, b = xs[i], xs[min(i + 1, len(xs) - 1)]
    g, d = v - i, b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


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
            "median": _median(values),
            "min": float(min(values)),
            "max": float(max(values)),
        }
    levels = sorted({k for r in records for k in r.per_level_compliance_pct})
    out["per_level_compliance_pct"] = {
        k: _median([r.per_level_compliance_pct[k] for r in records if k in r.per_level_compliance_pct])
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

    Every value's scenario is built before the first run, so a bad value,
    or two values that coerce to one scenario name, fail before any
    artifact is written.
    """
    specs, raw_by_name = [], {}
    for raw in values:
        spec = replace_path(base, param_path, raw)
        # names and rows carry the coerced value: 2 for a float field is 2.0
        v = to_jsonable(reduce(getattr, param_path.split("."), spec))
        name = f"{base.name}__{param_path.replace('.', '_')}_{v}"
        if name in raw_by_name:  # the second run would overwrite the first's directory
            raise ValueError(f"sweep values {raw_by_name[name]!r} and {raw!r} are one scenario, {name}")
        raw_by_name[name] = raw
        specs.append((v, replace(spec, name=name)))
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
# (written by repr): indexed [compliant, mode], the flag written as 0/1
_FRAME_TAILS = np.array([[f",{flag:d},{m.name}\r\n" for m in ExecutionMode] for flag in (False, True)],
                        dtype=object)


def write_frame_csv(path: Path, frames: dict[str, np.ndarray]) -> None:
    """One FRAME_COLUMNS row per delivered frame, in csv.writer's bytes,
    formatted a column and written a chunk of rows at a time: a row is
    five parts, the capture time's two, a comma, the MTP and the tail."""
    t_capture, mtp, compliant, mode = (frames[c] for c in FRAME_COLUMNS)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FRAME_COLUMNS) + "\r\n")
        for i in range(0, mtp.size, FRAME_CSV_CHUNK_ROWS):
            j = i + FRAME_CSV_CHUNK_ROWS
            parts = [","] * (5 * mtp[i:j].size)
            parts[0::5], parts[1::5] = _capture_time_parts(t_capture[i:j])
            parts[3::5] = _repr_runs(mtp[i:j])
            parts[4::5] = _FRAME_TAILS[compliant[i:j].view(np.int8), mode[i:j]].tolist()
            fh.write("".join(parts))


# the fraction of a whole millisecond as repr writes it: ".0", ".001", ..., ".999"
_MS_FRACTIONS = np.array([f".{ms:03d}".rstrip("0") if ms else ".0" for ms in range(1000)], dtype=object)
# below this many seconds a double's ulp is under 2.5e-4 s, a quarter millisecond
_MS_GRID_LIMIT_S = 2.0**40


def _capture_time_parts(values: np.ndarray) -> tuple[list[str], list[str]]:
    """repr of each float of a non-empty float64 vector as two lists of
    strings whose pairs join to it. A value of [0, 2**40) that is the double
    nearest a whole number of milliseconds, as a 50 ms frame tick's capture
    time is, is its seconds, formatted once per run of equal seconds, and
    its fraction from `_MS_FRACTIONS`: that decimal reads back as the value,
    and any other that does lies within an ulp, under a quarter
    millisecond, so none is as short. Every other value is its repr and "".
    """
    grid = (values < _MS_GRID_LIMIT_S) & ~np.signbit(values)
    ms = np.rint(np.where(grid, values, 0.0) * 1000.0)
    grid &= ms / 1000.0 == values
    seconds, fraction = np.divmod(ms.astype(np.int64), 1000)
    heads = list(_repr_runs(seconds))
    tails = _MS_FRACTIONS[fraction].tolist()
    if not grid.all():
        off = np.flatnonzero(~grid)
        for k, text in zip(off.tolist(), map(repr, values[off].tolist())):
            heads[k], tails[k] = text, ""
    return heads, tails


def _repr_runs(values: np.ndarray) -> Iterator[str]:
    """repr of each value of a non-empty float64 or int64 vector, formatted
    once per run of bit-identical values: equal int64 bits, so 0.0 and
    -0.0, and nans of different payloads, are formatted apart. A vector of
    mostly distinct values, such as offloaded frames' MTPs, is formatted
    value by value, which costs less than repeating each one."""
    bits = values.view(np.int64)
    firsts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * firsts.size > values.size:
        return map(repr, values.tolist())
    counts = np.diff(firsts, append=values.size).tolist()
    return chain.from_iterable(map(repeat, map(repr, values[firsts].tolist()), counts))


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


# the bandwidth profile of a default scenario
DEFAULT_PROFILE = "cycle"


def default_scenario(
    policy: str = ScenarioSpec.policy,
    profile: str = DEFAULT_PROFILE,
    horizon_s: float = EnvConfig.horizon_s,
    seeds: tuple[int, ...] = ScenarioSpec.seeds,
    stable_mbps: float | None = None,
    name: str | None = None,
) -> ScenarioSpec:
    """The CLI's scenario: `profile` is "cycle", "stable" (at `stable_mbps`,
    default 1000) or the path of a JSON file that holds a scenario file's
    `env.profile` object. `stable_mbps` is refused for any other profile."""
    if stable_mbps is not None and profile != "stable":
        raise ValueError(f"stable_mbps is for the stable profile only, not {profile!r}")
    if profile == "cycle":
        prof = cycle_profile()
        label = "cycle"
    elif profile == "stable":
        prof = stable_profile(1000.0 if stable_mbps is None else stable_mbps)
        label = f"stable{prof.levels_mbps[0]:g}"
    else:
        prof = from_jsonable(BandwidthProfile, read_json(Path(profile)), str(profile))
        label = Path(profile).stem
    return ScenarioSpec(
        name=name if name is not None else f"{policy}-{label}",
        policy=policy,
        env=EnvConfig(profile=prof, horizon_s=horizon_s),
        seeds=seeds,
    )
