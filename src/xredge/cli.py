"""Command-line interface: run, sweep, aggregate, report.

Output directory resolution: --out flag, else the XREDGE_OUT environment
variable, else ./runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .config import from_jsonable
from .harness import (
    METRICS_SCHEMA_VERSION,
    MetricsRecord,
    ScenarioSpec,
    aggregate_seeds,
    default_scenario,
    load_spec,
    read_json,
    run_scenario,
    sweep,
    write_json,
)
from .policies import POLICIES

# each report column in order: the MetricsRecord field (report.csv's header),
# the printed title, its alignment and width, and the value's format
_REPORT_COLUMNS = (
    ("scenario", "scenario", "<28", "s"), ("policy", "policy", "<10", "s"), ("seed", "seed", ">4", "d"),
    ("compliance_pct", "compl%", ">7", ".2f"), ("avg_power_w", "power_W", ">8", ".2f"),
    ("compliance_per_watt", "cpw", ">7", ".2f"), ("projected_lifetime_min", "life_min", ">9", ".2f"),
    ("local_fraction_pct", "local%", ">7", ".1f"), ("survived_s", "survived_s", ">10", ".1f"),
)


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get("XREDGE_OUT", "runs"))


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise ValueError(f"seeds must be comma-separated integers: {text!r}") from exc


# each scenario flag's argparse dest and the default_scenario argument it sets
_SCENARIO_FLAGS = {"policy": "policy", "profile": "profile", "stable_mbps": "stable_mbps",
                   "horizon": "horizon_s", "seeds": "seeds", "name": "name"}


def _build_spec(args) -> ScenarioSpec:
    # every scenario flag defaults to None, so `given` holds the ones passed
    given = {dest: getattr(args, dest) for dest in _SCENARIO_FLAGS if getattr(args, dest) is not None}
    if args.scenario:
        if given:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
            raise ValueError(f"--scenario cannot be combined with {flags}")
        return load_spec(args.scenario)
    if args.seeds is not None:
        given["seeds"] = _parse_seeds(args.seeds)
    return default_scenario(**{_SCENARIO_FLAGS[dest]: v for dest, v in given.items()})


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    out = _out_dir(args)
    results, agg = run_scenario(spec, out)
    print(f"scenario {spec.name} ({spec.policy}, {spec.env.profile.describe()})")
    for r in results:
        m = r.metrics
        print(
            f"  seed {m.seed}: compliance {m.compliance_pct:6.2f}%  "
            f"power {m.avg_power_w:5.2f} W  survived {m.survived_s:7.1f} s  "
            f"local {m.local_fraction_pct:5.1f}%"
        )
    c = agg["compliance_pct"]
    p = agg["avg_power_w"]
    print(
        f"  median: compliance {c['median']:.2f}% "
        f"(min {c['min']:.2f} max {c['max']:.2f}), power {p['median']:.2f} W"
    )
    print(f"  wrote {out / spec.name}")
    return 0


def _parse_value(text: str):
    """A sweep value as JSON (16, 0.5, true), else the raw string (a policy name)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    values = [_parse_value(v.strip()) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError(f"no sweep values parsed from {args.values!r}")
    out = _out_dir(args)
    rows = sweep(spec, args.param, values, out)
    print(f"sweep {args.param} over {values} ({spec.policy})")
    for v, agg in rows:
        c = agg["compliance_pct"]["median"]
        p = agg["avg_power_w"]["median"]
        lf = agg["local_fraction_pct"]["median"]
        print(f"  {args.param}={v}: compliance {c:6.2f}%  power {p:5.2f} W  local {lf:5.1f}%")
    summary = [
        {"param": args.param, "value": v, **{k: agg[k] for k in ("compliance_pct", "avg_power_w", "local_fraction_pct")}}
        for v, agg in rows
    ]
    # the sweep's runs made the output directory
    summary_path = out / f"sweep_{args.param.replace('.', '_')}.json"
    write_json(summary_path, summary)
    print(f"  wrote {summary_path}")
    return 0


def _load_metrics_under(root: Path) -> list[MetricsRecord]:
    """Every metrics.json under root, in path order; at least one, each of
    this version of the schema."""
    if not root.exists():
        raise ValueError(f"directory not found: {root}")
    records = []
    for path in sorted(root.rglob("metrics.json")):
        m = from_jsonable(MetricsRecord, read_json(path), str(path))
        if m.schema_version != METRICS_SCHEMA_VERSION:
            raise ValueError(f"{path}: schema_version must be {METRICS_SCHEMA_VERSION}: {m.schema_version}")
        records.append(m)
    if not records:
        raise ValueError(f"no metrics.json files under {root}")
    return records


def _cmd_aggregate(args) -> int:
    root = Path(args.runs)
    records = _load_metrics_under(root)
    agg = aggregate_seeds(records)
    out_path = root / "aggregate.json"
    write_json(out_path, agg)
    c = agg["compliance_pct"]
    print(
        f"{agg['scenario']}: {len(records)} runs, compliance median "
        f"{c['median']:.2f}% (min {c['min']:.2f}, max {c['max']:.2f})"
    )
    print(f"wrote {out_path}")
    return 0


def _cmd_report(args) -> int:
    root = _out_dir(args)
    records = _load_metrics_under(root)
    records.sort(key=lambda m: (m.scenario, m.seed))
    header = " ".join(format(title, width) for _, title, width, _ in _REPORT_COLUMNS)
    print(header)
    print("-" * len(header))
    for m in records:
        print(" ".join(format(getattr(m, name), width + kind) for name, _, width, kind in _REPORT_COLUMNS))
    report_path = root / "report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(name for name, *_ in _REPORT_COLUMNS)
        writer.writerows([getattr(m, name) for name, *_ in _REPORT_COLUMNS] for m in records)
    print(f"wrote {report_path}")
    return 0


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON file, instead of the six flags below")
    p.add_argument("--policy", choices=tuple(POLICIES), help=f"default {ScenarioSpec.policy}")
    p.add_argument("--profile",
                   help="'cycle' (the default), 'stable', or a JSON profile file: a scenario file's "
                        "env.profile object, such as {\"levels_mbps\": [1000, 10, 1], \"dwell_s\": 30}")
    p.add_argument("--stable-mbps", type=float, help="bandwidth for --profile stable (default 1000)")
    p.add_argument("--horizon", type=float, help="episode length in seconds")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--name", default=None, help="scenario name (defaults to policy-profile)")
    p.add_argument("--out", default=None, help="output directory (default $XREDGE_OUT or ./runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xredge",
        description="Battery-aware execution management simulator for edge-assisted XR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario across its seeds")
    _add_scenario_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="one-factor-at-a-time parameter sweep")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted parameter path, e.g. dqn.eps_decay or env.reward.lam")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, each parsed as JSON, else as a string; "
                              "a list that starts with '-' is written --values=-Infinity")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_agg = sub.add_parser("aggregate", help="aggregate metrics.json files under a directory")
    p_agg.add_argument("--runs", required=True, help="directory containing per-seed runs")
    p_agg.set_defaults(func=_cmd_aggregate)

    p_rep = sub.add_parser("report", help="tabulate all runs under the output directory")
    p_rep.add_argument("--out", default=None, help="output directory (default $XREDGE_OUT or ./runs)")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an in-range size (a learner width, a replay capacity) that asks for
        # more memory than there is fails at its allocation, before any write
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
