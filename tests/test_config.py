"""Generic JSON conversion of the config dataclasses and their declared ranges."""

import dataclasses
import json
import math
import re
import typing

import pytest

from xredge.actions import ImuRate
from xredge.config import field_types, fold_sum, from_jsonable, to_jsonable
from xredge.dqn import DqnConfig
from xredge.environment import EnvConfig
from xredge.harness import ScenarioSpec
from xredge.latency import ProcTimeTable


def test_enums_by_value_and_tuples_as_lists():
    data = to_jsonable(ScenarioSpec())
    assert data["env"]["table"]["rho"] == {"high": 1.0, "medium": 0.85, "low": 0.7}
    assert data["dqn"]["hidden"] == [128, 128]
    assert data["seeds"] == [1, 2, 3]
    assert from_jsonable(ScenarioSpec, json.loads(json.dumps(data))) == ScenarioSpec()


def test_partial_object_takes_defaults_and_widens_ints():
    spec = from_jsonable(ScenarioSpec, {"env": {"horizon_s": 60, "rtt": {"jitter_scale_ms": 0}}})
    assert spec.env.horizon_s == 60.0 and type(spec.env.horizon_s) is float
    assert spec.env.rtt.jitter_scale_ms == 0.0 and type(spec.env.rtt.jitter_scale_ms) is float
    assert spec.env.rtt.base_ms == 5.0
    assert spec.dqn == DqnConfig()
    table = from_jsonable(ProcTimeTable, {"rho": {"low": 1, "medium": 1, "high": 2}})
    assert table.rho == {ImuRate.LOW: 1.0, ImuRate.MEDIUM: 1.0, ImuRate.HIGH: 2.0}
    assert all(type(r) is float for r in table.rho.values())


@pytest.mark.parametrize("tp, data, message", [
    (EnvConfig, {"rtt": {"sigmaa": 1.0}}, "value.rtt: unknown field sigmaa"),
    (EnvConfig, {"queue_max_depth": 20.0}, "value.queue_max_depth: expected int"),
    (EnvConfig, {"queue_max_depth": True}, "value.queue_max_depth: expected int"),
    (EnvConfig, {"horizon_s": "60"}, "value.horizon_s: expected float"),
    (EnvConfig, {"profile": {"levels_mbps": [1, "x"]}}, r"value.profile.levels_mbps\[1\]"),
    (EnvConfig, {"table": {"rho": {"turbo": 1.0}}}, "value.table.rho.turbo: 'turbo' is not one of"),
    (EnvConfig, [], "value: expected an object"),
    (DqnConfig, {"hidden": 64}, "value.hidden: expected a list"),
])
def test_rejects_malformed_input(tp, data, message):
    with pytest.raises(ValueError, match=message):
        from_jsonable(tp, data)


def test_missing_required_field():
    from xredge.harness import MetricsRecord

    with pytest.raises(ValueError, match="m.json: missing field"):
        from_jsonable(MetricsRecord, {"schema_version": 1}, "m.json")


def test_fold_sum_adds_left_to_right_from_zero():
    # Python 3.12's compensated sum() gives 65.0 here; the metrics and the
    # greedy backlog pin the left fold that 3.10 and 3.11 compute
    assert fold_sum([0.1, 0.2, 0.3, 1e-17, 0.7] * 50) == 65.0000000000001
    assert fold_sum([]) == 0.0 and type(fold_sum([])) is float
    assert fold_sum(iter([1e16, 1.0, -1e16])) == 0.0


def _reachable(cls) -> list:
    """cls and every dataclass that its fields' declared types reach."""
    found = [cls]
    for tp in field_types(cls).values():
        if dataclasses.is_dataclass(tp):
            found += [c for c in _reachable(tp) if c not in found]
    return found


CONFIGS = _reachable(ScenarioSpec)
RANGED = [(cls, f.name, f.metadata["range"])
          for cls in CONFIGS for f in dataclasses.fields(cls) if "range" in f.metadata]


def test_every_config_declares_its_ranges():
    assert {c.__name__ for c in CONFIGS} == {
        "ScenarioSpec", "EnvConfig", "DqnConfig", "BandwidthProfile", "RttModel",
        "ProcTimeTable", "FrameSizeModel", "PowerParams", "RewardParams"}
    assert {c for c, _, _ in RANGED} == set(CONFIGS)


def _build(cls, name, value):
    """cls with one field set to `value`: as the one element of a tuple field,
    and as the HIGH rate's entry of a dict field."""
    tp = field_types(cls)[name]
    default = getattr(cls(), name)
    if typing.get_origin(tp) is tuple:
        value = (value,)
    elif typing.get_origin(tp) is dict:
        value = {**default, ImuRate.HIGH: value}
    return cls(**{name: value})


@pytest.mark.parametrize("cls, name, interval", RANGED,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in RANGED])
def test_declared_range_is_the_accepted_range(cls, name, interval):
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    closed = interval[0] == "[", interval[-1] == "]"

    def inside(v):
        return (lo <= v if closed[0] else lo < v) and (v <= hi if closed[1] else v < hi)

    message = re.escape(f"{cls.__name__}.{name} must be within {interval}: ")
    tp = field_types(cls)[name]
    integral = int in (typing.get_args(tp) or (tp,))   # int, tuple[int, ...]
    ends = [end for end in (lo, hi) if math.isfinite(end)]
    outside = [math.nextafter(end, away) for end, away in zip((lo, hi), (-math.inf, math.inf))
               if math.isfinite(end)]
    outside += [lo, hi, math.nan, -math.inf, math.inf] + [int(end) - 1 for end in ends if integral]
    for v in outside:
        if not inside(v):
            with pytest.raises(ValueError, match=message):
                _build(cls, name, v)
    if integral:
        candidates = [int(lo), int(lo) + 1, int(lo) + 1000]
        # the largest int within a finite upper end, so that a closed one is met
        if math.isfinite(hi):
            candidates.append(int(hi) if closed[1] else int(hi) - 1)
    else:
        candidates = [lo, hi, 0.0, 0.5 * (lo + hi), lo + 1, 1e300, -1e300]
        candidates += [math.nextafter(end, toward) for end, toward in zip((lo, hi), (hi, lo))]
    accepted = [v for v in candidates if math.isfinite(v) and inside(v)]
    assert accepted and (not closed[0] or lo in accepted) and (not closed[1] or hi in accepted)
    for v in accepted:
        # a value within range is never refused by its range; a rule between
        # fields (eps_min <= eps0, n_ticks, the dwell bound) may refuse it
        try:
            _build(cls, name, v)
        except ValueError as exc:
            assert "must be within" not in str(exc), (v, exc)
