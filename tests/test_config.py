"""Generic JSON conversion of the config dataclasses."""

import json

import pytest

from xredge.actions import ImuRate
from xredge.config import fold_sum, from_jsonable, to_jsonable
from xredge.dqn import DqnConfig
from xredge.environment import EnvConfig
from xredge.harness import ScenarioSpec
from xredge.latency import ProcTimeTable
from xredge.network import RttDistribution


def test_enums_by_value_and_tuples_as_lists():
    data = to_jsonable(ScenarioSpec())
    assert data["env"]["rtt"]["distribution"] == "lognormal"
    assert data["env"]["table"]["rho"] == {"high": 1.0, "medium": 0.85, "low": 0.7}
    assert data["dqn"]["hidden"] == [128, 128]
    assert data["seeds"] == [1, 2, 3]
    assert from_jsonable(ScenarioSpec, json.loads(json.dumps(data))) == ScenarioSpec()


def test_partial_object_takes_defaults_and_widens_ints():
    spec = from_jsonable(ScenarioSpec, {"env": {"horizon_s": 60, "rtt": {"distribution": "none"}}})
    assert spec.env.horizon_s == 60.0 and type(spec.env.horizon_s) is float
    assert spec.env.rtt.distribution is RttDistribution.NONE
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
