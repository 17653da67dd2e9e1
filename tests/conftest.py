"""Shared fixtures: scenario results are expensive, so cache them per session."""

import json

import pytest

from xredge.config import to_jsonable
from xredge.harness import run_scenario


class ScenarioCache:
    """Memoizes full scenario runs keyed by their physical configuration.

    The scenario name is excluded from the key so differently-labelled specs
    with identical dynamics (e.g. a sweep point equal to the default) share
    one run.
    """

    def __init__(self):
        self._cache = {}

    def run(self, spec):
        d = to_jsonable(spec)
        d.pop("name", None)
        key = json.dumps(d, sort_keys=True)
        if key not in self._cache:
            self._cache[key] = run_scenario(spec, out_dir=None)
        return self._cache[key]

    def aggregate(self, spec) -> dict:
        return self.run(spec)[1]

    def results(self, spec) -> list:
        return self.run(spec)[0]


@pytest.fixture(scope="session")
def scenarios():
    return ScenarioCache()
