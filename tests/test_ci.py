"""The CI workflow's steps name demos, benchmark functions and a console
script that exist: a renamed file or function fails here, not first on CI."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest
import yaml

from xredge.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def step_run(name: str) -> str:
    """The `run` script of the one workflow step called `name`."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    steps = [step for job in jobs for step in job["steps"] if step.get("name") == name]
    assert len(steps) == 1, f"{len(steps)} steps are named {name!r}"
    return steps[0]["run"]


def test_demos_step_globs_at_least_one_demo():
    (pattern,) = re.findall(r"\bdemos/\S*\.py\b", step_run("Demos"))
    assert sorted(ROOT.glob(pattern))


def test_digest_step_calls_functions_that_workloads_defines():
    called = set(re.findall(r"\bworkloads\.(\w+)\(", step_run("Benchmark digests")))
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert called == {"compute_digests", "load_digests"}
    assert called <= defined


def test_console_script_step_runs_the_declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:    # Python 3.10
        tomllib = pytest.importorskip("tomli")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["xredge"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    commands = [shlex.split(line) for line in step_run("Console script").splitlines() if line.strip()]
    assert commands and all(argv[0] == "xredge" for argv in commands)
    for argv in commands:
        build_parser().parse_args(argv[1:])      # every flag the step passes exists
