"""The CI workflow's steps name demos, benchmark functions and a console
script that exist: a renamed file or function fails here, not first on CI.
The "Console script" step's commands also run here, through `python -m`."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from xredge.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_step(name: str) -> dict:
    """The one workflow step called `name`."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    steps = [step for job in jobs for step in job["steps"] if step.get("name") == name]
    assert len(steps) == 1, f"{len(steps)} steps are named {name!r}"
    return steps[0]


def step_run(name: str) -> str:
    """The `run` script of the one workflow step called `name`."""
    return workflow_step(name)["run"]


def test_demos_step_globs_at_least_one_demo():
    (pattern,) = re.findall(r"\bdemos/\S*\.py\b", step_run("Demos"))
    assert sorted(ROOT.glob(pattern))


def test_every_demo_has_its_pinned_stdout_and_the_demos_step_diffs_it():
    demos = {p.stem for p in (ROOT / "demos").glob("*.py")}
    pinned = {p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt")}
    assert demos and demos == pinned
    run = step_run("Demos")
    assert "OPENBLAS_CORETYPE=Haswell" in run
    assert re.search(r'\bdiff\b.*"tests/golden/demos/\$\(basename "\$demo" \.py\)\.txt"', run)


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



def test_console_script_step_runs_and_writes_its_outputs(tmp_path):
    # the step's commands in its order, each as `python -m xredge.cli` in a
    # child interpreter, with $RUNNER_TEMP at tmp_path and the step's
    # environment, in which a RuntimeWarning is an error
    step_env = workflow_step("Console script")["env"]
    assert step_env == {"PYTHONWARNINGS": "error::RuntimeWarning"}
    script = step_run("Console script").replace("$RUNNER_TEMP", str(tmp_path))
    commands = [shlex.split(line) for line in script.splitlines() if line.strip()]
    assert [argv[1] for argv in commands] == ["run", "sweep", "aggregate", "report"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    stdout = {}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "xredge.cli", *argv[1:]], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, **step_env, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        stdout[argv[1]] = proc.stdout.splitlines()
    # aggregate and report each write their file where the step points them
    aggregate = Path(commands[2][commands[2].index("--runs") + 1]) / "aggregate.json"
    report = Path(commands[3][commands[3].index("--out") + 1]) / "report.csv"
    assert f"wrote {aggregate}" in stdout["aggregate"] and aggregate.is_file()
    assert f"wrote {report}" in stdout["report"] and report.is_file()
    # the aggregated directory holds one scenario: the one seed of `run`
    agg = json.loads(aggregate.read_text())
    assert (agg["scenario"], agg["seeds"]) == ("threshold-cycle", [1])
