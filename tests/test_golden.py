"""Golden trajectories: pinned SHA-256 of short runs' artifacts.

Each (policy, profile) pair runs 120 s at seed 1 and the bytes of its
metrics.json, decisions.csv and frames.csv must hash to the values in
tests/golden/hashes.json. Offload on the cycle profile runs once more with
an uneven processing-time table: under the default constants the offload
MTP terms are short binary fractions that sum alike in any order, so only
non-default ones pin the order of that sum. (The greedy predictor's sum is
pinned by the same table in tests/test_greedy_exact.py.) A 120 s cycle run
never leaves the 1000/500 Mbps levels, so offload and threshold on the cycle
profile also run one full 300 s cycle, with either table, which drives the
uplink queue through its congested phases. A change that moves a
hash changes behaviour or the artifact schema; regenerate the file
deliberately with

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py

The rl entries' `loss` cells also follow the OpenBLAS kernel's summation
order, so the file records the kernel and the numpy version that made it,
and the root conftest.py pins that kernel for the suite.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from xredge.harness import default_scenario, run_experiment
from xredge.latency import ProcTimeTable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import machine_facts  # noqa: E402

HASHES = Path(__file__).parent / "golden" / "hashes.json"
POLICIES = ("local", "offload", "threshold", "greedy", "rl")
PROFILES = ("cycle", "stable")
HORIZON_S = 120.0
CYCLE_S = 300.0  # one full period of the cycle profile
CONGESTED = ("offload", "threshold")
SEED = 1
FILES = ("metrics.json", "decisions.csv", "frames.csv")
UNEVEN_TABLE = ProcTimeTable(t0_encode_ms=10.1, t_server_ms=8.3, t_decode_ms=0.3)
TABLES = {"": ProcTimeTable(), "-uneven": UNEVEN_TABLE}  # by hash-key suffix

# every golden run by its key in hashes.json: (policy, profile, table, horizon_s)
RUNS = {f"{p}-{q}": (p, q, ProcTimeTable(), HORIZON_S) for p in POLICIES for q in PROFILES}
RUNS["offload-cycle-uneven"] = ("offload", "cycle", UNEVEN_TABLE, HORIZON_S)
RUNS.update({f"{p}-cycle{suffix}-300": (p, "cycle", table, CYCLE_S)
             for p in CONGESTED for suffix, table in TABLES.items()})


def running_kernel() -> dict[str, str]:
    """The OpenBLAS core and the numpy version that this process computes with."""
    facts = machine_facts()
    return {"blas_core": facts["blas_core"], "numpy": facts["numpy"]}


def kernels(golden: dict) -> str:
    """The kernel that made the hashes, and the one this process runs."""
    name = "OpenBLAS core {blas_core} with numpy {numpy}".format
    return f"pinned under {name(**golden['kernel'])}, run under {name(**running_kernel())}"


def run_hashes(policy: str, profile: str, table: ProcTimeTable, horizon_s: float,
               out_dir: Path) -> dict[str, str]:
    spec = default_scenario(policy, profile, horizon_s=horizon_s, seeds=(SEED,))
    spec = replace(spec, env=replace(spec.env, table=table))
    run_experiment(spec, SEED, out_dir)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("key", RUNS)
def test_golden_trajectory(key, tmp_path):
    golden = json.loads(HASHES.read_text())
    assert run_hashes(*RUNS[key], tmp_path) == golden["runs"][key], kernels(golden)


def test_the_suite_runs_the_kernel_the_hashes_were_made_with():
    # the root conftest.py pins the core before numpy loads; a numpy loaded
    # earlier keeps the core OpenBLAS picked for this CPU, and fails here
    golden = json.loads(HASHES.read_text())
    assert running_kernel()["blas_core"] == golden["kernel"]["blas_core"], kernels(golden)


def test_every_pinned_key_is_run():
    # a key no test runs would outlive the policy or run it was pinned for
    assert sorted(json.loads(HASHES.read_text())["runs"]) == sorted(RUNS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {key: run_hashes(*run, Path(tmp) / key) for key, run in RUNS.items()}
    golden = {"kernel": running_kernel(), "runs": hashes}
    HASHES.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    print(f"wrote {HASHES} under {golden['kernel']}")
