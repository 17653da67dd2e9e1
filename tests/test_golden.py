"""Golden trajectories: pinned SHA-256 of short runs' artifacts.

Each (policy, profile) pair runs 120 s at seed 1 and the bytes of its
metrics.json, decisions.csv and frames.csv must hash to the values in
tests/golden/hashes.json. A change that moves a hash changes behaviour or
the artifact schema; regenerate the file deliberately with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from xredge.harness import default_scenario, run_experiment

HASHES = Path(__file__).parent / "golden" / "hashes.json"
POLICIES = ("local", "offload", "threshold", "greedy", "greedy-noqueue", "rl")
PROFILES = ("cycle", "stable")
HORIZON_S = 120.0
SEED = 1
FILES = ("metrics.json", "decisions.csv", "frames.csv")


def run_hashes(policy: str, profile: str, out_dir: Path) -> dict[str, str]:
    spec = default_scenario(policy, profile, horizon_s=HORIZON_S, seeds=(SEED,))
    run_experiment(spec, SEED, out_dir)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("policy", POLICIES)
def test_golden_trajectory(policy, profile, tmp_path):
    expected = json.loads(HASHES.read_text())[f"{policy}-{profile}"]
    assert run_hashes(policy, profile, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            f"{p}-{q}": run_hashes(p, q, Path(tmp) / f"{p}-{q}")
            for p in POLICIES
            for q in PROFILES
        }
    HASHES.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print(f"wrote {HASHES}")
