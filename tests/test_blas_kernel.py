"""The rl results against the OpenBLAS kernel that computes them.

OpenBLAS picks its kernels by CPU at load time, and `OPENBLAS_CORETYPE`
overrides the pick for one process. Different kernels add a matrix product's
terms in different orders, so the learner's loss may differ in its last
digits. The property pinned here is that nothing the paper's metrics are
computed from does: the same rl episode under two kernels writes the same
`metrics.json` and `frames.csv` bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORES = ("Haswell", "Sandybridge")


def run_under(core: str, out: Path) -> Path:
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-m", "xredge.cli", "run", "--policy", "rl", "--profile", "cycle",
         "--horizon", "120", "--seeds", "1", "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return out / "rl-cycle" / "seed_1"


def test_rl_metrics_and_frames_do_not_depend_on_the_blas_kernel(tmp_path):
    runs = [run_under(core, tmp_path / core) for core in CORES]
    # the last digits of the `loss` cells follow the kernel's summation order,
    # so decisions.csv may differ; equal files mean the kernel did not switch
    decisions = [(r / "decisions.csv").read_bytes() for r in runs]
    if decisions[0] == decisions[1]:
        pytest.skip(f"OPENBLAS_CORETYPE={'/'.join(CORES)} picked one kernel: "
                    "decisions.csv is identical, so nothing was compared")
    for name in ("metrics.json", "frames.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
