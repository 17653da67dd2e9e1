"""Pins the OpenBLAS kernel of the whole suite before numpy loads.

OpenBLAS picks its kernels by CPU when it loads, and kernels add a matrix
product's terms in different orders, so the learner's loss cells in the rl
entries of tests/golden/hashes.json hold for one kernel only. Haswell runs on
every x86-64 CPU since 2013, Intel's and AMD's alike. An OPENBLAS_CORETYPE
already set is kept, and the golden test names both kernels when they differ.
"""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
