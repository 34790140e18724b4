"""Test-session set-up: one BLAS thread, as ``perfbench`` and ``tools/output_digest.py`` run.

It must be set before numpy is first imported, so it lives in the root
conftest, which pytest loads before it collects any test module. Criterion
7's fixture runs its folds in one worker process per usable CPU; with a
BLAS thread per CPU in each worker as well, the workers oversubscribe the
CPUs (on 2 vCPUs the fixture took 66 s, against 31 s in one process and
21 s with one BLAS thread per worker). A value already set is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
