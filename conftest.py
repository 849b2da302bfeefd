"""Test-session setup shared by ``tests/`` and ``perfbench/tests``.

Pins one BLAS thread before numpy is first imported, as
``perfbench/run.py`` does: with the default thread count, dense
eigensolves in the tests slow down many times over when another process
shares the cores. It sits at the root because ``perfbench/tests`` is
collected before ``tests/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
