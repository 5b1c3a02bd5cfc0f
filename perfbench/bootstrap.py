"""Process set-up shared by the benchmark scripts.

Call ``prepare()`` before anything imports numpy: it pins the BLAS thread
count, which the BLAS library reads once at load time, and puts the
checkout's ``src/`` first on the import path.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, at most nproc anywhere: the solver's dense kernels are
# small, and more threads mostly add scheduling noise to the timings
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "antiplane" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no antiplane sources under {SRC}")
    sys.path.insert(0, str(SRC))
