"""Process set-up shared by the benchmark's scripts and tests: pin BLAS to one
thread before numpy loads, and put this checkout's engine (`src/`) first on
sys.path. Also records the environment a run measured in."""
from __future__ import annotations

import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
ENGINE_SRC = os.path.join(REPO_ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class EngineMissing(RuntimeError):
    pass


def bootstrap() -> None:
    """Pin BLAS threads and import the checkout's repdet; raise EngineMissing
    when the checkout holds no engine source."""
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ENGINE_SRC, "repdet", "__init__.py")):
        raise EngineMissing(f"no engine source at {ENGINE_SRC}")
    if ENGINE_SRC not in sys.path:
        sys.path.insert(0, ENGINE_SRC)
    import repdet

    if os.path.dirname(os.path.dirname(os.path.abspath(repdet.__file__))) != ENGINE_SRC:
        raise EngineMissing(f"repdet imported from {repdet.__file__}, not from {ENGINE_SRC}")


def environment_record(seed: int, slot: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "slot": slot,
        "loadavg_start": list(os.getloadavg()),
    }
