"""Keep BLAS single-threaded so measured runtimes reflect one core, and
test the `repdet` that `PYTHONPATH` names, or else this checkout's `src`.

Both must happen before numpy's first import, which is why they sit at
conftest top: `find_spec` locates a top-level package without running it.
"""
import importlib.util
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

if importlib.util.find_spec("repdet") is None:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def pytest_report_header(config):
    import repdet

    return f"repdet under test: {os.path.dirname(os.path.abspath(repdet.__file__))}"
