"""Put the benchmark modules and this checkout's engine on sys.path, with BLAS
pinned to one thread, before any test imports numpy."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchenv  # noqa: E402

benchenv.bootstrap()
