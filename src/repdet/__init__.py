"""repdet: a lightweight anchor-free detector engine with deterministic NCHW
kernels, a structural-reparameterization fusion pass, and a mAP@0.5 harness."""

from .model import (
    build_model,
    collect_weights,
    forward,
    init_weights,
    load_weights,
    param_count,
    profile_graph,
)
from .fusion import fuse_model_graph
from .weights import WeightStore

__version__ = "0.1.0"

__all__ = [
    "WeightStore",
    "build_model",
    "collect_weights",
    "forward",
    "fuse_model_graph",
    "init_weights",
    "load_weights",
    "param_count",
    "profile_graph",
    "__version__",
]
