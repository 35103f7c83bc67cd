"""The float32 forward against the float64 reference kernels in oracles.py.

The reference is swapped in for the names `repdet.blocks` and `repdet.model`
import from `repdet.tensor_ops`, so the same graphs run once in each
precision. Head maps must agree within the `fuse --verify` bound; kernels
whose float32 result is exactly the float64 one rounded must match bit for bit.
"""
import numpy as np
import pytest

import repdet.blocks as B
import repdet.model as M
from repdet.fusion import fuse_model_graph
from repdet.tensor_ops import elementwise, pool2d

from oracles import (
    batch_norm_inference_f64,
    conv2d_f64,
    elementwise_f64,
    pool2d_f64,
    scale_forward_f64,
    silu_f64,
)

HEAD_BOUND = 1e-3  # same bound as `repdet fuse --verify`

F64_KERNELS = {
    B: {"conv2d": conv2d_f64, "batch_norm_inference": batch_norm_inference_f64,
        "silu": silu_f64, "pool2d": pool2d_f64, "elementwise": elementwise_f64},
    M: {"silu": silu_f64},
}


def forward_f64(g, x):
    with pytest.MonkeyPatch.context() as mp:
        for module, kernels in F64_KERNELS.items():
            for name, fn in kernels.items():
                mp.setattr(module, name, fn)
        mp.setattr(B.ScaleParam, "forward", scale_forward_f64)
        return M.forward(g, x)


def seeded_graph(variant, seed):
    """Seeded init with non-trivial norm statistics, biases and scales, so
    that batch norm and its folding do real work."""
    g = M.build_model(variant, 3)
    M.init_weights(g, seed)
    rng = np.random.default_rng(seed + 100)
    for entry in g.params:
        for suffix, arr in entry.block.named_arrays():
            leaf = suffix.rsplit(".", 1)[-1]
            if leaf in ("gamma", "s"):
                arr[...] = rng.uniform(0.5, 1.5, arr.shape)
            elif leaf == "var":
                arr[...] = rng.uniform(0.25, 2.0, arr.shape)
            elif leaf in ("beta", "mean", "b"):
                arr[...] = rng.uniform(-0.2, 0.2, arr.shape)
    return g


@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_four_graph_forms_match_float64_reference(variant):
    g = seeded_graph(variant, 4)
    x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
    for graph in (g, fuse_model_graph(g)):
        got = M.forward(graph, x)
        want = forward_f64(graph, x)
        # bit-equal maps would mean the float64 kernels never ran
        assert not all(np.array_equal(a, b) for a, b in zip(got, want))
        for a, b in zip(got, want):
            assert a.dtype == np.float32 and b.dtype == np.float32
            assert np.isfinite(b).all() and np.abs(b).max() > 0.1
            assert np.abs(a - b).max() < HEAD_BOUND


def wide_floats(rng, shape):
    """Signed float32 values spread over many binades, with exact ties."""
    mant = rng.uniform(-1.0, 1.0, shape)
    exp = rng.integers(-40, 40, shape)
    x = np.ldexp(mant, exp).astype(np.float32)
    x.flat[::7] = 0.0
    return x


def test_max_pool_bit_identical():
    rng = np.random.default_rng(6)
    for k, s, p in ((5, 1, 2), (3, 2, 1), (2, 2, 0), (3, 1, 0)):
        x = wide_floats(rng, (2, 3, 11, 9))
        assert np.array_equal(pool2d(x, "max", k, s, p), pool2d_f64(x, "max", k, s, p))


@pytest.mark.parametrize("op", ["add", "mul"])
def test_elementwise_bit_identical(op):
    rng = np.random.default_rng(7)
    x = wide_floats(rng, (2, 4, 16, 16))
    y = wide_floats(rng, (2, 4, 16, 16))
    assert np.array_equal(elementwise(x, y, op), elementwise_f64(x, y, op))


def test_scale_bit_identical():
    rng = np.random.default_rng(8)
    x = wide_floats(rng, (1, 8, 16, 16))
    for value in (1.0, 0.75, 1.3371, -2.5e-3):
        blk = B.ScaleParam(value)
        assert np.array_equal(blk.forward(x), scale_forward_f64(blk, x))
