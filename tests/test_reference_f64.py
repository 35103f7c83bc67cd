"""The float32 forward against the float64 reference kernels in oracles.py.

The reference is swapped in for the names `repdet.blocks` and `repdet.model`
import from `repdet.tensor_ops`, so the same graphs run once in each
precision. Head maps must agree within the `fuse --verify` bound; kernels
whose float32 result is exactly the float64 one rounded must match bit for
bit, and so must the in-place conv epilogue and the kernels it replaces.
"""
from collections import Counter

import numpy as np
import pytest

import repdet.blocks as B
import repdet.model as M
from repdet.fusion import fuse_model_graph
from repdet.tensor_ops import (
    batch_norm_inference,
    conv_epilogue,
    elementwise,
    pool2d,
    silu,
)

from oracles import (
    batch_norm,
    batch_norm_inference_f64,
    conv2d_f64,
    conv_epilogue_f64,
    elementwise_f64,
    named_arrays,
    pool2d_f64,
    scale_forward_f64,
    silu_f64,
)

HEAD_BOUND = 1e-3  # same bound as `repdet fuse --verify`

# `blocks.silu` is left out: only `RepConvBlock.forward` calls it, and graphs
# run a RepConv stack as branch nodes, never through that method
F64_KERNELS = {
    B: {"conv2d": conv2d_f64, "conv_epilogue": conv_epilogue_f64,
        "batch_norm_inference": batch_norm_inference_f64, "pool2d": pool2d_f64,
        "elementwise": elementwise_f64},
    M: {"silu": silu_f64},
}
SCALE = "ScaleParam.forward"
SWAPPED = {f"{m.__name__}.{name}" for m, kernels in F64_KERNELS.items() for name in kernels} | {SCALE}
# reached only by the improved graphs: the RepConv branch sum's SiLU, the
# avg-pool branch's batch norm, and the per-level box scales
IMPROVED_ONLY = {"repdet.model.silu", "repdet.blocks.batch_norm_inference", SCALE}


def _counted(fn, name, calls):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def forward_f64(g, x, calls=None):
    """`M.forward` with every float32 kernel swapped for its float64 version;
    `calls` (a Counter) receives the number of calls of each."""
    calls = Counter() if calls is None else calls
    with pytest.MonkeyPatch.context() as mp:
        for module, kernels in F64_KERNELS.items():
            for name, fn in kernels.items():
                mp.setattr(module, name, _counted(fn, f"{module.__name__}.{name}", calls))
        mp.setattr(B.ScaleParam, "forward", _counted(scale_forward_f64, SCALE, calls))
        return M.forward(g, x)


def seeded_graph(variant, seed):
    """Seeded init with non-trivial norm statistics, biases and scales, so
    that batch norm and its folding do real work."""
    g = M.build_model(variant, 3)
    M.init_weights(g, seed)
    rng = np.random.default_rng(seed + 100)
    for entry in g.params:
        for suffix, arr in named_arrays(entry.block):
            leaf = suffix.rsplit(".", 1)[-1]
            if leaf in ("gamma", "s"):
                arr[...] = rng.uniform(0.5, 1.5, arr.shape)
            elif leaf == "var":
                arr[...] = rng.uniform(0.25, 2.0, arr.shape)
            elif leaf in ("beta", "mean", "b"):
                arr[...] = rng.uniform(-0.2, 0.2, arr.shape)
    return g


def test_repconv_sites_equal_block_forward():
    # a graph site sums its branch nodes with the same add_n as the block, so
    # the two compute the same bits
    g = seeded_graph("improved", 4)
    x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
    vals = {node.name: out for node, out in M.walk(g, x)}
    stacks = {e.name: e.block for e in g.params}
    for level in ("p3", "p4", "p5"):
        for stack, src in (("rep1", "stem"), ("rep2", "rep1.act")):
            got = vals[f"head.{level}.{stack}.act"]
            want = stacks[f"head.{stack}"].forward(vals[f"head.{level}.{src}"])
            assert np.array_equal(got, want), f"head.{level}.{stack}"


@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_four_graph_forms_match_float64_reference(variant):
    g = seeded_graph(variant, 4)
    x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
    calls = Counter()
    for graph in (g, fuse_model_graph(g)):
        got = M.forward(graph, x)
        want = forward_f64(graph, x, calls)
        # bit-equal maps would mean the float64 kernels never ran
        assert not all(np.array_equal(a, b) for a, b in zip(got, want))
        for a, b in zip(got, want):
            assert a.dtype == np.float32 and b.dtype == np.float32
            assert np.isfinite(b).all() and np.abs(b).max() > 0.1
            assert np.abs(a - b).max() < HEAD_BOUND
    # a kernel the forward stops calling would leave its float32 path unchecked
    assert set(calls) == (SWAPPED if variant == "improved" else SWAPPED - IMPROVED_ONLY)


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
    blk = B.ScaleParam()
    for value in (1.0, 0.75, 1.3371, -2.5e-3):
        blk.s[...] = value
        assert np.array_equal(blk.forward(x), scale_forward_f64(blk, x))


def test_conv_epilogue_bit_identical():
    rng = np.random.default_rng(9)
    y = wide_floats(rng, (2, 6, 9, 7))
    bn = batch_norm(rng.uniform(0.5, 1.5, 6), rng.uniform(-0.2, 0.2, 6),
                    rng.uniform(-0.2, 0.2, 6), rng.uniform(0.25, 2.0, 6))
    # a bias is shifted in by the epilogue, with the bits of adding it first
    b = wide_floats(rng, (6,))
    biased = np.add(y, b[:, None, None], dtype=np.float32)
    cases = [(bn, None, "silu", silu(batch_norm_inference(y, bn))),
             (bn, None, "none", batch_norm_inference(y, bn)),
             (None, b, "silu", silu(biased)),
             (None, b, "none", biased),
             (None, None, "none", y)]
    for norm, bias, act, want in cases:
        got = conv_epilogue(y.copy(), norm, act, bias)
        assert got.dtype == np.float32 and np.array_equal(got, want)


def test_conv_epilogue_bias_in_the_subnormal_range():
    # halving rounds a subnormal, so y/2 + b/2 may land one step from
    # (y + b)/2 before the SiLU tail; with no SiLU nothing is halved
    rng = np.random.default_rng(10)
    step = np.float32(2.0 ** -149)
    y = rng.integers(-2 ** 23, 2 ** 23, (2, 8, 8, 16)).astype(np.float32) * step
    b = rng.integers(-2 ** 23, 2 ** 23, 8).astype(np.float32) * step
    assert np.all(np.abs(y) < np.finfo(np.float32).smallest_normal)
    biased = np.add(y, b[:, None, None], dtype=np.float32)
    assert np.array_equal(conv_epilogue(y.copy(), None, "none", b), biased)
    got = conv_epilogue(y.copy(), None, "silu", b)
    assert np.abs(got - silu(biased)).max() <= step
