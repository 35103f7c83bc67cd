"""Property tests: the slice kernels in repdet.tensor_ops against the float64
kernels and loop oracles in oracles.py, over drawn channels, kernels
(including the 1xL and Lx1 strips of the MSCA block), strides, paddings
and spatial sizes, and the dense conv by blocks of output rows
against the same conv in one block. Inputs and weights lie in [-1, 1].

Draws are derandomized, so every run checks the same examples.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repdet.tensor_ops as T
from repdet.tensor_ops import Conv2dSpec, conv2d, pool2d

from oracles import conv2d_f64, pool2d_f64, ref_pool2d

U = 2.0 ** -24  # float32 unit roundoff

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2 ** 32 - 1)


def kernels(max_strip, max_square=5):
    return st.one_of(
        st.integers(1, max_square).map(lambda k: (k, k)),
        st.integers(2, max_strip).map(lambda n: (1, n)),
        st.integers(2, max_strip).map(lambda n: (n, 1)),
    )


@st.composite
def windows(draw, kernel):
    """(kernel, stride, padding, (h, w)) with at least one output pixel."""
    k = draw(kernel)
    stride = tuple(draw(st.integers(1, 3)) for _ in k)
    padding = tuple(draw(st.integers(0, n // 2)) for n in k)
    size = tuple(draw(st.integers(max(1, n - 2 * p), n + 6)) for n, p in zip(k, padding))
    return k, stride, padding, size


def float32_accumulation_bound(terms):
    """Worst |float32 result - float32(exact)| for a sum of `terms` products,
    each at most 1 in magnitude: gamma_terms * terms for the accumulation,
    plus one rounding of the reference to float32."""
    return terms * (terms * U / (1 - terms * U) + U)


@PROPERTY
@given(geom=windows(kernels(21)), depthwise=st.booleans(),
       groups=st.integers(1, 4), cg=st.integers(1, 3), og=st.integers(1, 3),
       bias=st.booleans(), seed=seeds)
def test_conv2d_depthwise_and_grouped_match_float64(geom, depthwise, groups, cg, og, bias, seed):
    kernel, stride, padding, (h, w) = geom
    if depthwise:
        groups, cg, og = groups + 4, 1, 1
    spec = Conv2dSpec(groups * cg, groups * og, kernel, stride, padding, groups=groups)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (1, spec.in_ch, h, w)).astype(np.float32)
    wt = rng.uniform(-1, 1, spec.weight_shape).astype(np.float32)
    b = rng.uniform(-1, 1, spec.out_ch).astype(np.float32) if bias else None
    got = conv2d(x, spec, wt, b)
    want = conv2d_f64(x, spec, wt, b)
    assert got.shape == want.shape and got.dtype == np.float32
    terms = cg * kernel[0] * kernel[1] + bias
    assert np.abs(got - want).max() <= float32_accumulation_bound(terms)


@PROPERTY
@given(geom=windows(kernels(21)), channels=st.integers(1, 4), seed=seeds)
def test_max_pool_bit_identical_to_float64(geom, channels, seed):
    kernel, stride, padding, (h, w) = geom
    x = np.random.default_rng(seed).uniform(-1, 1, (1, channels, h, w)).astype(np.float32)
    assert np.array_equal(pool2d(x, "max", kernel, stride, padding),
                          pool2d_f64(x, "max", kernel, stride, padding))


# a float32 mean over k*k <= 15 values in [-1, 1] carries at most k*k + 1
# roundings of U each (sum, division, reference), which stays below 1e-6
@PROPERTY
@given(geom=windows(kernels(15, max_square=3)), channels=st.integers(1, 4), seed=seeds)
def test_avg_pool_matches_loop_oracle(geom, channels, seed):
    kernel, stride, padding, (h, w) = geom
    x = np.random.default_rng(seed).uniform(-1, 1, (1, channels, h, w)).astype(np.float32)
    got = pool2d(x, "avg", kernel, stride, padding)
    want = ref_pool2d(x, "avg", kernel, stride, padding)
    assert np.abs(got - want).max() < 1e-6


def _blas_rounds_blocks_alike() -> bool:
    """Whether this BLAS gives two column blocks, each above
    SMALL_GEMM_MACS, the bits it gives them in one GEMM. OpenBLAS's kernels
    for AVX-512 cores do; its Haswell kernels round some columns differently."""
    rng = np.random.default_rng(0)
    w = rng.uniform(-1, 1, (64, 144)).astype(np.float32)
    cols = rng.uniform(-1, 1, (144, 2 * 109 + 3)).astype(np.float32)
    whole = w @ cols
    return all(np.array_equal(w @ cols[:, s], whole[:, s]) for s in (np.s_[:109], np.s_[109:]))


@st.composite
def dense_convs(draw):
    """(spec, bias, batch, (h, w), im2col budget) for a dense conv that gathers
    im2col (not a 1x1 stride-1 unpadded one). Output widths sit near the one that makes a
    row's GEMM, or a pair or triple of rows', just exceed SMALL_GEMM_MACS."""
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.integers(2 if k == 1 else 1, 2))
    c = draw(st.sampled_from([8, 16]))
    out_ch = draw(st.sampled_from([16, 64]))
    kk = c * k * k
    ho = draw(st.integers(1, 7))
    wo = max(1, T.SMALL_GEMM_MACS // (out_ch * kk) // draw(st.sampled_from([1, 2, 3]))
             + draw(st.integers(-2, 4)))
    p = k // 2
    size = ((ho - 1) * stride + k - 2 * p, (wo - 1) * stride + k - 2 * p)
    budget = draw(st.integers(1, 4 * kk * ho * wo))
    spec = Conv2dSpec(c, out_ch, k, stride, p)
    return spec, draw(st.booleans()), draw(st.integers(1, 2)), size, budget


# one row per block, blocks of 2 and 3 rows, batch 2 with stride 2 and 5x5;
# bit for bit wherever the BLAS rounds a block as it rounds the whole GEMM
@PROPERTY
@given(conv=dense_convs(), seed=seeds)
@example(conv=(Conv2dSpec(16, 64, 3, 1, 1), False, 1, (5, 109), 1), seed=0)
@example(conv=(Conv2dSpec(16, 64, 3, 1, 1), False, 1, (5, 109), 4 * 144 * 109 * 3), seed=1)
@example(conv=(Conv2dSpec(16, 64, 5, 2, 2), True, 2, (9, 79), 1), seed=2)
def test_dense_conv_row_blocks_bit_identical_to_one_block(conv, seed):
    spec, bias, batch, (h, w), budget = conv
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (batch, spec.in_ch, h, w)).astype(np.float32)
    wt = rng.uniform(-1, 1, spec.weight_shape).astype(np.float32)
    b = rng.uniform(-1, 1, spec.out_ch).astype(np.float32) if bias else None
    ho, wo = spec.out_hw(h, w)
    kk = spec.in_ch * spec.kernel[0] * spec.kernel[1]
    row_macs = spec.out_ch * kk * wo
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "IM2COL_BUDGET", 1 << 62)
        assert T._row_blocks(ho, wo, kk, spec.out_ch) == [(0, ho)]
        whole = conv2d(x, spec, wt, b)
        mp.setattr(T, "IM2COL_BUDGET", budget)
        blocks = T._row_blocks(ho, wo, kk, spec.out_ch)
        got = conv2d(x, spec, wt, b)
    assert [r0 for r0, _ in blocks] == [0] + [r1 for _, r1 in blocks[:-1]]
    assert blocks[-1][1] == ho
    if len(blocks) > 1:
        assert min(r1 - r0 for r0, r1 in blocks) * row_macs > T.SMALL_GEMM_MACS
    if budget <= 4 * kk * wo and row_macs > T.SMALL_GEMM_MACS:
        assert len(blocks) == ho
    if _blas_rounds_blocks_alike():
        assert np.array_equal(got, whole)
    else:
        assert np.abs(got - whole).max() <= 2 * float32_accumulation_bound(kk + bias)
