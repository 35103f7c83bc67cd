"""Property tests: the slice kernels in repdet.tensor_ops against the float64
kernels and loop oracles in oracles.py, over drawn channels, kernels
(including the 1xL and Lx1 strips of the MSCA block), strides, paddings,
dilations and spatial sizes. Inputs and weights lie in [-1, 1].

Draws are derandomized, so every run checks the same examples.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
def windows(draw, kernel, dilated):
    """(kernel, stride, padding, dilation, (h, w)) with at least one output pixel."""
    k = draw(kernel)
    stride = tuple(draw(st.integers(1, 3)) for _ in k)
    dilation = tuple(draw(st.integers(1, 3)) if dilated else 1 for _ in k)
    span = [d * (n - 1) + 1 for n, d in zip(k, dilation)]
    padding = tuple(draw(st.integers(0, s // 2)) for s in span)
    size = tuple(draw(st.integers(max(1, s - 2 * p), s + 6)) for s, p in zip(span, padding))
    return k, stride, padding, dilation, size


def float32_accumulation_bound(terms):
    """Worst |float32 result - float32(exact)| for a sum of `terms` products,
    each at most 1 in magnitude: gamma_terms * terms for the accumulation,
    plus one rounding of the reference to float32."""
    return terms * (terms * U / (1 - terms * U) + U)


@PROPERTY
@given(geom=windows(kernels(21), dilated=True), depthwise=st.booleans(),
       groups=st.integers(1, 4), cg=st.integers(1, 3), og=st.integers(1, 3),
       bias=st.booleans(), seed=seeds)
def test_conv2d_depthwise_and_grouped_match_float64(geom, depthwise, groups, cg, og, bias, seed):
    kernel, stride, padding, dilation, (h, w) = geom
    if depthwise:
        groups, cg, og = groups + 4, 1, 1
    spec = Conv2dSpec(groups * cg, groups * og, kernel, stride, padding, dilation,
                      groups=groups, has_bias=bias)
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
@given(geom=windows(kernels(21), dilated=False), channels=st.integers(1, 4), seed=seeds)
def test_max_pool_bit_identical_to_float64(geom, channels, seed):
    kernel, stride, padding, _, (h, w) = geom
    x = np.random.default_rng(seed).uniform(-1, 1, (1, channels, h, w)).astype(np.float32)
    assert np.array_equal(pool2d(x, "max", kernel, stride, padding),
                          pool2d_f64(x, "max", kernel, stride, padding))


# a float32 mean over k*k <= 15 values in [-1, 1] carries at most k*k + 1
# roundings of U each (sum, division, reference), which stays below 1e-6
@PROPERTY
@given(geom=windows(kernels(15, max_square=3), dilated=False), channels=st.integers(1, 4),
       seed=seeds)
def test_avg_pool_matches_loop_oracle(geom, channels, seed):
    kernel, stride, padding, _, (h, w) = geom
    x = np.random.default_rng(seed).uniform(-1, 1, (1, channels, h, w)).astype(np.float32)
    got = pool2d(x, "avg", kernel, stride, padding)
    want = ref_pool2d(x, "avg", kernel, stride, padding)
    assert np.abs(got - want).max() < 1e-6
