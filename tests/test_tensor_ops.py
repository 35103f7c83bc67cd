"""Kernel-level tests: every op against hand values, loop oracles, and its
declared algebraic properties."""
import numpy as np
import pytest

import repdet.tensor_ops as T
from repdet.errors import NumericError, ShapeError, SpecError
from repdet.tensor_ops import (
    BN_EPS,
    BatchNormParams,
    Conv2dSpec,
    batch_norm_inference,
    concat_channels,
    conv2d,
    conv_epilogue,
    elementwise,
    pool2d,
    sigmoid,
    silu,
    softmax_channelwise,
    split_channels,
    tensor,
    upsample_nearest2x,
)

from oracles import conv_epilogue_f64, ref_conv2d, ref_pool2d, ref_softmax_group

RAMP = tensor(np.arange(9.0), (1, 1, 3, 3))


class TestConv2d:
    def test_identity_1x1(self):
        spec = Conv2dSpec(1, 1, 1)
        out = conv2d(tensor([[[[2.0]]]]), spec, tensor([[[[1.0]]]]))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 2.0

    def test_ramp_all_ones_kernel(self):
        spec = Conv2dSpec(1, 1, 3, padding=1)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d(RAMP, spec, w)
        assert out[0, 0, 1, 1] == 36.0  # sum of 0..8
        assert out[0, 0, 0, 0] == 8.0   # 0 + 1 + 3 + 4

    def test_zero_input_gives_zero_output(self):
        spec = Conv2dSpec(2, 3, 3, padding=1)
        rng = np.random.default_rng(0)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        out = conv2d(np.zeros((1, 2, 4, 4), dtype=np.float32), spec, w)
        assert np.all(out == 0.0)

    def test_per_channel_identity_kernel(self):
        # depthwise 1x1 kernel of ones is the identity map
        x = np.random.default_rng(1).normal(size=(2, 4, 5, 5)).astype(np.float32)
        spec = Conv2dSpec(4, 4, 1, groups=4)
        out = conv2d(x, spec, np.ones((4, 1, 1, 1), dtype=np.float32))
        assert np.array_equal(out, x)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        spec = Conv2dSpec(3, 5, 3, padding=1)
        w = rng.uniform(-1, 1, spec.weight_shape).astype(np.float32)
        x = rng.uniform(-1, 1, (1, 3, 6, 6)).astype(np.float32)
        y = rng.uniform(-1, 1, (1, 3, 6, 6)).astype(np.float32)
        lhs = conv2d((2.0 * x + 0.5 * y).astype(np.float32), spec, w)
        rhs = 2.0 * conv2d(x, spec, w) + 0.5 * conv2d(y, spec, w)
        assert np.abs(lhs - rhs).max() < 1e-4

    def test_matches_loop_oracle_on_random_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = int(rng.choice([1, 1, 2]))
            cin = int(rng.integers(1, 4)) * g
            cout = int(rng.integers(1, 4)) * g
            k = int(rng.integers(1, 4))
            h = int(rng.integers(k, k + 5))
            w = int(rng.integers(k, k + 5))
            st, pd = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            x = rng.uniform(-1, 1, (1, cin, h, w)).astype(np.float32)
            wt = rng.uniform(-1, 1, (cout, cin // g, k, k)).astype(np.float32)
            b = rng.uniform(-1, 1, cout).astype(np.float32)
            spec = Conv2dSpec(cin, cout, k, st, pd, groups=g)
            got = conv2d(x, spec, wt, b)
            want = ref_conv2d(x, wt, b, (st, st), (pd, pd), g)
            assert np.abs(got - want).max() < 1e-6

    def test_channel_mismatch_names_axis(self):
        spec = Conv2dSpec(3, 4, 1)
        with pytest.raises(ShapeError, match="channel"):
            conv2d(np.zeros((1, 2, 2, 2), dtype=np.float32), spec,
                   np.zeros(spec.weight_shape, dtype=np.float32))

    def test_weight_mismatch_names_axis(self):
        spec = Conv2dSpec(2, 2, 3)
        with pytest.raises(ShapeError, match="weight"):
            conv2d(np.zeros((1, 2, 4, 4), dtype=np.float32), spec,
                   np.zeros((2, 2, 1, 1), dtype=np.float32))

    # the 1x1, dense, grouped and depthwise paths
    @pytest.mark.parametrize("k, groups, out_ch", [(1, 1, 8), (3, 1, 8), (3, 2, 8), (3, 4, 4)])
    def test_wrong_length_bias_names_axis(self, k, groups, out_ch):
        spec = Conv2dSpec(4, out_ch, k, padding=k // 2, groups=groups)
        with pytest.raises(ShapeError, match=rf"^bias axis: length \(1,\) != out_ch {out_ch}$"):
            conv2d(np.zeros((1, 4, 3, 3), np.float32), spec,
                   np.zeros(spec.weight_shape, np.float32), np.ones(1, np.float32))

    def test_bad_groups_is_spec_error(self):
        with pytest.raises(SpecError, match="groups"):
            Conv2dSpec(3, 4, 1, groups=2)

    def test_collapsed_output_is_shape_error(self):
        spec = Conv2dSpec(1, 1, 5)
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 3, 3), dtype=np.float32), spec,
                   np.zeros((1, 1, 5, 5), dtype=np.float32))


class TestSlabsAndBands:
    """The conv epilogue's channel slabs and the dense conv's input bands set
    how much is held at once, never a bit of the result."""

    @pytest.mark.parametrize("bn, act", [(True, "silu"), (True, "none"),
                                         (False, "silu"), (False, "none")])
    def test_epilogue_slabs_are_bit_identical(self, monkeypatch, bn, act):
        rng = np.random.default_rng(10)
        y = rng.uniform(-6, 6, (2, 5, 7, 9)).astype(np.float32)
        p = BatchNormParams(rng.uniform(0.5, 1.5, 5), rng.uniform(-0.3, 0.3, 5),
                            rng.uniform(-0.3, 0.3, 5), rng.uniform(0.25, 2.0, 5)) if bn else None
        monkeypatch.setattr(T, "SLAB_BUDGET", 1 << 62)
        whole = conv_epilogue(y.copy(), p, act)
        # two channels per slab: slabs of 2, 2 and a ragged 1 in each image
        monkeypatch.setattr(T, "SLAB_BUDGET", 2 * 4 * 7 * 9)
        got = conv_epilogue(y.copy(), p, act)
        # a channels-last buffer seen as NCHW takes the same slabs as strided views
        strided = conv_epilogue(np.ascontiguousarray(y.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
                                p, act)
        assert np.array_equal(got, whole) and np.array_equal(strided, whole)
        assert np.abs(whole - conv_epilogue_f64(y, p, act)).max() < 4e-6

    # (kernel, stride, padding): stride 2, padding 2, and a 3x3 and a 1x1
    # padded beyond their reach, whose first and last bands hold only zero rows
    @pytest.mark.parametrize("k, s, p", [(3, 1, 1), (3, 2, 1), (5, 1, 2),
                                         (3, 1, 2), (5, 2, 2), (1, 1, 1)])
    def test_dense_bands_are_bit_identical(self, monkeypatch, k, s, p):
        rng = np.random.default_rng(11)
        c, h, w = 3, 11, 8
        x = rng.uniform(-1, 1, (2, c, h, w)).astype(np.float32)
        spec = Conv2dSpec(c, 4, k, s, p)
        wt = rng.uniform(-1, 1, spec.weight_shape).astype(np.float32)
        b = rng.uniform(-1, 1, 4).astype(np.float32)
        ho = spec.out_hw(h, w)[0]
        # one output row per GEMM block, so that bands can split anywhere
        monkeypatch.setattr(T, "IM2COL_BUDGET", 1)
        monkeypatch.setattr(T, "SMALL_GEMM_MACS", 0)
        monkeypatch.setattr(T, "SLAB_BUDGET", 1 << 62)
        whole = conv2d(x, spec, wt, b)
        heights = []
        view = T._window_view

        def spy(xp, kernel, stride, out_hw):
            heights.append(out_hw[0])
            return view(xp, kernel, stride, out_hw)

        monkeypatch.setattr(T, "_window_view", spy)
        two_rows = 4 * c * (w + 2 * p) * (s + k)  # the padded rows of 2 output rows
        for budget, band in ((1, 1), (two_rows, 2)):
            monkeypatch.setattr(T, "SLAB_BUDGET", budget)
            heights.clear()
            got = conv2d(x, spec, wt, b)
            per_image = heights[:len(heights) // 2]
            assert heights == 2 * per_image and sum(per_image) == ho
            assert set(per_image[:-1]) == {band} and per_image[-1] <= band
            assert np.array_equal(got, whole)
        assert np.abs(whole - ref_conv2d(x, wt, b, (s, s), (p, p))).max() < 1e-5


class TestBatchNorm:
    def test_identity_params(self):
        x = np.random.default_rng(5).normal(size=(1, 3, 4, 4)).astype(np.float32)
        p = BatchNormParams.identity(3)
        p.var[...] = 1 - BN_EPS
        assert np.abs(batch_norm_inference(x, p) - x).max() < 1e-6

    def test_affine_arithmetic(self):
        p = BatchNormParams([2.0], [1.0], [0.0], [1 - BN_EPS])
        out = batch_norm_inference(tensor([[[[3.0]]]]), p)
        assert abs(out[0, 0, 0, 0] - 7.0) < 1e-6

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            batch_norm_inference(np.zeros((1, 2, 2, 2), dtype=np.float32),
                                 BatchNormParams.identity(3))

    def test_negative_variance_rejected(self):
        with pytest.raises(NumericError):
            BatchNormParams([1.0], [0.0], [0.0], [-0.5])


class TestLeanConstruction:
    """`BatchNormParams.identity` and `Conv2dSpec` skip the conversions and
    checks that their arguments do not need, with the same results."""

    def test_identity_builds_fresh_arrays(self):
        calls = [BatchNormParams.identity(5), BatchNormParams.identity(5)]
        arrays = [getattr(p, k) for p in calls for k in ("gamma", "beta", "mean", "var")]
        for arr, value in zip(arrays, [1, 0, 0, 1] * 2):
            assert arr.dtype == np.float32 and arr.shape == (5,) and arr.flags.writeable
            assert np.array_equal(arr, np.full(5, value, np.float32))
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
        checked = BatchNormParams(np.ones(5), np.zeros(5), np.zeros(5), np.ones(5))
        assert calls[0].channels == checked.channels == 5

    CANONICAL = Conv2dSpec(4, 8, (3, 3), (1, 1), (1, 1), 2)

    @pytest.mark.parametrize("pairs", [
        (3, 1, 1),
        ([3, 3], [1, 1], [1, 1]),
        ((3, 3), (1, 1), (1, 1)),
        (np.int64(3), (np.int64(1), np.int64(1)), [np.int64(1)] * 2),
        ((3, 3), True, (True, True)),
    ], ids=["ints", "lists", "tuples", "int64", "bool"])
    def test_spec_forms_equal_the_canonical_one(self, pairs):
        spec = Conv2dSpec(4, 8, *pairs, groups=2)
        assert spec == self.CANONICAL and hash(spec) == hash(self.CANONICAL)
        for v in (spec.kernel, spec.stride, spec.padding):
            assert type(v) is tuple and [type(x) for x in v] == [int, int]

    @pytest.mark.parametrize("kwargs, message", [
        ({"kernel": 0}, "kernel and stride entries must be >= 1"),
        ({"kernel": [3, 0]}, "kernel and stride entries must be >= 1"),
        ({"stride": np.int64(0)}, "kernel and stride entries must be >= 1"),
        ({"stride": False}, "kernel and stride entries must be >= 1"),
        ({"padding": -1}, "padding must be non-negative"),
        ({"padding": (0, -1)}, "padding must be non-negative"),
        ({"in_ch": 0}, "in_ch must be positive, got 0"),
        ({"groups": 3}, r"channels \(4 in, 8 out\) not divisible by groups=3"),
    ])
    def test_spec_rejects_invalid_values(self, kwargs, message):
        args = {"in_ch": 4, "out_ch": 8, "kernel": 3, **kwargs}
        with pytest.raises(SpecError, match=f"^{message}$"):
            Conv2dSpec(**args)


class TestActivations:
    def test_silu_zero(self):
        assert silu(tensor([[[[0.0]]]]))[0, 0, 0, 0] == 0.0

    def test_silu_asymptote(self):
        x = tensor([[[[20.0, 35.0, 80.0]]]], (1, 1, 1, 3))
        assert np.abs(silu(x) - x).max() < 1e-4

    def test_silu_at_one(self):
        assert abs(silu(tensor([[[[1.0]]]]))[0, 0, 0, 0] - 0.731059) < 1e-6

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(tensor([[[[-1e4, 1e4]]]], (1, 1, 1, 2)))
        assert out[0, 0, 0, 0] == 0.0 and out[0, 0, 0, 1] == 1.0


class TestPool2d:
    def test_avg_constant_interior(self):
        x = np.full((1, 2, 5, 5), 3.25, dtype=np.float32)
        out = pool2d(x, "avg", 3, 1, 0)  # no padding: every window is interior
        assert np.abs(out - 3.25).max() < 1e-6

    def test_max_window(self):
        x = tensor([1.0, 5.0, 3.0, 2.0], (1, 1, 2, 2))
        out = pool2d(x, "max", 2, 1, 0)
        assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 5.0

    def test_avg_ramp_center(self):
        out = pool2d(RAMP, "avg", 3, 1, 1)
        assert abs(out[0, 0, 1, 1] - 4.0) < 1e-6

    def test_kernel_exceeding_input_is_shape_error(self):
        with pytest.raises(ShapeError, match="kernel"):
            pool2d(np.zeros((1, 1, 2, 2), dtype=np.float32), "max", 5, 1, 0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for mode in ("max", "avg"):
            for _ in range(10):
                c = int(rng.integers(1, 4))
                k = int(rng.integers(1, 4))
                h = int(rng.integers(k, k + 4))
                w = int(rng.integers(k, k + 4))
                st, pd = int(rng.integers(1, 3)), int(rng.integers(0, min(k, 2)))
                x = rng.uniform(-1, 1, (1, c, h, w)).astype(np.float32)
                got = pool2d(x, mode, k, st, pd)
                want = ref_pool2d(x, mode, (k, k), (st, st), (pd, pd))
                assert np.abs(got - want).max() < 1e-6

    def test_avg_pool_equals_diagonal_conv(self):
        # fusion precondition: count_include_pad avg == conv with 1/9 kernel
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (1, 3, 6, 6)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for i in range(3):
            w[i, i] = 1.0 / 9.0
        spec = Conv2dSpec(3, 3, 3, padding=1)
        assert np.abs(pool2d(x, "avg", 3, 1, 1) - conv2d(x, spec, w)).max() < 1e-6


class TestUpsampleConcatSplit:
    def test_upsample_replicates(self):
        out = upsample_nearest2x(tensor([[[[7.0]]]]))
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out == 7.0)

    def test_upsample_shape(self):
        assert upsample_nearest2x(np.zeros((1, 3, 20, 20), dtype=np.float32)).shape == (1, 3, 40, 40)

    def test_upsampled_concats_with_skip(self):
        up = upsample_nearest2x(np.zeros((1, 2, 20, 20), dtype=np.float32))
        skip = np.zeros((1, 5, 40, 40), dtype=np.float32)
        assert concat_channels([up, skip]).shape == (1, 7, 40, 40)

    def test_split_concat_roundtrip_bit_exact(self):
        x = np.random.default_rng(8).normal(size=(1, 4, 2, 2)).astype(np.float32)
        back = concat_channels(split_channels(x, [2, 2]))
        assert np.array_equal(back, x)

    def test_concat_shapes(self):
        a = np.zeros((1, 2, 2, 2), dtype=np.float32)
        b = np.zeros((1, 3, 2, 2), dtype=np.float32)
        assert concat_channels([a, b]).shape == (1, 5, 2, 2)

    def test_concat_then_split_roundtrip(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        b = rng.normal(size=(1, 5, 4, 4)).astype(np.float32)
        ra, rb = split_channels(concat_channels([a, b]), [3, 5])
        assert np.array_equal(ra, a) and np.array_equal(rb, b)

    def test_bad_split_sizes(self):
        with pytest.raises(SpecError, match="sum"):
            split_channels(np.zeros((1, 4, 2, 2), dtype=np.float32), [3, 2])

    def test_concat_spatial_mismatch(self):
        a = np.zeros((1, 2, 2, 2), dtype=np.float32)
        b = np.zeros((1, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            concat_channels([a, b])


class TestSoftmaxChannelwise:
    def test_uniform_logits(self):
        out = softmax_channelwise(np.zeros((1, 16, 2, 2), dtype=np.float32), 16)
        assert np.abs(out - 1.0 / 16).max() < 1e-7

    def test_saturation(self):
        x = np.zeros((1, 16, 1, 1), dtype=np.float32)
        x[0, 5] = 50.0
        out = softmax_channelwise(x, 16)
        assert out[0, 5, 0, 0] >= 1.0 - 1e-9

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-5, 5, (2, 12, 3, 3)).astype(np.float32)
        for group in (3, 4, 12):
            got = softmax_channelwise(x, group)
            assert np.abs(got - ref_softmax_group(x, group)).max() < 1e-6

    def test_groups_sum_to_one(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-8, 8, (1, 32, 4, 4)).astype(np.float32)
        out = softmax_channelwise(x, 8)
        sums = out.reshape(1, 4, 8, 4, 4).sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-5

    def test_indivisible_group(self):
        with pytest.raises(SpecError, match="divisible"):
            softmax_channelwise(np.zeros((1, 10, 1, 1), dtype=np.float32), 4)


class TestElementwise:
    def test_ones_multiplicative_identity(self):
        f = np.random.default_rng(12).normal(size=(1, 2, 3, 3)).astype(np.float32)
        assert np.array_equal(elementwise(np.ones_like(f), f, "mul"), f)

    def test_zeros_annihilate(self):
        f = np.random.default_rng(13).normal(size=(1, 2, 3, 3)).astype(np.float32)
        assert np.all(elementwise(np.zeros_like(f), f, "mul") == 0.0)

    def test_add_zero_identity(self):
        x = np.random.default_rng(14).normal(size=(1, 2, 3, 3)).astype(np.float32)
        assert np.array_equal(elementwise(x, np.zeros_like(x), "add"), x)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise(np.zeros((1, 1, 2, 2), dtype=np.float32),
                        np.zeros((1, 1, 2, 3), dtype=np.float32), "mul")
