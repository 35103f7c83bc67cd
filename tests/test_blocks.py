"""Composite block tests: composition oracles, isolation cases, parameter
comparisons, the child-block protocol, and the two detection heads."""
import numpy as np
import pytest

import repdet.model as M
from repdet import blocks
from repdet.blocks import (
    Bottleneck,
    C2f,
    ConvBlock,
    MultiScaleSplitConv,
    MSCABlock,
    RepConvBlock,
    SPPF,
)
from repdet.errors import ShapeError, SpecError
from repdet.tensor_ops import (
    BN_EPS,
    Conv2dSpec,
    batch_norm_inference,
    concat_channels,
    conv2d,
    pool2d,
    silu,
    split_channels,
)

from oracles import c2f_params, conv_block_params, named_arrays


def randomize(block, rng, scale=1.0):
    """Fill every array of a block with unit-scale noise; BN stats stay sane."""
    for suffix, arr in named_arrays(block):
        leaf = suffix.rsplit(".", 1)[-1]
        if leaf == "var":
            arr[...] = rng.uniform(0.25, 2.0, arr.shape)
        elif leaf == "gamma":
            arr[...] = rng.uniform(0.5, 1.5, arr.shape)
        elif leaf == "s":
            arr[...] = rng.uniform(0.5, 1.5, arr.shape)
        else:
            arr[...] = rng.uniform(-scale, scale, arr.shape)
    return block


class TestConvBlock:
    def test_identity_passthrough(self):
        blk = ConvBlock(3, 3, 1, groups=3, act="none")
        blk.w[...] = 1.0
        blk.bn.var[...] = 1 - BN_EPS
        x = np.random.default_rng(0).normal(size=(1, 3, 4, 4)).astype(np.float32)
        assert np.abs(blk.forward(x) - x).max() < 1e-6

    def test_zero_weights_give_silu_beta(self):
        blk = ConvBlock(2, 3, 3)
        blk.bn.beta[...] = [0.5, -1.0, 2.0]
        blk.bn.var[...] = 1 - BN_EPS
        out = blk.forward(np.random.default_rng(1).normal(size=(1, 2, 4, 4)).astype(np.float32))
        want = silu(np.broadcast_to(np.float32([0.5, -1.0, 2.0])[None, :, None, None],
                                    out.shape).copy())
        assert np.abs(out - want).max() < 1e-6

    def test_matches_op_composition(self):
        rng = np.random.default_rng(2)
        blk = randomize(ConvBlock(4, 6, 3, stride=2), rng)
        x = rng.uniform(-1, 1, (1, 4, 9, 9)).astype(np.float32)
        want = silu(batch_norm_inference(conv2d(x, blk.spec, blk.w), blk.bn))
        assert np.array_equal(blk.forward(x), want)

    @pytest.mark.parametrize("kernel, groups, out_ch", [(1, 1, 6), (3, 1, 6), (3, 2, 6),
                                                        (3, 4, 4)])
    @pytest.mark.parametrize("act", ["silu", "none"])
    def test_deploy_form_matches_a_conv_adding_its_bias(self, kernel, groups, out_ch, act):
        # the epilogue's bias shift gives the bits of a conv2d that adds the
        # bias itself, on the 1x1, dense, grouped and depthwise paths
        rng = np.random.default_rng(3)
        blk = randomize(ConvBlock(4, out_ch, kernel, groups=groups, bn=False, act=act), rng)
        x = rng.uniform(-1, 1, (2, 4, 7, 5)).astype(np.float32)
        y = conv2d(x, blk.spec, blk.w, blk.b)
        assert np.array_equal(blk.forward(x), silu(y) if act == "silu" else y)

    def test_wrong_length_bias_names_axis(self):
        blk = ConvBlock(4, 8, 1, bn=False)
        blk.b = np.ones(1, np.float32)
        with pytest.raises(ShapeError, match=r"^bias axis: length \(1,\) != out_ch 8$"):
            blk.forward(np.zeros((1, 4, 3, 3), np.float32))

    def test_unknown_activation_is_spec_error(self):
        with pytest.raises(SpecError, match="^unknown activation 'relu'$"):
            ConvBlock(4, 8, 1, act="relu")

    def test_bias_beside_a_norm_raises(self):
        blk = ConvBlock(4, 8, 1)
        blk.b = np.ones(8, np.float32)
        with pytest.raises(SpecError, match="a batch norm or a bias, not both"):
            blk.forward(np.zeros((1, 4, 3, 3), np.float32))

    def test_fresh_weight_reads_as_its_own_writable_zeros(self):
        blk, other = ConvBlock(4, 8, 3, groups=2), ConvBlock(4, 8, 3, groups=2)
        w = blk.w
        assert w.dtype == np.float32 and w.shape == blk.spec.weight_shape == (8, 2, 3, 3)
        assert w.flags.writeable and not w.any()
        assert blk.w is w and not np.shares_memory(w, other.w)
        w[0, 0, 0, 0] = 2.0
        blk.w[1] = 3.0
        assert blk.w[0, 0, 0, 0] == 2.0 and (blk.w[1] == 3.0).all() and not other.w.any()
        assert not hasattr(blk, "weights")


class TestConvSpecs:
    """Each ConvBlock takes its frozen Conv2dSpec from a cache keyed by its
    arguments, with the spec that building it directly gives."""

    def test_equal_arguments_share_one_spec(self):
        specs = [owner.spec for variant in ("baseline", "improved") for fused in (False, True)
                 for _ in range(2) for e in M.build_model(variant, 3, fused).params
                 for _, owner, attr, _ in e.block.shaped_slots() if attr == "w"]
        ids = {}
        for spec in specs:
            ids.setdefault(spec, set()).add(id(spec))
        assert len(ids) < len(specs) and all(len(one) == 1 for one in ids.values())

    def test_strips_pad_half_their_length(self):
        # every conv block pads (k - 1) // 2, which for the odd strip lengths
        # is the (0, L // 2) and (L // 2, 0) that keep an MSCA map's size
        blk = MSCABlock(2)
        for (row, col), L in zip(blk.pairs, blk.STRIP_LENGTHS):
            assert row.spec.padding == (0, L // 2) and col.spec.padding == (L // 2, 0)
        assert blk.forward(np.zeros((1, 2, 5, 3), np.float32)).shape == (1, 2, 5, 3)

    @pytest.mark.parametrize("args, message", [
        ((4, 8, 3, 1, 3), r"channels \(4 in, 8 out\) not divisible by groups=3"),
        ((0, 8, 1), "in_ch must be positive, got 0"),
        ((4, 8, 3, 0), "kernel and stride entries must be >= 1"),
    ])
    def test_invalid_spec_raises_on_every_call(self, args, message):
        for _ in range(3):
            with pytest.raises(SpecError, match=f"^{message}$"):
                ConvBlock(*args)

    @pytest.mark.parametrize("args", [
        (np.int64(4), np.int64(8), np.int64(3), np.int64(1), np.int64(2)),
        (4, 8, 3, [1, 1], 2),
        (4, 8, 3, True, 2),
        (4, 8, [3, 3], 1, 2),
    ], ids=["int64", "list", "bool", "list-kernel"])
    def test_argument_forms_give_the_direct_spec(self, args, monkeypatch):
        monkeypatch.setattr(blocks, "_SPECS", {})
        want = Conv2dSpec(4, 8, (3, 3), (1, 1), (1, 1), 2)
        specs = [ConvBlock(*args).spec, ConvBlock(4, 8, 3, groups=2).spec, ConvBlock(*args).spec]
        assert all(spec == want for spec in specs)
        plain = specs[1]
        assert [type(v) for v in (plain.in_ch, plain.out_ch, plain.groups)] == [int, int, int]


class TestC2f:
    def test_zero_weight_shortcut_passthrough(self):
        blk = C2f(8, 8, n=1, shortcut=True)
        # bottleneck convs are zero-filled at construction, BNs are identity-ish:
        # its output equals the chunk it receives, which feeds the concat
        x = np.random.default_rng(3).normal(size=(1, 8, 6, 6)).astype(np.float32)
        y1 = split_channels(blk.cv1.forward(x), [4, 4])[1]
        assert np.abs(blk.bottlenecks[0].forward(y1) - y1).max() < 1e-3

    def test_shape_preserved(self):
        blk = C2f(64, 64, n=1, shortcut=True)
        assert blk.forward(np.zeros((1, 64, 80, 80), np.float32)).shape == (1, 64, 80, 80)

    def test_multiscale_variant_has_fewer_params(self):
        std = sum(a.size for s, a in named_arrays(C2f(128, 128, 2))
                  if not s.endswith(("bn.mean", "bn.var")))
        ms = sum(a.size for s, a in named_arrays(C2f(128, 128, 2, variant="multiscale"))
                   if not s.endswith(("bn.mean", "bn.var")))
        assert std == c2f_params(128, 128, 2)
        assert ms == c2f_params(128, 128, 2, multiscale=True)
        assert ms < std

    def test_forward_matches_manual_composition(self):
        # the block copies each part into its concat buffer as it is made; at
        # batch 2 every channel slice it reads is a strided view
        rng = np.random.default_rng(4)
        for variant in ("standard", "multiscale"):
            blk = randomize(C2f(16, 16, n=2, shortcut=True, variant=variant), rng)
            for batch in (1, 2):
                x = rng.uniform(-1, 1, (batch, 16, 8, 8)).astype(np.float32)
                parts = split_channels(blk.cv1.forward(x), [8, 8])
                y = parts[1]
                for m in blk.bottlenecks:
                    y = m.cv2.forward(m.cv1.forward(y)) + y
                    parts.append(y)
                want = blk.cv2.forward(concat_channels(parts))
                assert np.array_equal(blk.forward(x), want), (variant, batch)

    def test_odd_out_channels_rejected(self):
        with pytest.raises(SpecError, match="even"):
            C2f(8, 7)

    def test_multiscale_hidden_divisibility(self):
        with pytest.raises(SpecError, match="divisible"):
            C2f(12, 12, variant="multiscale")  # hidden 6 is not a multiple of 4


class TestSPPF:
    def test_constant_input_stays_spatially_constant(self):
        rng = np.random.default_rng(5)
        blk = SPPF(8)
        randomize(blk.cv1, rng)
        randomize(blk.cv2, rng)
        x = np.full((1, 8, 6, 6), 0.37, dtype=np.float32)
        out = blk.forward(x)
        spread = out.max(axis=(2, 3)) - out.min(axis=(2, 3))
        assert spread.max() < 1e-6

    def test_shape(self):
        out = SPPF(256).forward(np.zeros((1, 256, 20, 20), np.float32))
        assert out.shape == (1, 256, 20, 20)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(6)
        blk = SPPF(8)
        randomize(blk.cv1, rng)
        randomize(blk.cv2, rng)
        for batch in (1, 2):
            x = rng.uniform(-1, 1, (batch, 8, 7, 7)).astype(np.float32)
            y = blk.cv1.forward(x)
            p1 = pool2d(y, "max", 5, 1, 2)
            p2 = pool2d(p1, "max", 5, 1, 2)
            p3 = pool2d(p2, "max", 5, 1, 2)
            want = blk.cv2.forward(concat_channels([y, p1, p2, p3]))
            assert np.array_equal(blk.forward(x), want), batch


class TestMultiScaleSplitConv:
    def test_zero_paths_isolate_kept_half(self):
        blk = MultiScaleSplitConv(8, 4)
        blk.fuse.bn.var[...] = 1 - BN_EPS
        # select the kept half through the 1x1 merge; path outputs are zero
        blk.fuse.w[...] = 0.0
        for i in range(4):
            blk.fuse.w[i, i, 0, 0] = 1.0
        x = np.random.default_rng(7).uniform(-1, 1, (1, 8, 5, 5)).astype(np.float32)
        assert np.abs(blk.forward(x) - silu(x[:, :4])).max() < 1e-6

    def test_shape_preserved(self):
        out = MultiScaleSplitConv(64, 64).forward(np.zeros((1, 64, 40, 40), np.float32))
        assert out.shape == (1, 64, 40, 40)

    def test_matches_split_conv_concat_composition(self):
        rng = np.random.default_rng(8)
        blk = MultiScaleSplitConv(16, 12)
        for part in (blk.path3, blk.path5, blk.fuse):
            randomize(part, rng)
        for batch in (1, 2):
            x = rng.uniform(-1, 1, (batch, 16, 6, 6)).astype(np.float32)
            keep, a, b = split_channels(x, [8, 4, 4])
            want = blk.fuse.forward(concat_channels(
                [keep, blk.path3.forward(a), blk.path5.forward(b)]))
            assert np.array_equal(blk.forward(x), want), batch

    def test_divisibility_check(self):
        with pytest.raises(SpecError, match="divisible"):
            MultiScaleSplitConv(6, 6)

    def test_wrong_channel_count_is_shape_error(self):
        with pytest.raises(ShapeError, match="^channel axis: 4 != 8$"):
            MultiScaleSplitConv(8, 8).forward(np.zeros((1, 4, 5, 5), np.float32))


class TestMSCA:
    def test_unit_attention_is_identity(self):
        blk = MSCABlock(8)
        blk.mix.w[...] = 0.0
        blk.mix.b[...] = 1.0
        x = np.random.default_rng(9).uniform(-1, 1, (1, 8, 6, 6)).astype(np.float32)
        assert np.abs(blk.forward(x) - x).max() < 1e-6

    def test_zero_attention_annihilates(self):
        blk = MSCABlock(8)
        x = np.random.default_rng(10).uniform(-1, 1, (1, 8, 6, 6)).astype(np.float32)
        assert np.all(blk.forward(x) == 0.0)

    def test_matches_four_path_sum_oracle(self):
        rng = np.random.default_rng(11)
        blk = MSCABlock(8)
        for part in [blk.base, blk.mix] + [c for pair in blk.pairs for c in pair]:
            randomize(part, rng)
        x = rng.uniform(-1, 1, (1, 8, 12, 12)).astype(np.float32)
        u = blk.base.forward(x)
        s = u.astype(np.float64)
        for row, col in blk.pairs:
            s = s + col.forward(row.forward(u)).astype(np.float64)
        att = blk.mix.forward(s.astype(np.float32))
        want = att.astype(np.float64) * x.astype(np.float64)
        assert np.abs(blk.forward(x) - want).max() < 1e-5

    def test_output_shape(self):
        assert MSCABlock(16).forward(np.zeros((1, 16, 9, 9), np.float32)).shape == (1, 16, 9, 9)


class TestRepConv:
    def test_avg_branch_isolation(self):
        blk = RepConvBlock(4)
        # conv weights default to zero; make every BN identity at float32 resolution
        for bn in (blk.branch_3x3.bn, blk.branch_1x1.bn, blk.branch_avg.bn):
            bn.var[...] = 1 - BN_EPS
        x = np.random.default_rng(12).uniform(-1, 1, (1, 4, 6, 6)).astype(np.float32)
        want = silu(pool2d(x, "avg", 3, 1, 1))
        assert np.abs(blk.forward(x) - want).max() < 1e-6

    def test_zero_everything_gives_zero(self):
        blk = RepConvBlock(4)
        x = np.zeros((1, 4, 5, 5), dtype=np.float32)
        assert np.all(blk.forward(x) == 0.0)


# every composite kind, small enough to run in a test: name -> (block, input
# shape); with bn=False, the block's deploy-form twin, which the fusion pass fills
COMPOSITES = {
    "repconv": lambda bn=True: (RepConvBlock(4) if bn else ConvBlock(4, 4, 3, bn=False),
                                (1, 4, 6, 6)),
    "split_conv": lambda bn=True: (MultiScaleSplitConv(8, 12, bn), (1, 8, 6, 6)),
    "bottleneck": lambda bn=True: (Bottleneck(8, bn=bn), (1, 8, 5, 5)),
    "bottleneck_ms": lambda bn=True: (Bottleneck(8, "multiscale", bn=bn), (1, 8, 5, 5)),
    "c2f": lambda bn=True: (C2f(8, 8, n=2, shortcut=True, bn=bn), (1, 8, 6, 6)),
    "c2f_ms": lambda bn=True: (C2f(12, 16, n=1, variant="multiscale", bn=bn), (1, 12, 6, 6)),
    "sppf": lambda bn=True: (SPPF(8, bn), (1, 8, 7, 7)),
    "msca": lambda bn=True: (MSCABlock(8), (1, 8, 12, 12)),
}


@pytest.mark.parametrize("kind", COMPOSITES)
class TestChildProtocol:
    def test_children_partition_named_arrays(self, kind):
        blk, _ = COMPOSITES[kind]()
        own = [(f"{p}.{k}", id(a)) for p, child in blk.children()
               for k, a in named_arrays(child)]
        assert own == [(k, id(a)) for k, a in named_arrays(blk)]

    def test_out_shape_and_macs_match_forward(self, kind, monkeypatch):
        blk, shape = COMPOSITES[kind]()
        ran = []

        def counting_conv2d(x, spec, weights, bias=None):
            out = conv2d(x, spec, weights, bias)
            ran.append(out.size * (spec.in_ch // spec.groups) * spec.kernel[0] * spec.kernel[1])
            return out

        monkeypatch.setattr(blocks, "conv2d", counting_conv2d)
        out = blk.forward(np.zeros(shape, np.float32))
        # the MAC rule holds because a composite keeps its input's batch,
        # height and width (see blocks.Composite)
        assert (out.shape[0], *out.shape[2:]) == (shape[0], *shape[2:])
        assert sum(ran) == M._block_macs(blk, out.shape) > 0


class TestHeads:
    """Head properties on the assembled graphs at a 64x64 input (maps 8/4/2)."""

    X = np.random.default_rng(13).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
    SHAPES = [(1, 67, 8, 8), (1, 67, 4, 4), (1, 67, 2, 2)]

    def _graph(self, variant):
        g = M.build_model(variant, 3)
        M.init_weights(g, 0)
        return g, g.node_map()

    def test_baseline_output_channels(self):
        g, _ = self._graph("baseline")
        assert [o.shape for o in M.forward(g, self.X)] == self.SHAPES

    def test_baseline_zero_final_convs_give_zero_logits(self):
        g, nodes = self._graph("baseline")
        for level in ("p3", "p4", "p5"):
            for final in ("box3", "cls3"):
                blk = nodes[f"head.{level}.{final}"].block
                blk.w[...] = 0.0
                blk.b[...] = 0.0
        assert all(np.all(o == 0.0) for o in M.forward(g, self.X))

    def test_baseline_levels_independent(self):
        g, nodes = self._graph("baseline")
        before = M.forward(g, self.X)
        rng = np.random.default_rng(999)
        for name, node in nodes.items():
            if name.startswith("head.p5.") and node.block is not None:
                randomize(node.block, rng)
        after = M.forward(g, self.X)
        assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])
        assert not np.array_equal(before[2], after[2])

    def test_shared_head_output_channels(self):
        g, _ = self._graph("improved")
        assert [o.shape for o in M.forward(g, self.X)] == self.SHAPES

    def test_shared_head_unit_scales_are_identity(self):
        g, _ = self._graph("improved")
        vals = {node.name: out for node, out in M.walk(g, self.X)}
        for level in ("p3", "p4", "p5"):
            assert np.array_equal(vals[f"head.{level}.scale"], vals[f"head.{level}.box"])

    def test_shared_head_stack_spans_levels(self):
        g, nodes = self._graph("improved")
        before = M.forward(g, self.X)
        # perturbing the single stack through one site must move every pyramid level
        k3 = nodes["head.p3.rep1.k3"].block
        k3.w[...] = np.random.default_rng(20).uniform(-1, 1, k3.w.shape)
        after = M.forward(g, self.X)
        assert all(not np.array_equal(a, b) for a, b in zip(before, after))

    def test_shared_head_fewer_params_than_baseline(self):
        def head_params(variant):
            return sum(M._param_count(e.block) for e in M.build_model(variant, 3).params
                       if e.name.startswith("head."))

        baseline = head_params("baseline")
        shared = head_params("improved")
        # closed-form cross-check of both towers
        want_baseline = sum(
            conv_block_params(ch, 64, 3) + conv_block_params(64, 64, 3)
            + conv_block_params(64, 64, 1, bn=False)
            + conv_block_params(ch, 64, 3) + conv_block_params(64, 64, 3)
            + conv_block_params(64, 3, 1, bn=False)
            for ch in (64, 128, 256)
        )
        want_shared = (
            sum(conv_block_params(ch, 64, 1) for ch in (64, 128, 256))
            + 2 * (conv_block_params(64, 64, 3) + conv_block_params(64, 64, 1) + 2 * 64)
            + conv_block_params(64, 64, 1, bn=False)
            + conv_block_params(64, 3, 1, bn=False) + 3
        )
        assert baseline == want_baseline == 751881
        assert shared == want_shared == 116102
        assert shared < baseline


class TestBottleneck:
    def test_shortcut_adds_input(self):
        rng = np.random.default_rng(19)
        with_sc = Bottleneck(8, shortcut=True)
        randomize(with_sc.cv1, rng)
        randomize(with_sc.cv2, rng)
        no_sc = Bottleneck(8, shortcut=False)
        no_sc.cv1, no_sc.cv2 = with_sc.cv1, with_sc.cv2
        x = rng.uniform(-1, 1, (1, 8, 5, 5)).astype(np.float32)
        assert np.abs(with_sc.forward(x) - (no_sc.forward(x) + x)).max() < 1e-6

    def test_unknown_variant(self):
        with pytest.raises(SpecError):
            Bottleneck(8, variant="ghost")
