"""Graph assembly, forward, accounting, deterministic init, and weight-container
tests."""
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import repdet.model as M
from repdet.blocks import ConvBlock
from repdet.errors import FormatError, SpecError, ValidationError
from repdet.fusion import fuse_model_graph
from repdet.weights import WeightStore

from oracles import c2f_params, conv_block_params

# closed-form totals, re-derived here layer by layer as an independent check
BASELINE_BODY = (
    conv_block_params(3, 16, 3) + conv_block_params(16, 32, 3) + c2f_params(32, 32, 1)
    + conv_block_params(32, 64, 3) + c2f_params(64, 64, 2)
    + conv_block_params(64, 128, 3) + c2f_params(128, 128, 2)
    + conv_block_params(128, 256, 3) + c2f_params(256, 256, 1)
    + conv_block_params(256, 128, 1) + conv_block_params(512, 256, 1)  # sppf
    + c2f_params(384, 128, 1) + c2f_params(192, 64, 1)
    + conv_block_params(64, 64, 3) + c2f_params(192, 128, 1)
    + conv_block_params(128, 128, 3) + c2f_params(384, 256, 1)
)
BASELINE_HEAD = sum(
    conv_block_params(ch, 64, 3) + conv_block_params(64, 64, 3)
    + conv_block_params(64, 64, 1, bn=False)
    + conv_block_params(ch, 64, 3) + conv_block_params(64, 64, 3)
    + conv_block_params(64, 3, 1, bn=False)
    for ch in (64, 128, 256)
)
MSCA_PARAMS = (
    256 * 25 + 256                                    # 5x5 depthwise + bias
    + sum(2 * (256 * L + 256) for L in (7, 11, 21))   # strip pairs
    + 256 * 256 + 256                                 # 1x1 mix
)
IMPROVED_BODY = (
    BASELINE_BODY
    - c2f_params(128, 128, 2) + c2f_params(128, 128, 2, multiscale=True)
    - c2f_params(256, 256, 1) + c2f_params(256, 256, 1, multiscale=True)
    - c2f_params(384, 128, 1) + c2f_params(384, 128, 1, multiscale=True)
    - c2f_params(192, 128, 1) + c2f_params(192, 128, 1, multiscale=True)
    - c2f_params(384, 256, 1) + c2f_params(384, 256, 1, multiscale=True)
    # attention unit: two biased 1x1 projections around the strip-conv gate
    + 2 * conv_block_params(256, 256, 1, bn=False) + MSCA_PARAMS
)
SHARED_HEAD = (
    sum(conv_block_params(ch, 64, 1) for ch in (64, 128, 256))
    + 2 * (conv_block_params(64, 64, 3) + conv_block_params(64, 64, 1) + 2 * 64)
    + conv_block_params(64, 64, 1, bn=False) + conv_block_params(64, 3, 1, bn=False) + 3
)

BASELINE_TOTAL = BASELINE_BODY + BASELINE_HEAD      # 3,011,417
IMPROVED_TOTAL = IMPROVED_BODY + SHARED_HEAD          # 2,024,662


class TestBuild:
    def test_unknown_variant(self):
        with pytest.raises(SpecError, match="variant"):
            M.build_model("tiny", 3)

    @pytest.mark.parametrize("kind, block", [("warp", None), ("conv", None),
                                             ("add", ConvBlock(3, 3))])
    def test_unknown_node_kind_rejected(self, kind, block):
        # a kind is known only with a block (block kinds) or only without (glue kinds)
        node = M.Node("x", kind, (M.INPUT,), block)
        with pytest.raises(SpecError, match="unknown kind"):
            M._validate_graph([node], ("x", "x", "x"))

    def test_node_counts_are_documented_constants(self):
        for variant, train, fused in (("baseline", M.BASELINE_NODE_COUNT, M.BASELINE_NODE_COUNT),
                                      ("improved", M.IMPROVED_NODE_COUNT,
                                       M.IMPROVED_FUSED_NODE_COUNT)):
            g = M.build_model(variant, 3)
            assert len(g.nodes) == train
            assert len(fuse_model_graph(g).nodes) == fused

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    def test_fused_build_has_the_fused_weight_names(self, variant):
        built = M.build_model(variant, 3, fused=True)
        names = M.collect_weights(built).names()
        assert names == M.collect_weights(fuse_model_graph(M.build_model(variant, 3))).names()
        assert not any(".bn." in n for n in names)
        assert all(n.group is None and n.kind != "avgpool_bn" for n in built.nodes)

    def test_fused_build_wires_each_repconv_site_as_one_conv(self):
        g = M.build_model("improved", 3, fused=True)
        assert len(g.nodes) == M.IMPROVED_FUSED_NODE_COUNT
        nodes = g.node_map()
        for level in ("p3", "p4", "p5"):
            assert nodes[f"head.{level}.rep1"].inputs == (f"head.{level}.stem",)
            assert nodes[f"head.{level}.rep2"].inputs == (f"head.{level}.rep1",)
            assert nodes[f"head.{level}.box"].inputs == (f"head.{level}.rep2",)
            assert nodes[f"head.{level}.rep1"].block is nodes["head.p3.rep1"].block
        assert [e.name for e in g.params if e.name.startswith("head.rep")] == ["head.rep1",
                                                                               "head.rep2"]

    def test_placement_audit(self):
        g = M.build_model("improved", 3)
        ms = [n for n in g.nodes if n.kind == "c2f_ms"]
        assert len(ms) == 5
        assert {n.name for n in ms} == {
            "backbone.c2f6", "backbone.c2f8", "neck.c2f12", "neck.c2f18", "neck.c2f21",
        }
        assert sum(1 for n in g.nodes if n.kind == "msca") == 1
        # second top-down neck stage keeps the standard bottleneck
        assert g.node_map()["neck.c2f15"].kind == "c2f"

    def test_baseline_has_no_improved_parts(self):
        g = M.build_model("baseline", 3)
        assert all(n.kind not in ("c2f_ms", "msca", "scale") for n in g.nodes)
        assert all(n.group is None for n in g.nodes)

    def test_repconv_sites_and_stacks(self):
        g = M.build_model("improved", 3)
        sites = {n.group for n in g.nodes if n.group}
        assert len(sites) == 6  # 2 stacks x 3 pyramid levels
        k3_blocks = {id(n.block) for n in g.nodes if n.group and n.name.endswith(".k3")}
        assert len(k3_blocks) == 2  # parameters shared across levels

    def test_three_scale_nodes(self):
        g = M.build_model("improved", 3)
        assert sum(1 for n in g.nodes if n.kind == "scale") == 3

    def test_shared_head_convs(self):
        g = M.build_model("improved", 3)
        by_name = g.node_map()
        assert len({id(by_name[f"head.{l}.box"].block) for l in ("p3", "p4", "p5")}) == 1
        assert len({id(by_name[f"head.{l}.cls"].block) for l in ("p3", "p4", "p5")}) == 1

    def test_nc_changes_head_only(self):
        g3 = M.build_model("improved", 3)
        g7 = M.build_model("improved", 7)
        assert M.output_shapes(g7) == ((1, 71, 80, 80), (1, 71, 40, 40), (1, 71, 20, 20))
        assert M.param_count(g7) - M.param_count(g3) == 4 * (64 + 1)  # cls conv rows


class TestForward:
    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_head_maps_equal_run_graph(self, variant, fused):
        g = M.build_model(variant, 3)
        M.init_weights(g, 3)
        if fused:
            g = fuse_model_graph(g)
        x = np.random.default_rng(4).uniform(0, 1, (1, 3, 96, 128)).astype(np.float32)
        vals = M.run_graph(g, x)
        got = M.forward(g, x)
        assert len(got) == 3
        assert all(np.array_equal(a, vals[name]) for a, name in zip(got, g.outputs))

    def test_forward_holds_only_live_outputs(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        g = fuse_model_graph(g)
        x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
        peaks = []
        for fn in (M.forward, M.run_graph):
            tracemalloc.start()
            try:
                fn(g, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.6 * peaks[1]

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_forward_working_set_is_bounded(self, variant, fused):
        # the conv epilogue, the dense conv's padding and the concat blocks
        # allocate no whole-map temporary; at 640x640 the peak is 12.2 MiB
        # (18.8 MiB with them), set by backbone.c2f2's input, concat buffer
        # and the live maps of its bottleneck
        g = M.build_model(variant, 3)
        M.init_weights(g, 0)
        if fused:
            g = fuse_model_graph(g)
        x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
        tracemalloc.start()
        try:
            M.forward(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2 ** 20


class TestAccounting:
    def test_conv_block_closed_form(self):
        blk = ConvBlock(3, 16, 3)
        count = sum(a.size for s, a in blk.named_arrays() if not s.endswith(("bn.mean", "bn.var")))
        assert count == 464  # 3*16*9 + 16 + 16

    def test_baseline_total(self):
        assert M.param_count(M.build_model("baseline", 3)) == BASELINE_TOTAL == 3011417

    def test_improved_total(self):
        assert M.param_count(M.build_model("improved", 3)) == IMPROVED_TOTAL == 2024662

    def test_reduction_against_published_claim(self):
        base = M.param_count(M.build_model("baseline", 3))
        improved = M.param_count(M.build_model("improved", 3))
        assert 3.0e6 <= base <= 3.2e6
        assert 2.0e6 <= improved <= 2.2e6
        assert improved / base <= 0.70

    def test_one_by_one_conv_macs(self):
        rows = M.profile_graph(M.build_model("improved", 3))[0]
        proj = next(r for r in rows if r.name == "attn.proj_in")
        assert proj.out_shape == (1, 256, 20, 20)
        assert proj.macs == 26_214_400  # 256*256*20*20

    @pytest.mark.parametrize("variant, train, fused", [
        ("baseline", 4_041_907_200, 4_041_907_200),
        ("improved", 2_958_003_200, 2_889_190_400),
    ])
    def test_mac_totals(self, variant, train, fused):
        g = M.build_model(variant, 3)
        M.init_weights(g, 0)
        assert M.profile_graph(g)[2] == train
        assert M.profile_graph(fuse_model_graph(g))[2] == fused

    def test_fused_macs_not_larger(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        assert M.flop_count(fuse_model_graph(g)) <= M.flop_count(g)

    def test_improved_macs_below_baseline(self):
        assert (M.flop_count(M.build_model("improved", 3))
                < M.flop_count(M.build_model("baseline", 3)))

    def test_output_shapes(self):
        for variant in ("baseline", "improved"):
            shapes = M.output_shapes(M.build_model(variant, 3))
            assert shapes == ((1, 67, 80, 80), (1, 67, 40, 40), (1, 67, 20, 20))

    def test_profile_params_sum_matches_param_count(self):
        g = M.build_model("improved", 3)
        rows, total_params, _ = M.profile_graph(g)
        assert total_params == M.param_count(g)
        assert sum(r.params for r in rows) == total_params


class TestInit:
    def test_same_seed_bit_exact(self):
        g1 = M.build_model("improved", 3)
        g2 = M.build_model("improved", 3)
        s1 = M.init_weights(g1, 11)
        s2 = M.init_weights(g2, 11)
        assert s1.names() == s2.names()
        assert all(np.array_equal(s1[n], s2[n]) for n in s1.names())

    def test_different_seeds_differ(self):
        g = M.build_model("baseline", 3)
        a = M.init_weights(g, 0)["backbone.conv0.w"]
        b = M.init_weights(g, 1)["backbone.conv0.w"]
        assert not np.array_equal(a, b)

    def test_fan_in_bound(self):
        g = M.build_model("improved", 3)
        store = M.init_weights(g, 0)
        for name in store.names():
            if name.endswith(".w"):
                arr = store[name]
                bound = np.sqrt(1.0 / np.prod(arr.shape[1:]))
                assert np.abs(arr).max() <= bound

    def test_norms_and_scales_at_identity(self):
        g = M.build_model("improved", 3)
        store = M.init_weights(g, 0)
        for name in store.names():
            if name.endswith((".bn.gamma", ".bn.var", ".s")):
                assert np.all(store[name] == 1.0)
            elif name.endswith((".bn.beta", ".bn.mean", ".b")):
                assert np.all(store[name] == 0.0)

    def test_fresh_graphs_trivially_equivalent_after_fusion(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        fused = fuse_model_graph(g)
        x = np.random.default_rng(0).uniform(0, 1, (1, 3, 128, 128)).astype(np.float32)
        for a, b in zip(M.forward(g, x), M.forward(fused, x)):
            assert np.abs(a - b).max() < 1e-4


def test_structurally_equal_sees_one_change():
    def seeded(variant):
        g = M.build_model(variant, 3)
        M.init_weights(g, 0)
        return g

    g, other = seeded("improved"), seeded("improved")
    assert M.structurally_equal(g, other)
    w = other.node_map()["head.p3.stem"].block.w
    w[0, 0, 0, 0] = np.nextafter(w[0, 0, 0, 0], np.float32(1))
    assert not M.structurally_equal(g, other)
    swapped = tuple(replace(n, inputs=n.inputs[::-1]) if n.name == "head.p3.out" else n
                    for n in g.nodes)
    assert not M.structurally_equal(g, replace(g, nodes=swapped))
    assert not M.structurally_equal(seeded("baseline"), g)


class TestWeightsIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = M.build_model("improved", 3)
        store = M.init_weights(g, 5)
        path = os.fspath(tmp_path / "w.rwt")
        store.save(path)
        loaded = WeightStore.load(path)
        assert loaded.names() == store.names()
        assert all(np.array_equal(loaded[n], store[n]) for n in store.names())

    def test_corrupt_magic(self, tmp_path):
        path = os.fspath(tmp_path / "bad.rwt")
        with open(path, "wb") as f:
            f.write(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            WeightStore.load(path)

    def test_truncated_file_reports_offset(self, tmp_path):
        g = M.build_model("baseline", 3)
        path = os.fspath(tmp_path / "w.rwt")
        M.init_weights(g, 0).save(path)
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="offset"):
            WeightStore.load(path)

    def test_missing_tensor_names_node(self):
        g = M.build_model("baseline", 3)
        store = M.init_weights(g, 0)
        partial = WeightStore((n, store[n]) for n in store.names()
                              if n != "backbone.conv0.w")
        with pytest.raises(ValidationError, match="backbone.conv0"):
            M.load_weights(g, partial)

    def test_extra_tensor_rejected(self):
        g = M.build_model("baseline", 3)
        store = M.init_weights(g, 0)
        store.put("mystery.w", np.zeros((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValidationError, match="unknown"):
            M.load_weights(g, store)

    def test_shape_mismatch_names_tensor(self):
        g = M.build_model("baseline", 3)
        store = M.init_weights(g, 0)
        bad = WeightStore()
        for n in store.names():
            bad.put(n, store[n] if n != "backbone.conv0.w"
                    else np.zeros((16, 3, 5, 5), dtype=np.float32))
        with pytest.raises(ValidationError, match="backbone.conv0.w"):
            M.load_weights(g, bad)

    def test_load_restores_forward(self, tmp_path):
        g = M.build_model("improved", 3)
        store = M.init_weights(g, 9)
        x = np.random.default_rng(1).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        want = M.forward(g, x)
        path = os.fspath(tmp_path / "w.rwt")
        store.save(path)
        g2 = M.build_model("improved", 3)
        M.load_weights(g2, WeightStore.load(path))
        got = M.forward(g2, x)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_fused_store_loads_into_fused_graph(self, tmp_path):
        g = M.build_model("improved", 3)
        M.init_weights(g, 2)
        fused = fuse_model_graph(g)
        path = os.fspath(tmp_path / "fused.rwt")
        M.collect_weights(fused).save(path)
        target = M.build_model("improved", 3, fused=True)
        M.load_weights(target, WeightStore.load(path))
        x = np.random.default_rng(3).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        a = M.forward(fused, x)
        b = M.forward(target, x)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_rank0_tensor_round_trips_bytes(self, tmp_path):
        # a scalar (rank 0), a rank-1 and a rank-2 tensor, written by hand
        blob = (b"RWT1" + struct.pack("<I", 3)
                + struct.pack("<H", 1) + b"s" + struct.pack("<B", 0) + struct.pack("<f", 2.5)
                + struct.pack("<H", 1) + b"v" + struct.pack("<BI", 1, 1) + struct.pack("<f", -1.0)
                + struct.pack("<H", 1) + b"m" + struct.pack("<BII", 2, 1, 2)
                + struct.pack("<2f", 0.5, 3.0))
        src, out = tmp_path / "in.rwt", tmp_path / "out.rwt"
        src.write_bytes(blob)
        store = WeightStore.load(os.fspath(src))
        assert [store[n].shape for n in store.names()] == [(), (1,), (1, 2)]
        store.save(os.fspath(out))
        assert out.read_bytes() == blob

    def test_duplicate_name_rejected(self):
        store = WeightStore()
        store.put("a", np.zeros(1, dtype=np.float32))
        with pytest.raises(ValidationError, match="duplicate"):
            store.put("a", np.zeros(1, dtype=np.float32))
