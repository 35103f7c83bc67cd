"""Graph assembly, forward, accounting, deterministic init, and weight-container
tests."""
import os
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repdet.model as M
from repdet.blocks import ConvBlock
from repdet.errors import FormatError, ShapeError, SpecError, ValidationError
from repdet.fusion import fuse_model_graph
from repdet.weights import WeightStore

from oracles import c2f_params, conv_block_params, named_arrays

# node counts at 640x640, nc arbitrary (structure does not depend on nc)
BASELINE_NODE_COUNT = 43
IMPROVED_NODE_COUNT = 71
IMPROVED_FUSED_NODE_COUNT = 47

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

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_build_allocates_no_weights(self, variant, fused):
        # conv weights are zero-filled on their first read, so a build holds
        # 0.05-0.18 MiB; with them zero-filled it held 7.7-11.6 MiB
        tracemalloc.start()
        try:
            M.build_model(variant, 3, fused)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2 ** 20

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_stated_shapes_are_the_array_shapes(self, variant, fused):
        g = M.build_model(variant, 3, fused)
        slots = [(suffix, attr, shape) for e in g.params
                 for suffix, _, attr, shape in e.block.shaped_slots()]
        assert [shape for *_, shape in slots] == [arr.shape for _, arr in M.named_tensors(g)]
        # the counts and the seeding read a slot's role from its attr
        assert all(suffix.rsplit(".", 1)[-1] == attr for suffix, attr, _ in slots)

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_block_nodes_take_their_kind_from_the_block(self, variant, fused):
        g = M.build_model(variant, 3, fused)
        block_nodes = [n for n in g.nodes if n.block is not None]
        assert all(n.kind == n.block.kind for n in block_nodes)
        # a node's output is stored under its name, so no two nodes share one
        assert len({n.name for n in g.nodes}) == len(g.nodes)

    def test_node_counts_are_documented_constants(self):
        for variant, train, fused in (("baseline", BASELINE_NODE_COUNT, BASELINE_NODE_COUNT),
                                      ("improved", IMPROVED_NODE_COUNT,
                                       IMPROVED_FUSED_NODE_COUNT)):
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
        assert len(g.nodes) == IMPROVED_FUSED_NODE_COUNT
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
        shapes = [r.out_shape for r in M.profile_graph(g7)[0] if r.name in g7.outputs]
        assert shapes == [(1, 71, 80, 80), (1, 71, 40, 40), (1, 71, 20, 20)]
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
        vals = {node.name: out for node, out in M.walk(g, x)}
        got = M.forward(g, x)
        assert len(got) == 3
        assert all(np.array_equal(a, vals[name]) for a, name in zip(got, g.outputs))

    def test_forward_holds_only_live_outputs(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        g = fuse_model_graph(g)
        x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)

        def keep_all(g, x):
            return [out for _, out in M.walk(g, x)]

        peaks = []
        for fn in (M.forward, keep_all):
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
        # allocate no whole-map temporary; at 640x640 the peak is 12.0 MiB
        # (18.8 MiB with them), inside backbone.c2f2: its input, concat buffer
        # and the live maps of its bottleneck. The pin excludes the 4.69 MiB
        # network input, which is allocated before tracing starts; counted,
        # the peak is 16.7 MiB, still inside backbone.c2f2
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
        count = sum(a.size for s, a in named_arrays(blk) if not s.endswith(("bn.mean", "bn.var")))
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
        assert M.profile_graph(fuse_model_graph(g))[2] <= M.profile_graph(g)[2]

    def test_improved_macs_below_baseline(self):
        assert (M.profile_graph(M.build_model("improved", 3))[2]
                < M.profile_graph(M.build_model("baseline", 3))[2])

    def test_output_shapes(self):
        for variant in ("baseline", "improved"):
            g = M.build_model(variant, 3)
            shapes = [r.out_shape for r in M.profile_graph(g)[0] if r.name in g.outputs]
            assert shapes == [(1, 67, 80, 80), (1, 67, 40, 40), (1, 67, 20, 20)]

    def test_profile_params_sum_matches_param_count(self):
        g = M.build_model("improved", 3)
        rows, total_params, _ = M.profile_graph(g)
        assert total_params == M.param_count(g)
        assert sum(r.params for r in rows) == total_params


class TestProfileShapes:
    """profile_graph takes every shape from a forward over an empty batch, so
    it agrees with the forward, which rejects an input side whose pyramid
    levels do not meet."""

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_rows_equal_run_graph_shapes(self, variant, fused):
        g = M.build_model(variant, 3)
        M.init_weights(g, 0)
        if fused:
            g = fuse_model_graph(g)
        x = np.random.default_rng(6).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
        rows = M.profile_graph(g)[0]
        assert [(r.name, r.out_shape) for r in rows] == [(n.name, out.shape)
                                                         for n, out in M.walk(g, x)]

    @pytest.mark.parametrize("size", [33, 48])
    def test_size_the_forward_rejects_raises(self, size):
        # P5 upsampled to 4x4 meets P4 at 3x3 in neck.cat11
        g = M.build_model("improved", 3)
        with pytest.raises(ShapeError, match=r"\(1, 128, 3, 3\)"):
            M.forward(g, np.zeros((1, 3, size, size), np.float32))


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

    @pytest.mark.parametrize("fused", [False, True])
    def test_seeding_a_loaded_graph_leaves_the_store(self, fused):
        # 2.0 everywhere, so no seeded value (a draw, 0 or 1) matches a stored one
        g = M.build_model("improved", 3, fused=fused)
        store = WeightStore((n, np.full(a.shape, 2.0)) for n, a in M.named_tensors(g))
        M.load_weights(g, store)
        M.seed_weights(g, 0)
        assert all((store[n] == 2.0).all() for n in store.names())
        assert not any(arr is store[n] for n, arr in M.named_tensors(g))

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

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    def test_load_reads_no_graph_weight(self, variant):
        # the shapes are checked against the blocks' specs, so building and
        # loading a graph around a store allocates nothing the size of a weight
        store = M.init_weights(M.build_model(variant, 3), 0)
        tracemalloc.start()
        try:
            g = M.build_model(variant, 3)
            M.load_weights(g, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2 ** 20
        assert all(arr is store[name] for name, arr in M.named_tensors(g))

    @pytest.mark.parametrize("fault", ["missing", "unknown", "shape", "negvar"])
    def test_failed_load_leaves_graph_unchanged(self, fault):
        g = M.build_model("baseline", 3)
        before = M.init_weights(g, 0)
        store = M.init_weights(M.build_model("baseline", 3), 1)
        # break the last tensor of the walk, so that a load which copied as
        # it checked would already have written every other one
        last = store.names()[-1]
        if fault == "missing":
            store = WeightStore((n, store[n]) for n in store.names() if n != last)
        elif fault == "unknown":
            store.put("mystery.w", np.zeros(1, dtype=np.float32))
        elif fault == "shape":
            store = WeightStore((n, np.zeros((2, 2), dtype=np.float32) if n == last else store[n])
                                for n in store.names())
        else:
            store[[n for n in store.names() if n.endswith("bn.var")][-1]][-1] = -1.0
        with pytest.raises(ValidationError):
            M.load_weights(g, store)
        after = M.collect_weights(g)
        assert all(after[n].tobytes() == before[n].tobytes() for n in before.names())

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(faults=st.lists(st.tuples(st.integers(0, 2 ** 16),
                                     st.sampled_from(["missing", "shape", "negvar"])),
                           min_size=1, max_size=3))
    @example(faults=[(-1, "missing"), (0, "negvar")])
    @example(faults=[(-1, "shape"), (1, "negvar"), (0, "negvar")])
    @example(faults=[(0, "missing"), (-1, "negvar")])
    def test_load_error_names_the_first_failing_tensor(self, faults):
        # the running variances are checked in one pass, yet of several
        # faults the first in walk order gives the error, with its own text
        g = M.build_model("improved", 3)
        store = M.init_weights(g, 0)
        names = store.names()
        variances = [n for n in names if n.endswith(".bn.var")]
        broken = {}
        for k, kind in faults:
            pool = variances if kind == "negvar" else names
            broken.setdefault(pool[k % len(pool)], kind)
        tensors = []
        for n in names:
            kind = broken.get(n)
            if kind == "shape":
                tensors.append((n, np.zeros((2, 2), dtype=np.float32)))
            elif kind == "negvar":
                tensors.append((n, np.concatenate([store[n][:-1], [-1.0]])))
            elif kind is None:
                tensors.append((n, store[n]))
        first = min(broken, key=names.index)
        want = {"missing": f"store is missing tensor {first!r}",
                "shape": f"tensor {first!r}: store shape (2, 2) != graph shape {store[first].shape}",
                "negvar": f"tensor {first!r} holds a negative running variance"}[broken[first]]
        with pytest.raises(ValidationError) as err:
            M.load_weights(M.build_model("improved", 3), WeightStore(tensors))
        assert str(err.value) == want

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

    @staticmethod
    def loaded(variant, fused, seed):
        """A fresh graph of the given form and the store loaded into it."""
        g = M.build_model(variant, 3)
        store = M.init_weights(g, seed)
        if fused:
            store = M.collect_weights(fuse_model_graph(g))
        target = M.build_model(variant, 3, fused=fused)
        M.load_weights(target, store)
        return target, store

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_load_binds_the_store_arrays(self, variant, fused):
        # one copy of the weights: the graph holds the store's arrays themselves
        g, store = self.loaded(variant, fused, 6)
        assert [n for n, _ in M.named_tensors(g)] == store.names()
        assert all(arr is store[n] for n, arr in M.named_tensors(g))

    @pytest.mark.parametrize("fused", [False, True])
    def test_shared_head_blocks_hold_the_store_arrays(self, fused):
        g, store = self.loaded("improved", fused, 7)
        nodes = g.node_map()
        # each shared block under head.p3: the RepConv stacks (or, in train
        # form, their branches) and the box and cls convs
        heads = tuple(f"head.p3.{s}" for s in ("rep1", "rep2", "box", "cls"))
        shared = [n.name.removeprefix("head.p3.") for n in g.nodes
                  if n.block is not None and n.name.startswith(heads)]
        assert len(shared) == (4 if fused else 8)
        for rest in shared:
            blocks = {id(nodes[f"head.{lvl}.{rest}"].block) for lvl in ("p3", "p4", "p5")}
            assert len(blocks) == 1
            arrays = list(named_arrays(nodes[f"head.p3.{rest}"].block))
            assert arrays and all(a is store[f"head.{rest}.{k}"] for k, a in arrays)

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

    def test_pipe_loads_the_same_store_as_the_file(self, tmp_path):
        store = M.init_weights(M.build_model("improved", 3), 4)
        path, fifo = os.fspath(tmp_path / "w.rwt"), os.fspath(tmp_path / "w.fifo")
        store.save(path)
        with open(path, "rb") as f:
            blob = f.read()
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as f:
                f.write(blob)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        piped = WeightStore.load(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        loaded = WeightStore.load(path)
        assert piped.names() == loaded.names() == store.names()
        assert all(piped[n].tobytes() == loaded[n].tobytes() == store[n].tobytes()
                   and piped[n].shape == store[n].shape for n in store.names())

    def test_short_payload_read_is_format_error(self, tmp_path, monkeypatch):
        # the file loses its last 8 bytes after fstat has sized it
        path = os.fspath(tmp_path / "w.rwt")
        WeightStore([("a", np.ones((2, 3), dtype=np.float32)),
                     ("b", np.arange(4, dtype=np.float32))]).save(path)
        full = os.stat(path)
        os.truncate(path, full.st_size - 8)
        with monkeypatch.context() as m, \
                pytest.raises(FormatError, match=r"short read: got 8 of 16 bytes for data of b"):
            m.setattr(os, "fstat", lambda fd: full)
            WeightStore.load(path)

    @pytest.mark.parametrize("size, message", [
        (47, "short read: got 1 of 2 bytes for name of tensor 1 at offset 46"),
        (48, "short read: got 0 of 1 bytes for rank of bb at offset 48"),
    ])
    def test_short_name_or_rank_read_is_format_error(self, tmp_path, monkeypatch, size, message):
        # a name and its rank byte are read together; a file that shrinks
        # under that read still names the field it cut, as a read of each would
        path = os.fspath(tmp_path / "w.rwt")
        WeightStore([("a", np.ones((2, 3), dtype=np.float32)),
                     ("bb", np.arange(4, dtype=np.float32))]).save(path)
        full = os.stat(path)
        os.truncate(path, size)
        with monkeypatch.context() as m, pytest.raises(FormatError, match=f"^{message}$"):
            m.setattr(os, "fstat", lambda fd: full)
            WeightStore.load(path)

    def test_duplicate_name_rejected(self):
        store = WeightStore()
        store.put("a", np.zeros(1, dtype=np.float32))
        with pytest.raises(ValidationError, match="duplicate"):
            store.put("a", np.zeros(1, dtype=np.float32))
