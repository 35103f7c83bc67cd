"""Reparameterization tests: BN folding, RepConv collapse with its branch
lowering, and the whole-graph fusion pass."""
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repdet.model as M
from repdet.blocks import ConvBlock, RepConvBlock
from repdet.errors import NumericError
from repdet.fusion import deploy_repconv, fold_into, fuse_model_graph
from repdet.tensor_ops import (
    BN_EPS,
    BatchNormParams,
    batch_norm_inference,
    conv2d,
    pool2d,
    silu,
)
from repdet.weights import WeightStore

from oracles import (
    fold_conv_block,
    named_arrays,
    ref_deploy_repconv,
    ref_fold_conv,
    ref_fold_into,
)
from test_blocks import COMPOSITES, randomize


def random_repconv(rng, ch):
    blk = RepConvBlock(ch)
    for part in (blk.branch_3x3, blk.branch_1x1):
        randomize(part, rng)
    randomize(blk.branch_avg, rng)
    return blk


def identity_bns(blk):
    """Make every BN of a RepConv identity at float32 resolution."""
    for _, branch in blk.children():
        branch.bn.var[...] = 1 - BN_EPS
    return blk


def ninths(ch):
    w = np.zeros((ch, ch, 3, 3), dtype=np.float32)
    w[np.arange(ch), np.arange(ch)] = np.float32(1.0 / 9.0)
    return w


class TestFuseConvBn:
    def test_identity_bn_is_noop(self):
        rng = np.random.default_rng(0)
        blk = ConvBlock(3, 4, 3)
        blk.w[...] = rng.normal(size=blk.w.shape)
        blk.bn = BatchNormParams.identity(4)
        blk.bn.var[...] = 1 - BN_EPS
        folded = fold_conv_block(blk)
        assert np.abs(folded.w - blk.w).max() < 1e-7
        assert np.abs(folded.b).max() < 1e-7

    def test_gamma_two_doubles_weights(self):
        blk = ConvBlock(1, 2, 1, act="none")
        blk.w[...] = 1.0
        blk.bn = BatchNormParams([2.0, 2.0], [0.0, 0.0], [0.0, 0.0], [1 - BN_EPS] * 2)
        folded = fold_conv_block(blk)
        assert np.abs(folded.w - 2.0).max() < 1e-6
        assert np.abs(folded.b).max() < 1e-6

    def test_forward_equivalence_random(self):
        rng = np.random.default_rng(1)
        blk = ConvBlock(3, 5, 3, act="none")
        blk.w[...] = rng.uniform(-1, 1, blk.w.shape)
        blk.bn = BatchNormParams(rng.uniform(0.5, 1.5, 5), rng.uniform(-1, 1, 5),
                                 rng.uniform(-1, 1, 5), rng.uniform(0.25, 2, 5))
        folded = fold_conv_block(blk)
        for _ in range(10):
            x = rng.uniform(-1, 1, (1, 3, 6, 6)).astype(np.float32)
            fused = conv2d(x, folded.spec, folded.w, folded.b)
            unfused = batch_norm_inference(conv2d(x, blk.spec, blk.w), blk.bn)
            assert np.abs(fused - unfused).max() < 1e-5


class TestBranchLowering:
    """The lowered kernels, read off `deploy_repconv` with the other branches
    zeroed and every BN at identity."""

    def test_1x1_sits_at_center(self):
        blk = identity_bns(RepConvBlock(2))
        blk.branch_avg.bn.gamma[...] = 0.0  # the average branch folds to zero
        blk.branch_1x1.w[:, :, 0, 0] = [[5.0, 1.0], [-3.0, 2.0]]
        want = np.zeros((2, 2, 3, 3), dtype=np.float32)
        want[:, :, 1, 1] = [[5.0, 1.0], [-3.0, 2.0]]
        dep = deploy_repconv(blk)
        assert np.array_equal(dep.w, want)
        assert np.array_equal(dep.b, np.zeros(2, dtype=np.float32))

    def test_avg_kernel_is_diagonal_ninths(self):
        dep = deploy_repconv(identity_bns(RepConvBlock(2)))
        assert dep.w.shape == (2, 2, 3, 3)
        assert np.array_equal(dep.w, ninths(2))

    def test_avg_kernel_reproduces_pool(self):
        x = np.random.default_rng(2).uniform(-1, 1, (1, 3, 7, 7)).astype(np.float32)
        dep = deploy_repconv(identity_bns(RepConvBlock(3)))
        assert np.abs(dep.forward(x) - silu(pool2d(x, "avg", 3, 1, 1))).max() < 1e-6


class TestFuseRepConv:
    def test_all_zero_weights_leave_avg_ninths(self):
        dep = deploy_repconv(identity_bns(RepConvBlock(3)))
        assert np.abs(dep.w - ninths(3)).max() < 1e-6
        assert np.abs(dep.b).max() < 1e-6

    def test_3x3_branch_isolation(self):
        rng = np.random.default_rng(3)
        blk = identity_bns(RepConvBlock(3))
        blk.branch_3x3.w[...] = rng.uniform(-1, 1, blk.branch_3x3.w.shape)
        dep = deploy_repconv(blk)
        assert np.abs(dep.w - (blk.branch_3x3.w + ninths(3))).max() < 1e-6

    def test_branches_sum_3x3_first(self):
        # the 3x3 and 1x1 biases cancel exactly in float64 before the small
        # average-branch bias is added; the other association loses it
        blk = identity_bns(RepConvBlock(1))
        for (_, branch), beta in zip(blk.children(), (2.0 ** 24, -2.0 ** 24, 2.0 ** -30)):
            branch.bn.beta[...] = beta
        assert deploy_repconv(blk).b[0] == np.float32(2.0 ** -30)

    def test_equivalence_100_random_blocks(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            ch = int(rng.choice([2, 4, 8]))
            blk = random_repconv(rng, ch)
            x = rng.uniform(-1, 1, (1, ch, 8, 8)).astype(np.float32)
            dev = float(np.abs(blk.forward(x) - deploy_repconv(blk).forward(x)).max())
            worst = max(worst, dev)
        assert worst < 1e-4

    def test_deploy_form_has_single_conv(self):
        blk = deploy_repconv(random_repconv(np.random.default_rng(5), 4))
        assert isinstance(blk, ConvBlock)
        assert blk.spec.kernel == (3, 3) and blk.b is not None
        assert blk.bn is None and blk.act == "silu"

    def test_fused_conv_rejects_nonfinite(self):
        # 3e38 is finite in every branch, but the 3x3 + 1x1 sum is not in float32
        for value in (np.nan, 3e38):
            blk = identity_bns(RepConvBlock(1))
            blk.branch_3x3.w[0, 0, 1, 1] = value
            blk.branch_1x1.w[...] = value
            with pytest.raises(NumericError), np.errstate(over="ignore"):
                deploy_repconv(blk)


class TestFoldConvBlock:
    def test_fold_preserves_forward(self):
        rng = np.random.default_rng(7)
        blk = randomize(ConvBlock(3, 6, 3, stride=2), rng)
        folded = fold_conv_block(blk)
        assert folded.bn is None and folded.b is not None
        x = rng.uniform(-1, 1, (1, 3, 9, 9)).astype(np.float32)
        assert np.abs(blk.forward(x) - folded.forward(x)).max() < 1e-5

    def test_fold_without_bn_copies(self):
        blk = ConvBlock(2, 2, 1, bn=False, act="none")
        blk.w[...] = 3.0
        folded = fold_conv_block(blk)
        assert folded.w is not blk.w
        assert np.array_equal(folded.w, blk.w)


FOLD = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def batch_norms(draw, ch):
    """Batch norms with gamma that may be 0, variances down to 0 and means up
    to +-1e4."""
    def channels(values):
        return draw(st.lists(values, min_size=ch, max_size=ch))
    gamma = channels(st.one_of(st.just(0.0), st.floats(-4, 4, width=32)))
    var = channels(st.one_of(st.just(0.0), st.floats(0, 2.0 ** -20, width=32),
                             st.floats(0, 4, width=32)))
    mean = channels(st.floats(-1e4, 1e4, width=32))
    beta = channels(st.floats(-4, 4, width=32))
    return BatchNormParams(gamma, beta, mean, var)


def assert_bits(got, want):
    assert got.dtype == np.float32 and np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestExactFold:
    """Every fold equals the float64 reference in oracles.py bit for bit."""

    @FOLD
    @given(data=st.data(), cin=st.integers(1, 8), cout=st.integers(1, 8),
           k=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_conv_bn_fold(self, data, cin, cout, k, seed):
        blk = ConvBlock(cin, cout, k, act=data.draw(st.sampled_from(["silu", "none"])))
        randomize(blk, np.random.default_rng(seed), scale=2.0)
        blk.bn = data.draw(batch_norms(cout))
        folded = fold_conv_block(blk)
        want_w, want_b = ref_fold_conv(blk)
        assert_bits(folded.w, want_w)
        assert_bits(folded.b, want_b)
        assert folded.bn is None and folded.b is not None and folded.act == blk.act

    @FOLD
    @given(data=st.data(), ch=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_repconv_deploy(self, data, ch, seed):
        blk = RepConvBlock(ch)
        randomize(blk, np.random.default_rng(seed), scale=2.0)
        for _, branch in blk.children():
            branch.bn = data.draw(batch_norms(ch))
        dep = deploy_repconv(blk)
        want_w, want_b = ref_deploy_repconv(blk)
        assert_bits(dep.w, want_w)
        assert_bits(dep.b, want_b)
        assert dep.bn is None and dep.b is not None and dep.act == "silu"

    @FOLD
    @given(cin=st.integers(1, 8), cout=st.integers(1, 8), k=st.sampled_from([1, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bn_free_fold_copies_bits(self, cin, cout, k, seed):
        blk = ConvBlock(cin, cout, k, bn=False, act="none")
        randomize(blk, np.random.default_rng(seed), scale=2.0)
        folded = fold_conv_block(blk)
        assert_bits(folded.w, blk.w)
        assert_bits(folded.b, blk.b)
        assert not np.shares_memory(folded.w, blk.w)
        assert not np.shares_memory(folded.b, blk.b)
        assert folded.spec == blk.spec and folded.act == blk.act


def folded(kind, rng):
    """A randomized composite of `kind`, a copy of its arrays, and its
    deploy-form twin filled by `fold_into`."""
    blk, shape = COMPOSITES[kind]()
    randomize(blk, rng, scale=0.5)
    source = [(k, a.copy()) for k, a in named_arrays(blk)]
    twin, _ = COMPOSITES[kind](bn=False)
    fold_into(blk, twin, kind)
    return blk, source, twin, shape


def shares_no_memory(a, b):
    return not any(np.shares_memory(u, v) for _, u in named_arrays(a)
                   for _, v in named_arrays(b))


@pytest.mark.parametrize("kind", COMPOSITES)
def test_fold_into_preserves_forward(kind):
    rng = np.random.default_rng(9)
    blk, source, twin, shape = folded(kind, rng)
    # every conv lost its BN; a RepConv's average-pool branch folds into its conv
    assert not any(".bn." in f".{k}" for k, _ in named_arrays(twin))
    x = rng.uniform(-1, 1, shape).astype(np.float32)
    assert np.abs(blk.forward(x) - twin.forward(x)).max() < 1e-5
    # the source is untouched and shares no array with its twin
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(source, named_arrays(blk)))
    assert shares_no_memory(blk, twin)


@pytest.mark.parametrize("kind", COMPOSITES)
def test_fold_into_twin_copies_bits(kind):
    # folding a deploy-form block is a copy, so fusion of a fused graph is one
    rng = np.random.default_rng(10)
    _, _, twin, shape = folded(kind, rng)
    again, _ = COMPOSITES[kind](bn=False)
    fold_into(twin, again, kind)
    for (_, a), (_, b) in zip(named_arrays(twin), named_arrays(again)):
        assert_bits(b, a)
    assert shares_no_memory(twin, again)
    x = rng.uniform(-1, 1, shape).astype(np.float32)
    assert np.array_equal(twin.forward(x), again.forward(x))


@pytest.mark.parametrize("kind", COMPOSITES)
def test_fold_into_names_the_child(kind):
    # a NaN in the first conv weight is reported at that child; a RepConv
    # collapses into one conv, so it is reported as a whole
    blk, _ = COMPOSITES[kind]()
    first = next(k for k, _ in named_arrays(blk) if k.endswith("w"))
    dict(named_arrays(blk))[first][...] = np.nan
    want = kind if isinstance(blk, RepConvBlock) else f"{kind}.{first[:-2]}"
    twin, _ = COMPOSITES[kind](bn=False)
    with pytest.raises(NumericError, match=f"the fold of {want} has non-finite"):
        fold_into(blk, twin, kind)


class TestFuseModelGraph:
    def test_baseline_topology_unchanged(self):
        g = M.build_model("baseline", 3)
        M.init_weights(g, 0)
        fused = fuse_model_graph(g)
        assert len(fused.nodes) == len(g.nodes)
        assert [(n.name, n.kind) for n in fused.nodes] == [(n.name, n.kind) for n in g.nodes]
        # only BN folds applied: no learnable BN entries remain
        names = []
        for e in fused.params:
            names.extend(f"{e.name}.{s}" for s, _ in named_arrays(e.block))
        assert not any(n.endswith((".bn.gamma", ".bn.beta")) for n in names)

    def test_improved_branch_nodes_removed(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        fused = fuse_model_graph(g)
        assert len(fused.nodes) < len(g.nodes)
        assert all(n.group is None for n in fused.nodes)
        assert all(n.kind != "avgpool_bn" for n in fused.nodes)

    def test_source_graph_not_mutated(self):
        g = M.build_model("improved", 3)
        store = M.init_weights(g, 0)
        fuse_model_graph(g)
        after = M.collect_weights(g)
        assert store.names() == after.names()
        assert all(np.array_equal(store[n], after[n]) for n in store.names())

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    @pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
    def test_fused_graph_owns_its_arrays(self, variant, fused):
        # every array of the result, the per-level scales included, is its
        # own: none shares memory with the source graph or the store loaded
        # into it, and writing into the result leaves the store unchanged
        g = M.build_model(variant, 3)
        store = M.init_weights(g, 0)
        if fused:
            store = M.collect_weights(fuse_model_graph(g))
        source = M.build_model(variant, 3, fused)
        M.load_weights(source, store)
        before = M.collect_weights(source)
        result = fuse_model_graph(source)
        held = [a for _, a in M.named_tensors(source)] + [store[n] for n in store.names()]
        for _, arr in M.named_tensors(result):
            assert not any(np.shares_memory(arr, a) for a in held)
            arr[...] = -1.0
        assert all(np.array_equal(store[n], before[n]) for n in store.names())

    def test_end_to_end_equivalence(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        fused = fuse_model_graph(g)
        x = np.random.default_rng(8).uniform(0, 1, (1, 3, 192, 192)).astype(np.float32)
        for a, b in zip(M.forward(g, x), M.forward(fused, x)):
            assert np.abs(a - b).max() < 1e-3

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    def test_drawn_statistics_fuse_equivalently(self, variant):
        # BN statistics, biases and scales away from their initial values, so a
        # fold or a leaf copy that is skipped shows in the head maps
        g = M.build_model(variant, 3)
        M.init_weights(g, 0)
        rng = np.random.default_rng(12)
        for entry in g.params:
            for suffix, arr in named_arrays(entry.block):
                leaf = suffix.rsplit(".", 1)[-1]
                if leaf == "var":
                    arr[...] = rng.uniform(0.05, 3.0, arr.shape)
                elif leaf in ("gamma", "s"):
                    arr[...] = rng.uniform(0.3, 1.7, arr.shape)
                elif leaf != "w":
                    arr[...] = rng.uniform(-0.5, 0.5, arr.shape)
        x = np.random.default_rng(13).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        for a, b in zip(M.forward(g, x), M.forward(fuse_model_graph(g), x)):
            assert np.abs(a - b).max() < 1e-4

    def test_idempotent(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        once = fuse_model_graph(g)
        twice = fuse_model_graph(once)
        assert M.structurally_equal(once, twice)

    def test_fused_params_not_larger(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        assert M.param_count(fuse_model_graph(g)) <= M.param_count(g)

    def test_shared_stack_fused_once(self):
        g = M.build_model("improved", 3)
        M.init_weights(g, 0)
        fused = fuse_model_graph(g)
        by_name = fused.node_map()
        for stack in ("rep1", "rep2"):
            blocks = {id(by_name[f"head.{lvl}.{stack}"].block) for lvl in ("p3", "p4", "p5")}
            assert len(blocks) == 1


def extreme_statistics(g, rng, tiny_share, mean_size):
    """Give every batch norm of `g` a `tiny_share` of running variances in
    [0, 2**-20] and means up to +-`mean_size`, with gamma and beta set so
    that each norm is still x * scale + shift with scale in [0.3, 1.7] and
    shift in [-0.5, 0.5]: extreme stored values, unit-size activations.
    Returns the names of the gamma tensors."""
    arrays = dict(M.named_tensors(g))
    gammas = [n for n in arrays if n.endswith(".bn.gamma")]
    for name in gammas:
        gamma, beta, mean, var = (arrays[name.removesuffix("gamma") + k]
                                  for k in ("gamma", "beta", "mean", "var"))
        c = gamma.shape[0]
        var[...] = np.where(rng.random(c) < tiny_share,
                            rng.choice([0.0, 1e-30, 2.0 ** -20], c), rng.uniform(0.05, 3.0, c))
        mean[...] = rng.uniform(-mean_size, mean_size, c)
        scale = rng.uniform(0.3, 1.7, c)
        gamma[...] = scale * np.sqrt(var.astype(np.float64) + BN_EPS)
        beta[...] = scale * mean.astype(np.float64) + rng.uniform(-0.5, 0.5, c)
    return gammas


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["baseline", "improved"]), nc=st.integers(1, 80),
       seed=st.integers(0, 2 ** 16), tiny_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       mean_size=st.sampled_from([0.5, 1e2, 1e4]),
       blowup=st.one_of(st.none(), st.integers(0, 2 ** 16)))
@example(variant="improved", nc=3, seed=0, tiny_share=0.5, mean_size=1e4, blowup=None)
@example(variant="improved", nc=3, seed=0, tiny_share=0.0, mean_size=0.5, blowup=-6)
def test_fusion_properties_under_drawn_statistics(tmp_path_factory, variant, nc, seed,
                                                  tiny_share, mean_size, blowup):
    # with `blowup`, the norm it indexes gets gamma 3e38 over a zero variance
    # and a mean of 1e4, whose float32 fold cannot be finite: fuse must name
    # the block (-6 is head.rep1's average-pool branch, named as its RepConv)
    g = M.build_model(variant, nc)
    M.init_weights(g, seed)
    gammas = extreme_statistics(g, np.random.default_rng(seed), tiny_share, mean_size)
    if blowup is not None:
        name = gammas[blowup % len(gammas)]
        arrays = dict(M.named_tensors(g))
        for key, value in (("gamma", 3e38), ("var", 0.0), ("mean", 1e4)):
            arrays[name.removesuffix("gamma") + key][0] = value
        with pytest.raises(NumericError) as err, np.errstate(over="ignore"):
            fuse_model_graph(g)
        named = str(err.value).removeprefix("the fold of ").split(" has non-finite")[0]
        assert name.startswith(f"{named}.")
        return
    once = fuse_model_graph(g)
    x = np.random.default_rng(seed).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
    want = M.forward(once, x)
    for a, b in zip(M.forward(g, x), want):
        assert np.abs(a - b).max() < 1e-3
    assert M.structurally_equal(once, fuse_model_graph(once))
    path = str(tmp_path_factory.mktemp("fused") / "fused.rwt")
    WeightStore(M.named_tensors(once)).save(path)
    loaded = M.build_model(variant, nc, fused=True)
    M.load_weights(loaded, WeightStore.load(path))
    assert all(np.array_equal(a, b) for a, b in zip(M.forward(loaded, x), want))


def ref_fuse(g):
    """The deploy form of `g` filled block by block by the reference fold."""
    ref = M.build_model(g.variant, g.nc, fused=True)
    for src, dst in zip(g.params, ref.params):
        ref_fold_into(src.block, dst.block, src.name)
    return ref


def norms(g):
    """(weight-name prefix, BatchNormParams) of every batch norm of `g`, in walk order."""
    return [(f"{e.name}.{suffix.removesuffix('.gamma')}", owner) for e in g.params
            for suffix, owner, attr, _ in e.block.shaped_slots() if attr == "gamma"]


def assert_graph_bits(got, want):
    for (name, a), (ref_name, b) in zip_longest(M.named_tensors(got), M.named_tensors(want),
                                                fillvalue=(None, None)):
        assert name == ref_name
        assert_bits(a, b)


DRAWN = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@DRAWN
@given(variant=st.sampled_from(["baseline", "improved"]), nc=st.integers(1, 80),
       seed=st.integers(0, 2 ** 16), tiny_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       mean_size=st.sampled_from([0.5, 1e2, 1e4]))
@example(variant="improved", nc=3, seed=0, tiny_share=0.5, mean_size=1e4)
def test_graph_fold_matches_block_folds(variant, nc, seed, tiny_share, mean_size):
    # one graph-wide affine: every fused array, and every copy of a fused
    # graph, equals the per-block reference
    g = M.build_model(variant, nc)
    M.init_weights(g, seed)
    extreme_statistics(g, np.random.default_rng(seed), tiny_share, mean_size)
    fused = fuse_model_graph(g)
    assert_graph_bits(fused, ref_fuse(g))
    assert_graph_bits(fuse_model_graph(fused), ref_fuse(fused))


VAR_EPS = "variance + eps must be positive to fold a batch norm"


@DRAWN
@given(variant=st.sampled_from(["baseline", "improved"]), seed=st.integers(0, 2 ** 16),
       first=st.integers(0, 2 ** 16), gap=st.integers(0, 2 ** 16), var_first=st.booleans())
@example(variant="improved", seed=0, first=-7, gap=0, var_first=False)  # rep1: k1 blows, avg fails
@example(variant="improved", seed=0, first=-9, gap=0, var_first=False)  # p3 stem blows, rep1 fails
@example(variant="baseline", seed=0, first=0, gap=0, var_first=True)
def test_first_failing_norm_names_the_error(variant, seed, first, gap, var_first):
    # two norms fail: one with var + eps <= 0, the other with a fold that
    # cannot be finite in float32. The earlier one in walk order gives the
    # error, with the reference's message; two norms of one RepConv fail as
    # one leaf, whose variance checks come before its branch sum
    g = M.build_model(variant, 3)
    M.init_weights(g, seed)
    bns = norms(g)
    i = first % len(bns)
    j = (i + 1 + gap % (len(bns) - 1)) % len(bns)
    early, late = min(i, j), max(i, j)
    bad, blow = (early, late) if var_first else (late, early)
    bns[bad][1].var[0] = -1.0
    for key, value in (("gamma", 3e38), ("var", 0.0), ("mean", 1e4)):
        getattr(bns[blow][1], key)[0] = value
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError) as want:
            ref_fuse(g)
        with pytest.raises(NumericError) as got:
            fuse_model_graph(g)
    msg = str(got.value)
    assert msg == str(want.value)
    if msg != VAR_EPS:
        named = msg.removeprefix("the fold of ").split(" has non-finite")[0]
        assert blow < bad and bns[blow][0].startswith(f"{named}.")
    elif blow < bad:  # both norms are branches of one RepConv
        stacks = {bns[k][0].rsplit(".", 2)[0] for k in (blow, bad)}
        assert len(stacks) == 1 and stacks.pop().startswith("head.rep")
