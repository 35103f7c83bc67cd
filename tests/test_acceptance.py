"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured numbers (run with `pytest -s` to see them on success)."""
import time

import numpy as np
import pytest

import repdet.model as M
from repdet.cli import main as cli_main
from repdet.evaluate import average_precision_50, evaluate
from repdet.fusion import deploy_repconv, fuse_model_graph
from repdet.pipeline import annotate, letterbox, unletterbox_box
from repdet.ppm import read_ppm, write_ppm
from repdet.tensor_ops import Conv2dSpec, conv2d, pool2d, softmax_channelwise
from repdet.weights import WeightStore

from oracles import ref_conv2d, ref_eval_exhaustive, ref_pool2d, ref_softmax_group
from synth import CLASS_NAMES, as_oracle_inputs, build_planted_dataset
from test_fusion import random_repconv


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS - {text}")


def test_criterion_1_parameter_accounting(capsys):
    t0 = time.perf_counter()
    code = cli_main(["compare", "--nc", "3"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    base = int(lines[1].split()[1])
    improved = int(lines[2].split()[1])
    reduction = 100.0 * (base - improved) / base
    if not 2.0e6 <= improved <= 2.2e6:
        # localize any miss via the per-layer table before failing
        cli_main(["summarize", "--model", "improved", "--nc", "3"])
        print(capsys.readouterr().out)
    assert 3.0e6 <= base <= 3.2e6
    assert 2.0e6 <= improved <= 2.2e6
    assert reduction >= 30.0
    assert elapsed < 5.0
    with capsys.disabled():
        report(1, f"baseline {base} in [3.0M, 3.2M], improved {improved} in "
                  f"[2.0M, 2.2M], reduction {reduction:.2f}% >= 30%, {elapsed:.2f}s < 5s")


def test_criterion_2_reparameterization_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_block = 0.0
    for _ in range(100):
        ch = int(rng.choice([2, 4, 8, 16]))
        blk = random_repconv(rng, ch)
        x = rng.uniform(-1, 1, (1, ch, 10, 10)).astype(np.float32)
        dev = float(np.abs(blk.forward(x) - deploy_repconv(blk).forward(x)).max())
        worst_block = max(worst_block, dev)
    assert worst_block < 1e-4

    g = M.build_model("improved", 3)
    M.init_weights(g, 0)
    fused = fuse_model_graph(g)
    worst_graph = 0.0
    for _ in range(5):
        x = rng.uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
        for a, b in zip(M.forward(g, x), M.forward(fused, x)):
            worst_graph = max(worst_graph, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - t0
    assert worst_graph < 1e-3
    assert elapsed < 120.0
    with capsys.disabled():
        report(2, f"100 blocks max |train-deploy| {worst_block:.2e} < 1e-4, whole-graph "
                  f"deviation {worst_graph:.2e} < 1e-3 on 5 inputs, {elapsed:.1f}s < 120s")


def test_criterion_3_fusion_structure(capsys):
    g = M.build_model("improved", 3)
    M.init_weights(g, 0)
    fused = fuse_model_graph(g)
    branch_nodes = [n for n in fused.nodes if n.group is not None or n.kind == "avgpool_bn"]
    assert branch_nodes == []
    assert len(fused.nodes) < len(g.nodes)
    assert M.structurally_equal(fused, fuse_model_graph(fused))
    with capsys.disabled():
        report(3, f"fused graph has 0 RepConv branch nodes ({len(g.nodes)} -> "
                  f"{len(fused.nodes)} nodes), second fusion is structurally equal")


def test_criterion_4_placement_audit(capsys):
    g = M.build_model("improved", 3)
    ms_stages = sum(1 for n in g.nodes if n.kind == "c2f_ms")
    msca = sum(1 for n in g.nodes if n.kind == "msca")
    assert ms_stages == 5
    assert msca == 1
    by_name = g.node_map()
    for stack in ("rep1", "rep2"):
        ids = {id(by_name[f"head.{lvl}.{stack}.k3"].block) for lvl in ("p3", "p4", "p5")}
        assert len(ids) == 1  # one parameter stack serves all three levels
    scales = [n for n in g.nodes if n.kind == "scale"]
    assert len(scales) == 3
    assert len({id(n.block) for n in scales}) == 3  # per-level scalars
    with capsys.disabled():
        report(4, "5 split-path C2f stages, 1 strip-attention gate, shared head "
                  "RepConv stacks, 3 per-level scales")


def test_criterion_5_shape_contract(capsys):
    g = M.build_model("improved", 3)
    M.init_weights(g, 0)
    x = np.random.default_rng(1).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
    t0 = time.perf_counter()
    maps = M.forward(g, x)
    elapsed = time.perf_counter() - t0
    assert [m.shape for m in maps] == [(1, 67, 80, 80), (1, 67, 40, 40), (1, 67, 20, 20)]
    assert elapsed < 60.0
    with capsys.disabled():
        report(5, f"640x640 forward gives 67x80/40/20 head maps in {elapsed:.2f}s < 60s")


def test_criterion_6_metric_fidelity(capsys):
    items, dets, sizes = build_planted_dataset(seed=7, images=20)
    rep = evaluate(dets, items, CLASS_NAMES, image_sizes=sizes)
    o_dets, o_truths = as_oracle_inputs(items, dets, sizes)
    per_class, map50 = ref_eval_exhaustive(o_dets, o_truths, 3)
    assert abs(rep.map50 - map50) < 1e-9
    worst = abs(rep.map50 - map50)
    for cid, c in enumerate(rep.classes):
        p, r, ap = per_class[cid]
        assert abs(c.precision - p) < 1e-9
        assert abs(c.recall - r) < 1e-9
        worst = max(worst, abs(c.precision - p), abs(c.recall - r))
        if ap is not None:
            assert abs(c.ap50 - ap) < 1e-9
            worst = max(worst, abs(c.ap50 - ap))
    hand = average_precision_50([True, False, True], 2)
    assert abs(hand - 0.8333) < 1e-4
    with capsys.disabled():
        report(6, f"20-image planted set matches exhaustive-threshold oracle "
                  f"(max dev {worst:.1e} < 1e-9), hand case AP {hand:.4f} = 0.8333 +/- 1e-4")


def test_criterion_7_kernel_oracles(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        g = int(rng.choice([1, 1, 1, 2]))
        cin = int(rng.integers(1, 4)) * g
        cout = int(rng.integers(1, 4)) * g
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, k + 6))
        w = int(rng.integers(k, k + 6))
        st, pd = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        x = rng.uniform(-1, 1, (1, cin, h, w)).astype(np.float32)
        wt = rng.uniform(-1, 1, (cout, cin // g, k, k)).astype(np.float32)
        spec = Conv2dSpec(cin, cout, k, st, pd, groups=g)
        worst = max(worst, float(np.abs(
            conv2d(x, spec, wt) - ref_conv2d(x, wt, None, (st, st), (pd, pd), g)
        ).max()))

        pk = int(rng.integers(1, 4))
        px = rng.uniform(-1, 1, (1, cin, pk + 3, pk + 3)).astype(np.float32)
        ppd = int(rng.integers(0, min(pk, 2)))
        got = pool2d(px, "avg", pk, 1, ppd)
        want = ref_pool2d(px, "avg", (pk, pk), (1, 1), (ppd, ppd))
        worst = max(worst, float(np.abs(got - want).max()))

        sm = rng.uniform(-6, 6, (1, 16, 3, 3)).astype(np.float32)
        worst = max(worst, float(np.abs(
            softmax_channelwise(sm, 4) - ref_softmax_group(sm, 4)
        ).max()))
    assert worst < 1e-6

    # fusion precondition: padding-counted avg pool == diagonal 1/9 conv
    x = rng.uniform(-1, 1, (1, 4, 8, 8)).astype(np.float32)
    w = np.zeros((4, 4, 3, 3), dtype=np.float32)
    for i in range(4):
        w[i, i] = 1.0 / 9.0
    dev = float(np.abs(pool2d(x, "avg", 3, 1, 1)
                       - conv2d(x, Conv2dSpec(4, 4, 3, padding=1), w)).max())
    assert dev < 1e-6
    with capsys.disabled():
        report(7, f"conv/avg-pool/softmax vs loop oracles on 50 shapes: max dev "
                  f"{worst:.1e} < 1e-6; avg-pool-as-conv dev {dev:.1e} < 1e-6")


def _ppm_roundtrip(tmp_path, img):
    p = str(tmp_path / "rt.ppm")
    write_ppm(p, img)
    return read_ppm(p)


def test_criterion_8_io_roundtrips(tmp_path, capsys):
    g = M.build_model("improved", 3)
    store = M.init_weights(g, 3)
    path = str(tmp_path / "w.rwt")
    store.save(path)
    loaded = WeightStore.load(path)
    assert loaded.names() == store.names()
    assert all(np.array_equal(loaded[n], store[n]) for n in store.names())

    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (37, 53, 3), dtype=np.uint8)
    from repdet.pipeline import Detection
    dets = [Detection(0, "class0", 0.7, (4.0, 4.0, 30.0, 20.0))]
    p1, p2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
    write_ppm(p1, annotate(_ppm_roundtrip(tmp_path, img), dets))
    write_ppm(p2, annotate(_ppm_roundtrip(tmp_path, img), dets))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()

    worst = 0.0
    for _ in range(20):
        w = int(rng.integers(1, 2000))
        h = int(rng.integers(1, 2000))
        _, meta = letterbox(np.zeros((h, w, 3), dtype=np.uint8))
        for _ in range(5):
            x = float(rng.uniform(0, w))
            y = float(rng.uniform(0, h))
            bx = unletterbox_box((x * meta.scale + meta.pad_left,
                                  y * meta.scale + meta.pad_top,
                                  x * meta.scale + meta.pad_left,
                                  y * meta.scale + meta.pad_top), meta)
            worst = max(worst, abs(bx[0] - x), abs(bx[1] - y))
    assert worst <= 1.0
    with capsys.disabled():
        report(8, f"weight store round-trips bit-exact ({len(store.names())} tensors), "
                  f"annotate/write deterministic, letterbox inverse within {worst:.1e} px")


def test_criterion_9_out_of_scope_statement(capsys):
    # The published accuracy tables require training on a private dataset and are
    # not reproducible at desk scale; criteria 1-8 stand in for them by checking
    # parameters, structure, numerical equivalence and metric fidelity instead.
    with capsys.disabled():
        report(9, "accuracy-table reproduction is out of scope by design; "
                  "covered by structural/equivalence/metric criteria 1-8")
