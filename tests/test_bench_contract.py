"""What the benchmark (its traced run in perfbench/spans.py, its staged path
and its golden maker) needs from the engine. The tier-1 suite does not
collect perfbench/tests, so an engine change that breaks the benchmark shows
up here instead of at benchmark time."""
import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

import repdet.blocks
import repdet.model as M
from repdet.blocks import HeadConfig
from repdet.fusion import fuse_model_graph
from repdet.pipeline import Detection, LetterboxMeta, decode_detections, nms

from oracles import ref_decode_detections

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SPANS = os.path.join(BENCH, "spans.py")


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_kernel_timer_names_are_block_imports(monkeypatch):
    spans = load_spans(monkeypatch)
    # KernelTimer swaps these names on repdet.blocks for the traced walk
    assert [n for n in spans.BLOCK_KERNELS if not hasattr(repdet.blocks, n)] == []
    # the per-kind metrics are keyed by these; a kind renamed in the engine
    # would leave its blocks.<kind>_ms metric at zero
    assert spans.BLOCK_KINDS == M.BLOCK_KINDS
    assert set(spans.GLUE_KINDS) == set(M.GLUE)


@pytest.mark.parametrize("variant", ["baseline", "improved"])
@pytest.mark.parametrize("fused", [False, True], ids=["train", "fused"])
def test_traced_walk_gives_forward_bits(monkeypatch, variant, fused):
    # the traced run calls the engine through KernelTimer's fixed-signature
    # wrappers and its own node walk; it must compute what model.forward does
    spans = load_spans(monkeypatch)
    g = M.build_model(variant, 3)
    M.init_weights(g, 1)
    if fused:
        g = fuse_model_graph(g)
    x = np.random.default_rng(2).uniform(0, 1, (1, 3, 64, 96)).astype(np.float32)
    with spans.KernelTimer() as timer:
        maps, rows = spans.walk(g, x, timer.glue)
    assert [row[0].name for row in rows] == [node.name for node in g.nodes]
    assert timer.stats.conv_calls > 0 and timer.stats.other_s > 0
    assert all(np.array_equal(a, b) for a, b in zip(maps, M.forward(g, x)))


def test_profile_total_macs_is_sum_of_rows():
    # the runner reads the total as [2] and the per-node rows as [0]
    g = M.build_model("improved", 3)
    rows, _, total_macs = M.profile_graph(g)
    assert total_macs == sum(r.macs for r in rows)


def test_staged_path_takes_candidates(monkeypatch):
    # workloads.run_image takes len() of what decode returns and hands what
    # NMS returns to the JSON writer and the golden checks; make_golden counts
    # NMS's IoU evaluations by indexing the candidates as Detections
    monkeypatch.syspath_prepend(BENCH)
    make_golden = importlib.import_module("make_golden")
    rng = np.random.default_rng(0)
    cfg = HeadConfig(nc=3)
    maps = [rng.uniform(-4.0, 4.0, (1, cfg.out_channels, s, s)).astype(np.float32) for s in (8, 4, 2)]
    meta = LetterboxMeta(0.5, 0, 80, 1280, 960)
    cands = decode_detections(maps, cfg, meta, 0.25)
    ref = ref_decode_detections(maps, cfg, meta, 0.25)
    assert len(cands) == len(ref) > 0
    kept = nms(cands, 0.45)
    assert kept and all(isinstance(d, Detection) for d in kept)
    assert make_golden.nms_iou_calls(cands, 0.45) == make_golden.nms_iou_calls(ref, 0.45) > 0
