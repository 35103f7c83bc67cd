"""Regenerate perfbench/golden.json: per-slot weight calibration and the golden
outputs every benchmark run is checked against.

    python3 perfbench/make_golden.py

Run it only when the generator or the intended program behaviour changes on
purpose; the file pins the outputs of the commit that wrote it. Every slot is
rebuilt and the file is written afresh, so all slots come from one program.

Calibration, per slot and variant: forward seeded (uncalibrated) weights over
the slot's stream and eval images. Their class logits are a linear map
W x of the last hidden features (the seeded cls bias is zero). Pick the cls
scale and one bias for all classes so that the median stream image has about
TARGET_CANDIDATES P3 cells at score >= 0.25, and the 1e-4 quantile of all P3
cells scores 0.01, so that almost every cell passes conf 0.001. The box scale
starts where the P3 box logits have a standard deviation of BOX_STD, so box
sizes vary. For the variant `eval` runs, it is then bisected until NMS on the
first two eval images makes about TARGET_EVAL_IOU_CALLS IoU evaluations, so
that the NMS work of `eval`, over half of each image's time, is about the same
in every slot. The head maps are linear in both scales, so the search reuses
one forward per image. Weights come from `init_weights(slot)`; when no box
scale reaches the target (one class winning almost every cell makes NMS
dearer than the target at any scale), the next seed congruent to the slot
is tried, and the seed used is stored as `weight_seed`.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile

import benchenv

benchenv.bootstrap()

import numpy as np  # noqa: E402

from repdet import evaluate, fusion, model, pipeline  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402

TARGET_CANDIDATES = 200
LOW_QUANTILE = 1e-4
BOX_STD = 1.5
TARGET_EVAL_IOU_CALLS = 550_000
MAX_WEIGHT_TRIES = 6


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def calibration_for(slot: int) -> dict:
    images = [img for img, _ in gen.stream_images(slot)]
    eval_images = [img for img, _ in gen.eval_items(slot)]
    out = {}
    for variant in gen.VARIANTS:
        for weight_seed in range(slot, slot + MAX_WEIGHT_TRIES * gen.SLOTS, gen.SLOTS):
            calib, probes, cfg = _calibrate(variant, weight_seed, images, eval_images)
            if variant != workloads.WORKLOADS["eval"].variant:
                break
            calib["box_scale"] = _fit_box_scale(calib, probes, cfg)
            if calib["box_scale"] is not None:
                break
        else:
            raise RuntimeError(f"slot {slot}: no weight seed reaches the eval NMS cost")
        out[variant] = calib
    return out


def _calibrate(variant: str, weight_seed: int, images, eval_images):
    """Scales and bias for one variant's seeded weights, plus the head maps of
    the first two eval images for the box-scale search."""
    g = model.build_model(variant, gen.NC)
    model.load_weights(g, gen.seeded_weights(variant, weight_seed))
    g = fusion.fuse_model_graph(g)
    cfg = g.cfg
    kth, cells, box, probes = [], [], [], []
    for i, img in enumerate(images + eval_images):
        tensor, meta = pipeline.letterbox(img)
        maps = model.forward(g, tensor)
        p3 = maps[0][0].astype(np.float64)
        raw = p3[cfg.box_channels:].max(axis=0).ravel()
        cells.append(raw)
        box.append(p3[:cfg.box_channels].ravel())
        if i < len(images):
            kth.append(np.sort(raw)[-TARGET_CANDIDATES])
        elif len(probes) < 2:
            probes.append((maps, meta))
    r_star = float(np.median(kth))
    r_lo = float(np.quantile(np.concatenate(cells), LOW_QUANTILE))
    scale = (_logit(0.25) - _logit(0.01)) / (r_star - r_lo)
    calib = {
        "weight_seed": weight_seed,
        "cls_scale": scale,
        "cls_bias": _logit(0.25) - scale * r_star,
        "box_scale": BOX_STD / float(np.concatenate(box).std()),
    }
    return calib, probes, cfg


def nms_iou_calls(dets, iou_thresh: float) -> int:
    """IoU evaluations made by greedy class-aware NMS, the algorithm of
    `pipeline.nms`; its cost model on `eval`, where NMS dominates."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].class_id, i))
    kept: dict = {}
    calls = 0
    for i in order:
        d = dets[i]
        same = kept.setdefault(d.class_id, [])
        for box in same:
            calls += 1
            if evaluate.iou(box, d.box) >= iou_thresh:
                break
        else:
            same.append(d.box)
    return calls


def _fit_box_scale(calib: dict, probes, cfg) -> float | None:
    """Bisect log(box_scale) until the probe images cost about
    TARGET_EVAL_IOU_CALLS in NMS at the eval thresholds; None when no scale
    gets within 5%. More varied boxes survive NMS more often, so the cost
    rises with the box scale, up to where the bins saturate."""
    wl = workloads.WORKLOADS["eval"]

    def iou_calls(box_scale):
        calls = []
        for maps, meta in probes:
            scaled = []
            for m in maps:
                m = m.astype(np.float64)
                m[:, :cfg.box_channels] *= box_scale
                m[:, cfg.box_channels:] = m[:, cfg.box_channels:] * calib["cls_scale"] + calib["cls_bias"]
                scaled.append(m.astype(np.float32))
            dets = pipeline.decode_detections(scaled, cfg, meta, wl.conf)
            calls.append(nms_iou_calls(dets, wl.iou))
        return float(np.median(calls))

    lo, hi = math.log(calib["box_scale"] / 8), math.log(calib["box_scale"] * 32)
    for _ in range(8):
        mid = (lo + hi) / 2
        if iou_calls(math.exp(mid)) < TARGET_EVAL_IOU_CALLS:
            lo = mid
        else:
            hi = mid
    box_scale = math.exp((lo + hi) / 2)
    if abs(iou_calls(box_scale) / TARGET_EVAL_IOU_CALLS - 1) > 0.05:
        return None
    return box_scale


def golden_for(slot: int, calibration: dict) -> dict:
    entry = {"calibration": calibration}
    with tempfile.TemporaryDirectory() as root:
        inputs = gen.write_inputs(root, slot, calibration)
        for name in workloads.WORKLOADS:
            entry[name] = workloads.golden_outputs(name, inputs)
    return entry


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    doc = {"format": 1, "slots": {}}
    for slot in range(gen.SLOTS):
        entry = golden_for(slot, calibration_for(slot))
        doc["slots"][str(slot)] = entry
        print(f"slot {slot}: {json.dumps(entry['calibration'])}", file=sys.stderr)
    with open(gen.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
