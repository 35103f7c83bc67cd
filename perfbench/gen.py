"""Seeded input generator: weight files, a mixed-size PPM stream, and a
manifest dataset with planted label boxes.

Everything is derived from the workload seed. The seed selects one of SLOTS
input sets (slot = seed mod SLOTS), so every input set the benchmark can be
given has golden outputs in golden.json. The same seed writes byte-identical
files.

Weights come from `model.init_weights(weight_seed)`, with the slot's weight
seed stored in golden.json (see make_golden.py). Seeded weights leave every
class logit near 1e-6, which makes every cell score 0.5. The final box/cls
convs are therefore rescaled and the cls bias shifted, through the public
weight API only, with per-slot constants also stored in golden.json.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repdet import model
from repdet.weights import WeightStore

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SLOTS = 8
NC = 3
CLASSES = ("class0", "class1", "class2")
VARIANTS = ("improved", "baseline")
STREAM_IMAGES = 8
EVAL_ITEMS = 6

# independent random streams per purpose, keyed as (slot, purpose)
_STREAM, _EVAL = 1, 2


def slot_of(seed: int) -> int:
    return seed % SLOTS


def final_conv_names(variant: str):
    """(box weight, cls weight, cls bias) tensor names of the last head convs."""
    if variant == "improved":
        return [("head.box.w", "head.cls.w", "head.cls.b")]
    return [(f"head.{lv}.box3.w", f"head.{lv}.cls3.w", f"head.{lv}.cls3.b")
            for lv in ("p3", "p4", "p5")]


def seeded_weights(variant: str, seed: int) -> WeightStore:
    return model.init_weights(model.build_model(variant, NC), seed)


def calibrate(store: WeightStore, variant: str, calib: dict) -> WeightStore:
    """Copy of `store` with the final box/cls weights scaled and the cls bias
    set: logit = cls_scale * (W x) + cls_bias, box = box_scale * (W x)."""
    scaled = {}
    for box_w, cls_w, cls_b in final_conv_names(variant):
        scaled[box_w] = store[box_w] * np.float32(calib["box_scale"])
        scaled[cls_w] = store[cls_w] * np.float32(calib["cls_scale"])
        scaled[cls_b] = np.full_like(store[cls_b], calib["cls_bias"])
    return WeightStore((name, scaled.get(name, arr)) for name, arr in store.items())


def _noise_image(rng, w: int, h: int) -> np.ndarray:
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


def _planted_labels(rng):
    """1-4 normalized (class_id, cx, cy, w, h) boxes, 10-35% of each side."""
    labels = []
    for _ in range(int(rng.integers(1, 5))):
        cid = int(rng.integers(0, NC))
        bw = float(rng.uniform(0.1, 0.35))
        bh = float(rng.uniform(0.1, 0.35))
        labels.append((cid, float(rng.uniform(bw / 2, 1 - bw / 2)),
                       float(rng.uniform(bh / 2, 1 - bh / 2)), bw, bh))
    return labels


def stream_images(slot: int):
    """STREAM_IMAGES (image, labels) pairs: uniform-noise images 320-1280 px
    wide, aspect h/w 0.56-1.33 (landscape and portrait), height capped at 1280.
    Labels are planted but not drawn, so every image has the same statistics."""
    rng = np.random.default_rng([slot, _STREAM])
    out = []
    for _ in range(STREAM_IMAGES):
        w = int(rng.integers(320, 1281))
        h = int(min(1280, max(180, round(w * float(rng.uniform(0.56, 1.33))))))
        out.append((_noise_image(rng, w, h), _planted_labels(rng)))
    return out


def eval_items(slot: int):
    """EVAL_ITEMS (image, labels) pairs: noise images 480-960 px wide at aspect
    0.75-1.0; each planted box is drawn as a patch tinted in its class channel."""
    rng = np.random.default_rng([slot, _EVAL])
    out = []
    for _ in range(EVAL_ITEMS):
        w = int(rng.integers(480, 961))
        h = int(round(w * float(rng.uniform(0.75, 1.0))))
        img = _noise_image(rng, w, h)
        labels = _planted_labels(rng)
        for cid, cx, cy, bw, bh in labels:
            x1, x2 = int(round((cx - bw / 2) * w)), int(round((cx + bw / 2) * w))
            y1, y2 = int(round((cy - bh / 2) * h)), int(round((cy + bh / 2) * h))
            patch = img[y1:y2, x1:x2]
            patch[..., cid] = patch[..., cid] // 2 + 128
        out.append((img, labels))
    return out


def _write_bytes(path: str, blob: bytes) -> None:
    with open(path, "wb") as f:
        f.write(blob)


def ppm_bytes(image: np.ndarray) -> bytes:
    h, w = image.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(image, dtype=np.uint8).tobytes()


def label_text(labels) -> str:
    return "".join(f"{c} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}\n" for c, cx, cy, w, h in labels)


@dataclass(frozen=True)
class Inputs:
    root: str
    slot: int
    weights: dict        # variant -> .rwt path
    stream: tuple        # PPM paths, in stream order
    stream_manifest: str  # manifest over the stream images
    eval_manifest: str    # manifest over the planted dataset


def write_inputs(root: str, seed: int, calibration: dict) -> Inputs:
    """Write every generated file for `seed` under `root` (created if absent)."""
    slot = slot_of(seed)
    os.makedirs(root, exist_ok=True)
    weights = {}
    for variant in VARIANTS:
        path = os.path.join(root, f"{variant}.rwt")
        calib = calibration[variant]
        calibrate(seeded_weights(variant, calib["weight_seed"]), variant, calib).save(path)
        weights[variant] = path

    manifests = {}
    for key, pairs in (("stream", stream_images(slot)), ("eval", eval_items(slot))):
        records = []
        for i, (img, labels) in enumerate(pairs):
            name = f"{key}{i:02d}"
            _write_bytes(os.path.join(root, name + ".ppm"), ppm_bytes(img))
            _write_bytes(os.path.join(root, name + ".txt"), label_text(labels).encode())
            records.append({"image": name + ".ppm", "label": name + ".txt"})
        path = os.path.join(root, f"{key}_manifest.json")
        doc = {"classes": list(CLASSES), "items": records}
        _write_bytes(path, (json.dumps(doc, indent=1) + "\n").encode())
        manifests[key] = path
    stream = tuple(os.path.join(root, f"stream{i:02d}.ppm") for i in range(STREAM_IMAGES))
    return Inputs(root, slot, weights, stream, manifests["stream"], manifests["eval"])
