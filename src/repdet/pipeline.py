"""Image-to-detections path: letterbox preprocessing, distance-bin decoding,
class-aware NMS, coordinate un-mapping, and annotated-image output."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .blocks import HeadConfig
from .errors import ShapeError, SpecError, ValidationError
from .evaluate import iou
from .tensor_ops import DTYPE, sigmoid, softmax_channelwise

PAD_VALUE = 114  # grey border pixel, as 0..255

# per-class outline colors, repeating past the palette length
PALETTE = (
    (230, 57, 70), (46, 160, 67), (30, 136, 229), (251, 140, 0),
    (142, 36, 170), (0, 172, 193), (255, 235, 59), (216, 27, 96),
)


@dataclass(frozen=True)
class LetterboxMeta:
    """Forward mapping original -> network frame: x' = x*scale + pad."""

    scale: float
    pad_left: int
    pad_top: int
    orig_w: int
    orig_h: int


@dataclass(frozen=True)
class Detection:
    class_id: int
    class_name: str
    score: float
    box: tuple  # (x1, y1, x2, y2) in original-image pixels

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ValidationError(f"degenerate box {self.box}")
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score {self.score} outside [0, 1]")


def _nearest_indices(dst: int, src: int) -> np.ndarray:
    # sample at destination pixel centers
    idx = np.floor((np.arange(dst) + 0.5) * (src / dst)).astype(np.int64)
    return np.clip(idx, 0, src - 1)


def letterbox(image: np.ndarray, size: int = 640):
    """Aspect-preserving nearest resize onto a grey square canvas.

    Returns the (1, 3, size, size) float32 network tensor (RGB, 1/255 scaled)
    and the coordinate-mapping metadata."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValidationError(f"expected a non-empty (h, w, 3) image, got {img.shape}")
    h, w = img.shape[:2]
    scale = min(size / w, size / h)
    new_w = max(1, round(w * scale))
    new_h = max(1, round(h * scale))
    resized = img[np.ix_(_nearest_indices(new_h, h), _nearest_indices(new_w, w))]
    pad_left = (size - new_w) // 2
    pad_top = (size - new_h) // 2
    canvas = np.full((size, size, 3), PAD_VALUE, dtype=np.float32) / 255.0
    canvas[pad_top:pad_top + new_h, pad_left:pad_left + new_w] = resized.astype(np.float32) / 255.0
    tensor = canvas.transpose(2, 0, 1)[None].astype(DTYPE)
    return tensor, LetterboxMeta(scale, pad_left, pad_top, w, h)


def unletterbox_box(box, meta: LetterboxMeta):
    """Map a network-frame box back to original pixels, clipped to the image."""
    x1, y1, x2, y2 = box
    ox1 = (x1 - meta.pad_left) / meta.scale
    ox2 = (x2 - meta.pad_left) / meta.scale
    oy1 = (y1 - meta.pad_top) / meta.scale
    oy2 = (y2 - meta.pad_top) / meta.scale
    return (
        min(max(ox1, 0.0), meta.orig_w),
        min(max(oy1, 0.0), meta.orig_h),
        min(max(ox2, 0.0), meta.orig_w),
        min(max(oy2, 0.0), meta.orig_h),
    )


def dfl_expectation(box_logits: np.ndarray) -> np.ndarray:
    """Per side (l, t, r, b): softmax over that side's quarter of the channels
    (reg_max distance bins), then the expected bin index. Output has 4
    channels, values in [0, reg_max - 1] stride units."""
    c = box_logits.shape[1]
    if c % 4:
        raise SpecError(f"box channels {c} not divisible by 4")
    reg_max = c // 4
    p = softmax_channelwise(box_logits, reg_max)
    n, _, h, w = p.shape
    bins = np.arange(reg_max, dtype=np.float64)
    dist = (p.astype(np.float64).reshape(n, 4, reg_max, h, w) * bins[None, None, :, None, None]).sum(axis=2)
    return dist.astype(DTYPE)


def decode_detections(head_maps, cfg: HeadConfig, meta: LetterboxMeta,
                      conf_thresh: float = 0.25, class_names=None):
    """Anchor-free decode of the three head maps into scored boxes in original
    image pixels. Zero-extent boxes are dropped before any NMS."""
    if len(head_maps) != len(cfg.strides):
        raise SpecError(f"expected {len(cfg.strides)} head maps, got {len(head_maps)}")
    if class_names is None:
        class_names = [f"class{i}" for i in range(cfg.nc)]
    dets = []
    for level, (fmap, stride) in enumerate(zip(head_maps, cfg.strides)):
        if fmap.shape[0] != 1:
            raise ShapeError(
                f"level {level}: batch axis {fmap.shape[0]} != 1; decode one image at a time"
            )
        if fmap.shape[1] != cfg.out_channels:
            raise ShapeError(
                f"level {level}: channel axis {fmap.shape[1]} != {cfg.out_channels}"
            )
        box_logits = fmap[:, :cfg.box_channels]
        cls_logits = fmap[:, cfg.box_channels:]
        dist = dfl_expectation(box_logits)[0]
        scores = sigmoid(cls_logits)[0]
        best_cls = scores.argmax(axis=0)
        best_score = scores.max(axis=0)
        ys, xs = np.nonzero(best_score >= conf_thresh)
        for cy, cx in zip(ys.tolist(), xs.tolist()):
            l, t, r, b = (float(dist[k, cy, cx]) for k in range(4))
            if l + r <= 0.0 or t + b <= 0.0:
                continue
            ax = (cx + 0.5) * stride
            ay = (cy + 0.5) * stride
            lb_box = (ax - l * stride, ay - t * stride, ax + r * stride, ay + b * stride)
            x1, y1, x2, y2 = unletterbox_box(lb_box, meta)
            if x1 >= x2 or y1 >= y2:
                continue
            cid = int(best_cls[cy, cx])
            dets.append(Detection(cid, class_names[cid], float(best_score[cy, cx]),
                                  (x1, y1, x2, y2)))
    return dets


def nms(dets, iou_thresh: float = 0.45):
    """Greedy class-aware suppression. Ties break on lower class id, then input
    order; survivors come back sorted by descending score."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].class_id, i))
    kept: list[int] = []
    for i in order:
        d = dets[i]
        if any(dets[j].class_id == d.class_id and iou(dets[j].box, d.box) >= iou_thresh
               for j in kept):
            continue
        kept.append(i)
    return [dets[i] for i in kept]


def annotate(image: np.ndarray, dets) -> np.ndarray:
    """Draw 2-px box outlines with the fixed per-class palette. Deterministic."""
    out = np.asarray(image, dtype=np.uint8).copy()
    h, w = out.shape[:2]
    for d in dets:
        color = PALETTE[d.class_id % len(PALETTE)]
        x1 = max(0, min(w - 1, int(round(d.box[0]))))
        y1 = max(0, min(h - 1, int(round(d.box[1]))))
        x2 = max(0, min(w - 1, int(round(d.box[2]))))
        y2 = max(0, min(h - 1, int(round(d.box[3]))))
        for t in range(2):
            yt, yb = min(y1 + t, h - 1), max(y2 - t, 0)
            xl, xr = min(x1 + t, w - 1), max(x2 - t, 0)
            out[yt, xl:xr + 1] = color
            out[yb, xl:xr + 1] = color
            out[y1:y2 + 1, xl] = color
            out[y1:y2 + 1, xr] = color
    return out


def detections_to_json(dets) -> str:
    """Fixed 4-decimal JSON array, byte-deterministic for identical inputs."""
    rows = []
    for d in dets:
        box = ", ".join(f"{v:.4f}" for v in d.box)
        rows.append(
            f'  {{"class_id": {d.class_id}, "class_name": {json.dumps(d.class_name)}, '
            f'"score": {d.score:.4f}, "box": [{box}]}}'
        )
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n]"
