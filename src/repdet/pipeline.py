"""Image-to-detections path: letterbox preprocessing, distance-bin decoding,
class-aware NMS, coordinate un-mapping, and annotated-image output."""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .blocks import HeadConfig
from .errors import ShapeError, SpecError, ValidationError
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


def letterbox(image: np.ndarray):
    """Aspect-preserving nearest resize onto a grey square canvas of side
    `HeadConfig.input_size`.

    Returns the C-contiguous (1, 3, size, size) float32 network tensor (RGB,
    1/255 scaled) and the coordinate-mapping metadata."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValidationError(f"expected a non-empty (h, w, 3) image, got {img.shape}")
    h, w = img.shape[:2]
    size = HeadConfig.input_size
    scale = min(size / w, size / h)
    new_w, new_h = max(1, round(w * scale)), max(1, round(h * scale))
    pad_left, pad_top = (size - new_w) // 2, (size - new_h) // 2
    # nearest rows, then nearest pixels as column triples of the (new_h, 3*w) view
    rows = img.take(_nearest_indices(new_h, h), axis=0).reshape(new_h, 3 * w)
    cols = (3 * _nearest_indices(new_w, w)[:, None] + np.arange(3)).ravel()
    src = rows.take(cols, axis=1).reshape(new_h, new_w, 3)
    tensor = np.empty((1, 3, size, size), dtype=DTYPE)
    pad = np.float32(PAD_VALUE) / np.float32(255)
    tensor[:, :, :pad_top] = pad
    tensor[:, :, pad_top + new_h:] = pad
    tensor[:, :, pad_top:pad_top + new_h, :pad_left] = pad
    tensor[:, :, pad_top:pad_top + new_h, pad_left + new_w:] = pad
    interior = tensor[0, :, pad_top:pad_top + new_h, pad_left:pad_left + new_w]
    np.divide(src.transpose(2, 0, 1), np.float32(255), out=interior, dtype=DTYPE)
    return tensor, LetterboxMeta(scale, pad_left, pad_top, w, h)


def unletterbox_box(box, meta: LetterboxMeta) -> np.ndarray:
    """Map network-frame boxes, one (x1, y1, x2, y2) or an (n, 4) array, back
    to original pixels, clipped to the image. Returns float64 of the same shape."""
    b = np.asarray(box, dtype=np.float64)
    x = (b[..., 0::2] - meta.pad_left) / meta.scale
    y = (b[..., 1::2] - meta.pad_top) / meta.scale
    x = np.where(x > meta.orig_w, meta.orig_w, np.where(x < 0.0, 0.0, x))
    y = np.where(y > meta.orig_h, meta.orig_h, np.where(y < 0.0, 0.0, y))
    return np.stack((x[..., 0], y[..., 0], x[..., 1], y[..., 1]), axis=-1)


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


@dataclass(frozen=True, eq=False)
class Candidates(Sequence):
    """Decoded boxes before NMS as arrays: int64 class ids, float32 scores and
    float64 (n, 4) boxes in original-image pixels; the one input form of
    `nms`. `[i]` builds a `Detection`."""

    class_ids: np.ndarray
    scores: np.ndarray
    boxes: np.ndarray
    class_names: tuple

    def __post_init__(self):  # Detection's checks, on every candidate at once
        x1, y1, x2, y2 = self.boxes.T
        if not ((x1 < x2) & (y1 < y2) & (self.scores >= 0.0) & (self.scores <= 1.0)).all():
            raise ValidationError("candidate with a degenerate box or a score outside [0, 1]")

    def __len__(self):
        return len(self.scores)

    def __getitem__(self, i):
        cid = int(self.class_ids[i])
        return Detection(cid, self.class_names[cid], float(self.scores[i]),
                         tuple(self.boxes[i].tolist()))


def decode_detections(head_maps, cfg: HeadConfig, meta: LetterboxMeta,
                      conf_thresh: float = 0.25, class_names=None) -> Candidates:
    """Anchor-free decode of the head maps into `Candidates` in original-image
    pixels, level by level in row-major cell order; zero-extent boxes dropped."""
    if len(head_maps) != len(cfg.strides):
        raise SpecError(f"expected {len(cfg.strides)} head maps, got {len(head_maps)}")
    if class_names is None:
        class_names = [f"class{i}" for i in range(cfg.nc)]
    cids, scores, boxes = [], [], []
    for level, (fmap, stride) in enumerate(zip(head_maps, cfg.strides)):
        if fmap.shape[0] != 1:
            raise ShapeError(f"level {level}: batch axis {fmap.shape[0]} != 1; decode one image at a time")
        if fmap.shape[1] != cfg.out_channels:
            raise ShapeError(f"level {level}: channel axis {fmap.shape[1]} != {cfg.out_channels}")
        cls_scores = sigmoid(fmap[:, cfg.box_channels:])[0]
        best_score = cls_scores.max(axis=0)
        ys, xs = np.nonzero(best_score >= conf_thresh)
        # a spare cell keeps the bin axis off the innermost axis when one cell
        # passes, so the bin sums run in the same order as over a whole map
        cells = fmap[0, :cfg.box_channels][:, np.append(ys, 0), np.append(xs, 0)]
        l, t, r, b = dfl_expectation(cells[None, :, None])[0, :, 0, :-1].astype(np.float64)
        ax, ay = (xs + 0.5) * stride, (ys + 0.5) * stride
        lb = np.stack((ax - l * stride, ay - t * stride, ax + r * stride, ay + b * stride), axis=1)
        box = unletterbox_box(lb, meta)
        keep = ~((l + r <= 0.0) | (t + b <= 0.0) | (box[:, 0] >= box[:, 2]) | (box[:, 1] >= box[:, 3]))
        cids.append(cls_scores[:, ys[keep], xs[keep]].argmax(axis=0))
        scores.append(best_score[ys[keep], xs[keep]])
        boxes.append(box[keep])
    return Candidates(np.concatenate(cids), np.concatenate(scores),
                      np.concatenate(boxes), tuple(class_names))


def nms(cands: Candidates, iou_thresh: float = 0.45) -> list:
    """Greedy class-aware suppression of `Candidates`: a box goes when its IoU
    (`evaluate.iou`'s arithmetic) with a kept box of its class is >= the
    threshold. Ties break on lower class id, then input order; survivors come
    back as `Detection`s sorted by descending score."""
    cids, scores, boxes = cands.class_ids, cands.scores, cands.boxes
    order = np.lexsort((cids, -scores))  # stable: ties left in input order
    kept = []
    with np.errstate(divide="ignore", invalid="ignore"):  # the quotients of disjoint pairs go unused
        for c in np.unique(cids):
            pos = np.flatnonzero(cids[order] == c)  # ranks of class c, best first
            x1, y1, x2, y2 = boxes[order[pos]].T
            area = (x2 - x1) * (y2 - y1)
            alive = np.arange(len(pos))
            while alive.size:
                k, rest = alive[0], alive[1:]
                kept.append(pos[k])
                ix = np.minimum(x2[k], x2[rest]) - np.maximum(x1[k], x1[rest])
                iy = np.minimum(y2[k], y2[rest]) - np.maximum(y1[k], y1[rest])
                inter = ix * iy
                iou = np.where((ix <= 0) | (iy <= 0), 0.0, inter / (area[k] + area[rest] - inter))
                alive = rest[~(iou >= iou_thresh)]
    return [cands[i] for i in order[np.sort(np.asarray(kept, dtype=np.int64))].tolist()]


def annotate(image: np.ndarray, dets) -> np.ndarray:
    """Draw 2-px box outlines with the fixed per-class palette. Deterministic."""
    out = np.asarray(image, dtype=np.uint8).copy()
    h, w = out.shape[:2]
    for d in dets:
        color = PALETTE[d.class_id % len(PALETTE)]
        x1, y1, x2, y2 = (max(0, min(size - 1, int(round(v))))
                          for v, size in zip(d.box, (w, h, w, h)))
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
