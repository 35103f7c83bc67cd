"""Dataset ingestion, greedy IoU matching, and detection metrics (P, R, AP@0.5,
mAP@0.5 as the unweighted class mean over classes with ground truth)."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ppm import read_ppm


@dataclass(frozen=True)
class GroundTruthBox:
    """Normalized center-format label box."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [0, 1]")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"box extent {self.w}x{self.h} must be positive")

    def to_pixels(self, img_w: int, img_h: int):
        return (
            (self.cx - self.w / 2) * img_w,
            (self.cy - self.h / 2) * img_h,
            (self.cx + self.w / 2) * img_w,
            (self.cy + self.h / 2) * img_h,
        )


@dataclass(frozen=True)
class DatasetItem:
    image_path: str
    truths: tuple  # GroundTruthBox


def _parse_label_file(path: str, nc: int):
    truths = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 5:
                raise ValidationError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            try:
                cid = int(fields[0])
                cx, cy, w, h = (float(v) for v in fields[1:])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= cid < nc:
                raise ValidationError(f"{path}:{lineno}: class id {cid} outside 0..{nc - 1}")
            try:
                truths.append(GroundTruthBox(cid, cx, cy, w, h))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return tuple(truths)


def load_dataset(manifest_path: str):
    """Read a manifest {"classes": [...], "items": [{"image", "label"}]} whose
    paths are resolved relative to the manifest. Returns (class_names, items)."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read manifest {manifest_path}: {exc}") from None
    if not isinstance(doc, dict) or "classes" not in doc or "items" not in doc:
        raise ValidationError("manifest must carry 'classes' and 'items'")
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ValidationError("manifest 'classes' must be a list of class-name strings")
    if not classes:
        raise ValidationError("manifest declares no classes")
    if not isinstance(doc["items"], list):
        raise ValidationError("manifest 'items' must be a list")
    root = os.path.dirname(os.path.abspath(manifest_path))

    missing = []
    resolved = []
    for i, rec in enumerate(doc["items"]):
        if not isinstance(rec, dict) or "image" not in rec or "label" not in rec:
            raise ValidationError(f"manifest item {i} must carry 'image' and 'label'")
        img = os.path.join(root, rec["image"])
        lab = os.path.join(root, rec["label"])
        for p in (img, lab):
            if not os.path.exists(p):
                missing.append(p)
        resolved.append((img, lab))
    if missing:
        raise ValidationError(f"missing dataset files: {missing}")

    items = [DatasetItem(img, _parse_label_file(lab, len(classes))) for img, lab in resolved]
    return classes, items


def iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 when disjoint."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def match_detections(dets, truth_boxes, iou_thresh: float = 0.5):
    """Greedy same-class matching by descending score. Each truth is claimed at
    most once; the flags come back aligned with the input detection order.

    truth_boxes: list of (class_id, (x1, y1, x2, y2)) pixel boxes.
    Returns (tp_flags, fn_count)."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    claimed = [False] * len(truth_boxes)
    flags = [False] * len(dets)
    for i in order:
        d = dets[i]
        best_iou, best_j = 0.0, -1
        for j, (cid, tbox) in enumerate(truth_boxes):
            if claimed[j] or cid != d.class_id:
                continue
            v = iou(d.box, tbox)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_thresh:
            claimed[best_j] = True
            flags[i] = True
    return flags, claimed.count(False)


def average_precision_50(flags, total_truths: int, scores=None) -> float:
    """Area under the interpolated precision envelope over recall.

    `flags` must be ordered by descending score. When `scores` is supplied,
    detections sharing a score enter the curve atomically, which keeps the
    result independent of tie ordering."""
    if total_truths < 1:
        raise ValidationError("average precision needs at least one ground truth")
    if not flags:
        return 0.0
    if scores is None:
        groups = [(1, 1 if f else 0) for f in flags]
    else:
        groups = []
        for f, s in zip(flags, scores):
            if groups and s == groups[-1][2]:
                n, tp, _ = groups[-1]
                groups[-1] = (n + 1, tp + (1 if f else 0), s)
            else:
                groups.append((1, 1 if f else 0, s))
        groups = [(n, tp) for n, tp, _ in groups]

    tp = fp = 0
    recalls, precisions = [], []
    for n, g_tp in groups:
        tp += g_tp
        fp += n - g_tp
        recalls.append(tp / total_truths)
        precisions.append(tp / (tp + fp))
    mrec = np.concatenate(([0.0], np.asarray(recalls, dtype=np.float64)))
    mpre = np.concatenate(([0.0], np.asarray(precisions, dtype=np.float64)))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


@dataclass(frozen=True)
class ClassReport:
    name: str
    truths: int
    detections: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    ap50: float | None           # None when the class has no ground truth
    degenerate_precision: bool   # true when TP+FP == 0 and P fell back to 0


@dataclass(frozen=True)
class EvalReport:
    classes: tuple
    map50: float
    total_truths: int
    total_detections: int

    def to_json_text(self) -> str:
        rows = []
        for c in self.classes:
            ap = "null" if c.ap50 is None else f"{c.ap50:.4f}"
            rows.append(
                f'    {{"name": {json.dumps(c.name)}, "truths": {c.truths}, '
                f'"detections": {c.detections}, "tp": {c.tp}, "fp": {c.fp}, "fn": {c.fn}, '
                f'"precision": {c.precision:.4f}, "recall": {c.recall:.4f}, '
                f'"ap50": {ap}, "degenerate_precision": {str(c.degenerate_precision).lower()}}}'
            )
        body = ",\n".join(rows)
        return (
            "{\n"
            f'  "classes": [\n{body}\n  ],\n'
            f'  "map50": {self.map50:.4f},\n'
            f'  "total_truths": {self.total_truths},\n'
            f'  "total_detections": {self.total_detections}\n'
            "}"
        )

    def to_csv_text(self) -> str:
        lines = ["class,truths,detections,tp,fp,fn,precision,recall,ap50"]
        for c in self.classes:
            ap = "" if c.ap50 is None else f"{c.ap50:.4f}"
            lines.append(f"{c.name},{c.truths},{c.detections},{c.tp},{c.fp},{c.fn},"
                         f"{c.precision:.4f},{c.recall:.4f},{ap}")
        lines.append(f"overall,{self.total_truths},{self.total_detections},,,,,,{self.map50:.4f}")
        return "\n".join(lines)


def evaluate(detections_per_image, items, class_names, iou_thresh: float = 0.5,
             score_thresh: float | None = None, image_sizes=None) -> EvalReport:
    """Match detections to labels image by image, pool per class, and compute
    P, R, AP@0.5 per class plus mAP@0.5.

    P and R cover the full detection list unless `score_thresh` picks a single
    operating point (AP is unaffected). `image_sizes` maps items to (w, h); when
    omitted the PPM headers are read."""
    if not items:
        raise ValidationError("empty dataset")
    if len(detections_per_image) != len(items):
        raise ValidationError(
            f"{len(detections_per_image)} detection lists for {len(items)} images"
        )

    nc = len(class_names)
    pooled = {c: [] for c in range(nc)}  # (score, tp, img_idx, det_idx)
    truths_per_class = [0] * nc
    for img_idx, (dets, item) in enumerate(zip(detections_per_image, items)):
        if image_sizes is not None:
            iw, ih = image_sizes[img_idx]
        else:
            shape = read_ppm(item.image_path).shape
            ih, iw = shape[0], shape[1]
        truth_boxes = [(t.class_id, t.to_pixels(iw, ih)) for t in item.truths]
        for t in item.truths:
            truths_per_class[t.class_id] += 1
        flags, _ = match_detections(dets, truth_boxes, iou_thresh)
        for det_idx, (d, f) in enumerate(zip(dets, flags)):
            pooled[d.class_id].append((d.score, f, img_idx, det_idx))

    reports = []
    ap_values = []
    for c in range(nc):
        recs = sorted(pooled[c], key=lambda r: (-r[0], r[2], r[3]))
        flags = [r[1] for r in recs]
        scores = [r[0] for r in recs]
        if score_thresh is None:
            op_flags = flags
        else:
            op_flags = [f for f, s in zip(flags, scores) if s >= score_thresh]
        tp = sum(op_flags)
        fp = len(op_flags) - tp
        fn = truths_per_class[c] - tp
        degenerate = (tp + fp) == 0
        precision = 0.0 if degenerate else tp / (tp + fp)
        recall = 0.0 if truths_per_class[c] == 0 else tp / truths_per_class[c]
        ap = None
        if truths_per_class[c] >= 1:
            ap = average_precision_50(flags, truths_per_class[c], scores)
            ap_values.append(ap)
        reports.append(ClassReport(class_names[c], truths_per_class[c], len(flags),
                                   tp, fp, fn, precision, recall, ap, degenerate))

    map50 = float(np.mean(ap_values)) if ap_values else 0.0
    return EvalReport(tuple(reports), map50, sum(truths_per_class),
                      sum(len(v) for v in pooled.values()))
