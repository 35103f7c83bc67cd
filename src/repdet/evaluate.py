"""Dataset ingestion, greedy IoU matching, and detection metrics (P, R, AP@0.5,
mAP@0.5 as the unweighted class mean over classes with ground truth)."""
from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError


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
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: label file is not UTF-8") from None
    truths = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ValidationError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        # int() and float() would also take "1_0" and non-ASCII digits
        if not (fields[0].isascii() and fields[0].isdigit()):
            raise ValidationError(f"{path}:{lineno}: class id {fields[0]!r} is not a decimal number")
        bad = [v for v in fields[1:] if not v.isascii() or "_" in v]
        if bad:
            raise ValidationError(f"{path}:{lineno}: box field {bad[0]!r} is not a decimal number")
        try:  # int() refuses a class id past the interpreter's int-string digit limit
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
    paths are resolved relative to the manifest. Returns (class_names, items).
    An unopenable manifest raises its `OSError`, an unparsable one `FormatError`."""
    with open(manifest_path, "r", encoding="utf-8") as f:
        try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            doc = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"cannot parse manifest {manifest_path}: {exc}") from None
    if not isinstance(doc, dict) or "classes" not in doc or "items" not in doc:
        raise ValidationError("manifest must carry 'classes' and 'items'")
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ValidationError("manifest 'classes' must be a list of class-name strings")
    if not classes:
        raise ValidationError("manifest declares no classes")
    if dups := [c for c, count in Counter(classes).items() if count > 1]:
        raise ValidationError(f"manifest 'classes' lists {dups[0]!r} more than once")
    if not isinstance(doc["items"], list):
        raise ValidationError("manifest 'items' must be a list")
    root = os.path.dirname(os.path.abspath(manifest_path))

    missing = []
    resolved = []
    for i, rec in enumerate(doc["items"]):
        if not (isinstance(rec, dict) and isinstance(rec.get("image"), str)
                and isinstance(rec.get("label"), str)):
            raise ValidationError(f"manifest item {i} must carry 'image' and 'label' path strings")
        img = os.path.join(root, rec["image"])
        lab = os.path.join(root, rec["label"])
        for p in (img, lab):
            if not os.path.isfile(p):
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


def match_detections(dets, truth_boxes):
    """Greedy same-class matching by descending score at IoU >= 0.5. Each truth
    is claimed at most once; the flags come back aligned with the input
    detection order.

    truth_boxes: list of (class_id, (x1, y1, x2, y2)) pixel boxes.
    Returns the true-positive flags."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)  # stable: ties in input order
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
        if best_j >= 0 and best_iou >= 0.5:
            claimed[best_j] = True
            flags[i] = True
    return flags


def average_precision_50(flags, total_truths: int, scores=None) -> float:
    """Area under the interpolated precision envelope over recall.

    `flags` must be ordered by descending score. When `scores` is supplied,
    detections sharing a score enter the curve atomically, which keeps the
    result independent of tie ordering."""
    if total_truths < 1:
        raise ValidationError("average precision needs at least one ground truth")
    if scores is None:
        scores = range(len(flags))  # every detection is its own group
    tp = fp = 0
    recalls, precisions, prev = [], [], None
    for f, s in zip(flags, scores):
        hit = 1 if f else 0
        tp, fp = tp + hit, fp + 1 - hit
        if s == prev:  # a tie joins the point of the detections before it
            recalls.pop()
            precisions.pop()
        recalls.append(tp / total_truths)
        precisions.append(tp / (tp + fp))
        prev = s
    mrec = np.concatenate(([0.0], np.asarray(recalls, dtype=np.float64)))
    mpre = np.concatenate(([0.0], np.asarray(precisions, dtype=np.float64)))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]  # running max from the right
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def _csv_field(text: str) -> str:
    """`text` as one RFC 4180 field: quoted, with each quote doubled, only
    when it holds a comma, a quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
            lines.append(f"{_csv_field(c.name)},{c.truths},{c.detections},{c.tp},{c.fp},{c.fn},"
                         f"{c.precision:.4f},{c.recall:.4f},{ap}")
        lines.append(f"overall,{self.total_truths},{self.total_detections},,,,,,{self.map50:.4f}")
        return "\n".join(lines)


def evaluate(detections_per_image, items, class_names, image_sizes) -> EvalReport:
    """Match detections to labels image by image, pool per class, and compute
    P, R, AP@0.5 per class plus mAP@0.5. P and R cover the full detection list.
    `image_sizes` holds each item's (w, h); every class id, of a detection or
    a truth, must index `class_names`."""
    if not items:
        raise ValidationError("empty dataset")
    for what, per_image in (("detection lists", detections_per_image), ("image sizes", image_sizes)):
        if len(per_image) != len(items):
            raise ValidationError(f"{len(per_image)} {what} for {len(items)} images")

    nc = len(class_names)
    pooled = {c: [] for c in range(nc)}  # (score, tp) in image order, then detection order
    truths_per_class = [0] * nc
    for img_idx, (dets, item, (iw, ih)) in enumerate(zip(detections_per_image, items, image_sizes)):
        bad = next((o.class_id for o in (*item.truths, *dets) if not 0 <= o.class_id < nc), None)
        if bad is not None:
            raise ValidationError(f"image {img_idx}: class id {bad} outside 0..{nc - 1}")
        truth_boxes = [(t.class_id, t.to_pixels(iw, ih)) for t in item.truths]
        for t in item.truths:
            truths_per_class[t.class_id] += 1
        for d, f in zip(dets, match_detections(dets, truth_boxes)):
            pooled[d.class_id].append((d.score, f))

    reports = []
    ap_values = []
    for c in range(nc):
        recs = sorted(pooled[c], key=lambda r: -r[0])  # stable: ties stay in pooling order
        flags = [r[1] for r in recs]
        scores = [r[0] for r in recs]
        tp = sum(flags)
        fp = len(flags) - tp
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
