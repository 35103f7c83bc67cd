"""Independent reference implementations used to freeze expected test values.

The `ref_*` functions are written from first principles (explicit loops,
exhaustive threshold sweeps, closed-form arithmetic) and never call the
kernels under test, so agreement is evidence rather than tautology.

The `*_f64` functions are the float64-accumulating forward kernels that the
float32 ones in `repdet.tensor_ops` replaced. They share only the argument
checks and the strided window view with the engine, and serve as the
reference for whole-graph forwards.

`ref_letterbox`, `ref_decode_detections`, `ref_nms` and
`ref_average_precision_50` are the per-pixel, per-candidate and per-point
Python versions of the image path and AP that the array code in
`repdet.pipeline` and `repdet.evaluate` replaced; the array code must match
them exactly, not within a tolerance. `ref_decode_detections` shares the
`sigmoid` and `dfl_expectation` kernels with the engine, run over whole head
maps, and checks the cell gather, anchors, un-mapping and order around them.

`ref_fold_into` is the per-block fold that the graph-wide pass in
`repdet.fusion` replaced: it recurses through `children()` and takes one
`bn_scale_shift` and one float64 fold per batch norm. The graph-wide pass
must write bit-equal arrays, or raise the same error. `fold_conv_block` is
not a reference but a test helper: a conv's deploy twin, filled by
`repdet.fusion.fold_into`.

`named_arrays(block)` is how the tests read a block's arrays: (suffix,
array) pairs from the block's one parameter walk, `shaped_slots`.

`ref_load_rwt` is the whole-file `.rwt` parser that the streaming
`WeightStore.load` replaced: it reads the file into one `bytes` and slices
each field from it. The streaming parser must give a bit-equal store, or raise
the same exception with the same message.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from repdet.blocks import Composite, ConvBlock, HeadConfig, RepConvBlock
from repdet.errors import FormatError, NumericError, ShapeError, SpecError, ValidationError
from repdet.evaluate import iou
from repdet.fusion import fold_into
from repdet.pipeline import PAD_VALUE, Detection, LetterboxMeta, _nearest_indices, dfl_expectation
from repdet.tensor_ops import (
    BN_EPS,
    DTYPE,
    _pair,
    _window_view,
    bn_scale_shift,
    check_nchw,
    sigmoid,
)
from repdet.weights import MAGIC, WeightStore


def ref_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), groups=1):
    """Quadruple-loop convolution, float64 accumulation in a fixed order
    (kernel row, kernel column, input channel ascending)."""
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    og = o // groups
    for ni in range(n):
        for oi in range(o):
            base_c = (oi // og) * cg
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            for ci in range(cg):
                                yy = yi * sh + u - ph
                                xx = xi * sw + v - pw
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += float(x[ni, base_c + ci, yy, xx]) * float(w[oi, ci, u, v])
                    if b is not None:
                        acc += float(b[oi])
                    out[ni, oi, yi, xi] = acc
    return out.astype(np.float32)


def ref_pool2d(x, mode, kernel, stride, padding):
    """Loop pooling; avg divides by the full window area (padding included),
    max ignores padded positions."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for yi in range(ho):
                for xi in range(wo):
                    vals = []
                    for u in range(kh):
                        for v in range(kw):
                            yy = yi * sh + u - ph
                            xx = xi * sw + v - pw
                            if 0 <= yy < h and 0 <= xx < w:
                                vals.append(float(x[ni, ci, yy, xx]))
                    if mode == "max":
                        out[ni, ci, yi, xi] = max(vals)
                    else:
                        out[ni, ci, yi, xi] = sum(vals) / float(kh * kw)
    return out.astype(np.float32)


def ref_softmax_group(x, group):
    n, c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for ni in range(n):
        for g0 in range(0, c, group):
            for yi in range(h):
                for xi in range(w):
                    vals = x[ni, g0:g0 + group, yi, xi].astype(np.float64)
                    e = np.exp(vals - vals.max())
                    out[ni, g0:g0 + group, yi, xi] = e / e.sum()
    return out.astype(np.float32)


def ref_iou(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter == 0:
        return 0.0
    area = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / area


def _ref_match_one_image(dets, truths, iou_thresh):
    """Greedy by score (input order on ties); each truth claimed once."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    claimed = [False] * len(truths)
    tp = 0
    for i in order:
        cid, _, box = dets[i]
        best, best_j = 0.0, -1
        for j, (tcid, tbox) in enumerate(truths):
            if claimed[j] or tcid != cid:
                continue
            v = ref_iou(box, tbox)
            if v > best:
                best, best_j = v, j
        if best_j >= 0 and best >= iou_thresh:
            claimed[best_j] = True
            tp += 1
    return tp


def ref_eval_exhaustive(dets_per_image, truths_per_image, nc, iou_thresh=0.5):
    """Exhaustive-threshold evaluation.

    dets_per_image: per image, list of (class_id, score, (x1, y1, x2, y2)).
    truths_per_image: per image, list of (class_id, (x1, y1, x2, y2)).
    For every class, re-matches the score-thresholded detection set from
    scratch at each distinct score, then integrates the precision envelope
    exactly. Returns {class_id: (precision, recall, ap_or_None)} plus mAP."""
    per_class = {}
    aps = []
    for c in range(nc):
        truths_c = [[t for t in ts if t[0] == c] for ts in truths_per_image]
        total_truths = sum(len(ts) for ts in truths_c)
        dets_c = [[d for d in ds if d[0] == c] for ds in dets_per_image]
        total_dets = sum(len(ds) for ds in dets_c)
        scores = sorted({d[1] for ds in dets_c for d in ds}, reverse=True)

        points = []
        for t in scores:
            tp = sum(
                _ref_match_one_image([d for d in ds if d[1] >= t], ts, iou_thresh)
                for ds, ts in zip(dets_c, truths_c)
            )
            kept = sum(sum(1 for d in ds if d[1] >= t) for ds in dets_c)
            prec = tp / kept if kept else 0.0
            rec = tp / total_truths if total_truths else 0.0
            points.append((rec, prec))

        if total_dets == 0:
            precision = 0.0
            recall = 0.0
        else:
            recall, precision = points[-1]  # lowest threshold = full set
        ap = None
        if total_truths >= 1:
            ap = 0.0
            prev_r = 0.0
            for r, _ in sorted(points):
                env = max((p for rr, p in points if rr >= r), default=0.0)
                ap += (r - prev_r) * env
                prev_r = r
            aps.append(ap)
        per_class[c] = (precision, recall, ap)
    map50 = sum(aps) / len(aps) if aps else 0.0
    return per_class, map50


def named_arrays(block):
    """(suffix, array) of every parameter array of `block`, in weight-name order."""
    return ((suffix, getattr(owner, attr)) for suffix, owner, attr, _ in block.shaped_slots())


def conv_block_params(cin, cout, k, bn=True):
    """Closed-form learnable count of one conv unit (weights + bias or gamma/beta)."""
    kh, kw = (k, k) if isinstance(k, int) else k
    return cout * cin * kh * kw + (2 * cout if bn else cout)


def c2f_params(cin, cout, n, multiscale=False):
    h = cout // 2
    total = conv_block_params(cin, 2 * h, 1) + conv_block_params((2 + n) * h, cout, 1)
    if multiscale:
        q = h // 4
        ms_one = (conv_block_params(q, q, 3) + conv_block_params(q, q, 5)
                    + conv_block_params(h, h, 1))
        total += n * 2 * ms_one
    else:
        total += n * 2 * conv_block_params(h, h, 3)
    return total


def ref_fold(w, bn):
    """Float64 weights and bias of a bias-free conv `w` and its batch norm,
    channel by channel: w * s and beta - mean * s, s = gamma / sqrt(var + BN_EPS).
    Not rounded."""
    w64 = np.empty(w.shape, np.float64)
    b64 = np.empty(w.shape[0], np.float64)
    for o in range(w.shape[0]):
        s = float(bn.gamma[o]) / math.sqrt(float(bn.var[o]) + BN_EPS)
        w64[o] = w[o].astype(np.float64) * s
        b64[o] = float(bn.beta[o]) - float(bn.mean[o]) * s
    return w64, b64


def ref_fold_conv(cb):
    """float32 (w, b) of a conv block with its batch norm folded in."""
    w, b = ref_fold(cb.w, cb.bn)
    return w.astype(DTYPE), b.astype(DTYPE)


def ref_deploy_repconv(blk):
    """float32 (w, b) of a RepConv's deploy conv: the 1x1 branch lowered to
    the 3x3 centre, the average pool as float32 1/9 on the channel diagonal,
    each branch folded with its batch norm, summed 3x3 first in float64 and
    rounded once."""
    k3, k1 = blk.branch_3x3, blk.branch_1x1
    ch = k3.w.shape[0]
    centre = np.zeros((ch, ch, 3, 3), np.float64)
    ninths = np.zeros((ch, ch, 3, 3), np.float64)
    for o in range(ch):
        for i in range(ch):
            centre[o, i, 1, 1] = k1.w[o, i, 0, 0]
        ninths[o, o] = float(np.float32(1.0 / 9.0))
    (w3, b3), (w1, b1), (wa, ba) = (ref_fold(k3.w, k3.bn), ref_fold(centre, k1.bn),
                                    ref_fold(ninths, blk.branch_avg.bn))
    return ((w3 + w1) + wa).astype(DTYPE), ((b3 + b1) + ba).astype(DTYPE)


def _block_fold64(w, bn):
    if np.any(bn.var.astype(np.float64) + BN_EPS <= 0):
        raise NumericError("variance + eps must be positive to fold a batch norm")
    scale, shift = bn_scale_shift(bn)
    w64 = w.astype(np.float64)
    w64 *= scale[:, None, None, None]
    return w64, shift


def _block_repconv64(blk):
    k3, k1 = blk.branch_3x3, blk.branch_1x1
    centre = np.zeros(k3.w.shape, dtype=DTYPE)
    centre[:, :, 1, 1] = k1.w[:, :, 0, 0]
    ninths = np.zeros(k3.w.shape, dtype=DTYPE)
    ninths[np.arange(blk.out_ch), np.arange(blk.out_ch)] = 1.0 / 9.0
    (w3, b3), (w1, b1), (wa, ba) = (_block_fold64(k3.w, k3.bn), _block_fold64(centre, k1.bn),
                                    _block_fold64(ninths, blk.branch_avg.bn))
    return w3 + w1 + wa, b3 + b1 + ba


def _block_write(dst, w, b, name):
    dst.w[...], dst.b[...] = w, b
    if not (np.isfinite(dst.w).all() and np.isfinite(dst.b).all()):
        raise NumericError(f"the fold of {name} has non-finite weights or bias; "
                           f"check the weights")


def ref_fold_into(src, dst, name):
    """Write the float32 fold of block `src` into its deploy twin `dst`, one
    block at a time: a RepConv gets its branch sum, a conv its BN fold (or a
    copy), a composite recurses over its children, any other leaf is copied.
    A norm with var + BN_EPS <= 0, or a non-finite fold, raises NumericError."""
    if isinstance(src, RepConvBlock):
        _block_write(dst, *_block_repconv64(src), name)
    elif isinstance(src, ConvBlock):
        _block_write(dst, *((src.w, src.b) if src.bn is None else _block_fold64(src.w, src.bn)),
                     name)
    elif isinstance(src, Composite):
        for (prefix, s), (_, d) in zip(src.children(), dst.children()):
            ref_fold_into(s, d, f"{name}.{prefix}")
    else:
        for (_, a), (_, b) in zip(named_arrays(src), named_arrays(dst)):
            b[...] = a


def fold_conv_block(cb):
    """A conv block's deploy twin with its BN folded in by `fold_into`; a
    BN-free block's twin holds copies of its arrays."""
    s = cb.spec
    twin = ConvBlock(s.in_ch, s.out_ch, s.kernel, s.stride, s.padding, s.groups, bn=False,
                     act=cb.act)
    fold_into(cb, twin, "a conv")
    return twin


def conv2d_f64(x, spec, weights, bias=None):
    """Direct 2-D convolution (cross-correlation), float64 accumulation."""
    check_nchw(x)
    n, c, h, w = x.shape
    if c != spec.in_ch:
        raise ShapeError(f"channel axis: input has {c} channels, spec expects {spec.in_ch}")
    if tuple(weights.shape) != spec.weight_shape:
        raise ShapeError(f"weight axis: got {tuple(weights.shape)}, spec expects {spec.weight_shape}")
    if bias is not None and bias.shape != (spec.out_ch,):
        raise ShapeError(f"bias axis: length {bias.shape} != out_ch {spec.out_ch}")

    ho, wo = spec.out_hw(h, w)
    ph, pw = spec.padding
    xp = x.astype(np.float64)
    if ph or pw:
        xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    pat = _window_view(xp, spec.kernel, spec.stride, (ho, wo))
    wf = weights.astype(np.float64)

    g = spec.groups
    if g == 1:
        cols = pat.reshape(n, c * spec.kernel[0] * spec.kernel[1], ho * wo)
        out = (wf.reshape(spec.out_ch, -1) @ cols).reshape(n, spec.out_ch, ho, wo)
    elif g == c and spec.out_ch == c:
        # depthwise: one kernel plane per channel
        out = np.einsum("ncuvhw,cuv->nchw", pat, wf[:, 0])
    else:
        cg, og = c // g, spec.out_ch // g
        parts = []
        for gi in range(g):
            cols = pat[:, gi * cg:(gi + 1) * cg].reshape(n, cg * spec.kernel[0] * spec.kernel[1], ho * wo)
            parts.append(wf[gi * og:(gi + 1) * og].reshape(og, -1) @ cols)
        out = np.concatenate(parts, axis=1).reshape(n, spec.out_ch, ho, wo)

    if bias is not None:
        out = out + bias.astype(np.float64)[None, :, None, None]
    return out.astype(DTYPE)


def batch_norm_inference_f64(x, p):
    check_nchw(x)
    if x.shape[1] != p.channels:
        raise ShapeError(f"channel axis: input has {x.shape[1]} channels, batch norm has {p.channels}")
    scale = p.gamma.astype(np.float64) / np.sqrt(p.var.astype(np.float64) + BN_EPS)
    shift = p.beta.astype(np.float64) - p.mean.astype(np.float64) * scale
    out = x.astype(np.float64) * scale[None, :, None, None] + shift[None, :, None, None]
    return out.astype(DTYPE)


def silu_f64(x):
    """x * sigmoid(x); the tanh form of sigmoid is stable for any magnitude."""
    xd = x.astype(np.float64)
    return (xd * 0.5 * (1.0 + np.tanh(0.5 * xd))).astype(DTYPE)


def conv_epilogue_f64(y, bn, act, bias=None):
    """`conv_epilogue` as float64 batch norm, or a bias added in float64 and
    rounded to float32 once, then float64 SiLU."""
    if bn is not None:
        y = batch_norm_inference_f64(y, bn)
    elif bias is not None:
        y = (y.astype(np.float64) + bias.astype(np.float64)[:, None, None]).astype(DTYPE)
    return silu_f64(y) if act == "silu" else y


def pool2d_f64(x, mode, kernel, stride=None, padding=0):
    """Windowed max or mean. avg divides by the full kernel area, padding included,
    so a stride-1 avg pool is exactly expressible as a fixed convolution."""
    if mode not in ("max", "avg"):
        raise SpecError(f"unknown pool mode {mode!r}")
    check_nchw(x)
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    kh, kw = kernel
    ph, pw = padding
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(f"pool kernel {kernel} exceeds padded input {h + 2 * ph}x{w + 2 * pw}")
    ho = (h + 2 * ph - kh) // stride[0] + 1
    wo = (w + 2 * pw - kw) // stride[1] + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"pool output collapsed to {ho}x{wo}")
    fill = -np.inf if mode == "max" else 0.0
    xp = x.astype(np.float64)
    if ph or pw:
        xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    pat = _window_view(xp, kernel, stride, (ho, wo))
    if mode == "max":
        out = pat.max(axis=(2, 3))
    else:
        out = pat.sum(axis=(2, 3)) / float(kh * kw)
    return out.astype(DTYPE)


def elementwise_f64(x, y, op):
    check_nchw(x)
    check_nchw(y, "y")
    if x.shape != y.shape:
        raise ShapeError(f"elementwise shapes differ: {x.shape} vs {y.shape}")
    if op == "mul":
        return (x.astype(np.float64) * y.astype(np.float64)).astype(DTYPE)
    if op == "add":
        return (x.astype(np.float64) + y.astype(np.float64)).astype(DTYPE)
    raise SpecError(f"unknown elementwise op {op!r}")


def scale_forward_f64(block, x):
    """`ScaleParam.forward` computed in float64."""
    return (x.astype(np.float64) * float(block.s[0])).astype(DTYPE)


def ref_letterbox(image: np.ndarray, size: int = 640):
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


def ref_unletterbox_box(box, meta: LetterboxMeta):
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


def ref_decode_detections(head_maps, cfg: HeadConfig, meta: LetterboxMeta,
                          conf_thresh: float = 0.25, class_names=None):
    """Anchor-free decode of the three head maps into scored boxes in original
    image pixels, one Python iteration per candidate cell. Zero-extent boxes
    are dropped before any NMS."""
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
            x1, y1, x2, y2 = ref_unletterbox_box(lb_box, meta)
            if x1 >= x2 or y1 >= y2:
                continue
            cid = int(best_cls[cy, cx])
            dets.append(Detection(cid, class_names[cid], float(best_score[cy, cx]),
                                  (x1, y1, x2, y2)))
    return dets


def ref_nms(dets, iou_thresh: float = 0.45):
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


def ref_average_precision_50(flags, total_truths: int, scores=None) -> float:
    """Area under the interpolated precision envelope over recall, with the
    envelope taken by a backward max loop."""
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


def ref_load_rwt(path: str) -> WeightStore:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} at offset 0, expected {MAGIC!r}")
    off = 4

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"truncated file: needed {n} bytes for {what} at offset {off}")
        chunk = data[off:off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4, "tensor count"))
    store = WeightStore()
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"name length of tensor {i}"))
        raw = take(nlen, f"name of tensor {i}")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(
                f"name of tensor {i} at offset {off - nlen} is not UTF-8: {raw!r}"
            ) from None
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name}"))
        size = math.prod(dims)  # exact, so huge dims fail the truncation check
        payload = take(4 * size, f"data of {name}")
        try:
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError:  # an empty tensor whose other dims numpy cannot index
            raise FormatError(f"dims {dims} of {name} exceed numpy's array size") from None
        store.put(name, arr)
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes at offset {off}")
    return store
