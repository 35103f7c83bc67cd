"""Independent reference implementations used to freeze expected test values.

The `ref_*` functions are written from first principles (explicit loops,
exhaustive threshold sweeps, closed-form arithmetic) and never call the
kernels under test, so agreement is evidence rather than tautology.

The `*_f64` functions are the float64-accumulating forward kernels that the
float32 ones in `repdet.tensor_ops` replaced. They share only the argument
checks and the strided window view with the engine, and serve as the
reference for whole-graph forwards.
"""
from __future__ import annotations

import numpy as np

from repdet.errors import ShapeError, SpecError
from repdet.tensor_ops import DTYPE, _pair, _window_view, check_nchw


def ref_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), dilation=(1, 1), groups=1):
    """Quadruple-loop convolution, float64 accumulation in a fixed order
    (kernel row, kernel column, input channel ascending)."""
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    wo = (wd + 2 * pw - dw * (kw - 1) - 1) // sw + 1
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
                                yy = yi * sh + u * dh - ph
                                xx = xi * sw + v * dw - pw
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


def conv2d_f64(x, spec, weights, bias=None):
    """Direct 2-D convolution (cross-correlation), float64 accumulation."""
    check_nchw(x)
    n, c, h, w = x.shape
    if c != spec.in_ch:
        raise ShapeError(f"channel axis: input has {c} channels, spec expects {spec.in_ch}")
    if tuple(weights.shape) != spec.weight_shape:
        raise ShapeError(f"weight axis: got {tuple(weights.shape)}, spec expects {spec.weight_shape}")
    if spec.has_bias:
        if bias is None:
            raise ShapeError("spec declares a bias but none was supplied")
        if bias.shape != (spec.out_ch,):
            raise ShapeError(f"bias axis: length {bias.shape} != out_ch {spec.out_ch}")
    elif bias is not None:
        raise ShapeError("bias supplied to a bias-free conv spec")

    ho, wo = spec.out_hw(h, w)
    ph, pw = spec.padding
    xp = x.astype(np.float64)
    if ph or pw:
        xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    pat = _window_view(xp, spec.kernel, spec.stride, spec.dilation, (ho, wo))
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
    scale = p.gamma.astype(np.float64) / np.sqrt(p.var.astype(np.float64) + p.eps)
    shift = p.beta.astype(np.float64) - p.mean.astype(np.float64) * scale
    out = x.astype(np.float64) * scale[None, :, None, None] + shift[None, :, None, None]
    return out.astype(DTYPE)


def silu_f64(x):
    """x * sigmoid(x); the tanh form of sigmoid is stable for any magnitude."""
    xd = x.astype(np.float64)
    return (xd * 0.5 * (1.0 + np.tanh(0.5 * xd))).astype(DTYPE)


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
    pat = _window_view(xp, kernel, stride, (1, 1), (ho, wo))
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
