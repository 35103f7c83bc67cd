"""Embedded property suites behind the `selftest` CLI command.

Each suite checks a core numeric path against an independent reference written
here from scratch: a loop convolution, which with a 1/4 kernel on the channel
diagonal also checks the 2x2 mean pool, and an exhaustive threshold sweep for
average precision.
"""
from __future__ import annotations

import numpy as np

from .blocks import RepConvBlock
from .evaluate import average_precision_50
from .fusion import deploy_repconv
from .tensor_ops import Conv2dSpec, conv2d, pool2d, softmax_channelwise


def _loop_conv(x, w, b, stride, padding):
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            for ci in range(c):
                                yy = yi * sh + u - ph
                                xx = xi * sw + v - pw
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += float(x[ni, ci, yy, xx]) * float(w[oi, ci, u, v])
                    out[ni, oi, yi, xi] = acc + (float(b[oi]) if b is not None else 0.0)
    return out.astype(np.float32)


def check_conv_kernels():
    """conv2d, avg pool and grouped softmax against loop references."""
    trials, rng = 20, np.random.default_rng(0)
    worst = 0.0
    for _ in range(trials):
        c = int(rng.integers(1, 5))
        o = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, k + 5))
        w = int(rng.integers(k, k + 5))
        st = int(rng.integers(1, 3))
        pd = int(rng.integers(0, 2))
        x = rng.uniform(-1, 1, (1, c, h, w)).astype(np.float32)
        wt = rng.uniform(-1, 1, (o, c, k, k)).astype(np.float32)
        b = rng.uniform(-1, 1, o).astype(np.float32)
        spec = Conv2dSpec(c, o, k, st, pd)
        got = conv2d(x, spec, wt, b)
        ref = _loop_conv(x, wt, b, (st, st), (pd, pd))
        worst = max(worst, float(np.abs(got - ref).max()))

        # a 2x2 mean with padding counted in the divisor is the loop conv
        # with 1/4 on the channel diagonal
        y = pool2d(x, "avg", 2, 1, 1)
        mean = np.broadcast_to(np.eye(c)[:, :, None, None] / 4, (c, c, 2, 2))
        worst = max(worst, float(np.abs(y - _loop_conv(x, mean, None, (1, 1), (1, 1))).max()))

        logits = rng.uniform(-4, 4, (1, 8, 2, 2)).astype(np.float32)
        sm = softmax_channelwise(logits, 4)
        e = np.exp(logits.astype(np.float64).reshape(1, 2, 4, 2, 2))
        ref_sm = (e / e.sum(axis=2, keepdims=True)).reshape(1, 8, 2, 2)
        worst = max(worst, float(np.abs(sm - ref_sm).max()))
    return worst < 1e-6, f"{trials} shape triples, max deviation {worst:.2e}"


def check_repconv_equivalence():
    """Train-form vs deploy-form forward after branch fusion."""
    trials, rng = 20, np.random.default_rng(1)
    worst = 0.0
    for _ in range(trials):
        ch = int(rng.choice([4, 8, 16]))
        blk = RepConvBlock(ch)
        for part in (blk.branch_3x3, blk.branch_1x1):
            part.w[...] = rng.uniform(-1, 1, part.w.shape)
            part.bn.gamma[...] = rng.uniform(0.5, 1.5, ch)
            part.bn.beta[...] = rng.uniform(-0.5, 0.5, ch)
            part.bn.mean[...] = rng.uniform(-0.5, 0.5, ch)
            part.bn.var[...] = rng.uniform(0.25, 2.0, ch)
        blk.branch_avg.bn.gamma[...] = rng.uniform(0.5, 1.5, ch)
        blk.branch_avg.bn.beta[...] = rng.uniform(-0.5, 0.5, ch)
        x = rng.uniform(-1, 1, (1, ch, 9, 9)).astype(np.float32)
        dev = float(np.abs(blk.forward(x) - deploy_repconv(blk).forward(x)).max())
        worst = max(worst, dev)
    return worst < 1e-4, f"{trials} random blocks, max |train - deploy| {worst:.2e}"


def _ap_threshold_sweep(flags, scores, total_truths):
    """Reference AP: recompute set-level P/R at every distinct score, then
    integrate the precision envelope over recall."""
    points = []
    for t in sorted(set(scores), reverse=True):
        kept = [(f, s) for f, s in zip(flags, scores) if s >= t]
        tp = sum(1 for f, _ in kept if f)
        fp = len(kept) - tp
        points.append((tp / total_truths, tp / (tp + fp)))
    ap = 0.0
    prev_r = 0.0
    for r, _ in sorted(points):
        env = max((p for rr, p in points if rr >= r), default=0.0)
        ap += (r - prev_r) * env
        prev_r = r
    return ap


def check_ap_oracle():
    """Interpolated AP against exhaustive threshold enumeration, ties included."""
    trials, rng = 50, np.random.default_rng(2)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 14))
        total = int(rng.integers(1, 9))
        flags = list(rng.random(n) < 0.5)
        while sum(flags) > total:
            flags[flags.index(True)] = False
        # quantized scores force ties through the atomic-group path
        scores = [round(float(s), 1) for s in rng.random(n)]
        order = sorted(range(n), key=lambda i: -scores[i])
        flags = [flags[i] for i in order]
        scores = [scores[i] for i in order]
        got = average_precision_50(flags, total, scores)
        ref = _ap_threshold_sweep(flags, scores, total)
        worst = max(worst, abs(got - ref))
    return worst < 1e-9, f"{trials} random curves, max deviation {worst:.2e}"


SUITES = (
    ("conv-kernels", check_conv_kernels),
    ("repconv-fusion", check_repconv_equivalence),
    ("average-precision", check_ap_oracle),
)


def run_selftest() -> bool:
    ok = True
    for name, fn in SUITES:
        passed, detail = fn()
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
    return ok
