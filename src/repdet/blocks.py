"""Composite forward blocks: conv units, CSP stages, strip-conv attention, detection heads.

Blocks own their parameter arrays (created zero-filled, batch norms at identity)
and are immutable after construction: forwards are pure, and every transform that
changes structure (e.g. branch fusion) builds a new block instead of mutating.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpecError, StateError
from .tensor_ops import (
    DTYPE,
    BatchNormParams,
    Conv2dSpec,
    batch_norm_inference,
    concat_channels,
    conv2d,
    elementwise,
    pool2d,
    silu,
    split_channels,
)


def _autopad(kernel, dilation) -> tuple[int, int]:
    (kh, kw) = kernel
    (dh, dw) = dilation
    return (dh * (kh - 1)) // 2, (dw * (kw - 1)) // 2


class ConvBlock:
    """Conv2d + optional BatchNorm + optional SiLU. Bias only when norm-free."""

    def __init__(self, in_ch, out_ch, kernel=1, stride=1, padding=None, dilation=1,
                 groups=1, bn=True, act="silu"):
        kernel = kernel if isinstance(kernel, tuple) else (kernel, kernel)
        dil = dilation if isinstance(dilation, tuple) else (dilation, dilation)
        if padding is None:
            padding = _autopad(kernel, dil)
        self.spec = Conv2dSpec(in_ch, out_ch, kernel, stride, padding, dil, groups,
                               has_bias=not bn)
        if act not in ("silu", "none"):
            raise SpecError(f"unknown activation {act!r}")
        self.act = act
        self.w = np.zeros(self.spec.weight_shape, dtype=DTYPE)
        self.b = np.zeros(out_ch, dtype=DTYPE) if not bn else None
        self.bn = BatchNormParams.identity(out_ch) if bn else None

    @classmethod
    def from_parts(cls, spec: Conv2dSpec, w, b, bn, act) -> "ConvBlock":
        blk = cls.__new__(cls)
        blk.spec = spec
        blk.act = act
        blk.w = np.asarray(w, dtype=DTYPE)
        blk.b = None if b is None else np.asarray(b, dtype=DTYPE)
        blk.bn = bn
        if tuple(blk.w.shape) != spec.weight_shape:
            raise ShapeError(f"weight axis: {blk.w.shape} != {spec.weight_shape}")
        if spec.has_bias != (blk.b is not None):
            raise SpecError("bias presence disagrees with conv spec")
        return blk

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = conv2d(x, self.spec, self.w, self.b)
        if self.bn is not None:
            y = batch_norm_inference(y, self.bn)
        if self.act == "silu":
            y = silu(y)
        return y

    def named_arrays(self):
        yield "w", self.w
        if self.b is not None:
            yield "b", self.b
        if self.bn is not None:
            yield "bn.gamma", self.bn.gamma
            yield "bn.beta", self.bn.beta
            yield "bn.mean", self.bn.mean
            yield "bn.var", self.bn.var

    def profile(self, in_shape):
        n, c, h, w = in_shape
        ho, wo = self.spec.out_hw(h, w)
        s = self.spec
        out_elems = n * s.out_ch * ho * wo
        macs = out_elems * (s.in_ch // s.groups) * s.kernel[0] * s.kernel[1]
        elems = out_elems * ((self.bn is not None) + (self.act == "silu") + (self.b is not None))
        return macs, elems, (n, s.out_ch, ho, wo)


class AvgPoolBranch:
    """3x3 stride-1 average pool (padding counted in the mean) followed by BN."""

    def __init__(self, channels: int):
        self.channels = channels
        self.bn = BatchNormParams.identity(channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return batch_norm_inference(pool2d(x, "avg", 3, 1, 1), self.bn)

    def named_arrays(self):
        yield "bn.gamma", self.bn.gamma
        yield "bn.beta", self.bn.beta
        yield "bn.mean", self.bn.mean
        yield "bn.var", self.bn.var

    def profile(self, in_shape):
        n, c, h, w = in_shape
        return 0, 2 * n * c * h * w, (n, c, h, w)


class RepConvBlock:
    """Train-form multi-branch conv (3x3 + 1x1 + 3x3 avg pool, each with BN) that
    collapses to one biased 3x3 conv in deploy form. SiLU after the branch sum."""

    def __init__(self, in_ch, out_ch, stride=1):
        self.in_ch, self.out_ch, self.stride = in_ch, out_ch, stride
        self.branch_3x3 = ConvBlock(in_ch, out_ch, 3, stride, act="none")
        self.branch_1x1 = ConvBlock(in_ch, out_ch, 1, stride, padding=0, act="none")
        # avg pool keeps channel count and only aligns spatially at stride 1
        self.branch_avg = AvgPoolBranch(out_ch) if (stride == 1 and in_ch == out_ch) else None
        self.mode = "train"
        self.deploy = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.mode == "deploy":
            if self.deploy is None:
                raise StateError("deploy-form forward without a fused conv")
            return self.deploy.forward(x)
        y = self.branch_3x3.forward(x) + self.branch_1x1.forward(x)
        if self.branch_avg is not None:
            y = y + self.branch_avg.forward(x)
        return silu(y)

    def named_arrays(self):
        if self.mode == "deploy":
            for k, v in self.deploy.named_arrays():
                yield k, v
            return
        for k, v in self.branch_3x3.named_arrays():
            yield f"k3.{k}", v
        for k, v in self.branch_1x1.named_arrays():
            yield f"k1.{k}", v
        if self.branch_avg is not None:
            for k, v in self.branch_avg.named_arrays():
                yield f"avg.{k}", v

    def profile(self, in_shape):
        if self.mode == "deploy":
            return self.deploy.profile(in_shape)
        m3, e3, out = self.branch_3x3.profile(in_shape)
        m1, e1, _ = self.branch_1x1.profile(in_shape)
        macs, elems = m3 + m1, e3 + e1
        n, c, h, w = out
        adds = 1
        if self.branch_avg is not None:
            _, ea, _ = self.branch_avg.profile(in_shape)
            elems += ea
            adds += 1
        elems += (adds + 1) * n * c * h * w  # branch sums + SiLU
        return macs, elems, out


class MultiScaleSplitConv:
    """Split-transform-merge conv: half the channels pass through untouched,
    the other half goes through parallel 3x3 and 5x5 paths, then a 1x1 merge."""

    def __init__(self, in_ch, out_ch):
        if in_ch % 4:
            raise SpecError(f"in_ch {in_ch} not divisible by 4")
        self.in_ch, self.out_ch = in_ch, out_ch
        q = in_ch // 4
        self.path3 = ConvBlock(q, q, 3)
        self.path5 = ConvBlock(q, q, 5)
        self.fuse = ConvBlock(in_ch, out_ch, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_ch:
            raise ShapeError(f"channel axis: {x.shape[1]} != {self.in_ch}")
        keep, a, b = split_channels(x, [self.in_ch // 2, self.in_ch // 4, self.in_ch // 4])
        merged = concat_channels([keep, self.path3.forward(a), self.path5.forward(b)])
        return self.fuse.forward(merged)

    def named_arrays(self):
        for prefix, blk in (("p3", self.path3), ("p5", self.path5), ("fuse", self.fuse)):
            for k, v in blk.named_arrays():
                yield f"{prefix}.{k}", v

    def profile(self, in_shape):
        n, c, h, w = in_shape
        q = self.in_ch // 4
        m3, e3, _ = self.path3.profile((n, q, h, w))
        m5, e5, _ = self.path5.profile((n, q, h, w))
        mf, ef, out = self.fuse.profile((n, self.in_ch, h, w))
        return m3 + m5 + mf, e3 + e5 + ef, out


class Bottleneck:
    """Two stacked transforms with an optional additive shortcut."""

    def __init__(self, ch, variant="standard", shortcut=True):
        if variant == "standard":
            self.cv1 = ConvBlock(ch, ch, 3)
            self.cv2 = ConvBlock(ch, ch, 3)
        elif variant == "multiscale":
            self.cv1 = MultiScaleSplitConv(ch, ch)
            self.cv2 = MultiScaleSplitConv(ch, ch)
        else:
            raise SpecError(f"unknown bottleneck variant {variant!r}")
        self.variant = variant
        self.shortcut = shortcut

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.cv2.forward(self.cv1.forward(x))
        return elementwise(x, y, "add") if self.shortcut else y

    def named_arrays(self):
        for prefix, blk in (("cv1", self.cv1), ("cv2", self.cv2)):
            for k, v in blk.named_arrays():
                yield f"{prefix}.{k}", v

    def profile(self, in_shape):
        m1, e1, mid = self.cv1.profile(in_shape)
        m2, e2, out = self.cv2.profile(mid)
        elems = e1 + e2
        if self.shortcut:
            elems += out[0] * out[1] * out[2] * out[3]
        return m1 + m2, elems, out


class C2f:
    """Cross-stage partial block: 1x1 expand, chained bottlenecks on one half,
    concat of every intermediate map, 1x1 merge."""

    def __init__(self, in_ch, out_ch, n=1, shortcut=False, variant="standard"):
        if out_ch % 2:
            raise SpecError(f"out_ch {out_ch} must be even")
        h = out_ch // 2
        if variant == "multiscale" and h % 4:
            raise SpecError(f"hidden width {h} not divisible by 4 for the multiscale variant")
        self.in_ch, self.out_ch, self.n, self.hidden = in_ch, out_ch, n, h
        self.variant = variant
        self.cv1 = ConvBlock(in_ch, 2 * h, 1)
        self.bottlenecks = [Bottleneck(h, variant, shortcut) for _ in range(n)]
        self.cv2 = ConvBlock((2 + n) * h, out_ch, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        parts = split_channels(self.cv1.forward(x), [self.hidden, self.hidden])
        for m in self.bottlenecks:
            parts.append(m.forward(parts[-1]))
        return self.cv2.forward(concat_channels(parts))

    def named_arrays(self):
        for k, v in self.cv1.named_arrays():
            yield f"cv1.{k}", v
        for i, m in enumerate(self.bottlenecks):
            for k, v in m.named_arrays():
                yield f"m{i}.{k}", v
        for k, v in self.cv2.named_arrays():
            yield f"cv2.{k}", v

    def profile(self, in_shape):
        macs, elems, mid = self.cv1.profile(in_shape)
        n, _, h, w = mid
        part = (n, self.hidden, h, w)
        for m in self.bottlenecks:
            bm, be, part = m.profile(part)
            macs, elems = macs + bm, elems + be
        cm, ce, out = self.cv2.profile((n, (2 + self.n) * self.hidden, h, w))
        return macs + cm, elems + ce, out


class SPPF:
    """Spatial pyramid pooling (fast): three chained 5x5 max pools, concatenated."""

    def __init__(self, ch):
        self.ch = ch
        self.cv1 = ConvBlock(ch, ch // 2, 1)
        self.cv2 = ConvBlock(ch * 2, ch, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.cv1.forward(x)
        p1 = pool2d(y, "max", 5, 1, 2)
        p2 = pool2d(p1, "max", 5, 1, 2)
        p3 = pool2d(p2, "max", 5, 1, 2)
        return self.cv2.forward(concat_channels([y, p1, p2, p3]))

    def named_arrays(self):
        for prefix, blk in (("cv1", self.cv1), ("cv2", self.cv2)):
            for k, v in blk.named_arrays():
                yield f"{prefix}.{k}", v

    def profile(self, in_shape):
        m1, e1, mid = self.cv1.profile(in_shape)
        n, c, h, w = mid
        pool_elems = 3 * n * c * h * w
        m2, e2, out = self.cv2.profile((n, 4 * c, h, w))
        return m1 + m2, e1 + pool_elems + e2, out


class MSCABlock:
    """Multi-scale strip-conv attention: 5x5 depthwise base, three depthwise
    strip pairs (7/11/21) summed with the base, a 1x1 mix producing a pixelwise
    attention map that multiplies the input."""

    STRIP_LENGTHS = (7, 11, 21)

    def __init__(self, ch):
        self.ch = ch
        self.base = ConvBlock(ch, ch, 5, groups=ch, bn=False, act="none")
        self.pairs = []
        for L in self.STRIP_LENGTHS:
            row = ConvBlock(ch, ch, (1, L), padding=(0, L // 2), groups=ch, bn=False, act="none")
            col = ConvBlock(ch, ch, (L, 1), padding=(L // 2, 0), groups=ch, bn=False, act="none")
            self.pairs.append((row, col))
        self.mix = ConvBlock(ch, ch, 1, bn=False, act="none")

    def forward(self, x: np.ndarray) -> np.ndarray:
        u = self.base.forward(x)
        s = u
        for row, col in self.pairs:
            s = elementwise(s, col.forward(row.forward(u)), "add")
        att = self.mix.forward(s)
        return elementwise(att, x, "mul")

    def named_arrays(self):
        for k, v in self.base.named_arrays():
            yield f"base.{k}", v
        for (row, col), L in zip(self.pairs, self.STRIP_LENGTHS):
            for k, v in row.named_arrays():
                yield f"strip{L}.row.{k}", v
            for k, v in col.named_arrays():
                yield f"strip{L}.col.{k}", v
        for k, v in self.mix.named_arrays():
            yield f"mix.{k}", v

    def profile(self, in_shape):
        macs, elems, out = self.base.profile(in_shape)
        n, c, h, w = out
        for row, col in self.pairs:
            mr, er, mid = row.profile(out)
            mc, ec, _ = col.profile(mid)
            macs += mr + mc
            elems += er + ec + n * c * h * w  # running sum
        mm, em, _ = self.mix.profile(out)
        macs += mm
        elems += em + n * c * h * w  # attention multiply
        return macs, elems, out


class ScaleParam:
    """Single learnable scalar multiplier."""

    def __init__(self, value=1.0):
        self.s = np.full(1, value, dtype=DTYPE)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.multiply(x, self.s[0], dtype=DTYPE)

    def named_arrays(self):
        yield "s", self.s

    def profile(self, in_shape):
        n, c, h, w = in_shape
        return 0, n * c * h * w, in_shape


@dataclass(frozen=True)
class HeadConfig:
    """Detection head geometry shared by both head designs."""

    nc: int
    reg_max: int = 16
    strides: tuple = (8, 16, 32)
    in_channels: tuple = (64, 128, 256)
    head_hidden: int = 64

    def __post_init__(self):
        if self.nc < 1:
            raise SpecError(f"class count must be >= 1, got {self.nc}")

    @property
    def box_channels(self) -> int:
        return 4 * self.reg_max

    @property
    def out_channels(self) -> int:
        return self.nc + 4 * self.reg_max

    @property
    def cls_hidden(self) -> int:
        return max(64, self.nc)


class BaselineHead:
    """Decoupled per-level head: independent box and class towers on each scale."""

    def __init__(self, cfg: HeadConfig):
        self.cfg = cfg
        self.box_branches = []
        self.cls_branches = []
        for ch in cfg.in_channels:
            self.box_branches.append([
                ConvBlock(ch, 64, 3),
                ConvBlock(64, 64, 3),
                ConvBlock(64, cfg.box_channels, 1, bn=False, act="none"),
            ])
            c3 = cfg.cls_hidden
            self.cls_branches.append([
                ConvBlock(ch, c3, 3),
                ConvBlock(c3, c3, 3),
                ConvBlock(c3, cfg.nc, 1, bn=False, act="none"),
            ])

    def forward(self, p3, p4, p5):
        outs = []
        for x, box, cls in zip((p3, p4, p5), self.box_branches, self.cls_branches):
            b = x
            for blk in box:
                b = blk.forward(b)
            c = x
            for blk in cls:
                c = blk.forward(c)
            outs.append(concat_channels([b, c]))
        return tuple(outs)


class SharedRepHead:
    """Lightweight shared head: per-level 1x1 stems feed one RepConv stack and one
    box/cls conv pair shared by all scales, with per-level scalars on the box map."""

    def __init__(self, cfg: HeadConfig):
        self.cfg = cfg
        h = cfg.head_hidden
        self.stems = [ConvBlock(ch, h, 1) for ch in cfg.in_channels]
        self.rep1 = RepConvBlock(h, h)
        self.rep2 = RepConvBlock(h, h)
        self.box_conv = ConvBlock(h, cfg.box_channels, 1, bn=False, act="none")
        self.cls_conv = ConvBlock(h, cfg.nc, 1, bn=False, act="none")
        self.scales = [ScaleParam(1.0) for _ in cfg.strides]

    def forward(self, p3, p4, p5):
        if self.rep1.mode != self.rep2.mode:
            raise StateError(
                f"RepConv stack modes disagree: {self.rep1.mode} vs {self.rep2.mode}"
            )
        outs = []
        for x, stem, scale in zip((p3, p4, p5), self.stems, self.scales):
            t = self.rep2.forward(self.rep1.forward(stem.forward(x)))
            box = scale.forward(self.box_conv.forward(t))
            cls = self.cls_conv.forward(t)
            outs.append(concat_channels([box, cls]))
        return tuple(outs)
