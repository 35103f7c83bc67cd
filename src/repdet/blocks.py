"""Forward blocks: conv units, CSP stages, strip-conv attention, the RepConv
stack and the head geometry, which `model.build_model` wires into graphs.

A fresh block costs only its structure. A conv weight is zero-filled on its
first read; a load, a seed or a fold binds its own array instead, so a graph
loaded by `model.load_weights` holds the store's arrays and zero-fills none.
Biases and batch norms (at identity) are small and built at once. Each conv
block's frozen `Conv2dSpec` comes from a cache keyed by its shape arguments,
so a train conv and its deploy twin share one spec. Forwards are pure. Every
conv block takes a `bn` flag: with `bn=False` it is built in deploy form,
BN-free with a bias, which `fusion` fills with folded arrays.

A block holding parameters has one walk over them: `shaped_slots()` yields
(suffix, owner, attr, shape) per parameter array in weight-name order. The
array is `getattr(owner, attr)`, so a load, a seed or a fold rebinds it, and
`shape` is the shape the block states for it, known without reading the array
(a conv weight's comes from its spec). `model` loads, seeds, saves and counts
through it, and `fusion` copies leaves through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ShapeError, SpecError

# perfbench's traced run times kernels by swapping these names on this module
# (its KernelTimer lists them), so concat_channels stays imported though no
# block calls it: the concatenating blocks fill their buffers part by part
from .tensor_ops import (
    DTYPE,
    BatchNormParams,
    Conv2dSpec,
    _pair,
    add_n,
    batch_norm_inference,
    concat_channels,
    conv2d,
    conv_epilogue,
    elementwise,
    pool2d,
    silu,
    split_channels,
)


def _concat_buffer(x: np.ndarray, channels: int) -> np.ndarray:
    """An empty NCHW buffer with `x`'s batch, height and width. A block that
    concatenates copies each part into its channel slice as soon as the part
    exists, so no part outlives its copy."""
    return np.empty((x.shape[0], channels, *x.shape[2:]), DTYPE)


def _bn_slots(bn: BatchNormParams):
    shape = bn.gamma.shape
    for attr in ("gamma", "beta", "mean", "var"):
        yield f"bn.{attr}", bn, attr, shape


class Composite:
    """A block built from child blocks. `children()` lists (prefix, block) pairs
    in weight-name order, the same for the train and the deploy form.

    Every conv inside a composite runs once per forward, on a map of the
    composite's output height and width, and the output keeps the input's
    height and width. So `model.profile_graph` counts a composite's MACs as
    its output pixels times the element count of its conv weights. A block
    states its output shape only through `forward`: the profile reads it off
    a forward over an empty batch."""

    def shaped_slots(self):
        for prefix, child in self.children():
            for suffix, owner, attr, shape in child.shaped_slots():
                yield f"{prefix}.{suffix}", owner, attr, shape


# ConvBlock arguments -> their frozen Conv2dSpec. It grows by one entry per
# distinct conv shape (class counts are bounded by HeadConfig.max_nc)
_SPECS: dict = {}


def _conv_spec(in_ch, out_ch, kernel, stride, padding, groups) -> Conv2dSpec:
    """The spec of a ConvBlock, built once per distinct argument tuple. A
    `padding` of None pads (k - 1) // 2 on each axis of a k-wide kernel,
    which keeps an odd kernel's output size at stride 1. A spec is stored
    only when its channel counts and groups are plain ints, so arguments
    equal to them (an `np.int64`, a float) never plant their type in later
    blocks' specs. Unhashable arguments, such as a list, and invalid ones,
    which raise on every call, are never stored."""
    key = (in_ch, out_ch, kernel, stride, padding, groups)
    try:
        return _SPECS[key]
    except KeyError:
        keep = type(in_ch) is type(out_ch) is type(groups) is int
    except TypeError:
        keep = False
    kernel = _pair(kernel)
    if padding is None:
        padding = (kernel[0] - 1) // 2, (kernel[1] - 1) // 2
    spec = Conv2dSpec(in_ch, out_ch, kernel, stride, padding, groups)
    if keep:
        _SPECS[key] = spec
    return spec


class ConvBlock:
    """Conv2d, then a per-channel affine, then an optional SiLU. The affine is
    the BatchNorm's, or with `bn=False` the bias `b`: `conv2d` gets no bias,
    and `conv_epilogue` applies the norm or the bias in the same pass as the
    SiLU. The weight `w` is bound by assignment; until then, reading it binds
    a new zero-filled array of `spec.weight_shape`, so a block that is loaded,
    seeded or folded into never allocates zeros that it would drop."""

    def __init__(self, in_ch, out_ch, kernel=1, stride=1, padding=None, groups=1, bn=True,
                 act="silu"):
        self.spec = _conv_spec(in_ch, out_ch, kernel, stride, padding, groups)
        if act not in ("silu", "none"):
            raise SpecError(f"unknown activation {act!r}")
        self.act = act
        self.b = np.zeros(out_ch, dtype=DTYPE) if not bn else None
        self.bn = BatchNormParams.identity(out_ch) if bn else None

    def __getattr__(self, name):
        # called only for an attribute the instance does not hold
        if name != "w":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        w = self.w = np.zeros(self.spec.weight_shape, dtype=DTYPE)
        return w

    def forward(self, x: np.ndarray) -> np.ndarray:
        return conv_epilogue(conv2d(x, self.spec, self.w), self.bn, self.act, self.b)

    def shaped_slots(self):
        yield "w", self, "w", self.spec.weight_shape
        if self.b is not None:
            yield "b", self, "b", self.b.shape
        if self.bn is not None:
            yield from _bn_slots(self.bn)


class AvgPoolBranch:
    """3x3 stride-1 average pool (padding counted in the mean) followed by BN."""

    def __init__(self, channels: int):
        self.bn = BatchNormParams.identity(channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return batch_norm_inference(pool2d(x, "avg", 3, 1, 1), self.bn)

    def shaped_slots(self):
        return _bn_slots(self.bn)


class RepConvBlock(Composite):
    """Train-form multi-branch conv on `ch` channels: 3x3 + 1x1 + 3x3 avg pool,
    each with BN, summed by `add_n` and passed through SiLU, as the graph's branch
    nodes do. `fusion.deploy_repconv` compiles it into one biased 3x3 conv."""

    def __init__(self, ch):
        self.out_ch = ch
        self.branch_3x3 = ConvBlock(ch, ch, 3, act="none")
        self.branch_1x1 = ConvBlock(ch, ch, 1, act="none")
        self.branch_avg = AvgPoolBranch(ch)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return silu(add_n([b.forward(x) for _, b in self.children()]))

    def children(self):
        return [("k3", self.branch_3x3), ("k1", self.branch_1x1), ("avg", self.branch_avg)]


class MultiScaleSplitConv(Composite):
    """Split-transform-merge conv: half the channels pass through untouched,
    the other half goes through parallel 3x3 and 5x5 paths, then a 1x1 merge."""

    def __init__(self, in_ch, out_ch, bn=True):
        if in_ch % 4:
            raise SpecError(f"in_ch {in_ch} not divisible by 4")
        self.in_ch = in_ch
        q = in_ch // 4
        self.path3 = ConvBlock(q, q, 3, bn=bn)
        self.path5 = ConvBlock(q, q, 5, bn=bn)
        self.fuse = ConvBlock(in_ch, out_ch, 1, bn=bn)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_ch:
            raise ShapeError(f"channel axis: {x.shape[1]} != {self.in_ch}")
        half, q = self.in_ch // 2, self.in_ch // 4
        keep, a, b = split_channels(x, [half, q, q])
        merged = _concat_buffer(x, self.in_ch)
        merged[:, :half] = keep
        merged[:, half:half + q] = self.path3.forward(a)
        merged[:, half + q:] = self.path5.forward(b)
        return self.fuse.forward(merged)

    def children(self):
        return [("p3", self.path3), ("p5", self.path5), ("fuse", self.fuse)]


class Bottleneck(Composite):
    """Two stacked transforms with an optional additive shortcut."""

    def __init__(self, ch, variant="standard", shortcut=True, bn=True):
        if variant == "standard":
            self.cv1 = ConvBlock(ch, ch, 3, bn=bn)
            self.cv2 = ConvBlock(ch, ch, 3, bn=bn)
        elif variant == "multiscale":
            self.cv1 = MultiScaleSplitConv(ch, ch, bn)
            self.cv2 = MultiScaleSplitConv(ch, ch, bn)
        else:
            raise SpecError(f"unknown bottleneck variant {variant!r}")
        self.shortcut = shortcut

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.cv2.forward(self.cv1.forward(x))
        return elementwise(x, y, "add") if self.shortcut else y

    def children(self):
        return [("cv1", self.cv1), ("cv2", self.cv2)]


class C2f(Composite):
    """Cross-stage partial block: 1x1 expand, chained bottlenecks on one half,
    concat of every intermediate map, 1x1 merge."""

    def __init__(self, in_ch, out_ch, n=1, shortcut=False, variant="standard", bn=True):
        if out_ch % 2:
            raise SpecError(f"out_ch {out_ch} must be even")
        h = out_ch // 2
        if variant == "multiscale" and h % 4:
            raise SpecError(f"hidden width {h} not divisible by 4 for the multiscale variant")
        self.n, self.hidden = n, h
        self.cv1 = ConvBlock(in_ch, 2 * h, 1, bn=bn)
        self.bottlenecks = [Bottleneck(h, variant, shortcut, bn) for _ in range(n)]
        self.cv2 = ConvBlock((2 + n) * h, out_ch, 1, bn=bn)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.hidden
        merged = _concat_buffer(x, (2 + self.n) * h)
        merged[:, :2 * h] = self.cv1.forward(x)
        for i, m in enumerate(self.bottlenecks, 1):
            merged[:, (i + 1) * h:(i + 2) * h] = m.forward(merged[:, i * h:(i + 1) * h])
        return self.cv2.forward(merged)

    def children(self):
        return ([("cv1", self.cv1)] + [(f"m{i}", m) for i, m in enumerate(self.bottlenecks)]
                + [("cv2", self.cv2)])


class SPPF(Composite):
    """Spatial pyramid pooling (fast): three chained 5x5 max pools, concatenated."""

    def __init__(self, ch, bn=True):
        self.out_ch = ch
        self.cv1 = ConvBlock(ch, ch // 2, 1, bn=bn)
        self.cv2 = ConvBlock(ch * 2, ch, 1, bn=bn)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.out_ch // 2
        merged = _concat_buffer(x, 4 * h)
        merged[:, :h] = self.cv1.forward(x)
        for i in range(1, 4):
            merged[:, i * h:(i + 1) * h] = pool2d(merged[:, (i - 1) * h:i * h], "max", 5, 1, 2)
        return self.cv2.forward(merged)

    def children(self):
        return [("cv1", self.cv1), ("cv2", self.cv2)]


class MSCABlock(Composite):
    """Multi-scale strip-conv attention: 5x5 depthwise base, three depthwise
    strip pairs (7/11/21) summed with the base, a 1x1 mix producing a pixelwise
    attention map that multiplies the input."""

    STRIP_LENGTHS = (7, 11, 21)

    def __init__(self, ch):
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

    def children(self):
        kids = [("base", self.base)]
        for (row, col), L in zip(self.pairs, self.STRIP_LENGTHS):
            kids += [(f"strip{L}.row", row), (f"strip{L}.col", col)]
        return kids + [("mix", self.mix)]


class ScaleParam:
    """Single learnable scalar multiplier, 1 until a load, a seed or a fold
    binds another."""

    def __init__(self):
        self.s = np.ones(1, dtype=DTYPE)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.multiply(x, self.s[0], dtype=DTYPE)

    def shaped_slots(self):
        yield "s", self, "s", self.s.shape


@dataclass(frozen=True)
class HeadConfig:
    """Detection head geometry shared by both head designs; only the class
    count varies, from 1 to `max_nc`. The baseline's class tower is
    max(64, nc) wide, so its size grows with nc squared: at `max_nc` the
    baseline holds 36.7M parameters (3.0M at nc = 3). The bound turns an
    absurd count into a SpecError before any array is allocated."""

    nc: int
    input_size: ClassVar[int] = 640  # the square network input: letterbox canvas, profile default
    max_nc: ClassVar[int] = 1000
    reg_max: ClassVar[int] = 16
    strides: ClassVar[tuple] = (8, 16, 32)
    in_channels: ClassVar[tuple] = (64, 128, 256)
    head_hidden: ClassVar[int] = 64

    def __post_init__(self):
        if not 1 <= self.nc <= self.max_nc:
            raise SpecError(f"class count must lie in [1, {self.max_nc}], got {self.nc}")

    @property
    def box_channels(self) -> int:
        return 4 * self.reg_max

    @property
    def out_channels(self) -> int:
        return self.nc + 4 * self.reg_max

    @property
    def cls_hidden(self) -> int:
        return max(64, self.nc)
