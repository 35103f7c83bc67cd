"""Deterministic NCHW tensor kernels.

Tensors are plain 4-D numpy arrays of float32, indexed (n, c, h, w). The
forward kernels (conv2d, batch norm, SiLU, pooling, elementwise) compute in
float32. Dense and grouped convs do a float32 im2col over a strided window
view and a single-precision GEMM. The window ops loop over kernel taps and
work on whole-tensor slices: pooling reduces the column-shifted slices, then
the row-shifted ones; a depthwise conv does one multiply-add per tap into a
channels-last float32 accumulator and returns it through an NCHW view.
Padding fills a new buffer with 0 or -inf and copies the interior.

Results repeat run to run and agree with float64 references to within float32
resolution; the float64 versions, including the einsum depthwise conv, live
in tests/oracles.py. Max pooling, elementwise add and mul are bit-identical
to those references. The decode kernels (sigmoid, grouped softmax) still
accumulate in float64. No kernel mutates its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericError, ShapeError, SpecError

DTYPE = np.float32


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def tensor(data, shape=None) -> np.ndarray:
    """Build a float32 NCHW tensor from nested data or a flat list + shape."""
    arr = np.asarray(data, dtype=DTYPE)
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


def check_nchw(x: np.ndarray, name: str = "input") -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-D NCHW, got {x.ndim}-D")
    return x


@dataclass(frozen=True)
class Conv2dSpec:
    """Static description of a 2-D convolution."""

    in_ch: int
    out_ch: int
    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kernel", _pair(self.kernel))
        object.__setattr__(self, "stride", _pair(self.stride))
        object.__setattr__(self, "padding", _pair(self.padding))
        object.__setattr__(self, "dilation", _pair(self.dilation))
        for field in ("in_ch", "out_ch", "groups"):
            if getattr(self, field) < 1:
                raise SpecError(f"{field} must be positive, got {getattr(self, field)}")
        if self.in_ch % self.groups or self.out_ch % self.groups:
            raise SpecError(
                f"channels ({self.in_ch} in, {self.out_ch} out) not divisible by groups={self.groups}"
            )
        if min(self.kernel) < 1 or min(self.stride) < 1 or min(self.dilation) < 1:
            raise SpecError("kernel, stride and dilation entries must be >= 1")
        if min(self.padding) < 0:
            raise SpecError("padding must be non-negative")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_ch, self.in_ch // self.groups, *self.kernel)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        dh, dw = self.dilation
        ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
        wo = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
        if ho < 1 or wo < 1:
            raise ShapeError(
                f"spatial output collapsed to {ho}x{wo} for input {h}x{w} with kernel {self.kernel}"
            )
        return ho, wo


@dataclass
class BatchNormParams:
    """Inference-time batch norm: per-channel affine over frozen statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-3

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=DTYPE)
        self.beta = np.asarray(self.beta, dtype=DTYPE)
        self.mean = np.asarray(self.mean, dtype=DTYPE)
        self.var = np.asarray(self.var, dtype=DTYPE)
        n = self.gamma.shape[0]
        for name in ("beta", "mean", "var"):
            if getattr(self, name).shape != (n,):
                raise ShapeError(f"batch norm {name} length {getattr(self, name).shape} != {n} channels")
        if np.any(self.var < 0):
            raise NumericError("running variance must be non-negative")
        if self.eps <= 0:
            raise NumericError(f"eps must be positive, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-3) -> "BatchNormParams":
        return cls(np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels), eps)


def _window_view(xp: np.ndarray, kernel, stride, dilation, out_hw):
    """Strided (n, c, kh, kw, ho, wo) window view over a padded array."""
    n, c = xp.shape[:2]
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    ho, wo = out_hw
    sn, sc, srow, scol = xp.strides
    return as_strided(
        xp,
        (n, c, kh, kw, ho, wo),
        (sn, sc, dh * srow, dw * scol, sh * srow, sw * scol),
        writeable=False,
    )


def _padded(x: np.ndarray, ph: int, pw: int, fill: float = 0.0,
            channels_last: bool = False) -> np.ndarray:
    """float32 `x` with `ph` rows and `pw` columns of `fill` on every side, in a
    new buffer (`x` itself when there is nothing to add). With `channels_last`
    the buffer is always new, laid out (n, h, w, c) and indexed as NCHW."""
    x = np.asarray(x, dtype=DTYPE)
    if not (ph or pw or channels_last):
        return x
    n, c, h, w = x.shape
    if channels_last:
        buf = np.empty((n, h + 2 * ph, w + 2 * pw, c), DTYPE).transpose(0, 3, 1, 2)
    else:
        buf = np.empty((n, c, h + 2 * ph, w + 2 * pw), DTYPE)
    # write the border and the interior once each
    buf[:, :, :ph] = fill
    buf[:, :, ph + h:] = fill
    buf[:, :, ph:ph + h, :pw] = fill
    buf[:, :, ph:ph + h, pw + w:] = fill
    buf[:, :, ph:ph + h, pw:pw + w] = x
    return buf


def _taps(start: int, step: int, count: int) -> slice:
    """The `count` positions start, start + step, ... as a slice."""
    return slice(start, start + step * (count - 1) + 1, step)


def _fold(op, slices) -> np.ndarray:
    """`op` applied left to right across `slices`, into a new array."""
    out = op(slices[0], slices[1]) if len(slices) > 1 else slices[0].copy()
    for s in slices[2:]:
        op(out, s, out=out)
    return out


def _depthwise(x: np.ndarray, spec: Conv2dSpec, wf: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """Depthwise conv as one multiply-add per kernel tap over whole
    channels-last slices. The result is channels-last memory seen through an
    NCHW view, so a following depthwise conv pads it without a transpose."""
    kh, kw = spec.kernel
    sh, sw = spec.stride
    dh, dw = spec.dilation
    xp = _padded(x, *spec.padding, channels_last=True).transpose(0, 2, 3, 1)
    n, c = x.shape[:2]
    taps = wf[:, 0].transpose(1, 2, 0)  # (kh, kw, c)
    # a tap's weights repeated along a whole output row, so that a stride-1
    # multiply runs once per row over wo * c values instead of once per pixel
    w_row = np.empty((wo, c), DTYPE)
    out = np.empty((n, ho, wo, c), DTYPE)
    prod = np.empty_like(out)
    for u in range(kh):
        for v in range(kw):
            win = xp[:, _taps(u * dh, sh, ho), _taps(v * dw, sw, wo)]
            w_row[...] = taps[u, v]
            if u == v == 0:
                np.multiply(win, w_row, out=out)
            else:
                np.multiply(win, w_row, out=prod)
                out += prod
    return out.transpose(0, 3, 1, 2)


def conv2d(x: np.ndarray, spec: Conv2dSpec, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation): float32 im2col + GEMM, or
    per-tap multiply-adds when depthwise (groups == in_ch == out_ch)."""
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
    wf = np.asarray(weights, dtype=DTYPE)
    g = spec.groups
    if g == c and spec.out_ch == c:
        out = _depthwise(x, spec, wf, ho, wo)
    else:
        xp = _padded(x, *spec.padding)
        pat = _window_view(xp, spec.kernel, spec.stride, spec.dilation, (ho, wo))
        if g == 1:
            cols = pat.reshape(n, c * spec.kernel[0] * spec.kernel[1], ho * wo)
            out = (wf.reshape(spec.out_ch, -1) @ cols).reshape(n, spec.out_ch, ho, wo)
        else:
            cg, og = c // g, spec.out_ch // g
            parts = []
            for gi in range(g):
                cols = pat[:, gi * cg:(gi + 1) * cg].reshape(n, cg * spec.kernel[0] * spec.kernel[1], ho * wo)
                parts.append(wf[gi * og:(gi + 1) * og].reshape(og, -1) @ cols)
            out = np.concatenate(parts, axis=1).reshape(n, spec.out_ch, ho, wo)

    if bias is not None:
        out += np.asarray(bias, dtype=DTYPE)[None, :, None, None]
    return out


def batch_norm_inference(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    check_nchw(x)
    if x.shape[1] != p.channels:
        raise ShapeError(f"channel axis: input has {x.shape[1]} channels, batch norm has {p.channels}")
    scale = p.gamma.astype(np.float64) / np.sqrt(p.var.astype(np.float64) + p.eps)
    shift = p.beta.astype(np.float64) - p.mean.astype(np.float64) * scale
    out = np.multiply(x, scale.astype(DTYPE)[None, :, None, None], dtype=DTYPE)
    out += shift.astype(DTYPE)[None, :, None, None]
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x); the tanh form of sigmoid is stable for any magnitude."""
    out = np.multiply(x, 0.5, dtype=DTYPE)
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    xd = np.asarray(x, dtype=np.float64)
    return (0.5 * (1.0 + np.tanh(0.5 * xd))).astype(DTYPE)


def pool2d(x: np.ndarray, mode: str, kernel, stride=None, padding=0) -> np.ndarray:
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
    # separable: fold the kw column-shifted slices, then the kh row-shifted ones
    op = np.maximum if mode == "max" else np.add
    xp = _padded(x, ph, pw, -np.inf if mode == "max" else 0.0)
    cols = _fold(op, [xp[:, :, :, _taps(v, stride[1], wo)] for v in range(kw)])
    out = _fold(op, [cols[:, :, _taps(u, stride[0], ho)] for u in range(kh)])
    if mode == "avg":
        out /= float(kh * kw)
    return out


def upsample_nearest2x(x: np.ndarray) -> np.ndarray:
    check_nchw(x)
    # columns first: the second pass then copies whole rows of 2 * w values
    return np.repeat(np.repeat(x, 2, axis=3), 2, axis=2)


def concat_channels(xs) -> np.ndarray:
    if not xs:
        raise ShapeError("concat of zero tensors")
    base = xs[0]
    for i, t in enumerate(xs):
        check_nchw(t, f"input[{i}]")
        if t.shape[0] != base.shape[0] or t.shape[2:] != base.shape[2:]:
            raise ShapeError(
                f"spatial/batch axis: input[{i}] is {t.shape}, incompatible with {base.shape}"
            )
    return np.concatenate(xs, axis=1)


def split_channels(x: np.ndarray, sizes) -> list[np.ndarray]:
    check_nchw(x)
    if sum(sizes) != x.shape[1]:
        raise SpecError(f"split sizes {list(sizes)} do not sum to {x.shape[1]} channels")
    out, at = [], 0
    for s in sizes:
        out.append(x[:, at:at + s])
        at += s
    return out


def softmax_channelwise(x: np.ndarray, group: int) -> np.ndarray:
    """Softmax within each consecutive group of `group` channels, per pixel."""
    check_nchw(x)
    n, c, h, w = x.shape
    if group < 1 or c % group:
        raise SpecError(f"channel count {c} not divisible by group size {group}")
    xs = x.astype(np.float64).reshape(n, c // group, group, h, w)
    xs = xs - xs.max(axis=2, keepdims=True)
    e = np.exp(xs)
    out = e / e.sum(axis=2, keepdims=True)
    return out.reshape(n, c, h, w).astype(DTYPE)


def elementwise(x: np.ndarray, y: np.ndarray, op: str) -> np.ndarray:
    check_nchw(x)
    check_nchw(y, "y")
    if x.shape != y.shape:
        raise ShapeError(f"elementwise shapes differ: {x.shape} vs {y.shape}")
    # float64 has more than twice float32's precision plus two bits, so one
    # float32 rounding gives the float64 sum or product rounded to float32
    if op == "mul":
        return np.multiply(x, y, dtype=DTYPE)
    if op == "add":
        return np.add(x, y, dtype=DTYPE)
    raise SpecError(f"unknown elementwise op {op!r}")
