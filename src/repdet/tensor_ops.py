"""Deterministic NCHW tensor kernels.

Tensors are plain 4-D numpy arrays of float32, laid out (n, c, h, w) row-major.
The forward kernels (conv2d, batch norm, SiLU, pooling, elementwise) compute
in float32: a float32 im2col feeds a single-precision GEMM. Results repeat
run to run and agree with float64 references to within float32 resolution;
the float64 versions live in tests/oracles.py. Max pooling, elementwise add
and mul are bit-identical to those references. The decode kernels (sigmoid,
grouped softmax) still accumulate in float64. No kernel mutates its inputs.
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


def conv2d(x: np.ndarray, spec: Conv2dSpec, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation) as float32 im2col + GEMM."""
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
    xp = np.asarray(x, dtype=DTYPE)
    if ph or pw:
        xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    pat = _window_view(xp, spec.kernel, spec.stride, spec.dilation, (ho, wo))
    wf = np.asarray(weights, dtype=DTYPE)

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
    fill = -np.inf if mode == "max" else 0.0
    xp = np.asarray(x, dtype=DTYPE)
    if ph or pw:
        xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    pat = _window_view(xp, kernel, stride, (1, 1), (ho, wo))
    if mode == "max":
        return pat.max(axis=(2, 3))
    out = pat.sum(axis=(2, 3))
    out /= float(kh * kw)
    return out


def upsample_nearest2x(x: np.ndarray) -> np.ndarray:
    check_nchw(x)
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


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
