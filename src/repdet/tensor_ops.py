"""Deterministic NCHW tensor kernels.

Tensors are plain 4-D numpy arrays of float32, indexed (n, c, h, w). The
forward kernels (conv2d, batch norm, SiLU, pooling, elementwise) compute in
float32. A dense conv does a float32 im2col over a strided window view and
a single-precision GEMM, and a grouped conv runs one dense conv per group.
A dense conv gathers and multiplies one block of output rows at a time,
through one buffer of about IM2COL_BUDGET bytes, straight into its output. It
pads by copying the input rows a band of blocks reads into one reused
zero-bordered buffer of about SLAB_BUDGET bytes, so it holds no padded copy of
its whole input. A 1x1 stride-1 conv multiplies a view of its input. The
window ops loop over kernel taps and work on whole-tensor slices: pooling
reduces the column-shifted slices, then the row-shifted ones; a depthwise
conv does one multiply-add per tap into a channels-last float32 accumulator
and returns it through an NCHW view. Their padding fills a new whole-map
buffer with 0 or -inf and copies the interior.

Results repeat run to run and agree with float64 references to within float32
resolution; the float64 versions, including the einsum depthwise conv, live
in tests/oracles.py. Max pooling, elementwise add and mul are bit-identical
to those references; add_n, the sum of any number of tensors, accumulates in
float64 and rounds once. The decode kernels (sigmoid, grouped softmax) still
accumulate in float64. No kernel mutates its inputs except conv_epilogue,
which applies a batch norm's affine or a conv's bias, then SiLU, in place on
the new array conv2d returns, one slab of whole channels at a time through one
reused tanh buffer, so it allocates nothing the size of its input; it is the
one batch norm and SiLU body, which batch_norm_inference and silu run on a
copy, and the one place a bias is added: a ConvBlock hands it its bias, and
conv2d a bias its caller passes.

Every conv is undilated and every batch norm divides by sqrt(var + BN_EPS).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericError, ShapeError, SpecError

DTYPE = np.float32

# the eps of every batch norm; a .rwt store carries no eps
BN_EPS = 1e-3


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
    groups: int = 1

    def __post_init__(self):
        for field in ("kernel", "stride", "padding"):
            v = getattr(self, field)
            if not (type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is int):
                object.__setattr__(self, field, _pair(v))
        for field in ("in_ch", "out_ch", "groups"):
            if getattr(self, field) < 1:
                raise SpecError(f"{field} must be positive, got {getattr(self, field)}")
        if self.in_ch % self.groups or self.out_ch % self.groups:
            raise SpecError(
                f"channels ({self.in_ch} in, {self.out_ch} out) not divisible by groups={self.groups}"
            )
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise SpecError("kernel and stride entries must be >= 1")
        if min(self.padding) < 0:
            raise SpecError("padding must be non-negative")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_ch, self.in_ch // self.groups, *self.kernel)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        ho = (h + 2 * ph - kh) // sh + 1
        wo = (w + 2 * pw - kw) // sw + 1
        if ho < 1 or wo < 1:
            raise ShapeError(
                f"spatial output collapsed to {ho}x{wo} for input {h}x{w} with kernel {self.kernel}"
            )
        return ho, wo


@dataclass
class BatchNormParams:
    """Inference-time batch norm: per-channel affine over frozen statistics,
    with eps BN_EPS."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray

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

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def identity(cls, channels: int) -> "BatchNormParams":
        """gamma 1, beta 0, mean 0, var 1: four new float32 arrays, built
        without the conversions and checks of `__init__`, which they pass."""
        p = cls.__new__(cls)
        p.gamma, p.beta = np.ones(channels, DTYPE), np.zeros(channels, DTYPE)
        p.mean, p.var = np.zeros(channels, DTYPE), np.ones(channels, DTYPE)
        return p


def _window_view(xp: np.ndarray, kernel, stride, out_hw):
    """Strided (n, c, kh, kw, ho, wo) window view over a padded array."""
    n, c = xp.shape[:2]
    kh, kw = kernel
    sh, sw = stride
    ho, wo = out_hw
    sn, sc, srow, scol = xp.strides
    return as_strided(
        xp,
        (n, c, kh, kw, ho, wo),
        (sn, sc, srow, scol, sh * srow, sw * scol),
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
            win = xp[:, _taps(u, sh, ho), _taps(v, sw, wo)]
            w_row[...] = taps[u, v]
            if u == v == 0:
                np.multiply(win, w_row, out=out)
            else:
                np.multiply(win, w_row, out=prod)
                out += prod
    return out.transpose(0, 3, 1, 2)


# bytes of im2col a dense conv gathers at once: it copies and multiplies one
# block of output rows at a time through a buffer of about this size
IM2COL_BUDGET = 1 << 20

# OpenBLAS runs a GEMM of at most 100**3 multiply-adds through small-matrix
# kernels that round differently from its blocked ones (seen on AVX-512
# cores), so no block is that small unless it is the whole image
SMALL_GEMM_MACS = 100 ** 3

# bytes of the padded input rows a dense conv copies at once, and of the
# channel slab the conv epilogue works on at once. The band sets the 640x640
# forward's tracemalloc peak: 12.97 MiB with 1 MiB bands, 12.24 with these
SLAB_BUDGET = 1 << 18


def _row_blocks(ho: int, wo: int, k: int, out_ch: int) -> list[tuple[int, int]]:
    """(first, end) output rows of each block of a dense conv with `k` im2col
    rows: as many near-equal blocks as IM2COL_BUDGET asks for, each one's
    GEMM larger than SMALL_GEMM_MACS."""
    want = -(-4 * k * ho * wo // IM2COL_BUDGET)
    most = ho // (SMALL_GEMM_MACS // (out_ch * k * wo) + 1)
    count = max(1, min(want, most))
    return [(i * ho // count, (i + 1) * ho // count) for i in range(count)]


def _bands(blocks, rows_read, row_bytes: int) -> list[list[tuple[int, int]]]:
    """Consecutive row blocks grouped into bands whose padded input rows,
    `rows_read(first, end)` of `row_bytes` each, fit SLAB_BUDGET; a block
    that does not fit alone is a band of its own."""
    bands = [[blocks[0]]]
    for block in blocks[1:]:
        if rows_read(bands[-1][0][0], block[1]) * row_bytes <= SLAB_BUDGET:
            bands[-1].append(block)
        else:
            bands.append([block])
    return bands


def _dense(x: np.ndarray, spec: Conv2dSpec, wf: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """Dense conv as im2col + GEMM by blocks of output rows. Each band of
    blocks copies the input rows it reads into one reused zero-bordered
    buffer, so no padded copy of the whole input exists. A block's column
    matrix is gathered from the band into a second reused buffer and
    multiplied straight into its rows of the output, and each output value is
    the same dot product the whole-image GEMM computes."""
    n, c, h, w = x.shape
    kh, kw = spec.kernel
    sh, ph, pw = spec.stride[0], *spec.padding
    k = c * kh * kw
    wm = wf.reshape(spec.out_ch, k)

    def rows_read(r0, r1):  # padded input rows that output rows r0..r1-1 read
        return (r1 - r0 - 1) * sh + kh

    bands = _bands(_row_blocks(ho, wo, k, spec.out_ch), rows_read, 4 * c * (w + 2 * pw))
    # the border columns are zeroed here once; band rows are written per band
    pad = np.zeros((1, c, max(rows_read(b[0][0], b[-1][1]) for b in bands), w + 2 * pw), DTYPE)
    buf = np.empty(k * max(r1 - r0 for band in bands for r0, r1 in band) * wo, DTYPE)
    out = np.empty((n, spec.out_ch, ho, wo), DTYPE)
    for b in range(n):
        for band in bands:
            first, rows = band[0][0], rows_read(band[0][0], band[-1][1])
            top = first * sh - ph  # the input row of the band's first padded row
            # buffer rows [a, e) hold input rows [top + a, top + e); the rest are zero
            a = min(max(-top, 0), rows)
            e = max(a, min(h - top, rows))
            xp = pad[:, :, :rows]
            xp[:, :, :a] = 0.0
            xp[:, :, e:] = 0.0
            xp[0, :, a:e, pw:pw + w] = x[b, :, top + a:top + e]
            pat = _window_view(xp, spec.kernel, spec.stride, (band[-1][1] - first, wo))
            for r0, r1 in band:
                cols = buf[:k * (r1 - r0) * wo]
                cols.reshape(c, kh, kw, r1 - r0, wo)[...] = pat[0, :, :, :, r0 - first:r1 - first]
                np.matmul(wm, cols.reshape(k, -1), out=out[b, :, r0:r1].reshape(spec.out_ch, -1))
    return out


def conv2d(x: np.ndarray, spec: Conv2dSpec, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation): float32 im2col + GEMM, or
    per-tap multiply-adds when depthwise (groups == in_ch == out_ch), then
    `conv_epilogue`'s shift by `bias`, when given. The result is always a
    new array that no other array views."""
    check_nchw(x)
    n, c, h, w = x.shape
    if c != spec.in_ch:
        raise ShapeError(f"channel axis: input has {c} channels, spec expects {spec.in_ch}")
    if tuple(weights.shape) != spec.weight_shape:
        raise ShapeError(f"weight axis: got {tuple(weights.shape)}, spec expects {spec.weight_shape}")

    ho, wo = spec.out_hw(h, w)
    wf = np.asarray(weights, dtype=DTYPE)
    g = spec.groups
    if g == c and spec.out_ch == c:
        out = _depthwise(x, spec, wf, ho, wo)
    elif g == 1 and spec.kernel == spec.stride == (1, 1) and spec.padding == (0, 0):
        # the column matrix is a view of the input: no gather to tile
        out = (wf.reshape(spec.out_ch, c) @ np.asarray(x, DTYPE).reshape(n, c, h * w))
        out = out.reshape(n, spec.out_ch, ho, wo)
    elif g == 1:
        out = _dense(x, spec, wf, ho, wo)
    else:
        # one dense conv per group, each with its slice of input and weights
        cg, og = c // g, spec.out_ch // g
        one = replace(spec, in_ch=cg, out_ch=og, groups=1)
        out = np.concatenate([conv2d(x[:, i * cg:(i + 1) * cg], one, wf[i * og:(i + 1) * og])
                              for i in range(g)], axis=1)
    return conv_epilogue(out, None, "none", bias)


def bn_scale_shift(p: BatchNormParams):
    """Batch norm as a float64 per-channel affine: scale = gamma / sqrt(var + BN_EPS),
    shift = beta - mean * scale. `p` may be anything with those four fields;
    `fusion` passes the concatenated statistics of many norms."""
    scale = p.gamma.astype(np.float64) / np.sqrt(p.var.astype(np.float64) + BN_EPS)
    return scale, p.beta.astype(np.float64) - p.mean.astype(np.float64) * scale


def batch_norm_inference(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    return conv_epilogue(np.array(x, dtype=DTYPE), p, "none")


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), into a new array."""
    return conv_epilogue(np.array(x, dtype=DTYPE), None, "silu")


def conv_epilogue(y: np.ndarray, bn: BatchNormParams | None, act: str,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """A per-channel affine, then SiLU when `act` is "silu", in place over a
    conv output `y` that nothing else references; `y` may be the result. The
    affine is the batch norm's, or a shift by `bias`, or none; a norm and a
    bias together raise. With SiLU the affine is pre-scaled by 0.5, cast to
    float32 once, so y holds h = x / 2, and the tail writes
    SiLU(x) = h * (1 + tanh(h)) over it. Halving commutes with float32
    rounding outside the subnormal range, so y/2 + bias/2 rounds as
    (y + bias)/2, and the tanh form of sigmoid is stable for any magnitude.
    The work runs over slabs of whole channels of about SLAB_BUDGET bytes,
    through one reused tanh buffer."""
    check_nchw(y)
    n, c, h, w = y.shape
    silu_tail = act == "silu"
    half = 0.5 if silu_tail else 1.0
    if bn is not None:
        if bias is not None:
            raise SpecError("a conv epilogue takes a batch norm or a bias, not both")
        if c != bn.channels:
            raise ShapeError(f"channel axis: input has {c} channels, batch norm has {bn.channels}")
        scale, shift = ((half * v).astype(DTYPE)[:, None, None] for v in bn_scale_shift(bn))
    else:
        if bias is not None:
            bias = np.asarray(bias, dtype=DTYPE)
            if bias.shape != (c,):
                raise ShapeError(f"bias axis: length {bias.shape} != out_ch {c}")
        scale = np.full((c, 1, 1), half, DTYPE) if silu_tail else None
        shift = None if bias is None else (half * bias)[:, None, None]
        if scale is None and shift is None:
            return y
    step = max(1, SLAB_BUDGET // max(4 * h * w, 1))  # channels per slab
    t = np.empty(min(c, step) * h * w, DTYPE) if silu_tail else None
    for b in range(n):
        for c0 in range(0, c, step):
            s = y[b, c0:c0 + step]
            if scale is not None:
                s *= scale[c0:c0 + step]
            if shift is not None:
                s += shift[c0:c0 + step]
            if silu_tail:
                ts = np.tanh(s, out=t[:s.size].reshape(s.shape))
                ts += 1.0
                s *= ts
    return y


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


def add_n(xs) -> np.ndarray:
    """Sum of same-shape tensors, accumulated in float64 in list order and
    rounded to float32 once."""
    acc = xs[0].astype(np.float64)
    for t in xs[1:]:
        acc += t
    return acc.astype(DTYPE)
