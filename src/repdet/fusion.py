"""Structural-reparameterization pass: collapse multi-branch RepConvs into single
biased 3x3 convolutions and fold every conv+BN pair graph-wide.

The deploy form is built by `model.build_model(..., fused=True)`; this module only
writes folded arrays into it. Inputs are never mutated, so a fused graph can be
compared side by side with its source.
"""
from __future__ import annotations

import numpy as np

from .blocks import Composite, ConvBlock, RepConvBlock
from .errors import NumericError
from .model import ModelGraph, build_model
from .tensor_ops import DTYPE, BatchNormParams, bn_scale_shift


def _fold64(w, bn: BatchNormParams):
    """Float64 weights and bias of a bias-free conv `w` followed by `bn`:
    w * scale and the shift of `bn_scale_shift`."""
    if np.any(bn.var.astype(np.float64) + bn.eps <= 0):
        raise NumericError("variance + eps must be positive to fold a batch norm")
    scale, shift = bn_scale_shift(bn)
    w64 = w.astype(np.float64)
    w64 *= scale[:, None, None, None]  # in place: the fill's peak memory holds one copy
    return w64, shift


def _conv64(cb: ConvBlock):
    """Weights and bias of a conv block with its BN folded in, if it has one."""
    return (cb.w, cb.b) if cb.bn is None else _fold64(cb.w, cb.bn)


def _repconv64(blk: RepConvBlock):
    """Float64 weights and bias of a RepConv's deploy conv. Each branch becomes
    a 3x3 kernel (the 1x1 at the centre, the average pool as 1/9 on the
    channel diagonal), has its BN folded, and the branches are summed, 3x3
    first."""
    k3, k1 = blk.branch_3x3, blk.branch_1x1
    centre = np.zeros(k3.w.shape, dtype=DTYPE)
    centre[:, :, 1, 1] = k1.w[:, :, 0, 0]
    ninths = np.zeros(k3.w.shape, dtype=DTYPE)
    ninths[np.arange(blk.out_ch), np.arange(blk.out_ch)] = 1.0 / 9.0
    (w3, b3), (w1, b1), (wa, ba) = (_fold64(k3.w, k3.bn), _fold64(centre, k1.bn),
                                    _fold64(ninths, blk.branch_avg.bn))
    return w3 + w1 + wa, b3 + b1 + ba


def _write(dst: ConvBlock, w, b, name: str) -> ConvBlock:
    """Store `w` and `b` in the BN-free conv `dst` as float32."""
    dst.w[...], dst.b[...] = w, b
    if not (np.isfinite(dst.w).all() and np.isfinite(dst.b).all()):
        raise NumericError(f"the fold of {name} has non-finite weights or bias; "
                           f"check the weights")
    return dst


def deploy_repconv(blk: RepConvBlock) -> ConvBlock:
    """Deploy form of a RepConv: one biased 3x3 conv followed by its SiLU."""
    return _write(ConvBlock(blk.out_ch, blk.out_ch, 3, bn=False), *_repconv64(blk), "a RepConv")


def fold_conv_block(cb: ConvBlock) -> ConvBlock:
    """BN folded into the conv; BN-free blocks are copied unchanged."""
    s = cb.spec
    twin = ConvBlock(s.in_ch, s.out_ch, s.kernel, s.stride, s.padding, s.dilation, s.groups,
                     bn=False, act=cb.act)
    return _write(twin, *_conv64(cb), "a conv")


def fold_into(src, dst, name: str) -> None:
    """Write the float32 fold of block `src` into `dst`, its twin in a fused
    build: a RepConv gets its branch sum, a conv its BN fold (or a copy), a
    composite recurses over its children, and any other leaf is copied.
    A non-finite fold raises NumericError naming `name` or its child."""
    if isinstance(src, RepConvBlock):
        _write(dst, *_repconv64(src), name)
    elif isinstance(src, ConvBlock):
        _write(dst, *_conv64(src), name)
    elif isinstance(src, Composite):
        for (prefix, s), (_, d) in zip(src.children(), dst.children()):
            fold_into(s, d, f"{name}.{prefix}")
    else:
        for (_, a), (_, b) in zip(src.named_arrays(), dst.named_arrays()):
            b[...] = a


def fuse_model_graph(g: ModelGraph) -> ModelGraph:
    """The deploy form of `g`: a fused build filled with the folds of its
    blocks. Idempotent: on a fused graph every fold is a copy."""
    fused = build_model(g.variant, g.nc, fused=True)
    for src, dst in zip(g.params, fused.params):
        fold_into(src.block, dst.block, src.name)
    return fused
