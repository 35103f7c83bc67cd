"""Structural-reparameterization pass: collapse multi-branch RepConvs into single
biased 3x3 convolutions and fold every conv+BN pair graph-wide.

The deploy form is built by `model.build_model(..., fused=True)`; this module only
writes folded arrays into it. Inputs are never mutated, so a fused graph can be
compared side by side with its source.

One pass walks every train leaf (a conv, a RepConv, a scale) with its deploy
twin, recursing wherever the twin is a composite. Every batch norm's float64
affine comes from one `bn_scale_shift` over the concatenated statistics of all
the norms folded; a conv's fold is one float64 multiply rounded into its twin.
Errors name the first failing leaf in walk order.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .blocks import Composite, ConvBlock, RepConvBlock
from .errors import NumericError
from .model import ModelGraph, build_model
from .tensor_ops import BN_EPS, DTYPE, bn_scale_shift


def _leaves(src, dst, name: str):
    """(name, train leaf, deploy twin) under a block pair, in weight-name
    order. The walk follows the twin, so a RepConv is one leaf: its twin is
    one conv."""
    if isinstance(dst, Composite):
        for (prefix, s), (_, d) in zip(src.children(), dst.children()):
            yield from _leaves(s, d, f"{name}.{prefix}")
    else:
        yield name, src, dst


def _norms(leaf) -> list:
    """The batch norms folded into a leaf's twin, in fold order."""
    if isinstance(leaf, RepConvBlock):
        return [branch.bn for _, branch in leaf.children()]
    return [leaf.bn] if isinstance(leaf, ConvBlock) and leaf.bn is not None else []


def _affines(norms: list):
    """Float64 (scale, shift) of each norm in turn, all from one
    `bn_scale_shift` over the concatenated statistics. A norm with
    var + BN_EPS <= 0 raises when its turn comes; no norm after it is computed."""
    stats = {k: np.concatenate([getattr(bn, k) for bn in norms])
             for k in ("gamma", "beta", "mean", "var")}
    bad = stats["var"].astype(np.float64) + BN_EPS <= 0
    starts = np.cumsum([0] + [bn.channels for bn in norms])
    failing = int(np.searchsorted(starts, bad.argmax(), "right")) - 1 if bad.any() else len(norms)
    scale, shift = bn_scale_shift(SimpleNamespace(**{k: v[:starts[failing]]
                                                     for k, v in stats.items()}))
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        if i == failing:
            raise NumericError("variance + eps must be positive to fold a batch norm")
        yield scale[a:b], shift[a:b]


def _fold64(w, affine):
    """Float64 weights and bias of a bias-free conv `w` under a norm's affine."""
    scale, shift = affine
    return np.multiply(w, scale[:, None, None, None], dtype=np.float64), shift


def _repconv64(blk: RepConvBlock, affines):
    """Float64 weights and bias of a RepConv's deploy conv. Each branch becomes
    a 3x3 kernel (the 1x1 at the centre, the average pool as 1/9 on the
    channel diagonal), has its BN folded, and the branches are summed, 3x3
    first."""
    k3, k1 = blk.branch_3x3, blk.branch_1x1
    centre = np.zeros(k3.w.shape, dtype=DTYPE)
    centre[:, :, 1, 1] = k1.w[:, :, 0, 0]
    ninths = np.zeros(k3.w.shape, dtype=DTYPE)
    ninths[np.arange(blk.out_ch), np.arange(blk.out_ch)] = 1.0 / 9.0
    (w3, b3), (w1, b1), (wa, ba) = (_fold64(k3.w, next(affines)), _fold64(centre, next(affines)),
                                    _fold64(ninths, next(affines)))
    return w3 + w1 + wa, b3 + b1 + ba


def _fold(leaves) -> None:
    """Write the float32 fold of every (name, train leaf, twin) into the twin:
    a RepConv gets its branch sum, a conv its BN fold, any other leaf (a
    BN-free conv, a scale) a copy of each array. A fold arm binds a new twin
    weight, so no zero-filled weight is made; the copy arm binds copies, so
    the twin shares no array with its source. A non-finite conv twin raises
    NumericError naming the leaf."""
    leaves = list(leaves)
    affines = _affines([bn for _, src, _ in leaves for bn in _norms(src)])
    for name, src, dst in leaves:
        if isinstance(src, RepConvBlock):
            dst.w = np.empty(dst.spec.weight_shape, DTYPE)
            dst.w[...], dst.b[...] = _repconv64(src, affines)
        elif isinstance(src, ConvBlock) and src.bn is not None:
            scale, shift = next(affines)
            dst.w = np.multiply(src.w, scale[:, None, None, None], dtype=np.float64,
                                out=np.empty(dst.spec.weight_shape, DTYPE))
            dst.b[...] = shift
        else:
            for (_, owner, attr, _), (_, *source, _) in zip(dst.shaped_slots(), src.shaped_slots()):
                setattr(owner, attr, np.array(getattr(*source), DTYPE))
        if isinstance(dst, ConvBlock) and not (np.isfinite(dst.w).all() and np.isfinite(dst.b).all()):
            raise NumericError(f"the fold of {name} has non-finite weights or bias; "
                               f"check the weights")


def deploy_repconv(blk: RepConvBlock) -> ConvBlock:
    """Deploy form of a RepConv: one biased 3x3 conv followed by its SiLU."""
    twin = ConvBlock(blk.out_ch, blk.out_ch, 3, bn=False)
    _fold(_leaves(blk, twin, "a RepConv"))
    return twin


def fuse_model_graph(g: ModelGraph) -> ModelGraph:
    """The deploy form of `g`: a fused build filled with the folds of its
    blocks in one pass. Idempotent: on a fused graph every fold is a copy."""
    fused = build_model(g.variant, g.cfg.nc, fused=True)
    _fold(leaf for src, dst in zip(g.params, fused.params)
          for leaf in _leaves(src.block, dst.block, src.name))
    return fused
