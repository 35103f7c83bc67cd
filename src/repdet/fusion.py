"""Structural-reparameterization pass: collapse multi-branch RepConvs into single
biased 3x3 convolutions and fold every conv+BN pair graph-wide.

All transforms build new blocks and a new graph; inputs are never mutated, so a
fused graph can be compared side by side with its source.
"""
from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from .blocks import Composite, ConvBlock, RepConvBlock
from .errors import NumericError
from .model import ModelGraph, Node, ParamEntry, _validate_graph
from .tensor_ops import DTYPE, BatchNormParams, bn_scale_shift


def _fold64(w, bn: BatchNormParams):
    """Float64 weights and bias of a bias-free conv `w` followed by `bn`:
    w * scale and the shift of `bn_scale_shift`."""
    if np.any(bn.var.astype(np.float64) + bn.eps <= 0):
        raise NumericError("variance + eps must be positive to fold a batch norm")
    scale, shift = bn_scale_shift(bn)
    return w.astype(np.float64) * scale[:, None, None, None], shift


def _folded_conv(src: ConvBlock, w, b, act: str) -> ConvBlock:
    """Shallow copy of `src` as a biased conv without batch norm, holding `w`
    and `b` as new float32 arrays and running `act`."""
    w, b = w.astype(DTYPE), b.astype(DTYPE)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise NumericError("a folded conv has non-finite weights or bias; check the weights")
    out = copy.copy(src)
    out.spec = replace(src.spec, has_bias=True)
    out.w, out.b, out.bn, out.act = w, b, None, act
    return out


def deploy_repconv(blk: RepConvBlock) -> ConvBlock:
    """Deploy form of a RepConv: one biased 3x3 conv followed by its SiLU.
    Each branch becomes a 3x3 kernel (the 1x1 at the centre, the average pool
    as 1/9 on the channel diagonal), has its BN folded, and the branches are
    summed in float64, 3x3 first."""
    k3, k1 = blk.branch_3x3, blk.branch_1x1
    centre = np.zeros(k3.w.shape, dtype=DTYPE)
    centre[:, :, 1, 1] = k1.w[:, :, 0, 0]
    ninths = np.zeros(k3.w.shape, dtype=DTYPE)
    ninths[np.arange(blk.out_ch), np.arange(blk.out_ch)] = 1.0 / 9.0
    (w3, b3), (w1, b1), (wa, ba) = (_fold64(k3.w, k3.bn), _fold64(centre, k1.bn),
                                    _fold64(ninths, blk.branch_avg.bn))
    return _folded_conv(k3, w3 + w1 + wa, b3 + b1 + ba, "silu")


def fold_conv_block(cb: ConvBlock) -> ConvBlock:
    """BN folded into the conv; BN-free blocks are copied unchanged."""
    w, b = (cb.w, cb.b) if cb.bn is None else _fold64(cb.w, cb.bn)
    return _folded_conv(cb, w, b, cb.act)


def fold_block(block):
    """New block with every conv+BN pair folded: a ConvBlock folds, a composite
    recurses through its children, and any other leaf is copied."""
    if isinstance(block, ConvBlock):
        return fold_conv_block(block)
    if isinstance(block, Composite):
        return block.replace_children([fold_block(b) for _, b in block.children()])
    return copy.deepcopy(block)


def fuse_model_graph(g: ModelGraph) -> ModelGraph:
    """Replace every RepConv branch subgraph with its fused conv node and fold
    BN graph-wide. Idempotent: a graph without branch groups round-trips."""
    # source block -> its fused form; a RepConv stack is reached through its
    # 3x3 branch, which the k3 node of every site holding the stack carries
    fused: dict[int, object] = {}
    params = []
    for entry in g.params:
        if isinstance(entry.block, RepConvBlock):
            block = fused[id(entry.block.branch_3x3)] = deploy_repconv(entry.block)
        else:
            block = fused[id(entry.block)] = fold_block(entry.block)
        params.append(ParamEntry(entry.name, block))

    rename: dict[str, str] = {}
    nodes: list[Node] = []
    for node in g.nodes:
        inputs = tuple(rename.get(i, i) for i in node.inputs)
        if node.group is None:
            block = None if node.block is None else fused[id(node.block)]
            nodes.append(Node(node.name, node.kind, inputs, block))
        elif node.name.endswith(".k3"):  # the k1/avg/sum/act branch nodes vanish
            base = node.name.rsplit(".", 1)[0]
            nodes.append(Node(base, "conv", inputs, fused[id(node.block)]))
            rename[f"{base}.act"] = base

    outputs = tuple(rename.get(o, o) for o in g.outputs)
    _validate_graph(nodes, outputs)
    return ModelGraph(g.variant, g.nc, tuple(nodes), tuple(params), outputs, g.cfg)
