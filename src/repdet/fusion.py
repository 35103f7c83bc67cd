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
from .tensor_ops import DTYPE, BatchNormParams


def _fold64(w, bn: BatchNormParams):
    """Float64 weights and bias of a bias-free conv `w` followed by `bn`:
    w' = w*g/sqrt(v+eps), b' = beta - mu*g/sqrt(v+eps)."""
    var = bn.var.astype(np.float64) + bn.eps
    if np.any(var <= 0):
        raise NumericError("variance + eps must be positive to fold a batch norm")
    scale = bn.gamma.astype(np.float64) / np.sqrt(var)
    return (w.astype(np.float64) * scale[:, None, None, None],
            bn.beta.astype(np.float64) - bn.mean.astype(np.float64) * scale)


def deploy_repconv(blk: RepConvBlock) -> ConvBlock:
    """Deploy form of a RepConv: one biased 3x3 conv followed by its SiLU.
    Each branch becomes a 3x3 kernel (the 1x1 at the centre, the average pool
    as 1/9 on the channel diagonal), has its BN folded, and the branches are
    summed in float64, 3x3 first."""
    k3, k1 = blk.branch_3x3, blk.branch_1x1
    centre = np.zeros(k3.w.shape, dtype=DTYPE)
    centre[:, :, 1, 1] = k1.w[:, :, 0, 0]
    branches = [(k3.w, k3.bn), (centre, k1.bn)]
    if blk.branch_avg is not None:
        ninths = np.zeros(k3.w.shape, dtype=DTYPE)
        ninths[np.arange(blk.out_ch), np.arange(blk.out_ch)] = 1.0 / 9.0
        branches.append((ninths, blk.branch_avg.bn))
    ws, bs = zip(*(_fold64(k, bn) for k, bn in branches))
    w, b = sum(ws[1:], ws[0]).astype(DTYPE), sum(bs[1:], bs[0]).astype(DTYPE)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise NumericError("fused RepConv contains non-finite entries")
    return ConvBlock.from_parts(replace(k3.spec, has_bias=True), w, b, None, "silu")


def fold_conv_block(cb: ConvBlock) -> ConvBlock:
    """BN folded into the conv; BN-free blocks are copied unchanged."""
    if cb.bn is None:
        b = None if cb.b is None else cb.b.copy()
        return ConvBlock.from_parts(cb.spec, cb.w.copy(), b, None, cb.act)
    w, b = _fold64(cb.w, cb.bn)
    return ConvBlock.from_parts(replace(cb.spec, has_bias=True), w.astype(DTYPE),
                                b.astype(DTYPE), None, cb.act)


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
