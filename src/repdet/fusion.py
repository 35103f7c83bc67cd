"""Structural-reparameterization pass: collapse multi-branch RepConvs into single
biased 3x3 convolutions and fold every conv+BN pair graph-wide.

All transforms build new blocks and a new graph; inputs are never mutated, so a
fused graph can be compared side by side with its source.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .blocks import Composite, ConvBlock, RepConvBlock
from .errors import NumericError, ShapeError, SpecError
from .model import ModelGraph, Node, ParamEntry, _validate_graph
from .tensor_ops import DTYPE, BatchNormParams


@dataclass(frozen=True)
class FusedConv:
    """Weights and bias of a collapsed RepConv: one 3x3 kernel per branch sum."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise NumericError("fused conv contains non-finite entries")


def _fold64(w, b, bn: BatchNormParams):
    var = bn.var.astype(np.float64) + bn.eps
    if np.any(var <= 0):
        raise NumericError("variance + eps must be positive to fold a batch norm")
    scale = bn.gamma.astype(np.float64) / np.sqrt(var)
    w2 = w.astype(np.float64) * scale[:, None, None, None]
    b0 = np.zeros(len(scale)) if b is None else b.astype(np.float64)
    b2 = bn.beta.astype(np.float64) + (b0 - bn.mean.astype(np.float64)) * scale
    return w2, b2


def fuse_conv_bn(w: np.ndarray, b, bn: BatchNormParams):
    """Fold BN into conv weights: w' = w*g/sqrt(v+eps), b' = beta + (b-mu)*g/sqrt(v+eps)."""
    if w.shape[0] != bn.channels:
        raise ShapeError(f"channel axis: conv has {w.shape[0]} outputs, bn has {bn.channels}")
    w2, b2 = _fold64(w, b, bn)
    return w2.astype(DTYPE), b2.astype(DTYPE)


def lower_1x1_to_3x3(k: np.ndarray) -> np.ndarray:
    """Embed a 1x1 kernel at the center of a zero 3x3 kernel."""
    if k.shape[2:] != (1, 1):
        raise SpecError(f"expected a 1x1 kernel, got {k.shape[2:]}")
    out = np.zeros((k.shape[0], k.shape[1], 3, 3), dtype=k.dtype)
    out[:, :, 1, 1] = k[:, :, 0, 0]
    return out


def avg_kernel_3x3(channels: int) -> np.ndarray:
    """3x3 conv weights equal to a stride-1 average pool with padding counted:
    1/9 on the diagonal channel pattern, zero elsewhere."""
    w = np.zeros((channels, channels, 3, 3), dtype=DTYPE)
    idx = np.arange(channels)
    w[idx, idx] = 1.0 / 9.0
    return w


def fuse_repconv(blk: RepConvBlock) -> FusedConv:
    """Fold each branch's BN, lower non-3x3 branches to 3x3, and sum."""
    b3, b1 = blk.branch_3x3, blk.branch_1x1
    if b3.spec.out_ch != b1.spec.out_ch or b3.spec.in_ch != b1.spec.in_ch:
        raise ShapeError("branch shapes disagree")
    w, b = _fold64(b3.w, None, b3.bn)
    w1, bias1 = _fold64(lower_1x1_to_3x3(b1.w), None, b1.bn)
    w, b = w + w1, b + bias1
    if blk.branch_avg is not None:
        wa, ba = _fold64(avg_kernel_3x3(blk.out_ch), None, blk.branch_avg.bn)
        w, b = w + wa, b + ba
    return FusedConv(w.astype(DTYPE), b.astype(DTYPE))


def deploy_repconv(blk: RepConvBlock) -> ConvBlock:
    """Deploy form of a RepConv: one biased 3x3 conv followed by its SiLU."""
    fc = fuse_repconv(blk)
    spec = replace(blk.branch_3x3.spec, has_bias=True)
    return ConvBlock.from_parts(spec, fc.weights, fc.bias, None, "silu")


def fold_conv_block(cb: ConvBlock) -> ConvBlock:
    """BN folded into the conv; BN-free blocks are copied unchanged."""
    if cb.bn is None:
        b = None if cb.b is None else cb.b.copy()
        return ConvBlock.from_parts(cb.spec, cb.w.copy(), b, None, cb.act)
    w, b = fuse_conv_bn(cb.w, cb.b, cb.bn)
    return ConvBlock.from_parts(replace(cb.spec, has_bias=True), w, b, None, cb.act)


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
