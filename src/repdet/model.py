"""Model graphs: assembly of the baseline and improved detectors, forward
evaluation, parameter/MAC accounting, deterministic init, and weight IO.

A graph is an ordered tuple of nodes; every edge references an earlier node or
the reserved input "image". Parameter-bearing blocks are registered once in the
graph's param table under a canonical name, so weights shared by several nodes
(the lightweight head's RepConv stack and its box/cls convs) are stored and
counted exactly once. One dispatch, `walk`, runs every node and yields each
output; the per-node shapes of the profile come from that walk over an empty
batch, so no shape is stated beside the kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import prod

import numpy as np

from .blocks import (
    C2f,
    ConvBlock,
    HeadConfig,
    MSCABlock,
    RepConvBlock,
    SPPF,
    ScaleParam,
)
from .errors import SpecError, ValidationError
from .tensor_ops import DTYPE, add_n, concat_channels, silu, upsample_nearest2x
from .weights import WeightStore

INPUT = "image"

# node counts at 640x640, nc arbitrary (structure does not depend on nc)
BASELINE_NODE_COUNT = 43
IMPROVED_NODE_COUNT = 71
IMPROVED_FUSED_NODE_COUNT = 47

# suffixes that are frozen statistics, not learnable parameters
_STAT_SUFFIXES = ("bn.mean", "bn.var")


@dataclass(frozen=True)
class Node:
    name: str
    kind: str
    inputs: tuple = ()
    block: object = None
    group: str | None = None


@dataclass(frozen=True)
class ParamEntry:
    """Canonical parameter prefix -> block."""

    name: str
    block: object


@dataclass(frozen=True)
class ModelGraph:
    variant: str
    nc: int
    nodes: tuple
    params: tuple
    outputs: tuple
    cfg: HeadConfig

    def node_map(self) -> dict:
        return {n.name: n for n in self.nodes}


# kinds of nodes that carry a block; the block's forward runs them
BLOCK_KINDS = ("conv", "c2f", "c2f_ms", "sppf", "msca", "avgpool_bn", "scale")

# blockless kinds: each forward takes the list of input tensors. The lambdas
# look each kernel up when called, so a test can swap in another
GLUE = {
    "add": lambda t: add_n(t),
    "silu": lambda t: silu(t[0]),
    "upsample": lambda t: upsample_nearest2x(t[0]),
    "concat": lambda t: concat_channels(t),
}


def _validate_graph(nodes, outputs) -> None:
    seen = {INPUT}
    for node in nodes:
        if node.name in seen:
            raise SpecError(f"duplicate node name {node.name!r}")
        if node.kind not in (GLUE if node.block is None else BLOCK_KINDS):
            raise SpecError(f"node {node.name!r}: unknown kind {node.kind!r}")
        for ref in node.inputs:
            if ref not in seen:
                raise SpecError(f"node {node.name!r} references {ref!r} before definition")
        seen.add(node.name)
    if len(outputs) != 3:
        raise SpecError(f"expected 3 output nodes, got {len(outputs)}")
    for out in outputs:
        if out not in seen:
            raise SpecError(f"output {out!r} is not a node")


class _Builder:
    def __init__(self):
        self.nodes: list[Node] = []
        self.params: list[ParamEntry] = []

    def add(self, name, kind, inputs, block=None, group=None, register=True, owner=None):
        self.nodes.append(Node(name, kind, tuple(inputs), block, group))
        if block is not None and register:
            self.params.append(ParamEntry(owner or name, block))
        return name

    def wire_repconv(self, rep, stack, level, x, first):
        """Wire a RepConv application site; the first site registers the whole
        stack under `head.<stack>`. A deploy-form stack is one conv node, a
        train-form one expands into its branch subgraph."""
        base = f"head.{level}.{stack}"
        if isinstance(rep, ConvBlock):
            return self.add(base, "conv", [x], rep, register=first, owner=f"head.{stack}")
        gid = f"head.{stack}@{level}"
        if first:
            self.params.append(ParamEntry(f"head.{stack}", rep))
        branches = [self.add(f"{base}.{prefix}", "conv" if isinstance(child, ConvBlock)
                             else "avgpool_bn", [x], child, group=gid, register=False)
                    for prefix, child in rep.children()]
        s = self.add(f"{base}.sum", "add", branches, group=gid)
        return self.add(f"{base}.act", "silu", [s], group=gid)


def build_model(variant: str, nc: int = 3, fused: bool = False) -> ModelGraph:
    """Assemble the detector graph. The improved variant swaps the last two
    backbone C2f stages and neck stages 1/3/4 to the split-path conv variant,
    gates the backbone tail with strip-conv attention, and replaces the
    decoupled head with the shared reparameterizable head. With `fused`, the
    graph is built in deploy form: every conv BN-free with a bias, and each
    RepConv site one biased 3x3 conv node with SiLU."""
    if variant not in ("baseline", "improved"):
        raise SpecError(f"unknown model variant {variant!r}")
    improved = variant == "improved"
    cfg = HeadConfig(nc=nc)
    b = _Builder()
    bn = not fused

    def c2f_kind(ms):
        return "c2f_ms" if ms else "c2f"

    def c2f_variant(ms):
        return "multiscale" if ms else "standard"

    x = INPUT
    x = b.add("backbone.conv0", "conv", [x], ConvBlock(3, 16, 3, 2, bn=bn))
    x = b.add("backbone.conv1", "conv", [x], ConvBlock(16, 32, 3, 2, bn=bn))
    x = b.add("backbone.c2f2", "c2f", [x], C2f(32, 32, 1, shortcut=True, bn=bn))
    x = b.add("backbone.conv3", "conv", [x], ConvBlock(32, 64, 3, 2, bn=bn))
    p3b = b.add("backbone.c2f4", "c2f", [x], C2f(64, 64, 2, shortcut=True, bn=bn))
    x = b.add("backbone.conv5", "conv", [p3b], ConvBlock(64, 128, 3, 2, bn=bn))
    p4b = b.add("backbone.c2f6", c2f_kind(improved), [x],
                C2f(128, 128, 2, shortcut=True, variant=c2f_variant(improved), bn=bn))
    x = b.add("backbone.conv7", "conv", [p4b], ConvBlock(128, 256, 3, 2, bn=bn))
    x = b.add("backbone.c2f8", c2f_kind(improved), [x],
              C2f(256, 256, 1, shortcut=True, variant=c2f_variant(improved), bn=bn))
    x = b.add("backbone.sppf", "sppf", [x], SPPF(256, bn))

    if improved:
        # strip-conv attention unit gating the backbone tail, with a residual
        a = b.add("attn.proj_in", "conv", [x], ConvBlock(256, 256, 1, bn=False, act="silu"))
        a = b.add("attn.msca", "msca", [a], MSCABlock(256))
        a = b.add("attn.proj_out", "conv", [a], ConvBlock(256, 256, 1, bn=False, act="none"))
        x = b.add("attn.add", "add", [x, a])
    p5b = x

    u = b.add("neck.up10", "upsample", [p5b])
    c = b.add("neck.cat11", "concat", [u, p4b])
    n1 = b.add("neck.c2f12", c2f_kind(improved), [c],
               C2f(256 + 128, 128, 1, variant=c2f_variant(improved), bn=bn))
    u = b.add("neck.up13", "upsample", [n1])
    c = b.add("neck.cat14", "concat", [u, p3b])
    p3 = b.add("neck.c2f15", "c2f", [c], C2f(128 + 64, 64, 1, bn=bn))
    d = b.add("neck.conv16", "conv", [p3], ConvBlock(64, 64, 3, 2, bn=bn))
    c = b.add("neck.cat17", "concat", [d, n1])
    p4 = b.add("neck.c2f18", c2f_kind(improved), [c],
               C2f(128 + 64, 128, 1, variant=c2f_variant(improved), bn=bn))
    d = b.add("neck.conv19", "conv", [p4], ConvBlock(128, 128, 3, 2, bn=bn))
    c = b.add("neck.cat20", "concat", [d, p5b])
    p5 = b.add("neck.c2f21", c2f_kind(improved), [c],
               C2f(256 + 128, 256, 1, variant=c2f_variant(improved), bn=bn))

    outputs = []
    levels = zip(("p3", "p4", "p5"), (p3, p4, p5), cfg.in_channels)
    if improved:
        # one RepConv stack pair and one box/cls conv pair serve every level;
        # the first level registers them, each level adds a stem and a scale
        h = cfg.head_hidden
        rep1, rep2 = (ConvBlock(h, h, 3, bn=False) if fused else RepConvBlock(h)
                      for _ in range(2))
        box_conv = ConvBlock(h, cfg.box_channels, 1, bn=False, act="none")
        cls_conv = ConvBlock(h, cfg.nc, 1, bn=False, act="none")
        for level, tap, ch in levels:
            first = level == "p3"
            t = b.add(f"head.{level}.stem", "conv", [tap], ConvBlock(ch, h, 1, bn=bn))
            t = b.wire_repconv(rep1, "rep1", level, t, first)
            t = b.wire_repconv(rep2, "rep2", level, t, first)
            box = b.add(f"head.{level}.box", "conv", [t], box_conv,
                        register=first, owner="head.box")
            box = b.add(f"head.{level}.scale", "scale", [box], ScaleParam())
            cls = b.add(f"head.{level}.cls", "conv", [t], cls_conv,
                        register=first, owner="head.cls")
            outputs.append(b.add(f"head.{level}.out", "concat", [box, cls]))
    else:
        # decoupled per-level head: independent box and class towers
        hid = cfg.cls_hidden
        for level, tap, ch in levels:
            x = b.add(f"head.{level}.box1", "conv", [tap], ConvBlock(ch, 64, 3, bn=bn))
            x = b.add(f"head.{level}.box2", "conv", [x], ConvBlock(64, 64, 3, bn=bn))
            box = b.add(f"head.{level}.box3", "conv", [x],
                        ConvBlock(64, cfg.box_channels, 1, bn=False, act="none"))
            x = b.add(f"head.{level}.cls1", "conv", [tap], ConvBlock(ch, hid, 3, bn=bn))
            x = b.add(f"head.{level}.cls2", "conv", [x], ConvBlock(hid, hid, 3, bn=bn))
            cls = b.add(f"head.{level}.cls3", "conv", [x],
                        ConvBlock(hid, cfg.nc, 1, bn=False, act="none"))
            outputs.append(b.add(f"head.{level}.out", "concat", [box, cls]))

    _validate_graph(b.nodes, outputs)
    return ModelGraph(variant, nc, tuple(b.nodes), tuple(b.params), tuple(outputs), cfg)


def walk(g: ModelGraph, x: np.ndarray):
    """The one node dispatch, behind run_graph, forward, profile_graph and
    the CLI's non-finite diagnosis: yields (node, output) for every node of
    `g` in order, on input `x` as float32. The walk drops its own reference
    to an output once the last node that reads it has run, so what stays in
    memory is what the caller keeps."""
    vals = {INPUT: np.asarray(x, dtype=DTYPE)}
    last = {ref: step for step, node in enumerate(g.nodes) for ref in node.inputs}
    for step, node in enumerate(g.nodes):
        ins = [vals[ref] for ref in node.inputs]
        out = vals[node.name] = (GLUE[node.kind](ins) if node.block is None
                                 else node.block.forward(ins[0]))
        for ref in node.inputs:
            if last[ref] == step:
                vals.pop(ref, None)
        yield node, out


def run_graph(g: ModelGraph, x: np.ndarray) -> dict:
    """Evaluate every node on input `x`; returns node name -> output for
    every node."""
    return {node.name: out for node, out in walk(g, x)}


def forward(g: ModelGraph, x: np.ndarray):
    """Run the graph and return the three head maps (P3, P4, P5). Each other
    node's output is freed once the last node that reads it has run."""
    maps = {node.name: out for node, out in walk(g, x) if node.name in g.outputs}
    return tuple(maps[name] for name in g.outputs)


@dataclass(frozen=True)
class NodeProfile:
    name: str
    kind: str
    out_shape: tuple
    params: int
    macs: int


def _param_count(block) -> int:
    return sum(prod(shape) for suffix, _, _, shape in block.shaped_slots()
               if not suffix.endswith(_STAT_SUFFIXES))


def _block_macs(block, out_shape) -> int:
    """Every conv weight (leaf name "w", as in init_weights) of a block is
    applied once at each output pixel (see `blocks.Composite`)."""
    n, _, h, w = out_shape
    return n * h * w * sum(prod(shape) for suffix, _, _, shape in block.shaped_slots()
                           if suffix.rsplit(".", 1)[-1] == "w")


def profile_graph(g: ModelGraph, size: int = HeadConfig.input_size):
    """Per-node output shape, parameter and MAC accounting at the given square
    input size and batch 1. The shapes come from a forward over a batch of no
    images, which does no arithmetic, so each is the shape the kernels give.
    A size the forward rejects raises the forward's ShapeError, whose message
    then shows batch 0, as in `(0, 128, 3, 3)`. A block's parameters count at
    the first node holding it; its MACs count at every node that runs it.
    Returns (rows, total_params, total_macs)."""
    seen = set()
    rows = []
    for node, value in walk(g, np.empty((0, 3, size, size), DTYPE)):
        out = (1, *value.shape[1:])
        params = macs = 0
        if node.block is not None:
            macs = _block_macs(node.block, out)
            if id(node.block) not in seen:
                seen.add(id(node.block))
                params = _param_count(node.block)
        rows.append(NodeProfile(node.name, node.kind, out, params, macs))
    return rows, sum(r.params for r in rows), sum(r.macs for r in rows)


def param_count(g: ModelGraph) -> int:
    return sum(_param_count(e.block) for e in g.params)


def flop_count(g: ModelGraph, size: int = HeadConfig.input_size) -> int:
    """Total MACs at the given square input size."""
    return profile_graph(g, size)[2]


def output_shapes(g: ModelGraph, size: int = HeadConfig.input_size):
    """The three head-map shapes at batch 1, as `profile_graph` gives them."""
    shapes = {r.name: r.out_shape for r in profile_graph(g, size)[0]}
    return tuple(shapes[o] for o in g.outputs)


def _slots(g: ModelGraph):
    """(name, owner, attr, shape) of every parameter tensor of `g` in canonical
    order, the array being `getattr(owner, attr)` and `shape` the one its
    block states: the one walk over the weights."""
    for entry in g.params:
        for suffix, owner, attr, shape in entry.block.shaped_slots():
            yield f"{entry.name}.{suffix}", owner, attr, shape


def named_tensors(g: ModelGraph):
    """(name, array) of every parameter tensor of `g`: the graph's own arrays, not copies."""
    return ((name, getattr(owner, attr)) for name, owner, attr, _ in _slots(g))


def seed_weights(g: ModelGraph, seed: int = 0) -> None:
    """Deterministically initialize every parameter. Conv weights are uniform
    within +/- sqrt(1/fan_in) from a PCG64 stream, each draw bound into its
    block; norms start at identity, biases at zero, scales at one, written in
    place."""
    rng = np.random.default_rng(seed)
    for name, owner, attr, shape in _slots(g):
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "w":
            bound = float(np.sqrt(1.0 / prod(shape[1:])))
            setattr(owner, attr, rng.uniform(-bound, bound, shape).astype(DTYPE))
        elif leaf in ("gamma", "var", "s"):
            getattr(owner, attr)[...] = 1.0
        else:  # b, beta, mean
            getattr(owner, attr)[...] = 0.0


def init_weights(g: ModelGraph, seed: int = 0) -> WeightStore:
    """`seed_weights`, then a snapshot store: a copy of the seeded weights."""
    seed_weights(g, seed)
    return collect_weights(g)


def collect_weights(g: ModelGraph) -> WeightStore:
    """A store holding a copy of every parameter tensor of `g`."""
    return WeightStore((name, arr.copy()) for name, arr in named_tensors(g))


def load_weights(g: ModelGraph, store: WeightStore) -> None:
    """Bind the store's arrays into the graph's blocks once every tensor has
    passed its checks, so a failing store leaves the graph untouched. Shapes
    are checked against the shapes the blocks state, so the graph's own
    arrays are never read. The graph and the store then share arrays: writing
    to one writes to the other."""
    binds, variances, fault = {}, [], None
    for name, owner, attr, shape in _slots(g):
        if name not in store:
            fault = f"store is missing tensor {name!r}"
            break
        arr = store[name]
        if arr.shape != shape:
            fault = f"tensor {name!r}: store shape {arr.shape} != graph shape {shape}"
            break
        if attr == "var":
            variances.append((name, arr))
        binds[name] = owner, attr, arr
    # the running variances walked before any other fault, checked in one pass
    if variances and (np.concatenate([arr for _, arr in variances]) < 0).any():
        name = next(name for name, arr in variances if (arr < 0).any())
        raise ValidationError(f"tensor {name!r} holds a negative running variance")
    if fault:
        raise ValidationError(fault)
    if len(binds) != len(store):
        extra = [n for n in store.names() if n not in binds]
        raise ValidationError(f"store has {len(extra)} tensors unknown to the graph: {extra[:5]}")
    for owner, attr, arr in binds.values():
        setattr(owner, attr, arr)


def structurally_equal(g1: ModelGraph, g2: ModelGraph) -> bool:
    """Same layout and the same weight names, in order, with bit-equal arrays
    (used for fusion idempotence)."""
    def layout(g):
        return g.variant, g.nc, g.outputs, [(n.name, n.kind, n.inputs, n.group) for n in g.nodes]

    pairs = zip_longest(named_tensors(g1), named_tensors(g2), fillvalue=(None, None))
    return layout(g1) == layout(g2) and all(
        n1 == n2 and np.array_equal(a1, a2) for (n1, a1), (n2, a2) in pairs)
