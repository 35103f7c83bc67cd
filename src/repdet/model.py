"""Model graphs: assembly of the baseline and improved detectors, forward
evaluation, parameter/MAC accounting, deterministic init, and weight IO.

A graph is an ordered tuple of nodes; every edge references an earlier node or
the reserved input "image". A block node's kind is its block's `kind`. A block
registers in the graph's param table at the first node that holds it, so
weights shared by several nodes (the lightweight head's RepConv stack and its
box/cls convs) are stored and counted exactly once. One dispatch, `walk`, runs
every node and yields each output; the per-node shapes of the profile come
from that walk over an empty batch, so no shape is stated beside the kernels.
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
    nodes: tuple
    params: tuple
    outputs: tuple
    cfg: HeadConfig

    def node_map(self) -> dict:
        return {n.name: n for n in self.nodes}


# blockless kinds: each forward takes the list of input tensors
GLUE = {
    "add": add_n,
    "silu": lambda t: silu(t[0]),
    "upsample": lambda t: upsample_nearest2x(t[0]),
    "concat": concat_channels,
}


class _Builder:
    """Collects the nodes and the param table. A block's parameters register
    at the first node that holds it, under that node's name or `owner`."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: list[ParamEntry] = []
        self.held: set = set()  # ids of the blocks in `params`, and of a RepConv's branches

    def register(self, block, name) -> None:
        if id(block) not in self.held:
            self.held.add(id(block))
            self.params.append(ParamEntry(name, block))

    def add(self, name, op, inputs, group=None, owner=None):
        """Append a node running `op`: a block, whose `kind` is the node's, or
        a glue kind."""
        if isinstance(op, str):
            self.nodes.append(Node(name, op, tuple(inputs), None, group))
        else:
            self.nodes.append(Node(name, op.kind, tuple(inputs), op, group))
            self.register(op, owner or name)
        return name

    def wire_repconv(self, rep, stack, level, x):
        """Wire a RepConv application site; the first site registers the whole
        stack under `head.<stack>`. A deploy-form stack is one conv node, a
        train-form one expands into its branch subgraph, whose nodes register
        nothing."""
        base, owner = f"head.{level}.{stack}", f"head.{stack}"
        if isinstance(rep, ConvBlock):
            return self.add(base, rep, [x], owner=owner)
        gid = f"head.{stack}@{level}"
        self.register(rep, owner)
        self.held.update(id(child) for _, child in rep.children())
        branches = [self.add(f"{base}.{prefix}", child, [x], group=gid)
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
    ms = "multiscale" if improved else "standard"

    x = INPUT
    x = b.add("backbone.conv0", ConvBlock(3, 16, 3, 2, bn=bn), [x])
    x = b.add("backbone.conv1", ConvBlock(16, 32, 3, 2, bn=bn), [x])
    x = b.add("backbone.c2f2", C2f(32, 32, 1, shortcut=True, bn=bn), [x])
    x = b.add("backbone.conv3", ConvBlock(32, 64, 3, 2, bn=bn), [x])
    p3b = b.add("backbone.c2f4", C2f(64, 64, 2, shortcut=True, bn=bn), [x])
    x = b.add("backbone.conv5", ConvBlock(64, 128, 3, 2, bn=bn), [p3b])
    p4b = b.add("backbone.c2f6", C2f(128, 128, 2, shortcut=True, variant=ms, bn=bn), [x])
    x = b.add("backbone.conv7", ConvBlock(128, 256, 3, 2, bn=bn), [p4b])
    x = b.add("backbone.c2f8", C2f(256, 256, 1, shortcut=True, variant=ms, bn=bn), [x])
    x = b.add("backbone.sppf", SPPF(256, bn), [x])

    if improved:
        # strip-conv attention unit gating the backbone tail, with a residual
        a = b.add("attn.proj_in", ConvBlock(256, 256, 1, bn=False, act="silu"), [x])
        a = b.add("attn.msca", MSCABlock(256), [a])
        a = b.add("attn.proj_out", ConvBlock(256, 256, 1, bn=False, act="none"), [a])
        x = b.add("attn.add", "add", [x, a])
    p5b = x

    u = b.add("neck.up10", "upsample", [p5b])
    c = b.add("neck.cat11", "concat", [u, p4b])
    n1 = b.add("neck.c2f12", C2f(256 + 128, 128, 1, variant=ms, bn=bn), [c])
    u = b.add("neck.up13", "upsample", [n1])
    c = b.add("neck.cat14", "concat", [u, p3b])
    p3 = b.add("neck.c2f15", C2f(128 + 64, 64, 1, bn=bn), [c])
    d = b.add("neck.conv16", ConvBlock(64, 64, 3, 2, bn=bn), [p3])
    c = b.add("neck.cat17", "concat", [d, n1])
    p4 = b.add("neck.c2f18", C2f(128 + 64, 128, 1, variant=ms, bn=bn), [c])
    d = b.add("neck.conv19", ConvBlock(128, 128, 3, 2, bn=bn), [p4])
    c = b.add("neck.cat20", "concat", [d, p5b])
    p5 = b.add("neck.c2f21", C2f(256 + 128, 256, 1, variant=ms, bn=bn), [c])

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
            t = b.add(f"head.{level}.stem", ConvBlock(ch, h, 1, bn=bn), [tap])
            t = b.wire_repconv(rep1, "rep1", level, t)
            t = b.wire_repconv(rep2, "rep2", level, t)
            box = b.add(f"head.{level}.box", box_conv, [t], owner="head.box")
            box = b.add(f"head.{level}.scale", ScaleParam(), [box])
            cls = b.add(f"head.{level}.cls", cls_conv, [t], owner="head.cls")
            outputs.append(b.add(f"head.{level}.out", "concat", [box, cls]))
    else:
        # decoupled per-level head: independent box and class towers
        hid = cfg.cls_hidden
        for level, tap, ch in levels:
            x = b.add(f"head.{level}.box1", ConvBlock(ch, 64, 3, bn=bn), [tap])
            x = b.add(f"head.{level}.box2", ConvBlock(64, 64, 3, bn=bn), [x])
            box = b.add(f"head.{level}.box3",
                        ConvBlock(64, cfg.box_channels, 1, bn=False, act="none"), [x])
            x = b.add(f"head.{level}.cls1", ConvBlock(ch, hid, 3, bn=bn), [tap])
            x = b.add(f"head.{level}.cls2", ConvBlock(hid, hid, 3, bn=bn), [x])
            cls = b.add(f"head.{level}.cls3", ConvBlock(hid, cfg.nc, 1, bn=False, act="none"), [x])
            outputs.append(b.add(f"head.{level}.out", "concat", [box, cls]))

    return ModelGraph(variant, tuple(b.nodes), tuple(b.params), tuple(outputs), cfg)


def walk(g: ModelGraph, x: np.ndarray):
    """The one node dispatch, behind forward, profile_graph and the CLI's
    non-finite diagnosis: yields (node, output) for every node of `g` in
    order, on input `x` as float32. The walk drops its own reference
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
    # a norm's mean and var are frozen statistics, not learnable parameters
    return sum(prod(shape) for _, _, attr, shape in block.shaped_slots()
               if attr not in ("mean", "var"))


def _block_macs(block, out_shape) -> int:
    """Every conv weight (slot "w", as in seed_weights) of a block is
    applied once at each output pixel (see `blocks.Composite`)."""
    n, _, h, w = out_shape
    return n * h * w * sum(prod(shape) for _, _, attr, shape in block.shaped_slots()
                           if attr == "w")


def profile_graph(g: ModelGraph):
    """Per-node output shape, parameter and MAC accounting at batch 1 on the
    square network input (`HeadConfig.input_size`). The shapes come from a
    forward over a batch of no images, which does no arithmetic, so each is
    the shape the kernels give. A block's parameters count at the first node
    holding it; its MACs count at every node that runs it.
    Returns (rows, total_params, total_macs)."""
    seen = set()
    rows = []
    size = g.cfg.input_size
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
    """Deterministically initialize every parameter, binding a new array into
    each slot, so arrays the graph shared with a store are left as they were.
    Conv weights are uniform within +/- sqrt(1/fan_in) from a PCG64 stream;
    norms start at identity, biases at zero, scales at one."""
    rng = np.random.default_rng(seed)
    for _, owner, attr, shape in _slots(g):
        if attr == "w":
            bound = float(np.sqrt(1.0 / prod(shape[1:])))
            arr = rng.uniform(-bound, bound, shape).astype(DTYPE)
        elif attr in ("gamma", "var", "s"):
            arr = np.ones(shape, DTYPE)
        else:  # b, beta, mean
            arr = np.zeros(shape, DTYPE)
        setattr(owner, attr, arr)


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
    to one writes to the other, until `seed_weights` binds new ones."""
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
        return g.variant, g.cfg.nc, g.outputs, [(n.name, n.kind, n.inputs, n.group) for n in g.nodes]

    pairs = zip_longest(named_tensors(g1), named_tensors(g2), fillvalue=(None, None))
    return layout(g1) == layout(g2) and all(
        n1 == n2 and np.array_equal(a1, a2) for (n1, a1), (n2, a2) in pairs)
