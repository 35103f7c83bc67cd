"""Tracing for the benchmark's traced run: in-memory spans, timed wrappers
around the tensor kernels the blocks call, and a per-node forward walk.

Nothing here edits the engine. Kernel timing replaces the names that
`repdet.blocks` imported from `repdet.tensor_ops` for the duration of a
`KernelTimer` context and restores them on exit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repdet import blocks, model, tensor_ops

# kernels referenced from repdet.blocks; conv2d is timed on its own
BLOCK_KERNELS = ("conv2d", "batch_norm_inference", "pool2d", "silu", "concat_channels",
                 "split_channels", "elementwise")
GLUE_KINDS = ("add", "silu", "upsample", "concat")
BLOCK_KINDS = ("conv", "c2f", "c2f_ms", "sppf", "msca", "avgpool_bn", "scale")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, None for a root
    image: int | None   # image id shared by every span of one image
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory in creation order; written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []

    def add(self, name, start, end, parent=None, image=None, **attrs) -> int:
        self.spans.append(Span(name, start, end, parent, image, attrs))
        return len(self.spans) - 1

    def to_rows(self):
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "image": s.image, **s.attrs} for s in self.spans]


@dataclass
class KernelStats:
    conv_calls: int = 0
    conv_s: float = 0.0
    conv_macs: int = 0
    other_s: float = 0.0


def _conv_macs(out: np.ndarray, spec) -> int:
    return int(out.size) * (spec.in_ch // spec.groups) * spec.kernel[0] * spec.kernel[1]


class KernelTimer:
    """Context manager that times every kernel call made through repdet.blocks,
    plus the glue kernels the walk calls through `self.glue`."""

    def __init__(self):
        self.stats = KernelStats()
        self._saved = {}
        self.glue = {name: self._timed(getattr(tensor_ops, name))
                     for name in ("silu", "upsample_nearest2x", "concat_channels")}

    def _timed(self, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            stats.other_s += perf_counter() - t0
            return out

        return wrapper

    def _timed_conv(self, fn):
        stats = self.stats

        def conv2d(x, spec, weights, bias=None):
            t0 = perf_counter()
            out = fn(x, spec, weights, bias)
            stats.conv_s += perf_counter() - t0
            stats.conv_calls += 1
            stats.conv_macs += _conv_macs(out, spec)
            return out

        return conv2d

    def take(self) -> KernelStats:
        """Counts since the last take, then start from zero."""
        done = KernelStats(**vars(self.stats))
        vars(self.stats).update(vars(KernelStats()))
        return done

    def __enter__(self):
        for name in BLOCK_KERNELS:
            original = getattr(blocks, name)
            self._saved[name] = original
            wrapped = self._timed_conv(original) if name == "conv2d" else self._timed(original)
            setattr(blocks, name, wrapped)
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(blocks, name, original)
        self._saved.clear()
        return False


UNTIMED_GLUE = {name: getattr(tensor_ops, name)
                for name in ("silu", "upsample_nearest2x", "concat_channels")}


def walk(g, x, glue=None):
    """Evaluate `g` node by node through each block's public `forward`.

    Returns (head maps, rows) where each row is (node, start, end, output
    bytes) with perf_counter stamps.
    The glue arithmetic matches `model.run_graph`, so the head maps are
    bit-identical to `model.forward(g, x)`."""
    glue = glue or UNTIMED_GLUE
    vals = {model.INPUT: np.asarray(x, dtype=tensor_ops.DTYPE)}
    rows = []
    for node in g.nodes:
        ins = [vals[i] for i in node.inputs]
        t0 = perf_counter()
        if node.block is not None:
            v = node.block.forward(ins[0])
        elif node.kind == "add":
            acc = ins[0].astype(np.float64)
            for t in ins[1:]:
                acc = acc + t.astype(np.float64)
            v = acc.astype(tensor_ops.DTYPE)
        elif node.kind == "silu":
            v = glue["silu"](ins[0])
        elif node.kind == "upsample":
            v = glue["upsample_nearest2x"](ins[0])
        elif node.kind == "concat":
            v = glue["concat_channels"](ins)
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")
        rows.append((node, t0, perf_counter(), int(v.nbytes)))
        vals[node.name] = v
    return tuple(vals[name] for name in g.outputs), rows
