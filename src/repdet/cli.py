"""Command-line surface: model summaries, baseline/improved comparison, graph
fusion, single-image inference, dataset evaluation, and the embedded selftest.

Exit codes: 0 success, 1 usage error, 2 I/O or format error, 3 verification or
validation failure. All diagnostics go to stderr as one "error: ..." line, and
every output file is written to a temp path and atomically renamed.

`infer`, `eval` and `fuse` accept a train store or a fused store (the one
`fuse --out` writes) and run the graph in the store's form: a store holding any
batch-norm (`.bn.`) tensor is a train store, any other a fused store. A store
that mixes the forms, or matches neither, exits 3 naming one tensor.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import model as M
from .errors import (
    FormatError,
    NumericError,
    ShapeError,
    SpecError,
    ValidationError,
)
from .evaluate import evaluate, load_dataset
from .fileio import write_atomic
from .fusion import fuse_model_graph
from .pipeline import annotate, decode_detections, detections_to_json, letterbox, nms
from .ppm import read_ppm, write_ppm
from .selftest import run_selftest
from .weights import WeightStore

VERIFY_TOLERANCE = 1e-3


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _forward_finite(g, tensor):
    """Head maps of `g` on `tensor`. When one holds NaN or inf, drops them and
    walks the graph again, holding no more than a forward does, up to the
    first node whose output is not finite, which the error names."""
    maps = M.forward(g, tensor)
    if all(np.isfinite(m).all() for m in maps):
        return maps
    del maps
    bad = next(node for node, out in M.walk(g, tensor) if not np.isfinite(out).all())
    raise NumericError(f"non-finite values first appear at node {bad.name} ({bad.kind}); "
                       f"check the weights")


def _detect(g, path, conf, iou, classes=None):
    """The PPM image at `path` and its detections under `g`: letterbox, the
    finite-checked forward, decode at `conf`, then NMS at `iou`."""
    image = read_ppm(path)
    tensor, meta = letterbox(image)
    maps = _forward_finite(g, tensor)
    return image, nms(decode_detections(maps, g.cfg, meta, conf, classes), iou)


def _prepare_graph(variant, nc, weights_path, seed):
    """The graph with seeded weights, or in the form of the store at
    `weights_path`: a store holding any batch-norm tensor is a train store,
    any other a fused one."""
    if weights_path is None:
        g = M.build_model(variant, nc)
        M.seed_weights(g, seed)
        return g
    store = WeightStore.load(weights_path)
    g = M.build_model(variant, nc, fused=not any(".bn." in n for n in store.names()))
    M.load_weights(g, store)
    return g


def cmd_summarize(args) -> int:
    g = M.build_model(args.model, args.nc)
    rows, total_params, total_macs = M.profile_graph(g)
    table = [("layer", "kind", "output", "params", "macs")]
    table.extend((r.name, r.kind, "x".join(map(str, r.out_shape[1:])), r.params, r.macs)
                 for r in rows)
    table.append(("total", "", "", total_params, total_macs))
    print("\n".join(f"{a:<22} {b:<12} {c:>14} {d:>10} {e:>14}" for a, b, c, d, e in table))
    if args.csv:
        write_atomic(args.csv, "".join(",".join(map(str, t)) + "\n" for t in table).encode("utf-8"))
    return 0


def cmd_compare(args) -> int:
    base = M.param_count(M.build_model("baseline", args.nc))
    improved = M.param_count(M.build_model("improved", args.nc))
    reduction = base - improved
    pct = 100.0 * reduction / base
    print(f"{'model':<10} {'params':>9} {'params(M)':>10}")
    print(f"{'baseline':<10} {base:>9} {base / 1e6:>10.2f}")
    print(f"{'improved':<10} {improved:>9} {improved / 1e6:>10.2f}")
    print(f"{'reduction':<10} {reduction:>9} {pct:>9.2f}%")
    return 0


def cmd_fuse(args) -> int:
    g = _prepare_graph(args.model, args.nc, args.weights, args.seed)
    fused = fuse_model_graph(g)
    print(f"nodes: {len(g.nodes)} -> {len(fused.nodes)}")
    print(f"params: {M.param_count(g)} -> {M.param_count(fused)}")
    if args.verify:
        # checked before the write, so a store that fails is never written
        rng = np.random.default_rng(args.seed)
        size, worst = g.cfg.input_size, 0.0
        for _ in range(5):
            x = rng.uniform(0.0, 1.0, (1, 3, size, size)).astype(np.float32)
            for a, b in zip(M.forward(g, x), M.forward(fused, x)):
                worst = float(np.maximum(worst, np.abs(a - b).max()))  # NaN sticks
        deviation = f"max head-output deviation: {worst:.3e}"
        if not worst < VERIFY_TOLERANCE:
            print(deviation)
            raise ValidationError(f"fusion deviation {worst:.3e} >= {VERIFY_TOLERANCE:.0e}")
    if args.out:
        WeightStore(M.named_tensors(fused)).save(args.out)
        print(f"wrote {args.out}")
    if args.verify:
        print(deviation)
    return 0


def cmd_infer(args) -> int:
    g = _prepare_graph(args.model, args.nc, args.weights, args.seed)
    image, dets = _detect(g, args.image, args.conf, args.iou)
    print(detections_to_json(dets))
    if args.annotate:
        write_ppm(args.annotate, annotate(image, dets))
    return 0


def cmd_eval(args) -> int:
    classes, items = load_dataset(args.manifest)
    g = _prepare_graph(args.model, len(classes), args.weights, args.seed)
    per_image = []
    sizes = []
    for item in items:
        image, dets = _detect(g, item.image_path, args.conf, args.iou, classes)
        sizes.append((image.shape[1], image.shape[0]))
        per_image.append(dets)
    report = evaluate(per_image, items, classes, image_sizes=sizes)
    text = report.to_json_text()
    print(text)
    if args.out:
        body = report.to_csv_text() if args.out.endswith(".csv") else text
        write_atomic(args.out, (body + "\n").encode("utf-8"))
    return 0


def cmd_selftest(args) -> int:
    if not run_selftest():
        raise ValidationError("selftest suites failed")
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="repdet", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, nc=True):
        sp.add_argument("--model", choices=("baseline", "improved"), required=True)
        if nc:  # eval's class count is its manifest's
            sp.add_argument("--nc", type=int, default=3, help="class count (default 3)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for generated weights/inputs (default 0)")
        sp.add_argument("--weights", help="weight container; omitted = seeded init")

    sp = sub.add_parser("summarize", help="per-layer table at 640x640")
    sp.add_argument("--model", choices=("baseline", "improved"), required=True)
    sp.add_argument("--nc", type=int, default=3)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.set_defaults(fn=cmd_summarize)

    sp = sub.add_parser("compare", help="baseline vs improved parameter totals")
    sp.add_argument("--nc", type=int, default=3)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("fuse", help="reparameterize a graph and save its weights")
    common(sp)
    sp.add_argument("--out", help="write fused weights here")
    sp.add_argument("--verify", action="store_true",
                    help="check fused vs unfused head outputs on 5 seeded inputs")
    sp.set_defaults(fn=cmd_fuse)

    sp = sub.add_parser("infer", help="detect on one PPM image")
    common(sp)
    sp.add_argument("--image", required=True)
    sp.add_argument("--annotate", help="write an annotated copy here")
    sp.add_argument("--conf", type=float, default=0.25)
    sp.add_argument("--iou", type=float, default=0.45)
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("eval", help="P/R/AP@0.5 report over a manifest dataset")
    common(sp, nc=False)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", help="write the report (.json or .csv)")
    sp.add_argument("--conf", type=float, default=0.001,
                    help="decode threshold for evaluation (default 0.001)")
    sp.add_argument("--iou", type=float, default=0.45)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("selftest", help="run the embedded property suites")
    sp.set_defaults(fn=cmd_selftest)
    return p


def _fail(code: int, message: str) -> int:
    line = " ".join(str(message).split())
    print(f"error: {line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _Usage as exc:
        return _fail(1, str(exc))
    try:
        for name in ("conf", "iou"):
            v = getattr(args, name, None)
            if v is not None and not 0.0 <= v <= 1.0:
                raise SpecError(f"--{name} must lie in [0, 1], got {v}")
        if getattr(args, "seed", 0) < 0:
            raise SpecError(f"--seed must be non-negative, got {args.seed}")
        # a non-finite value is reported as one typed error, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.fn(args)
    except SpecError as exc:
        return _fail(1, str(exc))
    except (FormatError, OSError) as exc:
        return _fail(2, str(exc))
    except (ValidationError, ShapeError, NumericError) as exc:
        return _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
