"""The three benchmark workloads, their staged per-image path, and the
correctness gate every run applies.

Each workload is a closed loop with one client: the next image is read only
after the previous one's result is complete. The staged path calls the same
public functions, in the same order, as `repdet infer` / `repdet eval`.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repdet import cli, evaluate, fusion, model, pipeline, ppm
from repdet.weights import WeightStore

import gen

FUSE_VERIFY_BOUND = 1e-3  # `repdet fuse --verify` bound on head-output deviation

# golden tolerances: a count may differ by the larger of COUNT_ABS and
# COUNT_REL of the golden count; scores by SCORE_TOL, box corners by BOX_TOL
# pixels, and report ratios (precision, recall, AP, mAP) by RATIO_TOL
COUNT_ABS, COUNT_REL = 2, 0.01
SCORE_TOL, BOX_TOL, RATIO_TOL = 1e-3, 0.5, 5e-3


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    fused: bool
    conf: float
    iou: float
    band: tuple      # candidates per image that keep the workload on its layer
    dataset: str     # "stream" or "eval"


WORKLOADS = {
    w.name: w for w in (
        # fused improved detector at conf 0.25: the forward pass dominates
        Workload("infer", "improved", True, 0.25, 0.45, (85, 450), "stream"),
        # baseline detector in train form, as `repdet infer` runs it
        Workload("infer-baseline", "baseline", False, 0.25, 0.45, (85, 450), "stream"),
        # train-form improved detector at conf 0.001: decode and NMS dominate
        Workload("eval", "improved", False, 0.001, 0.45, (7000, 8400), "eval"),
    )
}


@dataclass
class Engine:
    graph: object
    class_names: list | None
    items: list | None  # eval dataset items


def set_up(wl: Workload, inputs: gen.Inputs) -> Engine:
    """Read the dataset on `eval`, load weights, build, load, and fuse where
    the workload fuses: the work `repdet infer` / `repdet eval` does before
    the first image."""
    classes = items = None
    if wl.dataset == "eval":
        classes, items = evaluate.load_dataset(inputs.eval_manifest)
    store = WeightStore.load(inputs.weights[wl.variant])
    g = model.build_model(wl.variant, len(classes) if classes else gen.NC)
    model.load_weights(g, store)
    if wl.fused:
        g = fusion.fuse_model_graph(g)
    return Engine(g, classes, items)


STAGES = ("ppm.read", "pipeline.letterbox", "model.forward", "pipeline.decode",
          "pipeline.nms", "pipeline.to_json")


@dataclass
class ImageResult:
    size: tuple        # (w, h) of the PPM
    candidates: int
    dets: list
    text: str | None   # detections JSON (infer workloads)
    stamps: tuple      # perf_counter before each stage and after the last
    maps: tuple
    latency_s: float


def run_image(engine: Engine, wl: Workload, path: str, forward=model.forward,
              keep_maps=False) -> ImageResult:
    """The staged path for one image. Latency runs from `read_ppm` to the JSON
    text (infer workloads) or to the NMS result (eval)."""
    t0 = perf_counter()
    image = ppm.read_ppm(path)
    t1 = perf_counter()
    tensor, meta = pipeline.letterbox(image)
    t2 = perf_counter()
    maps = forward(engine.graph, tensor)
    t3 = perf_counter()
    cands = pipeline.decode_detections(maps, engine.graph.cfg, meta, wl.conf, engine.class_names)
    t4 = perf_counter()
    dets = pipeline.nms(cands, wl.iou)
    t5 = perf_counter()
    text = pipeline.detections_to_json(dets) if wl.dataset == "stream" else None
    t6 = perf_counter()
    return ImageResult((image.shape[1], image.shape[0]), len(cands), dets, text,
                       (t0, t1, t2, t3, t4, t5, t6), maps if keep_maps else (),
                       (t6 if text is not None else t5) - t0)


# ---- golden outputs -------------------------------------------------------

def det_rows(dets):
    return [[d.class_id, round(d.score, 4)] + [round(v, 2) for v in d.box] for d in dets]


def _count_ok(got: int, want: int) -> bool:
    return abs(got - want) <= max(COUNT_ABS, COUNT_REL * want)


def dets_match(dets, golden_rows) -> str | None:
    """None when the detections match the golden rows one to one within the
    stated tolerances, else a one-line reason."""
    if len(dets) != len(golden_rows):
        return f"{len(dets)} detections, golden has {len(golden_rows)}"
    if not dets:
        return None
    got = np.array(det_rows(dets), dtype=np.float64)
    want = np.array(golden_rows, dtype=np.float64)
    ok = ((got[:, None, 0] == want[None, :, 0])
          & (np.abs(got[:, None, 1] - want[None, :, 1]) <= SCORE_TOL)
          & (np.abs(got[:, None, 2:] - want[None, :, 2:]).max(axis=2) <= BOX_TOL))
    claimed = np.zeros(len(want), dtype=bool)
    for i in range(len(got)):
        free = np.flatnonzero(ok[i] & ~claimed)
        if not len(free):
            return f"detection {i} {det_rows([dets[i]])[0]} has no golden match"
        claimed[free[0]] = True
    return None


def report_doc(report) -> dict:
    return {
        "classes": [{"name": c.name, "truths": c.truths, "detections": c.detections,
                     "tp": c.tp, "fp": c.fp, "fn": c.fn, "precision": c.precision,
                     "recall": c.recall, "ap50": c.ap50} for c in report.classes],
        "map50": report.map50,
        "total_truths": report.total_truths,
        "total_detections": report.total_detections,
    }


def report_match(report, golden: dict) -> str | None:
    got = report_doc(report)
    if [c["name"] for c in got["classes"]] != [c["name"] for c in golden["classes"]]:
        return "class list differs from golden"
    if got["total_truths"] != golden["total_truths"]:
        return f"total_truths {got['total_truths']} != golden {golden['total_truths']}"
    if not _count_ok(got["total_detections"], golden["total_detections"]):
        return f"total_detections {got['total_detections']} vs golden {golden['total_detections']}"
    if abs(got["map50"] - golden["map50"]) > RATIO_TOL:
        return f"map50 {got['map50']:.4f} vs golden {golden['map50']:.4f}"
    for c, w in zip(got["classes"], golden["classes"]):
        if c["truths"] != w["truths"]:
            return f"{c['name']}: truths {c['truths']} != golden {w['truths']}"
        for key in ("detections", "tp", "fp", "fn"):
            if not _count_ok(c[key], w[key]):
                return f"{c['name']}: {key} {c[key]} vs golden {w[key]}"
        for key in ("precision", "recall", "ap50"):
            if (c[key] is None) != (w[key] is None) or (
                    c[key] is not None and abs(c[key] - w[key]) > RATIO_TOL):
                return f"{c['name']}: {key} {c[key]} vs golden {w[key]}"
    return None


def dataset_paths(wl: Workload, inputs: gen.Inputs, engine: Engine):
    if wl.dataset == "eval":
        return [item.image_path for item in engine.items]
    return list(inputs.stream)


def golden_outputs(name: str, inputs: gen.Inputs) -> dict:
    """Run the staged path once over the workload's inputs and record what
    later runs are checked against. Raises if the inputs miss the band or
    the CLI disagrees with the staged path."""
    wl = WORKLOADS[name]
    engine = set_up(wl, inputs)
    paths = dataset_paths(wl, inputs, engine)
    results = [run_image(engine, wl, p, keep_maps=(i == 0)) for i, p in enumerate(paths)]
    for r in results:
        if not wl.band[0] <= r.candidates <= wl.band[1]:
            raise RuntimeError(f"{name} slot {inputs.slot}: {r.candidates} candidates "
                               f"outside {wl.band}")
    other = other_form(wl)
    other_first = run_image(set_up(other, inputs), other, paths[0], keep_maps=True)
    first = results[0]
    for problem in (fusion_check(first, other_first),
                    cli_check(wl, inputs, engine, other_first if wl.fused else first)):
        if problem:
            raise RuntimeError(f"{name} slot {inputs.slot}: {problem}")
    images = [{"candidates": r.candidates, "kept": len(r.dets)} for r in results]
    doc = {"images": images}
    if wl.dataset == "stream":
        for entry, r in zip(images, results):
            entry["dets"] = det_rows(r.dets)
    else:
        doc["report"] = report_doc(eval_report(engine, results))
    return doc


# ---- checks ----------------------------------------------------------------

def eval_report(engine: Engine, results):
    return evaluate.evaluate([r.dets for r in results], engine.items, engine.class_names,
                             image_sizes=[r.size for r in results])


def image_check(wl: Workload, result: ImageResult, golden_image: dict) -> str | None:
    if not wl.band[0] <= result.candidates <= wl.band[1]:
        return f"{result.candidates} candidates outside the workload band {wl.band}"
    if not _count_ok(result.candidates, golden_image["candidates"]):
        return f"{result.candidates} candidates, golden has {golden_image['candidates']}"
    if "dets" in golden_image:
        return dets_match(result.dets, golden_image["dets"])
    if not _count_ok(len(result.dets), golden_image["kept"]):
        return f"{len(result.dets)} kept, golden has {golden_image['kept']}"
    return None


def other_form(wl: Workload) -> Workload:
    """The same workload on the other graph form (train <-> fused)."""
    return replace(wl, fused=not wl.fused)


def fusion_check(first: ImageResult, other_first: ImageResult) -> str | None:
    """Head maps of the two graph forms on one image stay within the
    `fuse --verify` bound."""
    worst = max(float(np.abs(a - b).max()) for a, b in zip(first.maps, other_first.maps))
    if not worst < FUSE_VERIFY_BOUND:
        return f"fused vs train-form head deviation {worst:.3e} >= {FUSE_VERIFY_BOUND:g}"
    return None


def _cli_stdout(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_check(wl: Workload, inputs: gen.Inputs, engine: Engine, first: ImageResult) -> str | None:
    """`repdet infer` / `repdet eval` prints exactly what the staged path built
    for image 0 on the train-form graph (`first`), the only form the CLI runs."""
    weights = inputs.weights[wl.variant]
    if wl.dataset == "stream":
        argv = ["infer", "--model", wl.variant, "--weights", weights, "--image",
                inputs.stream[0], "--conf", str(wl.conf), "--iou", str(wl.iou)]
        staged = first.text
    else:
        with open(inputs.eval_manifest, encoding="utf-8") as f:
            doc = json.load(f)
        doc["items"] = doc["items"][:1]
        one = os.path.join(inputs.root, "eval_first_manifest.json")
        with open(one, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        argv = ["eval", "--model", wl.variant, "--weights", weights, "--manifest", one,
                "--conf", str(wl.conf), "--iou", str(wl.iou)]
        staged = evaluate.evaluate([first.dets], engine.items[:1], engine.class_names,
                                   image_sizes=[first.size]).to_json_text()
    code, out = _cli_stdout(argv)
    if code != 0:
        return f"repdet {argv[0]} exited {code}"
    if out != staged + "\n":
        return f"repdet {argv[0]} stdout differs from the staged path"
    return None
