"""One benchmark run: generate inputs, set up, warm up and check, run the
closed loop, and report metrics. The loop makes whole passes over the
workload's inputs, as many as come closest to the requested seconds, so every
input weighs the same in a run.

With trace off the run reports the end-to-end metrics. With trace on, half
the images are traced (spans, per-node walk, kernel timers), each image
alternating between traced and untraced from pass to pass, and the other
half run untraced, so the trace overhead is measured in the same run; the
pass count is even then, so both halves hold every input equally often;
afterwards the four graph forms are walked node by node, and the per-layer
metrics are reported. Spans and per-node rows go to a trace file.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repdet import evaluate, fusion, model, pipeline, ppm
from repdet.weights import WeightStore

import benchenv
import gen
import spans
from workloads import (
    STAGES, WORKLOADS, cli_check, dataset_paths, eval_report, fusion_check, image_check,
    other_form, report_match, run_image, set_up,
)

WORK_DIR = os.path.join(benchenv.BENCH_DIR, "_work")
OUT_DIR = os.path.join(benchenv.BENCH_DIR, "_out")
SETUP_REPEATS = 15  # about half before the timed phase and half after it
COVERAGE_REPEATS = 3
FORM_WALKS = 2  # per-node time is the minimum over this many walks
TAIL_MIN_BEYOND = 10
TAIL_FLOOR_PCT = 90

END_TO_END = {  # name -> unit
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "images_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.forward_ms": "ms",
    "model.gmac_per_s": "GMAC/s",
    "model.glue_ms": "ms",
    **{f"blocks.{k}_ms": "ms" for k in spans.BLOCK_KINDS},
    # avgpool_bn and scale carry no MACs, so they have no GMAC/s
    **{f"blocks.{k}_gmac_per_s": "GMAC/s" for k in ("conv", "c2f", "c2f_ms", "sppf", "msca")},
    "tensor_ops.conv2d_ms": "ms",
    "tensor_ops.conv2d_calls": "count",
    "tensor_ops.conv2d_gmac_per_s": "GMAC/s",
    "tensor_ops.other_ms": "ms",
    "pipeline.letterbox_ms": "ms",
    "pipeline.decode_ms": "ms",
    "pipeline.nms_ms": "ms",
    "pipeline.to_json_ms": "ms",
    "pipeline.candidates": "count",
    "pipeline.kept": "count",
    "pipeline.nms_keep_ratio": "ratio",
    "evaluate.load_dataset_ms": "ms",
    "evaluate.evaluate_ms": "ms",
    "evaluate.tp": "count",
    "ppm.read_ms": "ms",
    "weights.load_ms": "ms",
    "model.load_weights_ms": "ms",
    "fusion.fuse_ms": "ms",
    "trace.overhead_pct": "%",
}


def load_golden(slot: int) -> dict:
    with open(gen.GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)["slots"][str(slot)]


def tail(values):
    """(value, percentile, samples beyond): the highest whole percentile with
    at least TAIL_MIN_BEYOND samples above its nearest-rank value, but never
    below TAIL_FLOOR_PCT. Under 100 samples the floor holds, so fewer than
    TAIL_MIN_BEYOND samples lie beyond it; the caller reports how many."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0, TAIL_FLOOR_PCT, 0
    pct = max(TAIL_FLOOR_PCT, 100 * (n - TAIL_MIN_BEYOND) // n)
    rank = max(1, -(-pct * n // 100))  # nearest rank: ceil(pct/100 * n)
    return xs[rank - 1], pct, n - rank


class Gate:
    """Attempted and failed operations; a raised exception and a failed
    correctness check both count as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {problem}")
        return problem is None

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run `fn`; an exception counts as one failed operation and gives None.
        A returned result is not counted: the caller checks it."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # boundary: a failing operation is counted, the run goes on
            traceback.print_exc()
            self.check(what, f"{type(exc).__name__}: {exc}")
            return None

    def run_check(self, what: str, fn, *args) -> bool:
        """Count one operation: `fn` returns None when it passes, else a reason."""
        try:
            problem = fn(*args)
        except Exception as exc:  # boundary: as in attempt
            traceback.print_exc()
            problem = f"{type(exc).__name__}: {exc}"
        return self.check(what, problem)


def _median(xs) -> float:
    """Median, or 0 when every sample failed (the run is then not correct)."""
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _median_ms(xs) -> float:
    return _median(xs) * 1e3


def _ratio(a, b) -> float:
    return a / b if b else 0.0


class TracedImages:
    """Per-image records of the traced half of the loop."""

    def __init__(self, graph):
        self.tracer = spans.Tracer()
        self.timer = spans.KernelTimer()
        self.records: list[dict] = []
        self.graph_macs = model.profile_graph(graph)[2]

    def run(self, engine, wl, path, image_id):
        node_rows = []

        def forward(g, x):
            maps, rows = spans.walk(g, x, self.timer.glue)
            node_rows.extend(rows)
            return maps

        self.timer.take()
        with self.timer:
            w0 = perf_counter()
            res = run_image(engine, wl, path, forward=forward)
            wall = perf_counter() - w0
        kernels = self.timer.take()
        intervals = list(zip(res.stamps, res.stamps[1:]))
        if res.text is None:  # eval: serialize after the latency span closes
            t = perf_counter()
            pipeline.detections_to_json(res.dets)
            intervals[-1] = (t, perf_counter())
        tr = self.tracer
        root = tr.add("image", res.stamps[0], res.stamps[0] + res.latency_s, image=image_id,
                      path=os.path.basename(path), candidates=res.candidates, kept=len(res.dets))
        stage_ms = {}
        for name, (a, b) in zip(STAGES, intervals):
            idx = tr.add(name, a, b, parent=root, image=image_id)
            stage_ms[name] = (b - a) * 1e3
            if name == "model.forward":
                for node, n0, n1, nbytes in node_rows:
                    tr.add(f"node:{node.name}", n0, n1, parent=idx, image=image_id,
                           kind=node.kind, out_bytes=nbytes)
        self.records.append({
            "image": image_id,
            "latency_ms": res.latency_s * 1e3,
            "wall_ms": wall * 1e3,
            "stage_ms": stage_ms,
            "node_ms_sum": sum(n1 - n0 for _, n0, n1, _ in node_rows) * 1e3,
            "glue_ms": sum(n1 - n0 for n, n0, n1, _ in node_rows
                           if n.kind in spans.GLUE_KINDS) * 1e3,
            "conv2d_ms": kernels.conv_s * 1e3,
            "conv2d_calls": kernels.conv_calls,
            "conv2d_macs": kernels.conv_macs,
            "other_ms": kernels.other_s * 1e3,
            "candidates": res.candidates,
            "kept": len(res.dets),
        })
        return res


def four_forms(inputs, tensor, gate: Gate, times: dict):
    """Walk both variants in train and fused form FORM_WALKS times each, check
    every walk against model.forward bit for bit, and join per-node minimum
    times to profile_graph MACs. Also times weight load, load_weights and
    fusion per variant."""
    table = {}
    for variant in gen.VARIANTS:
        for _ in range(COVERAGE_REPEATS):
            t0 = perf_counter()
            store = WeightStore.load(inputs.weights[variant])
            t1 = perf_counter()
            g = model.build_model(variant, gen.NC)
            t2 = perf_counter()
            model.load_weights(g, store)
            t3 = perf_counter()
            fused = fusion.fuse_model_graph(g)
            t4 = perf_counter()
            for key, a, b in (("weights.load", t0, t1), ("model.load_weights", t2, t3),
                              ("fusion.fuse", t3, t4)):
                times.setdefault((variant, key), []).append(b - a)
        for form, graph in (("train", g), ("fused", fused)):
            ref = model.forward(graph, tensor)
            walks = []
            for _ in range(FORM_WALKS):
                maps, rows = spans.walk(graph, tensor)
                same = all(np.array_equal(a, b) for a, b in zip(maps, ref))
                gate.check(f"{variant} {form} per-node walk",
                           None if same else "head maps differ from model.forward")
                walks.append(rows)
            prof = {r.name: r.macs for r in model.profile_graph(graph)[0]}
            table[f"{variant}-{form}"] = []
            for node_rows in zip(*walks):
                node, _, _, nbytes = node_rows[0]
                s = min(n1 - n0 for _, n0, n1, _ in node_rows)
                table[f"{variant}-{form}"].append(
                    {"node": node.name, "kind": node.kind, "ms": s * 1e3,
                     "macs": prof[node.name], "gmac_per_s": prof[node.name] / s / 1e9,
                     "out_bytes": nbytes})
    return table


def form_summary(rows):
    ms = sum(r["ms"] for r in rows)
    macs = sum(r["macs"] for r in rows)
    slow = sorted(rows, key=lambda r: -r["ms"])[:4]
    return {"forward_ms": ms, "gmac": macs / 1e9, "gmac_per_s": macs / ms / 1e6,
            "nodes": len(rows),
            "slowest": [(r["node"], round(r["ms"], 1), round(r["gmac_per_s"], 2)) for r in slow]}


@dataclass
class Loop:
    """What the timed phase produced."""

    latencies: list = field(default_factory=list)  # seconds, untraced images
    traced_lat: list = field(default_factory=list)  # seconds, traced images
    first_pass: list = field(default_factory=list)  # ImageResult per input, pass 1
    completed: int = 0
    wall: float = 0.0
    report: object = None  # eval: the evaluate() report over pass 1
    eval_s: float | None = None


def timed_set_ups(wl, inputs, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        set_up(wl, inputs)
        times.append(perf_counter() - t0)
    return times


def set_up_checks(wl, inputs, engine, paths, golden_images, gate: Gate) -> None:
    """Warm up on image 0 outside the timed phase, then check its output, the
    other graph form's head maps, and the CLI's stdout."""
    first = run_image(engine, wl, paths[0], keep_maps=True)
    gate.run_check("warm-up image 0", image_check, wl, first, golden_images[0])
    other = other_form(wl)
    other_first = gate.attempt("other graph form", lambda: run_image(
        set_up(other, inputs), other, paths[0], keep_maps=True))
    if other_first is not None:
        gate.run_check("fusion equivalence", fusion_check, first, other_first)
        gate.run_check("cli identity", cli_check, wl, inputs, engine,
                       other_first if wl.fused else first)


def timed_loop(wl, engine, paths, golden, gate: Gate, seconds: float,
               traced: TracedImages | None) -> Loop:
    """Closed loop, one client, whole passes over `paths`, as many as come
    closest to `seconds`, and an even number when traced. On eval, one
    evaluate() over the first pass ends it."""
    n = len(paths)
    golden_images = golden[wl.name]["images"]
    out = Loop(first_pass=[None] * n)
    i = 0
    t_start = perf_counter()
    while True:
        k = i % n
        if k == 0 and i and (traced is None or (i // n) % 2 == 0):
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / (i // n) / 2 >= seconds:
                break
        if traced is not None and (k + i // n) % 2 == 1:  # each image alternates
            res = gate.attempt(f"image {k}", traced.run, engine, wl, paths[k], i)
            lat = out.traced_lat
        else:
            res = gate.attempt(f"image {k}", run_image, engine, wl, paths[k])
            lat = out.latencies
        if res is not None:
            gate.run_check(f"image {k}", image_check, wl, res, golden_images[k])
            lat.append(res.latency_s)
            out.completed += 1
            if i < n:
                out.first_pass[k] = res
        i += 1
    if wl.dataset == "eval" and None not in out.first_pass:  # a failed image is counted
        t0 = perf_counter()
        out.report = gate.attempt("evaluate", eval_report, engine, out.first_pass)
        out.eval_s = perf_counter() - t0
        if out.report is not None:
            gate.run_check("eval report", report_match, out.report, golden["eval"]["report"])
    out.wall = perf_counter() - t_start
    return out


def end_to_end(loop: Loop, setup_s, lines) -> dict:
    p_tail, pct, beyond = tail(loop.latencies)
    lines.append(f"latency_tail_ms is p{pct} of {len(loop.latencies)} images, {beyond} beyond it")
    return {
        "latency_p50_ms": _median_ms(loop.latencies),
        "latency_tail_ms": p_tail * 1e3,
        "images_per_s": loop.completed / loop.wall,
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, inputs, paths, loop: Loop, traced: TracedImages, gate: Gate, lines):
    """Per-layer metrics and the trace document, after the timed phase."""
    tensor, _ = pipeline.letterbox(ppm.read_ppm(paths[0]))
    cover: dict = {}
    table = four_forms(inputs, tensor, gate, cover)
    manifest = inputs.eval_manifest if wl.dataset == "eval" else inputs.stream_manifest
    load_ds = []
    for _ in range(COVERAGE_REPEATS):
        t0 = perf_counter()
        classes, items = evaluate.load_dataset(manifest)
        load_ds.append(perf_counter() - t0)
    report, eval_s = loop.report, loop.eval_s
    if wl.dataset == "stream" and None not in loop.first_pass:
        # the infer workloads evaluate their stream here; a failed image is counted
        t0 = perf_counter()
        report = gate.attempt("evaluate stream", lambda: evaluate.evaluate(
            [r.dets for r in loop.first_pass], items, classes,
            image_sizes=[r.size for r in loop.first_pass]))
        eval_s = perf_counter() - t0
    tp = sum(c.tp for c in report.classes) if report is not None else 0
    metrics = per_layer_metrics(traced.records, loop.latencies, loop.traced_lat, table, cover,
                                wl.variant, load_ds, eval_s, tp, traced.graph_macs)
    lat = _median(r["latency_ms"] for r in traced.records)
    shares = {name: round(100 * _ratio(_median(r["stage_ms"][name] for r in traced.records),
                                       lat), 1) for name in STAGES}
    lines.append(f"median stage share of traced latency, %: {shares}")
    summaries = {form: form_summary(rows) for form, rows in table.items()}
    for form, fs in summaries.items():
        lines.append(f"{form} forward: {fs['forward_ms']:.0f} ms, {fs['gmac']:.2f} GMAC, "
                     f"{fs['gmac_per_s']:.1f} GMAC/s, {fs['nodes']} nodes; "
                     f"slowest {fs['slowest']}")
    doc = {"workload": wl.name, "metrics": metrics, "stage_share_pct": shares,
           "images": traced.records, "spans": traced.tracer.to_rows(),
           "forms": summaries, "nodes": table}
    return metrics, doc


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (result dict for the final JSON line, report lines, trace doc)."""
    wl = WORKLOADS[workload]
    slot = gen.slot_of(seed)
    golden = load_golden(slot)
    env = benchenv.environment_record(seed, slot)
    gate = Gate()
    lines = [f"workload={wl.name} seed={seed} slot={slot} seconds={seconds} "
             f"trace={int(trace)} loop=closed clients=1"]
    doc = None
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as root:
        inputs = gen.write_inputs(root, seed, golden["calibration"])
        setup_s = timed_set_ups(wl, inputs, SETUP_REPEATS // 2 + 1)
        engine = set_up(wl, inputs)
        paths = dataset_paths(wl, inputs, engine)
        set_up_checks(wl, inputs, engine, paths, golden[wl.name]["images"], gate)
        traced = TracedImages(engine.graph) if trace else None
        loop = timed_loop(wl, engine, paths, golden, gate, seconds, traced)
        setup_s += timed_set_ups(wl, inputs, SETUP_REPEATS // 2)
        if trace:
            metrics, doc = per_layer(wl, inputs, paths, loop, traced, gate, lines)
            units = PER_LAYER
        else:
            metrics = end_to_end(loop, setup_s, lines)
            units = END_TO_END
    env["loadavg_end"] = list(os.getloadavg())
    if doc is not None:
        doc["env"] = env
    lines.insert(1, "env " + json.dumps(env))
    lines.append(f"error_rate={gate.failed}/{gate.attempted}={gate.failed / gate.attempted:.4f}")
    lines.extend(f"FAILED {r}" for r in gate.reasons)
    lines.extend(f"{name} = {metrics[name]:.6g} {unit}" for name, unit in units.items())
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": unit} for k, unit in units.items()},
    }
    return result, lines, doc


def per_layer_metrics(records, untraced_lat, traced_lat, table, cover, variant,
                      load_ds, eval_s, tp, graph_macs):
    def med(key):
        return _median(r[key] for r in records)

    def stage(name):
        return _median(r["stage_ms"][name] for r in records)

    fwd = stage("model.forward")
    conv_ms = med("conv2d_ms")
    m = {
        "model.forward_ms": fwd,
        "model.gmac_per_s": _ratio(graph_macs, fwd) / 1e6,
        "model.glue_ms": med("glue_ms"),
    }
    for kind in spans.BLOCK_KINDS:
        rows = [r for form in table.values() for r in form if r["kind"] == kind]
        ms = sum(r["ms"] for r in rows)
        m[f"blocks.{kind}_ms"] = ms
        if f"blocks.{kind}_gmac_per_s" in PER_LAYER:
            m[f"blocks.{kind}_gmac_per_s"] = _ratio(sum(r["macs"] for r in rows), ms) / 1e6
    cands, kept = med("candidates"), med("kept")
    m.update({
        "tensor_ops.conv2d_ms": conv_ms,
        "tensor_ops.conv2d_calls": med("conv2d_calls"),
        "tensor_ops.conv2d_gmac_per_s": _ratio(med("conv2d_macs"), conv_ms) / 1e6,
        "tensor_ops.other_ms": med("other_ms"),
        "pipeline.letterbox_ms": stage("pipeline.letterbox"),
        "pipeline.decode_ms": stage("pipeline.decode"),
        "pipeline.nms_ms": stage("pipeline.nms"),
        "pipeline.to_json_ms": stage("pipeline.to_json"),
        "pipeline.candidates": cands,
        "pipeline.kept": kept,
        "pipeline.nms_keep_ratio": _ratio(kept, cands),
        "evaluate.load_dataset_ms": _median_ms(load_ds),
        "evaluate.evaluate_ms": (eval_s or 0.0) * 1e3,
        "evaluate.tp": tp,
        "ppm.read_ms": stage("ppm.read"),
        "weights.load_ms": _median_ms(cover[(variant, "weights.load")]),
        "model.load_weights_ms": _median_ms(cover[(variant, "model.load_weights")]),
        "fusion.fuse_ms": _median_ms(cover[(variant, "fusion.fuse")]),
        "trace.overhead_pct": 100.0 * (_ratio(_median(traced_lat), _median(untraced_lat)) - 1.0),
    })
    return m


def write_trace(doc, workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path
