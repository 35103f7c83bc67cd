"""The benchmark's own tests: output schema, timing consistency of the traced
run, the generator's determinism, and the correctness gate's comparisons.

    python3 -m pytest perfbench/tests -q
"""
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest

import benchenv
import gen
import runner
import workloads

# a traced image's stage times must cover at least this share of its wall time
STAGE_COVERAGE = 0.98
# the per-node times must cover at least this share of the traced forward
NODE_COVERAGE = 0.98

with open(os.path.join(benchenv.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


@pytest.fixture(scope="module")
def infer_runs():
    """Short runs of `infer`: one pass of the stream untraced, two traced."""
    return {trace: runner.run("infer", 3, 0.1, trace) for trace in (False, True)}


def _check_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in names]
    for m in names:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_end_to_end_schema(infer_runs):
    result, lines, doc = infer_runs[False]
    _check_result(result, SPEC["end_to_end"])
    assert doc is None
    assert any(line.startswith("latency_tail_ms is p") for line in lines)
    assert result["metrics"]["setup_s"]["value"] > 0


def test_eval_workload_passes_its_gate():
    result, lines, _ = runner.run("eval", 5, 0.1, False)
    _check_result(result, SPEC["end_to_end"])
    assert any(line.startswith("latency_tail_ms is p90 of 6 images") for line in lines)


def test_per_layer_schema_and_trace_file(infer_runs):
    result, _, doc = infer_runs[True]
    _check_result(result, SPEC["per_layer"])
    assert set(doc["nodes"]) == {"improved-train", "improved-fused", "baseline-train",
                                 "baseline-fused"}
    for rows in doc["nodes"].values():
        assert {"node", "kind", "ms", "macs", "gmac_per_s", "out_bytes"} <= set(rows[0])
    roots = [s for s in doc["spans"] if s["name"] == "image"]
    assert roots and all(s["parent"] is None for s in roots)
    # an even pass count: every input is traced as often as it runs untraced
    n = gen.STREAM_IMAGES
    assert sorted(rec["image"] % n for rec in doc["images"]) == list(range(n))


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    # eval runs on demand only: its spread on a shared host is wider than any bound
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "eval"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == runner.PER_LAYER


def test_stage_times_add_up_to_wall_time(infer_runs):
    for rec in infer_runs[True][2]["images"]:
        stages = sum(rec["stage_ms"].values())
        assert STAGE_COVERAGE * rec["wall_ms"] <= stages <= rec["wall_ms"]


def test_node_times_add_up_to_forward(infer_runs):
    for rec in infer_runs[True][2]["images"]:
        fwd = rec["stage_ms"]["model.forward"]
        assert NODE_COVERAGE * fwd <= rec["node_ms_sum"] <= fwd


def test_generator_is_deterministic():
    calib = runner.load_golden(gen.slot_of(11))["calibration"]
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        gen.write_inputs(a, 11, calib)
        gen.write_inputs(b, 11, calib)
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b)) and len(names) > 10
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []
    assert gen.stream_images(1)[0][0].tobytes() != gen.stream_images(2)[0][0].tobytes()


def test_tail_percentile():
    assert runner.tail(range(1, 201)) == (190, 95, 10)
    assert runner.tail(range(1, 41)) == (36, 90, 4)  # the p90 floor holds under 100
    assert runner.tail([5.0] * 11) == (5.0, 90, 1)
    assert runner.tail([1.0, 2.0]) == (2.0, 90, 0)


def test_dets_match_tolerances():
    from repdet.pipeline import Detection

    dets = [Detection(0, "class0", 0.5, (10.0, 10.0, 50.0, 60.0)),
            Detection(1, "class1", 0.3, (5.0, 5.0, 20.0, 20.0))]
    golden = workloads.det_rows(dets)
    assert workloads.dets_match(dets, golden) is None
    assert workloads.dets_match(dets[::-1], golden) is None  # order-free matching
    near = [Detection(0, "class0", 0.5004, (10.3, 10.0, 50.0, 60.0)), dets[1]]
    assert workloads.dets_match(near, golden) is None
    far = [Detection(0, "class0", 0.5, (11.0, 10.0, 50.0, 60.0)), dets[1]]
    assert workloads.dets_match(far, golden) is not None
    assert workloads.dets_match(dets[:1], golden) is not None


def test_traced_run_counts_a_failed_image(monkeypatch):
    real = runner.run_image

    def flaky(engine, wl, path, **kw):
        if path.endswith("stream01.ppm") and not kw.get("keep_maps"):
            raise RuntimeError("injected")
        return real(engine, wl, path, **kw)

    monkeypatch.setattr(runner, "run_image", flaky)
    result, lines, _ = runner.run("infer", 3, 0.1, True)
    assert result["correct"] is False and result["failed"] == 2  # image 1 in both passes
    assert any("FAILED image 1: RuntimeError: injected" in line for line in lines)


def test_gate_counts_exceptions_and_mismatches():
    gate = runner.Gate()
    assert gate.attempt("boom", lambda: 1 / 0) is None
    assert gate.run_check("bad", lambda: "mismatch") is False
    assert gate.run_check("good", lambda: None) is True
    assert (gate.attempted, gate.failed) == (3, 2)


def test_refuses_to_run_without_the_engine():
    with tempfile.TemporaryDirectory() as bare:
        os.mkdir(os.path.join(bare, "perfbench"))
        for name in ("run.py", "benchenv.py"):
            with open(os.path.join(benchenv.BENCH_DIR, name), "rb") as src, \
                    open(os.path.join(bare, "perfbench", name), "wb") as dst:
                dst.write(src.read())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "infer", "--seed", "0",
             "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
