"""End-to-end command tests: outputs, determinism, exit codes, atomicity."""
import hashlib
import json
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import repdet
import repdet.model as M
from repdet.blocks import HeadConfig
from repdet.cli import _forward_finite, _prepare_graph, main
from repdet.errors import NumericError
from repdet.fileio import write_atomic
from repdet.ppm import read_ppm, write_ppm
from repdet.weights import WeightStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def black_image(tmp_path):
    path = os.fspath(tmp_path / "black.ppm")
    write_ppm(path, np.zeros((60, 90, 3), dtype=np.uint8))
    return path


@pytest.fixture
def tiny_dataset(tmp_path):
    rng = np.random.default_rng(0)
    items = []
    for i in range(2):
        img = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
        write_ppm(os.fspath(tmp_path / f"im{i}.ppm"), img)
        (tmp_path / f"im{i}.txt").write_text("0 0.5 0.5 0.4 0.4\n1 0.3 0.3 0.2 0.2\n")
        items.append({"image": f"im{i}.ppm", "label": f"im{i}.txt"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"classes": ["wssv", "bss", "sbgs"], "items": items}))
    return os.fspath(manifest)


def bad_store(tmp_path, kind):
    """An improved-model store whose backbone.conv0 holds a NaN weight
    ("nan"), a negative running variance ("negvar"), or finite weights whose
    batch-norm fold overflows float32 ("overflow")."""
    store = M.init_weights(M.build_model("improved", 3), 0)
    if kind == "nan":
        store["backbone.conv0.w"][0, 0, 0, 0] = np.nan
    elif kind == "negvar":
        store["backbone.conv0.bn.var"][...] = -1.0
    else:
        store["backbone.conv0.w"][...] = 3e38
        store["backbone.conv0.bn.gamma"][...] = 10.0
    path = os.fspath(tmp_path / f"{kind}.rwt")
    store.save(path)
    return path


# final-conv factors that lift the tiny head features of seeded weights to a
# spread of scores and box sizes: variant -> (cls scale, cls bias, box scale)
CALIBRATION = {"improved": (4.4e6, -4.9, 2.7e6), "baseline": (6.7e6, -3.3, 4.7e6)}


def calibrated_store(tmp_path, variant):
    """A train store of seeded weights whose detections at conf 0.25 have
    distinct scores, so that the fused form keeps them one to one."""
    store = M.init_weights(M.build_model(variant, 3), 0)
    cls_scale, cls_bias, box_scale = CALIBRATION[variant]
    for name, arr in store.items():
        if name.endswith((".cls.w", ".cls3.w")):
            arr *= np.float32(cls_scale)
        elif name.endswith((".cls.b", ".cls3.b")):
            arr[...] = cls_bias
        elif name.endswith((".box.w", ".box3.w")):
            arr *= np.float32(box_scale)
    path = os.fspath(tmp_path / f"{variant}.rwt")
    store.save(path)
    return path


def fused_store(capsys, tmp_path, variant, weights):
    path = os.fspath(tmp_path / f"{variant}-fused.rwt")
    code, _, _ = run_cli(capsys, "fuse", "--model", variant, "--weights", weights, "--out", path)
    assert code == 0
    return path


class TestCompare:
    def test_reports_reduction_over_thirty_percent(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--nc", "3")
        assert code == 0
        lines = out.splitlines()
        base = int(lines[1].split()[1])
        improved = int(lines[2].split()[1])
        pct = float(lines[3].split()[2].rstrip("%"))
        assert 3.0e6 <= base <= 3.2e6
        assert 2.0e6 <= improved <= 2.2e6
        assert pct >= 30.0

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "compare", "--nc", "3")
        _, out2, _ = run_cli(capsys, "compare", "--nc", "3")
        assert out1 == out2


class TestSummarize:
    def test_totals_match_api(self, capsys, tmp_path):
        csv_path = os.fspath(tmp_path / "layers.csv")
        code, out, _ = run_cli(capsys, "summarize", "--model", "improved",
                               "--nc", "3", "--csv", csv_path)
        assert code == 0
        total_line = out.splitlines()[-1].split()
        assert int(total_line[1]) == M.param_count(M.build_model("improved", 3))
        rows = Path(csv_path).read_text().splitlines()
        assert rows[0] == "layer,kind,output,params,macs"
        assert rows[-1].split(",")[3] == total_line[1]

    def test_kind_column_shows_placement(self, capsys):
        _, out, _ = run_cli(capsys, "summarize", "--model", "improved", "--nc", "3")
        assert sum(1 for line in out.splitlines() if " c2f_ms " in line) == 5
        assert sum(1 for line in out.splitlines() if " msca " in line) == 1

    def test_shared_stack_params_count_at_first_site(self, capsys):
        _, out, _ = run_cli(capsys, "summarize", "--model", "improved", "--nc", "3")
        params = {line.split()[0]: int(line.split()[3]) for line in out.splitlines()[1:-1]}
        # each branch counts at the p3 site; conv weights + BN gamma/beta
        assert params["head.p3.rep1.k3"] == 64 * 64 * 9 + 2 * 64
        assert params["head.p3.rep1.k1"] == 64 * 64 + 2 * 64
        assert params["head.p3.rep1.avg"] == 2 * 64
        for level in ("p4", "p5"):
            for branch in ("k3", "k1", "avg"):
                assert params[f"head.{level}.rep1.{branch}"] == 0


class TestByteContract:
    """The sha256 of each report and of the seed-0 weight file of each graph
    form at nc 3: one changed character in a row, a column width or a total,
    or one changed byte, fails here. The four stores pin every weight name and
    its order."""

    SUMMARIZE = {
        "baseline": ("b853de12d0767cf1828b6e614cc5618e61aa49eac0256d6fe483a4f44caca530",
                     "d4cc0c34531213fde2e22632e17cf75ff7bc71cca4f1c0c65d438676fa8433fe"),
        "improved": ("3b604af50ca83e571d4d28cebaf88e202420e4369c58faa3eb36e8b6fdf9f68d",
                     "2add4b09aa10f8ac54d2b5fc9687ccca2b673dc2f09835e3a6c3754132708c7a"),
    }
    COMPARE = "eae0176bf71a564fafce0d46b3abb46a813df0afbe5fa7c4f894f948197234e6"
    # (init_weights(variant, nc 3, seed 0).save, `fuse --out` of that store)
    STORES = {
        "baseline": ("ddb77edc16d06b380a043f23f2e61c9a4b16beb77e803708436aa970bcbb5e52",
                     "f7785f8e518b2a76055b2994a9a6eeeee7dd960af6c497b9c4d2540d77d7c726"),
        "improved": ("90dd5325b54ff6b8f76578a60576e1d57f90a4feeead01c5abd9a5cfc9066d5b",
                     "05783ffc685fd6796ff95826aff7b25f676672ba045cfedcbcee0c57434fbed5"),
    }

    @staticmethod
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    def test_summarize_table_and_csv(self, capsys, tmp_path, variant):
        csv_path = tmp_path / "layers.csv"
        code, out, _ = run_cli(capsys, "summarize", "--model", variant, "--nc", "3",
                               "--csv", os.fspath(csv_path))
        assert code == 0
        table, csv = self.SUMMARIZE[variant]
        assert self.sha(out.encode("utf-8")) == table
        assert self.sha(csv_path.read_bytes()) == csv

    def test_compare_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--nc", "3")
        assert code == 0
        assert self.sha(out.encode("utf-8")) == self.COMPARE

    def test_saved_and_fused_store_bytes(self, capsys, tmp_path):
        for variant, (train, fused) in self.STORES.items():
            path = os.fspath(tmp_path / f"{variant}.rwt")
            M.init_weights(M.build_model(variant, 3), 0).save(path)
            with open(path, "rb") as f:
                assert self.sha(f.read()) == train, variant
            with open(fused_store(capsys, tmp_path, variant, path), "rb") as f:
                assert self.sha(f.read()) == fused, variant

    def test_seeded_fuse_writes_the_fused_store(self, capsys, tmp_path):
        # without --weights the graph is seeded in place, to the same bits
        path = tmp_path / "seeded-fused.rwt"
        code, _, _ = run_cli(capsys, "fuse", "--model", "improved", "--seed", "0",
                             "--out", os.fspath(path))
        assert code == 0
        assert self.sha(path.read_bytes()) == self.STORES["improved"][1]


def test_seeded_graph_holds_the_only_copy():
    # seeding writes into the graph's arrays and keeps no snapshot: the peak
    # is the graph plus one tensor's draw, 1.36x the weight bytes on the
    # baseline (a snapshot makes it 2.0x)
    tracemalloc.start()
    try:
        g = _prepare_graph("baseline", 3, None, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(arr.nbytes for _, arr in M.named_tensors(g))


class TestFuse:
    def test_writes_store_and_verifies(self, capsys, tmp_path):
        out_path = os.fspath(tmp_path / "fused.rwt")
        code, out, _ = run_cli(capsys, "fuse", "--model", "improved",
                               "--out", out_path, "--verify")
        assert code == 0
        assert "max head-output deviation" in out
        deviation = float(out.splitlines()[-1].split()[-1])
        assert deviation < 1e-3
        store = WeightStore.load(out_path)
        assert "head.rep1.w" in store and "head.rep1.b" in store

    def test_nan_weight_fails_verify(self, capsys, tmp_path):
        # a scale is not folded, so the NaN reaches --verify in both forms
        w = os.fspath(tmp_path / "nan.rwt")
        store = M.init_weights(M.build_model("improved", 3), 0)
        store["head.p3.scale.s"][0] = np.nan
        store.save(w)
        # a store that fails verification does not replace an earlier file
        out_path = tmp_path / "fused.rwt"
        out_path.write_bytes(b"earlier store")
        code, out, err = run_cli(capsys, "fuse", "--model", "improved", "--weights", w,
                                 "--out", os.fspath(out_path), "--verify")
        assert code == 3
        assert "max head-output deviation: nan" in out and "wrote" not in out
        assert err.startswith("error:")
        assert out_path.read_bytes() == b"earlier store"

    @pytest.mark.parametrize("store", ["nan", "overflow"])
    def test_nonfinite_fold_is_3_and_writes_nothing(self, capsys, tmp_path, store):
        w = bad_store(tmp_path, store)
        out_path = tmp_path / "fused.rwt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fuse", "--model", "improved", "--weights", w,
                                     "--out", os.fspath(out_path), "--verify")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "non-finite" in err
        assert "the fold of backbone.conv0 " in err
        assert not out_path.exists()

    def test_roundtrip_weights_file(self, capsys, tmp_path):
        w_path = os.fspath(tmp_path / "w.rwt")
        g = M.build_model("improved", 3)
        M.init_weights(g, 4)
        M.collect_weights(g).save(w_path)
        code, out, _ = run_cli(capsys, "fuse", "--model", "improved",
                               "--weights", w_path, "--out",
                               os.fspath(tmp_path / "f.rwt"), "--verify")
        assert code == 0


def dets_close(got, want):
    """One to one within perfbench's golden tolerances: the same class, score
    within 1e-3 and box corners within 0.5 px."""
    return len(got) == len(want) and all(
        a["class_id"] == b["class_id"] and abs(a["score"] - b["score"]) <= 1e-3
        and max(abs(u - v) for u, v in zip(a["box"], b["box"])) <= 0.5
        for a, b in zip(got, want))


@pytest.mark.parametrize("variant", ["baseline", "improved"])
class TestFusedStore:
    def test_infer_and_eval_match_the_train_store(self, capsys, tmp_path, tiny_dataset,
                                                  variant):
        train = calibrated_store(tmp_path, variant)
        fused = fused_store(capsys, tmp_path, variant, train)
        image = os.path.join(os.path.dirname(tiny_dataset), "im0.ppm")
        runs = []
        for weights in (train, fused):
            code, dets, _ = run_cli(capsys, "infer", "--model", variant, "--weights", weights,
                                    "--image", image)
            assert code == 0
            code, report, _ = run_cli(capsys, "eval", "--model", variant, "--weights", weights,
                                      "--manifest", tiny_dataset, "--conf", "0.25")
            assert code == 0
            runs.append((json.loads(dets), json.loads(report)))
        (dets, report), (fused_dets, fused_report) = runs
        assert len(dets) > 10 and dets_close(fused_dets, dets)
        assert fused_report["total_detections"] == report["total_detections"] > 0
        assert abs(fused_report["map50"] - report["map50"]) <= 5e-3

    def test_fuse_of_a_fused_store_writes_the_same_bytes(self, capsys, tmp_path, variant):
        fused = fused_store(capsys, tmp_path, variant, calibrated_store(tmp_path, variant))
        again = os.fspath(tmp_path / "again.rwt")
        code, out, _ = run_cli(capsys, "fuse", "--model", variant, "--weights", fused,
                               "--out", again, "--verify")
        assert code == 0
        assert "max head-output deviation: 0.000e+00" in out
        assert Path(again).read_bytes() == Path(fused).read_bytes()

    def test_mixed_or_partial_store_is_3_and_names_a_tensor(self, capsys, tmp_path,
                                                             black_image, variant):
        train = calibrated_store(tmp_path, variant)
        fused = WeightStore.load(fused_store(capsys, tmp_path, variant, train))
        mixed = WeightStore.load(train)
        mixed.put("backbone.conv0.b", fused["backbone.conv0.b"])
        last = fused.names()[-1]
        partial = WeightStore((n, a) for n, a in fused.items() if n != last)
        for store, name in ((mixed, "backbone.conv0.b"), (partial, last)):
            path = os.fspath(tmp_path / "bad.rwt")
            store.save(path)
            code, out, err = run_cli(capsys, "infer", "--model", variant, "--weights", path,
                                     "--image", black_image)
            assert code == 3
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and repr(name) in err


class TestInfer:
    def test_black_image_high_conf_empty_json(self, capsys, black_image):
        code, out, _ = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--conf", "0.999")
        assert code == 0
        assert json.loads(out) == []

    def test_runs_are_byte_identical(self, capsys, black_image, tmp_path):
        a1 = os.fspath(tmp_path / "a1.ppm")
        a2 = os.fspath(tmp_path / "a2.ppm")
        code1, out1, _ = run_cli(capsys, "infer", "--model", "baseline", "--seed", "3",
                                 "--image", black_image, "--conf", "0.4", "--annotate", a1)
        code2, out2, _ = run_cli(capsys, "infer", "--model", "baseline", "--seed", "3",
                                 "--image", black_image, "--conf", "0.4", "--annotate", a2)
        assert code1 == code2 == 0
        assert out1 == out2
        assert Path(a1).read_bytes() == Path(a2).read_bytes()

    def test_annotated_image_same_size(self, capsys, black_image, tmp_path):
        a = os.fspath(tmp_path / "a.ppm")
        run_cli(capsys, "infer", "--model", "improved", "--image", black_image,
                "--conf", "0.2", "--annotate", a)
        assert read_ppm(a).shape == (60, 90, 3)


class TestEval:
    def test_report_written_and_valid(self, capsys, tiny_dataset, tmp_path):
        report_path = os.fspath(tmp_path / "report.json")
        code, out, _ = run_cli(capsys, "eval", "--model", "improved",
                               "--manifest", tiny_dataset, "--out", report_path)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"classes", "map50", "total_truths", "total_detections"}
        assert doc["total_truths"] == 4
        assert json.loads(Path(report_path).read_text()) == doc

    def test_csv_report(self, capsys, tiny_dataset, tmp_path):
        report_path = os.fspath(tmp_path / "report.csv")
        code, _, _ = run_cli(capsys, "eval", "--model", "improved",
                             "--manifest", tiny_dataset, "--out", report_path)
        assert code == 0
        assert Path(report_path).read_text().startswith("class,")

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    def test_counts_what_infer_prints(self, capsys, tmp_path, tiny_dataset, variant):
        weights = calibrated_store(tmp_path, variant)
        doc = json.loads(Path(tiny_dataset).read_text())
        manifest = tmp_path / "one.json"
        manifest.write_text(json.dumps({"classes": doc["classes"], "items": doc["items"][:1]}))
        image = os.path.join(os.path.dirname(tiny_dataset), doc["items"][0]["image"])
        common = ("--model", variant, "--weights", weights, "--conf", "0.25", "--iou", "0.45")
        code, dets, _ = run_cli(capsys, "infer", *common, "--image", image)
        assert code == 0
        code, report, _ = run_cli(capsys, "eval", *common, "--manifest", os.fspath(manifest))
        assert code == 0
        dets, report = json.loads(dets), json.loads(report)
        assert report["total_detections"] == len(dets) > 0
        assert [c["detections"] for c in report["classes"]] == [
            sum(d["class_id"] == i for d in dets) for i in range(len(doc["classes"]))]


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.count("ok  ") == 3

    def test_failed_suite_is_3(self, capsys, monkeypatch):
        monkeypatch.setattr("repdet.selftest.SUITES", (("broken", lambda: (False, "forced")),))
        code, out, err = run_cli(capsys, "selftest")
        assert code == 3
        assert out == "FAIL broken: forced\n"
        assert err == "error: selftest suites failed\n"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "summarize", "--model", "huge")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_eval_takes_no_class_count(self, capsys, tiny_dataset):
        # eval's class count is its manifest's
        code, out, err = run_cli(capsys, "eval", "--model", "baseline", "--nc", "3",
                                 "--manifest", tiny_dataset)
        assert code == 1
        assert out == ""
        assert err == "error: unrecognized arguments: --nc 3\n"

    def test_missing_weights_file_is_2(self, capsys, black_image):
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", "/nonexistent.rwt")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_magic_is_2(self, capsys, black_image, tmp_path):
        bad = os.fspath(tmp_path / "bad.rwt")
        Path(bad).write_bytes(b"JUNKJUNKJUNK")
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", bad)
        assert code == 2

    def test_bad_tensor_name_is_2(self, capsys, black_image, tmp_path):
        bad = os.fspath(tmp_path / "bad.rwt")
        # one rank-0 tensor whose 2-byte name is not UTF-8
        blob = b"RWT1" + struct.pack("<IH", 1, 2) + b"\xff\xfe" + b"\x00" + struct.pack("<f", 1.0)
        Path(bad).write_bytes(blob)
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", bad)
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err

    @pytest.mark.parametrize("dims", [(65536,) * 4, (2 ** 32 - 1, 2 ** 32 - 1, 3)])
    def test_overflowing_dims_are_2(self, capsys, black_image, tmp_path, dims):
        bad = os.fspath(tmp_path / "big.rwt")
        blob = (b"RWT1" + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B", len(dims))
                + struct.pack(f"<{len(dims)}I", *dims) + b"\0" * 16)
        Path(bad).write_bytes(blob)
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", bad)
        assert code == 2
        assert err.startswith("error:") and "truncated" in err

    def test_wrong_graph_weights_is_3(self, capsys, black_image, tmp_path):
        w = os.fspath(tmp_path / "base.rwt")
        g = M.build_model("baseline", 3)
        M.init_weights(g, 0)
        M.collect_weights(g).save(w)
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", w)
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_nan_weight_is_3_and_names_the_node(self, capsys, black_image, tiny_dataset,
                                                tmp_path, command):
        w = os.fspath(tmp_path / "nan.rwt")
        store = M.init_weights(M.build_model("improved", 3), 0)
        store["backbone.conv0.w"][0, 0, 0, 0] = np.nan
        store.save(w)
        source = ("--image", black_image) if command == "infer" else ("--manifest", tiny_dataset)
        code, out, err = run_cli(capsys, command, "--model", "improved", "--weights", w, *source)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "backbone.conv0 " in err

    @pytest.mark.parametrize("variant", ["baseline", "improved"])
    def test_non_finite_diagnosis_holds_no_more_than_a_forward(self, variant):
        # the second walk frees dead outputs as forward does and stops at the
        # first non-finite node: 12.0 MiB at 640x640, where holding every node
        # output peaked at 52.2 (baseline) and 70.1 MiB (improved)
        g = M.build_model(variant, 3)
        M.seed_weights(g, 0)
        dict(M.named_tensors(g))["neck.c2f15.cv2.w"][0, 0, 0, 0] = np.nan
        x = np.random.default_rng(5).uniform(0, 1, (1, 3, 640, 640)).astype(np.float32)
        tracemalloc.start()
        try:
            with pytest.raises(NumericError, match=r"at node neck\.c2f15 \(c2f\);"), \
                    np.errstate(all="ignore"):
                _forward_finite(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2 ** 20

    @pytest.mark.parametrize("command", ["infer", "eval", "fuse"])
    def test_negative_seed_is_1(self, capsys, black_image, tiny_dataset, command):
        source = {"infer": ("--image", black_image), "eval": ("--manifest", tiny_dataset),
                  "fuse": ()}[command]
        code, out, err = run_cli(capsys, command, "--model", "improved", "--seed", "-1", *source)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--seed" in err

    @pytest.mark.parametrize("command,store", [("infer", "negvar"), ("eval", "negvar"),
                                               ("fuse", "negvar"), ("infer", "overflow")])
    def test_bad_store_gives_one_line_and_no_warning(self, capsys, black_image, tiny_dataset,
                                                      tmp_path, command, store):
        w = bad_store(tmp_path, store)
        # the message names where the bad value is: the tensor, or the first node
        where = {"negvar": "'backbone.conv0.bn.var'", "overflow": "node backbone.conv0 "}[store]
        source = {"infer": ("--image", black_image), "eval": ("--manifest", tiny_dataset),
                  "fuse": ("--verify",)}[command]
        # pytest records warnings instead of printing them, so make them raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--model", "improved", "--weights", w,
                                     *source)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and where in err

    @pytest.mark.parametrize("argv", [
        ("compare", "--nc", "1000000000000"),
        ("summarize", "--model", "baseline", "--nc", "99999999999999999999999"),
        ("fuse", "--model", "improved", "--nc", str(HeadConfig.max_nc + 1)),
        ("compare", "--nc", "0"),
    ])
    def test_class_count_out_of_bounds_is_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "class count" in err

    def test_manifest_class_count_out_of_bounds_is_1(self, capsys, tmp_path, tiny_dataset):
        doc = json.loads(Path(tiny_dataset).read_text())
        doc["classes"] = [f"c{i}" for i in range(HeadConfig.max_nc + 1)]
        manifest = tmp_path / "many.json"
        manifest.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "eval", "--model", "baseline",
                                 "--manifest", os.fspath(manifest))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "class count" in err

    # 5,000 digits: past the interpreter's default int-string limit of 4,300
    @pytest.mark.parametrize("case,want_code,want_text", [
        ("manifest not UTF-8", 2, "cannot parse manifest"),
        ("manifest nested 100,000 deep", 2, "cannot parse manifest"),
        ("manifest integer of 5,000 digits", 2, "cannot parse manifest"),
        ("manifest is a directory", 2, "Is a directory"),
        ("PPM width of 5,000 digits", 2, "width of 5000 digits"),
        ("listed PPM maxval of 5,000 digits", 2, "maxval of 5000 digits"),
        ("label class id of 5,000 digits", 3, "im0.txt:1: "),
    ])
    def test_outside_input_gives_one_typed_error(self, capsys, tmp_path, tiny_dataset,
                                                 case, want_code, want_text):
        long = "7" * 5000
        manifest = tmp_path / "bad.json"
        command, source = "eval", ("--manifest", os.fspath(manifest))
        if case == "manifest not UTF-8":
            manifest.write_bytes(b'{"classes": ["a\xff"], "items": []}')
        elif case == "manifest nested 100,000 deep":
            manifest.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "manifest integer of 5,000 digits":
            manifest.write_text(f'{{"classes": {long}, "items": []}}')
        elif case == "manifest is a directory":
            manifest.mkdir()
        elif case == "PPM width of 5,000 digits":
            (tmp_path / "long.ppm").write_bytes(f"P6\n{long} 1\n255\n".encode() + bytes(3))
            command, source = "infer", ("--image", os.fspath(tmp_path / "long.ppm"))
        elif case == "listed PPM maxval of 5,000 digits":
            (tmp_path / "im0.ppm").write_bytes(f"P6\n1 1\n{long}\n".encode() + bytes(3))
            source = ("--manifest", tiny_dataset)
        else:
            (tmp_path / "im0.txt").write_text(f"{long} 0.5 0.5 0.2 0.2\n")
            source = ("--manifest", tiny_dataset)
        code, out, err = run_cli(capsys, command, "--model", "baseline", *source)
        assert code == want_code
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and want_text in err

    def test_bad_threshold_is_1(self, capsys, black_image):
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--conf", "1.5")
        assert code == 1

    def test_no_partial_output_on_failure(self, capsys, tmp_path):
        target = tmp_path / "out" / "report.json"
        code, _, err = run_cli(capsys, "eval", "--model", "improved",
                               "--manifest", "/nonexistent/manifest.json",
                               "--out", os.fspath(target))
        assert code == 2  # an unopenable manifest is an I/O error, as an unopenable --image is
        assert not target.exists()


class TestOutputMode:
    @pytest.mark.parametrize("target", ["missing/layers.csv", "existing"])
    def test_failed_write_is_2_and_names_the_path(self, capsys, tmp_path, target):
        # the error names the path asked for, not the temp file beside it,
        # so two runs print the same line, and no temp file is left
        (tmp_path / "existing").mkdir()
        (tmp_path / "existing" / "kept.txt").write_bytes(b"kept")
        before = sorted(tmp_path.rglob("*"))
        path = os.fspath(tmp_path / target)
        errs = set()
        for _ in range(2):
            code, out, err = run_cli(capsys, "summarize", "--model", "baseline", "--csv", path)
            assert code == 2
            assert TestByteContract.sha(out.encode("utf-8")) == TestByteContract.SUMMARIZE["baseline"][0]
            errs.add(err)
        (err,) = errs
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(path) in err and ".repdet-" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "existing" / "kept.txt").read_bytes() == b"kept"

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        # the umask is read by creating a file, never by setting it
        with open(tmp_path / "plain", "wb"):
            pass
        write_atomic(os.fspath(tmp_path / "new"), b"x")
        assert (tmp_path / "new").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_data_reaches_the_disk_before_the_rename(self, monkeypatch, tmp_path):
        # a rename that a power loss keeps can then not point at an empty file
        events = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        target = tmp_path / "report.json"
        target.write_bytes(b"old")
        write_atomic(os.fspath(target), b"new")
        ino = target.stat().st_ino
        assert target.read_bytes() == b"new"
        assert events == [("fsync", ino), ("replace", ino)]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_bytes(b"old")
        target.chmod(0o640)
        write_atomic(os.fspath(target), b"new")
        assert target.read_bytes() == b"new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same repdet as this process, installed or not
        src = os.path.dirname(os.path.dirname(repdet.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "repdet.cli", "compare", "--nc", "3"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "reduction" in proc.stdout
