"""End-to-end command tests: outputs, determinism, exit codes, atomicity."""
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import repdet
import repdet.model as M
from repdet.cli import main
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
        rows = open(csv_path).read().splitlines()
        assert rows[0] == "layer,kind,output,params,macs"
        assert rows[-1].split(",")[3] == total_line[1]

    def test_kind_column_shows_placement(self, capsys):
        _, out, _ = run_cli(capsys, "summarize", "--model", "improved", "--nc", "3")
        assert sum(1 for line in out.splitlines() if " c2f_ms " in line) == 5
        assert sum(1 for line in out.splitlines() if " msca " in line) == 1


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

    def test_roundtrip_weights_file(self, capsys, tmp_path):
        w_path = os.fspath(tmp_path / "w.rwt")
        g = M.build_model("improved", 3)
        M.init_weights(g, 4)
        M.collect_weights(g).save(w_path)
        code, out, _ = run_cli(capsys, "fuse", "--model", "improved",
                               "--weights", w_path, "--out",
                               os.fspath(tmp_path / "f.rwt"), "--verify")
        assert code == 0


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
        assert open(a1, "rb").read() == open(a2, "rb").read()

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
        assert json.loads(open(report_path).read()) == doc

    def test_csv_report(self, capsys, tiny_dataset, tmp_path):
        report_path = os.fspath(tmp_path / "report.csv")
        code, _, _ = run_cli(capsys, "eval", "--model", "improved",
                             "--manifest", tiny_dataset, "--out", report_path)
        assert code == 0
        assert open(report_path).read().startswith("class,")


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.count("ok  ") == 3


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "summarize", "--model", "huge")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_weights_file_is_2(self, capsys, black_image):
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", "/nonexistent.rwt")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_magic_is_2(self, capsys, black_image, tmp_path):
        bad = os.fspath(tmp_path / "bad.rwt")
        open(bad, "wb").write(b"JUNKJUNKJUNK")
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", bad)
        assert code == 2

    def test_bad_tensor_name_is_2(self, capsys, black_image, tmp_path):
        bad = os.fspath(tmp_path / "bad.rwt")
        # one rank-0 tensor whose 2-byte name is not UTF-8
        blob = b"RWT1" + struct.pack("<IH", 1, 2) + b"\xff\xfe" + b"\x00" + struct.pack("<f", 1.0)
        open(bad, "wb").write(blob)
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--weights", bad)
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err

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

    def test_bad_threshold_is_1(self, capsys, black_image):
        code, _, err = run_cli(capsys, "infer", "--model", "improved",
                               "--image", black_image, "--conf", "1.5")
        assert code == 1

    def test_no_partial_output_on_failure(self, capsys, tmp_path):
        target = tmp_path / "out" / "report.json"
        code, _, err = run_cli(capsys, "eval", "--model", "improved",
                               "--manifest", "/nonexistent/manifest.json",
                               "--out", os.fspath(target))
        assert code == 3
        assert not target.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same repdet as this process, installed or not
        src = os.path.dirname(os.path.dirname(repdet.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "repdet.cli", "compare", "--nc", "3"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "reduction" in proc.stdout
