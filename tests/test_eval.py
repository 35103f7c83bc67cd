"""Metric tests: IoU and matching hand cases, AP against the exhaustive
threshold oracle, and full-report behavior on planted datasets."""
import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repdet.cli import main
from repdet.errors import ValidationError
from repdet.evaluate import (
    DatasetItem,
    GroundTruthBox,
    average_precision_50,
    evaluate,
    iou,
    load_dataset,
    match_detections,
)
from repdet.pipeline import Detection
from repdet.ppm import write_ppm

from oracles import ref_eval_exhaustive
from synth import CLASS_NAMES, as_oracle_inputs, build_planted_dataset


def det(cid, score, box):
    return Detection(cid, CLASS_NAMES[cid], score, box)


class TestGroundTruth:
    def test_denormalization(self):
        # centered box on a 640x480 image: 128x48 pixels around (320, 240)
        box = GroundTruthBox(0, 0.5, 0.5, 0.2, 0.1).to_pixels(640, 480)
        assert box == (256.0, 216.0, 384.0, 264.0)
        assert (box[0] + box[2]) / 2 == 320.0 and (box[1] + box[3]) / 2 == 240.0
        assert box[2] - box[0] == 128.0 and box[3] - box[1] == 48.0

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            GroundTruthBox(0, 1.2, 0.5, 0.1, 0.1)
        with pytest.raises(ValidationError):
            GroundTruthBox(0, 0.5, 0.5, 0.0, 0.1)


class TestLoadDataset:
    def _make(self, tmp_path, label_text, image_size=(8, 6)):
        w, h = image_size
        write_ppm(os.fspath(tmp_path / "img0.ppm"), np.zeros((h, w, 3), dtype=np.uint8))
        (tmp_path / "img0.txt").write_text(label_text, encoding="utf-8")
        manifest = {
            "classes": ["wssv", "bss", "sbgs"],
            "items": [{"image": "img0.ppm", "label": "img0.txt"}],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return os.fspath(path)

    def test_loads_boxes(self, tmp_path):
        boxes = "0 0.5 0.5 0.2 0.1", "1 0.25 0.25 0.1 0.1"
        classes, items = load_dataset(self._make(tmp_path, "\n".join(boxes) + "\n"))
        assert classes == ["wssv", "bss", "sbgs"]
        assert len(items) == 1 and len(items[0].truths) == 2
        assert items[0].truths[1].class_id == 1
        # an empty or whitespace-only line between boxes is skipped
        _, spaced = load_dataset(self._make(tmp_path, "\n\n   \n".join(boxes) + "\n"))
        assert spaced[0].truths == items[0].truths

    def test_empty_label_file_is_negative_sample(self, tmp_path):
        _, items = load_dataset(self._make(tmp_path, ""))
        assert items[0].truths == ()

    def test_four_field_line_names_line(self, tmp_path):
        with pytest.raises(ValidationError, match=":1"):
            load_dataset(self._make(tmp_path, "0 0.5 0.5 0.2\n"))

    def test_class_out_of_range(self, tmp_path):
        with pytest.raises(ValidationError, match="class id"):
            load_dataset(self._make(tmp_path, "7 0.5 0.5 0.2 0.1\n"))

    # each parses with int() / float() to an in-range value
    @pytest.mark.parametrize("line", ["0_1 0.5 0.5 0.2 0.1", "\u0661 0.5 0.5 0.2 0.1",
                                      "1 0.5_0 0.5 0.2 0.1", "1 0.5 \u0660.5 0.2 0.1"])
    def test_fields_must_be_ascii_decimals(self, tmp_path, line):
        with pytest.raises(ValidationError, match="not a decimal number"):
            load_dataset(self._make(tmp_path, line + "\n"))

    def _manifest(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return os.fspath(path)

    @pytest.mark.parametrize("classes, match", [
        ("abc", "'classes' must be a list"),
        (["a", 1], "'classes' must be a list"),
        ([], "no classes"),
        (["a", "b", "a"], "'a' more than once"),
    ])
    def test_bad_classes_rejected(self, tmp_path, classes, match):
        with pytest.raises(ValidationError, match=match):
            load_dataset(self._manifest(tmp_path, {"classes": classes, "items": []}))

    def test_duplicate_class_is_3_with_one_error_line(self, tmp_path, capsys):
        # two report rows with one name could not be told apart
        path = self._make(tmp_path, "0 0.5 0.5 0.2 0.1\n")
        doc = json.loads(Path(path).read_text())
        Path(path).write_text(json.dumps({**doc, "classes": ["wssv", "bss", "wssv"]}))
        code = main(["eval", "--model", "baseline", "--manifest", path])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "error: manifest 'classes' lists 'wssv' more than once\n"

    def test_items_object_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="'items' must be a list"):
            load_dataset(self._manifest(tmp_path, {"classes": ["a"], "items": {}}))

    @pytest.mark.parametrize("item", [{"image": 3, "label": "a.txt"},
                                      {"image": "a.ppm", "label": ["a.txt"]}])
    def test_non_string_paths_rejected(self, tmp_path, item):
        with pytest.raises(ValidationError, match="path strings"):
            load_dataset(self._manifest(tmp_path, {"classes": ["a"], "items": [item]}))

    def test_non_utf8_label_rejected(self, tmp_path):
        path = self._make(tmp_path, "")
        (tmp_path / "img0.txt").write_bytes(b"0 0.5 0.5 0.2 0.1\n\xff\xfe\n")
        with pytest.raises(ValidationError, match="not UTF-8"):
            load_dataset(path)

    def test_missing_files_listed(self, tmp_path):
        path = self._manifest(tmp_path, {"classes": ["a"],
                                         "items": [{"image": "nope.ppm", "label": "nope.txt"}]})
        with pytest.raises(ValidationError, match="missing"):
            load_dataset(path)


class TestIoU:
    def test_identical(self):
        assert iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_hand_value(self):
        assert abs(iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1.0 / 7.0) < 1e-9


class TestMatching:
    TRUTH = [(0, (0.0, 0.0, 10.0, 10.0))]

    @staticmethod
    def misses(dets):
        """`evaluate`'s class-0 miss count for `dets` against TRUTH, whose
        normalized label is the whole 10x10 image."""
        item = DatasetItem("img.ppm", (GroundTruthBox(0, 0.5, 0.5, 1.0, 1.0),))
        assert [(0, item.truths[0].to_pixels(10, 10))] == TestMatching.TRUTH
        return evaluate([dets], [item], CLASS_NAMES, image_sizes=[(10, 10)]).classes[0].fn

    def test_exact_hit(self):
        dets = [det(0, 0.9, (0.0, 0.0, 10.0, 10.0))]
        assert match_detections(dets, self.TRUTH) == [True]
        assert self.misses(dets) == 0

    def test_duplicate_second_is_fp(self):
        dets = [det(0, 0.6, (0.0, 0.0, 10.0, 9.5)), det(0, 0.9, (0.0, 0.0, 10.0, 10.0))]
        assert match_detections(dets, self.TRUTH) == [False, True]  # higher score claims the truth
        assert self.misses(dets) == 0

    def test_below_threshold_is_fp_and_fn(self):
        dets = [det(0, 0.9, (0.0, 6.0, 10.0, 16.0))]
        assert match_detections(dets, self.TRUTH) == [False]  # IoU 0.25
        assert self.misses(dets) == 1

    def test_class_mismatch_never_matches(self):
        dets = [det(1, 0.9, (0.0, 0.0, 10.0, 10.0))]
        assert match_detections(dets, self.TRUTH) == [False]
        assert self.misses(dets) == 1


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision_50([True, True, True], 3) == 1.0

    def test_no_detections(self):
        assert average_precision_50([], 4) == 0.0

    def test_hand_case_tp_fp_tp(self):
        # P/R sweep: (1, 0.5), (0.5, 0.5), (2/3, 1) -> 1*0.5 + (2/3)*0.5
        assert abs(average_precision_50([True, False, True], 2) - 0.8333) < 1e-4

    def test_monotone_score_rescale_invariant(self):
        flags = [True, False, True, True, False]
        scores = [0.9, 0.8, 0.7, 0.4, 0.2]
        a = average_precision_50(flags, 4, scores)
        b = average_precision_50(flags, 4, [s ** 3 for s in scores])
        assert abs(a - b) < 1e-12

    def test_requires_a_truth(self):
        with pytest.raises(ValidationError):
            average_precision_50([True], 0)


def _single_image_case():
    truths = (GroundTruthBox(0, 0.5, 0.5, 0.25, 0.25), GroundTruthBox(1, 0.2, 0.2, 0.2, 0.2))
    item = DatasetItem("img.ppm", truths)
    size = (100, 100)
    dets = [
        det(0, 0.9, truths[0].to_pixels(*size)),
        det(1, 0.8, truths[1].to_pixels(*size)),
    ]
    return [dets], [item], [size]


class TestEvaluate:
    def test_perfect_detector(self):
        dets, items, sizes = _single_image_case()
        report = evaluate(dets, items, CLASS_NAMES, image_sizes=sizes)
        assert report.map50 == 1.0
        for c in report.classes[:2]:
            assert c.precision == 1.0 and c.recall == 1.0 and c.ap50 == 1.0

    def test_silent_detector(self):
        _, items, sizes = _single_image_case()
        report = evaluate([[]], items, CLASS_NAMES, image_sizes=sizes)
        assert report.map50 == 0.0
        assert all(c.recall == 0.0 for c in report.classes)
        assert all(c.precision == 0.0 for c in report.classes)
        assert all(c.degenerate_precision for c in report.classes)

    def test_count_identities(self):
        items, dets, sizes = build_planted_dataset(seed=3)
        report = evaluate(dets, items, CLASS_NAMES, image_sizes=sizes)
        for c, name in zip(report.classes, CLASS_NAMES):
            assert c.tp + c.fn == c.truths
            assert c.tp + c.fp == c.detections

    def test_class_without_truth_excluded_from_map(self):
        truths = (GroundTruthBox(0, 0.5, 0.5, 0.25, 0.25),)
        item = DatasetItem("img.ppm", truths)
        dets = [[det(0, 0.9, truths[0].to_pixels(100, 100))]]
        report = evaluate(dets, [item], CLASS_NAMES, image_sizes=[(100, 100)])
        assert report.classes[1].ap50 is None and report.classes[2].ap50 is None
        assert report.map50 == 1.0

    def test_image_order_permutation_invariant(self):
        items, dets, sizes = build_planted_dataset(seed=5, images=12)
        ref = evaluate(dets, items, CLASS_NAMES, image_sizes=sizes)
        perm = np.random.default_rng(0).permutation(len(items))
        rep = evaluate([dets[i] for i in perm], [items[i] for i in perm],
                       CLASS_NAMES, image_sizes=[sizes[i] for i in perm])
        assert rep.map50 == ref.map50
        for a, b in zip(rep.classes, ref.classes):
            assert (a.tp, a.fp, a.fn, a.precision, a.recall, a.ap50) == \
                   (b.tp, b.fp, b.fn, b.precision, b.recall, b.ap50)

    def test_matches_exhaustive_threshold_oracle(self):
        items, dets, sizes = build_planted_dataset(seed=7, images=20)
        report = evaluate(dets, items, CLASS_NAMES, image_sizes=sizes)
        o_dets, o_truths = as_oracle_inputs(items, dets, sizes)
        per_class, map50 = ref_eval_exhaustive(o_dets, o_truths, 3)
        assert abs(report.map50 - map50) < 1e-9
        for cid, c in enumerate(report.classes):
            p, r, ap = per_class[cid]
            assert abs(c.precision - p) < 1e-9
            assert abs(c.recall - r) < 1e-9
            if ap is None:
                assert c.ap50 is None
            else:
                assert abs(c.ap50 - ap) < 1e-9

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            evaluate([], [], CLASS_NAMES, image_sizes=[])

    def test_image_sizes_must_cover_every_image(self):
        dets, items, _ = _single_image_case()
        with pytest.raises(ValidationError, match="0 image sizes for 1 images"):
            evaluate(dets, items, CLASS_NAMES, image_sizes=[])

    def test_detection_class_outside_the_names_rejected(self):
        dets, items, sizes = _single_image_case()
        extra = Detection(3, "class3", 0.5, (1.0, 1.0, 9.0, 9.0))
        with pytest.raises(ValidationError, match="class id 3 outside 0..2"):
            evaluate([dets[0] + [extra]], items, CLASS_NAMES, image_sizes=sizes)

    def test_truth_class_outside_the_names_rejected(self):
        dets, items, sizes = _single_image_case()
        item = DatasetItem("img.ppm", items[0].truths + (GroundTruthBox(-1, 0.5, 0.5, 0.2, 0.2),))
        with pytest.raises(ValidationError, match="class id -1 outside 0..2"):
            evaluate(dets, [item], CLASS_NAMES, image_sizes=sizes)

    def test_report_serialization(self):
        dets, items, sizes = _single_image_case()
        report = evaluate(dets, items, CLASS_NAMES, image_sizes=sizes)
        doc = json.loads(report.to_json_text())
        assert doc["map50"] == 1.0
        assert doc["classes"][0]["ap50"] == 1.0
        assert doc["classes"][2]["ap50"] is None
        csv = report.to_csv_text().splitlines()
        assert csv[0].startswith("class,")
        assert csv[-1].startswith("overall,")
        assert csv[-1].endswith("1.0000")

    # each class's fields after its name, in _single_image_case
    CSV_TAILS = ("1,1,1,0,0,1.0000,1.0000,1.0000", "1,1,1,0,0,1.0000,1.0000,1.0000",
                 "0,0,0,0,0,0.0000,0.0000,")

    @pytest.mark.parametrize("names, quoted", [
        (["shrimp, white spot", 'say "hi"', "two\nlines"],
         ['"shrimp, white spot"', '"say ""hi"""', '"two\nlines"']),
        (["cr\r", '"', ","], ['"cr\r"', '""""', '","']),
        (["white spot", "café", "a;b 'c'"], ["white spot", "café", "a;b 'c'"]),
    ], ids=["comma-quote-newline", "cr-lone-quote-lone-comma", "plain"])
    def test_csv_names_parse_back(self, names, quoted):
        # a name is quoted only when it holds a comma, a quote or a line
        # break, so a plain name's row keeps its bytes
        dets, items, sizes = _single_image_case()
        text = evaluate(dets, items, names, image_sizes=sizes).to_csv_text()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert all(len(row) == 9 for row in rows)
        assert [row[0] for row in rows] == ["class", *names, "overall"]
        body = "".join(f"{q},{tail}\n" for q, tail in zip(quoted, self.CSV_TAILS))
        assert text == ("class,truths,detections,tp,fp,fn,precision,recall,ap50\n"
                        f"{body}overall,2,2,,,,,,1.0000")
