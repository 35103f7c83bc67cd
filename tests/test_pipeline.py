"""Detection-pipeline tests: PPM IO, letterbox geometry, distance decoding,
NMS behavior, and annotation determinism."""
import os
from pathlib import Path

import numpy as np
import pytest

from repdet.blocks import HeadConfig
from repdet.cli import main
from repdet.errors import FormatError, ShapeError, SpecError, ValidationError
from repdet.pipeline import (
    PAD_VALUE,
    Candidates,
    Detection,
    LetterboxMeta,
    annotate,
    decode_detections,
    detections_to_json,
    dfl_expectation,
    letterbox,
    nms,
    unletterbox_box,
)
from repdet.ppm import read_ppm, write_ppm

from oracles import candidates, ref_softmax_group

CFG = HeadConfig(nc=3)


def det(cid, score, box, name=None):
    return Detection(cid, name or f"class{cid}", score, box)


class TestPPM:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (17, 23, 3), dtype=np.uint8)
        path = os.fspath(tmp_path / "img.ppm")
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_header_comments_handled(self, tmp_path):
        path = os.fspath(tmp_path / "c.ppm")
        # a comment runs to a "\n" or to a lone "\r"
        for header in (b"P6\n# a comment\n2 1\n# another\n255\n", b"P6 # a comment\r2 1\r255\n"):
            with open(path, "wb") as f:
                f.write(header + bytes(6))
            assert read_ppm(path).shape == (1, 2, 3)

    def test_bad_magic(self, tmp_path):
        path = os.fspath(tmp_path / "bad.ppm")
        # a "#" inside a token is part of it, not the start of a comment
        for magic in (b"P5", b"P6#c"):
            with open(path, "wb") as f:
                f.write(magic + b"\n1 1\n255\n\x00")
            with pytest.raises(FormatError, match="magic"):
                read_ppm(path)

    @pytest.mark.parametrize("header", [b"P6 +2 1 255\n", b"P6 2 1_0 255\n", b"P6 1#c 1 255\n"])
    def test_header_numbers_are_ascii_digits(self, tmp_path, header):
        path = os.fspath(tmp_path / "n.ppm")
        with open(path, "wb") as f:
            f.write(header + bytes(100))
        with pytest.raises(FormatError, match="non-numeric"):
            read_ppm(path)

    def test_truncated_pixels(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "short.ppm")
        # the third file ends at maxval, with no separator byte: the offset
        # stays at the file's end. Through the CLI each file is exit 2 with
        # one error line.
        for blob, message in ((b"P6\n4 4\n255\n" + bytes(10), "truncated pixel data"),
                              (b"P6\n4 4\n", "truncated PPM header at offset 7$"),
                              (b"P6 1 1 255", "pixel data at offset 10: need 3 bytes, have 0$"),
                              (b"P6 1 1 65535\n" + bytes(6), "unsupported maxval 65535,"),
                              (b"P6 1 1 1\n" + bytes(3), "unsupported maxval 1,")):
            with open(path, "wb") as f:
                f.write(blob)
            with pytest.raises(FormatError, match=message):
                read_ppm(path)
            assert main(["infer", "--model", "baseline", "--image", path]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_write_is_deterministic(self, tmp_path):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        p1, p2 = os.fspath(tmp_path / "a.ppm"), os.fspath(tmp_path / "b.ppm")
        write_ppm(p1, img)
        write_ppm(p2, img)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestLetterbox:
    def test_square_input_is_unpadded(self):
        img = np.zeros((640, 640, 3), dtype=np.uint8)
        tensor, meta = letterbox(img)
        assert tensor.shape == (1, 3, 640, 640)
        assert meta == LetterboxMeta(1.0, 0, 0, 640, 640)

    def test_wide_input_pads_vertically(self):
        img = np.full((960, 1280, 3), 200, dtype=np.uint8)
        tensor, meta = letterbox(img)
        assert meta.scale == 0.5
        assert meta.pad_left == 0 and meta.pad_top == 80
        # grey bands above and below, image content in the middle
        pad = PAD_VALUE / 255.0
        assert abs(tensor[0, 0, 0, 0] - pad) < 1e-6
        assert abs(tensor[0, 0, 639, 639] - pad) < 1e-6
        assert abs(tensor[0, 0, 80, 0] - 200 / 255.0) < 1e-6
        assert abs(tensor[0, 0, 559, 639] - 200 / 255.0) < 1e-6

    def test_single_pixel_upscales(self):
        img = np.full((1, 1, 3), 99, dtype=np.uint8)
        tensor, meta = letterbox(img)
        assert meta.scale == 640.0
        assert meta.pad_left == 0 and meta.pad_top == 0
        assert np.abs(tensor - 99 / 255.0).max() < 1e-6

    def test_empty_image_rejected(self):
        with pytest.raises(ValidationError):
            letterbox(np.zeros((0, 4, 3), dtype=np.uint8))

    def test_mapping_invertible_within_one_pixel(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = int(rng.integers(1, 1600))
            h = int(rng.integers(1, 1600))
            _, meta = letterbox(np.zeros((h, w, 3), dtype=np.uint8))
            for _ in range(5):
                x = float(rng.uniform(0, w))
                y = float(rng.uniform(0, h))
                lx = x * meta.scale + meta.pad_left
                ly = y * meta.scale + meta.pad_top
                bx = unletterbox_box((lx, ly, lx, ly), meta)
                assert abs(bx[0] - x) <= 1.0 and abs(bx[1] - y) <= 1.0


class TestDFL:
    def test_uniform_logits_midpoint(self):
        out = dfl_expectation(np.zeros((1, 64, 2, 2), dtype=np.float32))
        assert np.abs(out - 7.5).max() < 1e-6

    def test_one_hot_bin(self):
        x = np.zeros((1, 64, 1, 1), dtype=np.float32)
        x[0, 3] = 50.0  # bin 3 of side 0
        out = dfl_expectation(x)
        assert abs(out[0, 0, 0, 0] - 3.0) < 1e-6

    def test_matches_softmax_expectation_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-4, 4, (1, 64, 3, 3)).astype(np.float32)
        p = ref_softmax_group(x, 16).reshape(1, 4, 16, 3, 3).astype(np.float64)
        want = (p * np.arange(16)[None, None, :, None, None]).sum(axis=2)
        assert np.abs(dfl_expectation(x) - want).max() < 1e-6

    def test_outputs_in_bin_range(self):
        rng = np.random.default_rng(3)
        out = dfl_expectation(rng.uniform(-9, 9, (1, 64, 4, 4)).astype(np.float32))
        assert out.min() >= 0.0 and out.max() <= 15.0

    def test_channel_divisibility(self):
        with pytest.raises(SpecError):
            dfl_expectation(np.zeros((1, 63, 1, 1), dtype=np.float32))


def _head_maps(fill=-50.0):
    return [np.full((1, 67, 80, 80), fill, dtype=np.float32),
            np.full((1, 67, 40, 40), fill, dtype=np.float32),
            np.full((1, 67, 20, 20), fill, dtype=np.float32)]


class TestDecode:
    IDENTITY_META = LetterboxMeta(1.0, 0, 0, 640, 640)

    def test_low_logits_give_no_detections(self):
        assert len(decode_detections(_head_maps(), CFG, self.IDENTITY_META, 0.25)) == 0

    def test_batch_of_two_rejected(self):
        maps = [np.concatenate([m, m]) for m in _head_maps()]
        with pytest.raises(ShapeError, match="batch axis 2"):
            decode_detections(maps, CFG, self.IDENTITY_META, 0.25)

    def test_single_forced_cell(self):
        maps = _head_maps()
        cell = maps[0][0, :, 10, 10]
        cell[:] = -50.0
        for side in range(4):
            cell[side * 16 + 2] = 50.0  # one-hot bin 2 -> distance 2 per side
        cell[64 + 1] = 50.0  # class 1 almost certainly present
        dets = decode_detections(maps, CFG, self.IDENTITY_META, 0.25)
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 1
        x1, y1, x2, y2 = d.box
        assert abs((x1 + x2) / 2 - 84.0) < 1e-3 and abs((y1 + y2) / 2 - 84.0) < 1e-3
        assert abs((x2 - x1) - 32.0) < 1e-3 and abs((y2 - y1) - 32.0) < 1e-3

    def test_unmapping_applies_meta(self):
        maps = _head_maps()
        cell = maps[0][0, :, 20, 20]
        for side in range(4):
            cell[side * 16 + 4] = 50.0
        cell[64] = 50.0
        meta = LetterboxMeta(0.5, 0, 80, 1280, 960)
        d = decode_detections(maps, CFG, meta, 0.25)[0]
        # letterboxed y 164 maps back to (164 - 80) / 0.5
        assert abs((d.box[1] + d.box[3]) / 2 - (164.0 - 80.0) / 0.5) < 1e-3

    def test_degenerate_distances_dropped(self):
        maps = _head_maps()
        cell = maps[0][0, :, 5, 5]
        cell[0 * 16 + 0] = 50.0   # l -> 0
        cell[1 * 16 + 3] = 50.0
        cell[2 * 16 + 0] = 50.0   # r -> 0: zero width
        cell[3 * 16 + 3] = 50.0
        cell[64] = 50.0
        assert len(decode_detections(maps, CFG, self.IDENTITY_META, 0.25)) == 0

    def test_wrong_channel_count(self):
        maps = _head_maps()
        maps[1] = np.zeros((1, 66, 40, 40), dtype=np.float32)
        with pytest.raises(Exception):
            decode_detections(maps, CFG, self.IDENTITY_META, 0.25)


class TestNMS:
    def test_single_detection_kept(self):
        d = det(0, 0.9, (0, 0, 10, 10))
        assert nms(candidates([d])) == [d]

    def test_overlap_suppressed(self):
        a = det(0, 0.9, (0.0, 0.0, 10.0, 10.0))
        b = det(0, 0.8, (0.0, 0.0, 10.0, 9.0))  # IoU 0.9
        assert nms(candidates([a, b]), 0.5) == [a]

    def test_classes_do_not_suppress_each_other(self):
        a = det(0, 0.9, (0.0, 0.0, 10.0, 10.0))
        b = det(1, 0.8, (0.0, 0.0, 10.0, 9.0))
        assert nms(candidates([a, b]), 0.5) == [a, b]

    def test_output_subset_sorted_and_disjoint(self):
        rng = np.random.default_rng(4)
        dets = []
        for _ in range(40):
            x1 = float(rng.uniform(0, 80))
            y1 = float(rng.uniform(0, 80))
            dets.append(det(int(rng.integers(0, 3)), float(rng.uniform(0.1, 0.99)),
                            (x1, y1, x1 + float(rng.uniform(5, 30)), y1 + float(rng.uniform(5, 30)))))
        kept = nms(candidates(dets), 0.45)
        assert all(k in dets for k in kept)
        assert all(kept[i].score >= kept[i + 1].score for i in range(len(kept) - 1))
        from repdet.evaluate import iou
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                if kept[i].class_id == kept[j].class_id:
                    assert iou(kept[i].box, kept[j].box) < 0.45

    def test_tie_prefers_lower_class_id(self):
        a = det(2, 0.8, (0.0, 0.0, 10.0, 10.0))
        b = det(1, 0.8, (100.0, 100.0, 110.0, 110.0))
        assert nms(candidates([a, b]), 0.5) == [b, a]

    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("corner", range(4))
    def test_nan_box_still_rejected(self, rank, corner):
        # `Candidates` takes its arrays unchecked; a NaN box is never
        # suppressed and never suppresses, so `Detection` rejects it
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        boxes[rank, corner] = np.nan
        cands = Candidates(np.zeros(2, dtype=np.int64), np.array([0.9, 0.8], dtype=np.float32),
                           boxes, ("class0",))
        with pytest.raises(ValidationError, match="degenerate box"):
            nms(cands)


class TestAnnotate:
    def test_no_detections_leaves_image(self):
        img = np.random.default_rng(5).integers(0, 256, (30, 40, 3), dtype=np.uint8)
        assert np.array_equal(annotate(img, []), img)

    def test_outline_pixels_recolored(self):
        img = np.zeros((40, 40, 3), dtype=np.uint8)
        out = annotate(img, [det(0, 0.9, (10.0, 10.0, 20.0, 20.0))])
        changed = np.argwhere((out != img).any(axis=2))
        assert len(changed) > 0
        ys, xs = changed[:, 0], changed[:, 1]
        assert ys.min() == 10 and ys.max() == 20 and xs.min() == 10 and xs.max() == 20
        # interior beyond the 2px border is untouched
        assert np.array_equal(out[13:18, 13:18], img[13:18, 13:18])

    def test_deterministic_bytes(self):
        img = np.random.default_rng(6).integers(0, 256, (50, 60, 3), dtype=np.uint8)
        dets = [det(1, 0.7, (5.0, 5.0, 25.0, 30.0)), det(0, 0.6, (30.0, 10.0, 55.0, 45.0))]
        assert annotate(img, dets).tobytes() == annotate(img, dets).tobytes()


class TestDetectionJson:
    def test_fixed_decimals(self):
        text = detections_to_json([det(0, 0.25, (1.0, 2.0, 3.5, 4.25))])
        assert '"score": 0.2500' in text
        assert "[1.0000, 2.0000, 3.5000, 4.2500]" in text

    def test_empty_list(self):
        assert detections_to_json([]) == "[]"

    def test_parses_as_json(self):
        import json
        text = detections_to_json([det(2, 0.5, (0.0, 0.0, 5.0, 5.0))])
        doc = json.loads(text)
        assert doc[0]["class_id"] == 2 and doc[0]["class_name"] == "class2"


class TestDetectionValidation:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            det(0, 0.5, (5.0, 5.0, 5.0, 10.0))

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            det(0, 1.5, (0.0, 0.0, 5.0, 5.0))
