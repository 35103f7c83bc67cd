"""Fuzz tests for the input parsers: `.rwt` weight files, PPM images, and
dataset manifests with their label files. Every input must give a value or an
EngineError, which the CLI turns into a documented exit code; any other
exception would reach the user as a traceback.

Draws are derandomized, so every run checks the same examples.
"""
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdet.errors import EngineError
from repdet.evaluate import load_dataset
from repdet.ppm import read_ppm
from repdet.weights import MAGIC, WeightStore

from oracles import ref_load_rwt

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# one digit repeated past the interpreter's default int-string limit of 4,300
digit_runs = st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(4301, 5000))


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as d:
        yield d


def parse_bytes(parse, path, blob):
    """`parse(path)` after writing `blob` there; None when it raises EngineError."""
    with open(path, "wb") as f:
        f.write(blob)
    try:
        return parse(path)
    except EngineError:
        return None


def truncated_or_padded(draw, blob):
    cut = draw(st.integers(0, len(blob)))
    return draw(st.sampled_from([blob, blob[:cut], blob + b"\0"]))


# --- .rwt -----------------------------------------------------------------

@st.composite
def rwt_tensors(draw):
    name = draw(st.one_of(st.text(max_size=6).map(str.encode), st.binary(max_size=6)))
    dim = (st.integers(0, 4) | st.sampled_from([65536, 2 ** 31, 2 ** 32 - 1])
           | st.integers(0, 2 ** 32 - 1))
    dims = draw(st.lists(dim, max_size=5))
    size = math.prod(dims)
    if size <= 16 and draw(st.booleans()):
        payload = draw(st.binary(min_size=4 * size, max_size=4 * size))
    else:
        payload = draw(st.binary(max_size=64))
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


@st.composite
def rwt_files(draw):
    tensors = draw(st.lists(rwt_tensors(), max_size=3))
    count = draw(st.one_of(st.just(len(tensors)), st.integers(0, 2 ** 32 - 1)))
    magic = draw(st.sampled_from([MAGIC, b"RWT0"]))
    return truncated_or_padded(draw, magic + struct.pack("<I", count) + b"".join(tensors))


@FUZZ
@given(blob=rwt_files() | st.binary(max_size=64) | st.binary(max_size=64).map(MAGIC.__add__))
def test_rwt_gives_a_store_or_engine_error(scratch, blob):
    store = parse_bytes(WeightStore.load, os.path.join(scratch, "w.rwt"), blob)
    if store is not None:
        assert all(store[n].dtype == np.float32 for n in store.names())


def load_outcome(load, path):
    """(store, None) from `load(path)`, or (None, (exception type, message))."""
    try:
        return load(path), None
    except Exception as e:  # compared, not swallowed: both sides must agree
        return None, (type(e), str(e))


@FUZZ
@given(blob=rwt_files())
def test_rwt_load_matches_whole_file_reference(scratch, blob):
    path = os.path.join(scratch, "w.rwt")
    with open(path, "wb") as f:
        f.write(blob)
    got, got_error = load_outcome(WeightStore.load, path)
    want, want_error = load_outcome(ref_load_rwt, path)
    assert got_error == want_error
    if want is not None:
        assert got.names() == want.names()
        for n in want.names():
            a, b = got[n], want[n]
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- PPM ------------------------------------------------------------------

header_numbers = st.one_of(
    st.integers(-1, 9).map(str),
    st.integers(-2 ** 40, 2 ** 40).map(str),
    st.sampled_from(["", "x", "1e3", "0x10", "+5", "1_0", "٣"]),
    digit_runs,
    st.text(max_size=4),
)
separators = st.sampled_from([" ", "\n", "\t", "\r\n", " # note\n", "#\n", "", "# open"])


@st.composite
def ppm_files(draw):
    magic = draw(st.sampled_from(["P6", "P5", "P6#", ""]))
    fields = [draw(header_numbers), draw(header_numbers),
              draw(st.one_of(st.just("255"), header_numbers))]
    header = magic
    for field in fields:
        header += draw(separators) + field
    header += draw(st.sampled_from(["\n", " ", ""]))
    pixels = draw(st.binary(max_size=300))
    return truncated_or_padded(draw, header.encode("utf-8") + pixels)


@FUZZ
@given(blob=ppm_files() | st.binary(max_size=64) | st.binary(max_size=64).map(b"P6 ".__add__))
def test_ppm_gives_pixels_or_engine_error(scratch, blob):
    image = parse_bytes(read_ppm, os.path.join(scratch, "im.ppm"), blob)
    if image is not None:
        assert image.dtype == np.uint8 and image.ndim == 3 and image.shape[2] == 3


# --- manifests and label files --------------------------------------------

label_fields = st.one_of(
    st.integers(-2, 4).map(str),
    st.floats(-0.5, 1.5).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-0", "1e400", "0x1", "1_0", "٣", "½", ""]),
    digit_runs,
    st.text(max_size=3),
)
label_texts = st.lists(st.lists(label_fields, min_size=3, max_size=6).map(" ".join),
                       max_size=4).map("\n".join)


def dataset_in(scratch, manifest, label_blob):
    """Writes a manifest (a JSON value, or raw bytes), one image and one label
    file; returns the manifest path."""
    with open(os.path.join(scratch, "im.ppm"), "wb") as f:
        f.write(b"P6\n2 2\n255\n" + bytes(12))
    with open(os.path.join(scratch, "im.txt"), "wb") as f:
        f.write(label_blob)
    path = os.path.join(scratch, "manifest.json")
    with open(path, "wb") as f:
        f.write(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode("utf-8"))
    return path


def load_or_engine_error(path):
    try:
        return load_dataset(path)
    except EngineError:
        return None


GOOD_ITEM = {"image": "im.ppm", "label": "im.txt"}


@FUZZ
@given(label=st.one_of(label_texts.map(str.encode), st.binary(max_size=80)),
       crlf=st.booleans())
def test_label_file_gives_boxes_or_engine_error(scratch, label, crlf):
    if crlf:
        label = label.replace(b"\n", b"\r\n")
    path = dataset_in(scratch, {"classes": ["a", "b", "c"], "items": [GOOD_ITEM]}, label)
    loaded = load_or_engine_error(path)
    if loaded is not None:
        for t in loaded[1][0].truths:
            assert 0 <= t.class_id < 3 and 0.0 < t.w <= 1.0 and 0.0 < t.h <= 1.0


paths = st.sampled_from(["im.ppm", "im.txt", "manifest.json", ".", "", "/", "nope"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6)
    | paths,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=5), kids, max_size=3)),
    max_leaves=8,
)
items = st.fixed_dictionaries({"image": paths | json_values, "label": paths | json_values})


def check_dataset(scratch, doc):
    loaded = load_or_engine_error(dataset_in(scratch, doc, b"0 0.5 0.5 0.2 0.2\n"))
    if loaded is not None:
        classes, dataset = loaded
        assert classes and all(isinstance(c, str) for c in classes)
        assert all(os.path.isfile(item.image_path) for item in dataset)


@FUZZ
@given(doc=json_values | st.fixed_dictionaries({"classes": json_values, "items": json_values}))
def test_manifest_document_gives_a_dataset_or_engine_error(scratch, doc):
    check_dataset(scratch, doc)


@FUZZ
@given(entries=st.lists(items | json_values | st.just(GOOD_ITEM), min_size=1, max_size=3))
def test_manifest_items_give_a_dataset_or_engine_error(scratch, entries):
    check_dataset(scratch, {"classes": ["a"], "items": entries})


GOOD_MANIFEST = json.dumps({"classes": ["a"], "items": [GOOD_ITEM]}).encode()
manifest_blobs = st.one_of(
    st.binary(max_size=80),
    st.tuples(st.integers(0, len(GOOD_MANIFEST) - 1), st.binary(min_size=1, max_size=1)).map(
        lambda t: GOOD_MANIFEST[:t[0]] + t[1] + GOOD_MANIFEST[t[0] + 1:]),
    st.integers(1, 100_000).map(lambda n: b"[" * n + b"]" * n),
    digit_runs.map(lambda d: b'{"classes": ["a"], "items": [], "n": %s}' % d.encode()),
)


@FUZZ
@given(blob=manifest_blobs)
def test_manifest_bytes_give_a_dataset_or_engine_error(scratch, blob):
    check_dataset(scratch, blob)
