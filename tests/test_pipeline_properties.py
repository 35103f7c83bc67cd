"""Property tests: the array image path in repdet.pipeline (letterbox, decode,
NMS) and the AP envelope in repdet.evaluate against the Python references in
oracles.py. Agreement is exact: equal arrays, equal Detection lists in the
same order, equal float bits.

Draws are derandomized, so every run checks the same examples.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repdet.blocks import HeadConfig
from repdet.evaluate import average_precision_50, iou
from repdet.pipeline import Candidates, Detection, LetterboxMeta, decode_detections, letterbox, nms

from oracles import (
    candidates,
    ref_average_precision_50,
    ref_decode_detections,
    ref_letterbox,
    ref_nms,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2 ** 32 - 1)


def bits(dets):
    """Each detection as exact fields: float bits, not rounded values."""
    return [(d.class_id, d.class_name, float(d.score).hex(), tuple(float(v).hex() for v in d.box))
            for d in dets]


# ---- letterbox -------------------------------------------------------------

sides = st.one_of(st.integers(1, 40), st.integers(1, 2000))
image_sizes = st.one_of(
    st.tuples(sides, sides),
    st.tuples(st.just(1), sides),
    st.tuples(sides, st.just(1)),
)


@settings(PROPERTY, max_examples=60)
@given(size=image_sizes, seed=seeds)
@example(size=(1, 1), seed=0)
@example(size=(2000, 2000), seed=1)
@example(size=(1, 2000), seed=2)
@example(size=(2000, 1), seed=3)
def test_letterbox_matches_reference(size, seed):
    h, w = size
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)
    tensor, meta = letterbox(img)
    want, want_meta = ref_letterbox(img)
    assert tensor.dtype == want.dtype and tensor.flags.c_contiguous
    assert np.array_equal(tensor, want)
    assert meta == want_meta


def test_letterbox_non_uint8_input_matches_reference():
    rng = np.random.default_rng(7)
    img = rng.uniform(-3.0, 300.0, (37, 91, 3))  # float64, fractional, out of 0..255
    tensor, meta = letterbox(img)
    want, want_meta = ref_letterbox(img)
    assert np.array_equal(tensor, want) and meta == want_meta
    small = rng.integers(0, 256, (5, 3, 3)).astype(np.int16)
    assert np.array_equal(letterbox(small)[0], ref_letterbox(small)[0])


# ---- decode ----------------------------------------------------------------

CFG = HeadConfig(nc=3)


@st.composite
def head_maps(draw):
    """Three (1, 67, h, w) maps of at least two cells each (a real head map
    has 400 or more). Logits mix saturated +-50, zeros and moderate values;
    some cells put a side's whole mass on bin 0 (zero distance) or bin 15
    (long boxes that clip at the image edges)."""
    rng = np.random.default_rng(draw(seeds))
    maps = []
    for _ in CFG.strides:
        h = draw(st.integers(1, 20))
        w = draw(st.integers(2 if h == 1 else 1, 20))
        m = rng.uniform(-6.0, 6.0, (1, CFG.out_channels, h, w))
        m[rng.random(m.shape) < 0.1] = 0.0
        m[rng.random(m.shape) < 0.15] = 50.0
        m[rng.random(m.shape) < 0.15] = -50.0
        sides = m[0, :CFG.box_channels].reshape(4, 16, h, w)
        s, ys, xs = np.nonzero(rng.random((4, h, w)) < 0.3)
        sides[s, :, ys, xs] = -50.0
        sides[s, rng.choice([0, 15], len(s)), ys, xs] = 50.0
        maps.append(m.astype(np.float32))
    return maps


metas = st.tuples(st.integers(1, 1500), st.integers(1, 1500)).map(
    lambda wh: letterbox(np.zeros((wh[1], wh[0], 3), dtype=np.uint8))[1])


@PROPERTY
@given(maps=head_maps(), meta=metas,
       conf=st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5]), st.floats(0.0, 1.0)))
@example(maps=None, meta=LetterboxMeta(1.0, 0, 0, 640, 640), conf=0.25)
@example(maps=None, meta=LetterboxMeta(0.5, 0, 80, 1280, 960), conf=0.0)
@example(maps=None, meta=LetterboxMeta(0.5, 80, 0, 960, 1280), conf=1.0)
def test_decode_matches_reference(maps, meta, conf):
    if maps is None:  # full-size maps from one seeded draw
        rng = np.random.default_rng(11)
        maps = [rng.uniform(-8.0, 8.0, (1, CFG.out_channels, s, s)).astype(np.float32)
                for s in (80, 40, 20)]
    cands = decode_detections(maps, CFG, meta, conf)
    want = ref_decode_detections(maps, CFG, meta, conf)
    assert isinstance(cands, Candidates) and len(cands) == len(want)
    assert bits(cands) == bits(want)


@PROPERTY
@given(maps=head_maps(), scale=st.sampled_from([1.0, 1e3, 1e30]), meta=metas,
       conf=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0)))
def test_decoded_candidates_hold_what_detection_checks(maps, scale, meta, conf):
    # decode alone gives every candidate of finite maps, however large, a
    # box with x1 < x2 and y1 < y2 and a score in [0, 1]; nothing checks
    # them again before NMS
    cands = decode_detections([m * np.float32(scale) for m in maps], CFG, meta, conf)
    x1, y1, x2, y2 = cands.boxes.T
    assert ((x1 < x2) & (y1 < y2)).all()
    assert ((cands.scores >= 0.0) & (cands.scores <= 1.0)).all()


# ---- NMS -------------------------------------------------------------------

@st.composite
def detection_lists(draw):
    """Up to 300 boxes on a coarse grid, so that edges touch (ix == 0),
    boxes repeat exactly and nest inside each other, with scores on a few
    levels (ties) that include 0 and 1."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(0, 300))
    grid = draw(st.integers(2, 40))
    levels = np.linspace(0.0, 1.0, draw(st.integers(1, 12)))
    nc = draw(st.integers(1, 4))
    boxes = []
    for _ in range(n):
        roll = rng.random()
        if boxes and roll < 0.15:  # exact duplicate
            box = boxes[rng.integers(len(boxes))]
        elif boxes and roll < 0.3:  # nested in an earlier box
            x1, y1, x2, y2 = boxes[rng.integers(len(boxes))]
            fx = np.sort(rng.uniform(0.0, 1.0, 2))
            fy = np.sort(rng.uniform(0.0, 1.0, 2))
            box = (x1 + (x2 - x1) * fx[0], y1 + (y2 - y1) * fy[0],
                   x1 + (x2 - x1) * max(fx[1], fx[0] + 0.25), y1 + (y2 - y1) * max(fy[1], fy[0] + 0.25))
        else:
            x1, y1 = (float(v) for v in rng.integers(0, grid, 2))
            box = (x1, y1, x1 + float(rng.integers(1, 8)), y1 + float(rng.integers(1, 8)))
        boxes.append(box)
    cids = rng.integers(0, nc, n)
    scores = rng.choice(levels, n)
    return [Detection(int(c), f"class{int(c)}", float(s), b) for c, s, b in zip(cids, scores, boxes)]


# a float in [0, 1], or a pair (a box, a box of its class) whose exact IoU
# is the threshold, so that one rounding more or less flips a suppression
iou_thresholds = st.one_of(st.sampled_from([0.0, 1.0, 0.45, 0.5]), st.floats(0.0, 1.0),
                           st.tuples(st.integers(0, 299), st.integers(0, 299)))


def threshold(thr, dets):
    if not isinstance(thr, tuple):
        return thr
    if not dets:
        return 0.5
    a = dets[thr[0] % len(dets)]
    same = [d for d in dets if d.class_id == a.class_id]
    return iou(a.box, same[thr[1] % len(same)].box)


@PROPERTY
@given(dets=detection_lists(), thr=iou_thresholds, float32=st.booleans())
def test_nms_of_candidates_matches_reference(dets, thr, float32):
    thr = threshold(thr, dets)
    cands = candidates(dets, np.float32 if float32 else np.float64)
    kept = nms(cands, thr)
    assert all(isinstance(d, Detection) for d in kept)
    assert bits(kept) == bits(ref_nms(list(cands), thr))


coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def box_pairs(draw):
    """Two boxes with arbitrary float corners, overlapping or not."""
    ax, ay, bx, by = (sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
                      for _ in range(4))
    return (ax[0], ay[0], ax[1], ay[1]), (bx[0], by[0], bx[1], by[1])


@PROPERTY
@given(pair=box_pairs())
def test_nms_suppresses_exactly_at_the_pair_iou(pair):
    # the kept box's IoU with the other, computed as evaluate.iou does, is
    # the last threshold that suppresses it; one ulp more keeps both
    a = Detection(0, "class0", 0.9, pair[0])
    b = Detection(0, "class0", 0.8, pair[1])
    value = iou(a.box, b.box)
    assert nms(candidates([a, b]), value) == [a]
    assert nms(candidates([a, b]), np.nextafter(value, 2.0)) == [a, b]


# ---- AP envelope -----------------------------------------------------------

@PROPERTY
@given(flags=st.lists(st.booleans(), max_size=80), extra_truths=st.integers(0, 10),
       levels=st.integers(1, 8), seed=seeds)
def test_average_precision_matches_loop_envelope(flags, extra_truths, levels, seed):
    truths = max(1, sum(flags)) + extra_truths
    rng = np.random.default_rng(seed)
    scores = sorted(rng.choice(np.linspace(0.05, 0.95, levels), len(flags)).tolist(), reverse=True)
    for s in (None, scores):
        got = average_precision_50(flags, truths, s)
        assert got.hex() == ref_average_precision_50(flags, truths, s).hex()
