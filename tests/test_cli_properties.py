"""Property test of the CLI on drawn broken stores: whatever a store holds,
`repdet infer`, `eval` and `fuse --verify` end with a documented exit code,
one `error:` line on failure, no traceback, no warning and no temp file.

Draws are derandomized, so every run checks the same examples.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repdet.model as M
from repdet.cli import main
from repdet.fusion import fuse_model_graph
from repdet.ppm import write_ppm
from repdet.weights import WeightStore

# mutation -> the exit codes it may give. A NaN always reaches a head map or a
# fold; an inf or a huge value may not (an infinite variance scales its
# channel to zero), so the command may succeed
EXIT_CODES = {"nan": {3}, "inf": {0, 3}, "huge": {0, 3}, "negvar": {3}, "drop": {3},
              "extra": {3}, "reshape": {3}, "truncate": {2}}


def write_store(path, variant, nc, fused, mutation, pick, at, sign, share):
    """Seeded weights of `variant` in train or fused form, saved at `path`
    with one mutation. It hits the tensor `pick` indexes (among the running
    variances for "negvar") at the element `at` indexes; `sign` is the sign of
    an inf or huge value, and `share` how much of the file a truncation keeps."""
    g = M.build_model(variant, nc)
    M.seed_weights(g, 0)
    tensors = dict(M.named_tensors(fuse_model_graph(g) if fused else g))
    names = [n for n in tensors if mutation != "negvar" or n.endswith(".bn.var")]
    victim = names[pick % len(names)]
    flat = tensors[victim].reshape(-1)
    values = {"nan": np.nan, "inf": sign * np.inf, "huge": sign * 3e38, "negvar": -1.0}
    if mutation in values:
        flat[at % flat.size] = values[mutation]
    elif mutation == "drop":
        del tensors[victim]
    elif mutation == "extra":
        tensors[f"{victim}.extra"] = tensors[victim]
    elif mutation == "reshape":
        tensors[victim] = tensors[victim][None]
    WeightStore(tensors.items()).save(path)
    if mutation == "truncate":
        os.truncate(path, int(share * os.path.getsize(path)))


def command_args(command, d, nc):
    """argv for `command` without its model and store, and its output path."""
    if command == "fuse":
        out = os.path.join(d, "fused.rwt")
        return ["fuse", "--nc", str(nc), "--verify", "--out", out], out
    if command == "infer":
        image = os.path.join(d, "in.ppm")
        write_ppm(image, np.random.default_rng(nc).integers(0, 256, (48, 64, 3), np.uint8))
        out = os.path.join(d, "annotated.ppm")
        return ["infer", "--nc", str(nc), "--conf", "0.01", "--image", image,
                "--annotate", out], out
    write_ppm(os.path.join(d, "im.ppm"), np.full((40, 56, 3), 90, np.uint8))
    with open(os.path.join(d, "im.txt"), "w") as f:
        f.write(f"{nc - 1} 0.5 0.5 0.4 0.3\n")
    manifest = os.path.join(d, "manifest.json")
    with open(manifest, "w") as f:
        json.dump({"classes": [f"c{i}" for i in range(nc)],
                   "items": [{"image": "im.ppm", "label": "im.txt"}]}, f)
    out = os.path.join(d, "report.json")
    return ["eval", "--manifest", manifest, "--out", out], out


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["baseline", "improved"]), nc=st.integers(1, 80),
       fused=st.booleans(), command=st.sampled_from(["infer", "eval", "fuse"]),
       mutation=st.sampled_from(list(EXIT_CODES)), pick=st.integers(0, 2 ** 20),
       at=st.integers(0, 2 ** 20), sign=st.sampled_from([1.0, -1.0]),
       share=st.floats(0.0, 1.0, exclude_max=True))
# an infinite running variance (backbone.conv0.bn.var) zeroes its channel: exit 0
@example(variant="improved", nc=3, fused=False, command="infer", mutation="inf", pick=4, at=0,
         sign=1.0, share=0.0)
def test_broken_store_gives_a_documented_exit(variant, nc, fused, command, mutation, pick, at,
                                              sign, share):
    assume(not (fused and mutation == "negvar"))  # a fused store holds no variance
    with tempfile.TemporaryDirectory() as d:
        store = os.path.join(d, "w.rwt")
        write_store(store, variant, nc, fused, mutation, pick, at, sign, share)
        argv, out_path = command_args(command, d, nc)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv + ["--model", variant, "--weights", store])
        leftovers = [n for n in os.listdir(d) if n.startswith(".repdet-")]
        wrote = os.path.exists(out_path)
    err = stderr.getvalue()
    assert code in EXIT_CODES[mutation], (mutation, code, err)
    assert "Traceback" not in err and leftovers == []
    if code == 0:
        assert err == "" and wrote
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
