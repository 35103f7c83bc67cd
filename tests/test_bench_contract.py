"""What the benchmark's traced run (perfbench/spans.py) needs from the engine.
The tier-1 suite does not collect perfbench/tests, so an engine change that
breaks the traced run shows up here instead of at benchmark time."""
import importlib.util
import os
import sys

import repdet.blocks
import repdet.model as M

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_kernel_timer_names_are_block_imports(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    # KernelTimer swaps these names on repdet.blocks for the traced walk
    assert [n for n in spans.BLOCK_KERNELS if not hasattr(repdet.blocks, n)] == []
    # the per-kind metrics are keyed by these; a kind renamed in the engine
    # would leave its blocks.<kind>_ms metric at zero
    assert spans.BLOCK_KINDS == M.BLOCK_KINDS
    assert set(spans.GLUE_KINDS) == set(M.GLUE)


def test_profile_total_macs_is_sum_of_rows():
    # the runner reads the total as [2] and the per-node rows as [0]
    g = M.build_model("improved", 3)
    rows, _, total_macs = M.profile_graph(g)
    assert total_macs == sum(r.macs for r in rows)
