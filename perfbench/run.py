"""repdet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload infer --seed 0 --seconds 40 --trace 0

Workloads: infer, infer-baseline, eval (see workloads.py and README.md);
BENCHMARK.json gates changes on the first two only. Prints
a human-readable report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run also writes its spans and
per-node table to perfbench/_out/. Exits 2 when the checkout has no engine.
"""
from __future__ import annotations

import argparse
import json
import sys

import benchenv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("infer", "infer-baseline", "eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        benchenv.bootstrap()
    except benchenv.EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import runner

    result, lines, doc = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if doc is not None:
        lines.append(f"trace written to {runner.write_trace(doc, args.workload, args.seed)}")
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
