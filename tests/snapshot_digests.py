#!/usr/bin/env python3
"""Print the sha256 of the snapshots `train` ends with on the benchmark's
inputs, so that two trees can be compared byte for byte at benchmark shapes.

Run from the repository root; nothing needs installing:

    python3 tests/snapshot_digests.py --seeds 1 2 3 > digests.txt

For each `perfbench` workload and seed it generates the inputs that
`perfbench/run.py --workload W --seed S` generates, trains on them once with
the benchmark's settings and prints three lines: `W S final <sha256>` and
`W S best <sha256>`, over the bytes of the final and the best snapshot
vector, and `W S predict <sha256>`, over the bytes of the final round's
`yae` then `yas` from a tape-free `Model.forward([s])` on the best snapshot,
for every test sentence in order, as the benchmark predicts one sentence
per forward. The golden test's three short sentences do not reach these
shapes, so `tests/test_golden.py` also runs this script with `--seeds 1`
and compares its six lines with its record. For more seeds, run it in two
trees and compare. pytest does not collect this file.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402  (before NumPy loads: it pins BLAS to one thread)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    for name in run.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                bench = run.Bench(run.WORKLOADS[name], seed, Path(work))
            result = bench.training.train(
                bench.train, bench.train_cfg, bench.model_cfg, bench.general, bench.domain
            )
            for kind, vector in (("final", result.final_snapshot), ("best", result.best_snapshot)):
                print(name, seed, kind, hashlib.sha256(vector.tobytes()).hexdigest(), flush=True)
            result.model.restore(result.best_snapshot)
            predicted = hashlib.sha256()
            for s in bench.test:
                final = result.model.forward([s])[-1]
                predicted.update(final.yae.data.tobytes())
                predicted.update(final.yas.data.tobytes())
            print(name, seed, "predict", predicted.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
