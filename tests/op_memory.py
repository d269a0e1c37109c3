#!/usr/bin/env python3
"""Print what each tape op of one training bucket allocates, forward and
backward, as `tracemalloc` sees it.

Run from the repository root; nothing needs installing:

    python3 tests/op_memory.py --workload long_typed --seed 1

It generates the inputs that `perfbench/run.py --workload W --seed S`
generates and starts `train` as the benchmark does: the same model
initialisation, split, shuffle and dropout draws. It then runs the first
bucket of the first mini-batch once, forward and loss under a tape, and
backward over the model's trainable parameters, and prints one line per
op in tape order:

- `held`: how far the traced level moved from the previous op's record to
  this op's: its output, what its closure keeps, and whatever built between
  the two ops (such as constants). An op records before it returns, so its
  locals still alive then count here and come off the next op's `held`,
  which can be negative;
- `peak`: the highest level between those two records, from the same start;
- `bwd`: how far its backward closure rose above the level it started at;
- `bwd_level`: that closure's highest level above the forward's start.

The last lines give the forward's end and peak levels and the backward's
peak, all above the level before the forward. pytest does not collect this
file.
"""

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402  (before NumPy loads: it pins BLAS to one thread)

import numpy as np  # noqa: E402

from dregcn_absa import autodiff  # noqa: E402
from dregcn_absa.corpus import RelationVocab, split_train_dev  # noqa: E402
from dregcn_absa.model import Model  # noqa: E402
from dregcn_absa.training import joint_loss, length_buckets  # noqa: E402

MB = 1e6


class MarkedTape(autodiff.Tape):
    """A tape that notes, at each record, the traced memory the op holds
    and the peak since the previous record."""

    def __init__(self):
        super().__init__()
        self.base = self.last = tracemalloc.get_traced_memory()[0]
        self.top = 0  # the highest level so far, above `base`
        self.marks = []  # per op: (held, peak), bytes

    def record(self, output, inputs, backward) -> None:
        now, peak = tracemalloc.get_traced_memory()
        self.marks.append((now - self.last, peak - self.last))
        self.top = max(self.top, peak - self.base)
        super().record(output, inputs, backward)
        tracemalloc.reset_peak()
        self.last = tracemalloc.get_traced_memory()[0]


def op_memory(forward, params):
    """Run `forward()` under a marked tape and `backward` over `params`,
    with `tracemalloc` on. Returns one row per op, (name, output shape,
    held, peak, bwd, bwd_level) in bytes (the last two None for an op whose
    backward did not run), and (forward end, forward peak, backward peak)."""
    tracemalloc.start()
    try:
        with MarkedTape() as tape:
            loss = forward()
        now, peak = tracemalloc.get_traced_memory()
        base = tape.base
        forward_end, forward_peak = now - base, max(tape.top, peak - base)
        names = [op.backward.__qualname__.split(".")[0] for op in tape.ops]
        shapes = [op.output.shape for op in tape.ops]  # backward drops the outputs
        closure = {}
        for i, op in enumerate(tape.ops):
            def measured(g, i=i, bwd=op.backward):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                bwd(g)
                top = tracemalloc.get_traced_memory()[1]
                closure[i] = (top - start, top - base)

            op.backward = measured
        tracemalloc.reset_peak()
        autodiff.backward(tape, loss, params=params)
        backward_peak = max(top for _, top in closure.values())
    finally:
        tracemalloc.stop()
    rows = [
        (name, shape, held, peak, *closure.get(i, (None, None)))
        for i, (name, shape, (held, peak)) in enumerate(zip(names, shapes, tape.marks))
    ]
    return rows, (forward_end, forward_peak, backward_peak)


def first_training_bucket(name: str, seed: int):
    """The model, the first bucket of `train`'s first mini-batch on the
    workload's inputs, its dropout masks and the batch size."""
    with tempfile.TemporaryDirectory() as work:
        bench = run.Bench(run.WORKLOADS[name], seed, Path(work))
    train_cfg, model_cfg = bench.train_cfg, bench.model_cfg
    train_set, _ = split_train_dev(bench.train, train_cfg.dev_ratio, train_cfg.seed)
    vocab = RelationVocab.from_corpus(bench.train, model_cfg.distinct_reverse_types)
    rng = np.random.default_rng(train_cfg.seed)
    model = Model(model_cfg, bench.general, bench.domain, vocab, rng)
    order = rng.permutation(len(train_set))
    batch = [train_set[i] for i in order[: train_cfg.batch_size]]
    dropout = model.dropout_masks(batch, rng)
    idx = length_buckets(batch)[0]
    masks = None if dropout is None else [dropout[i] for i in idx]
    return model, [batch[i] for i in idx], masks, len(batch)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    model, bucket, masks, batch_size = first_training_bucket(args.workload, args.seed)
    params = list(model.trainable_parameters().values())
    rows, (end, fwd_peak, bwd_peak) = op_memory(
        lambda: joint_loss(model.forward(bucket, masks), bucket, batch_size), params
    )
    n = max(s.n for s in bucket)
    print(f"{args.workload} seed {args.seed}: first training bucket {len(bucket)} x {n}, {len(rows)} ops")
    print(f"{'#':>3} {'op':<20} {'output':<14} {'held':>7} {'peak':>7} {'bwd':>7} {'bwd_level':>9}  (MB)")
    for i, (name, shape, held, peak, bwd, level) in enumerate(rows):
        tail = "      -         -" if bwd is None else f"{bwd / MB:7.3f} {level / MB:9.3f}"
        print(f"{i:3d} {name:<20} {str(shape):<14} {held / MB:7.3f} {peak / MB:7.3f} {tail}")
    print(f"forward end {end / MB:.3f} MB, forward peak {fwd_peak / MB:.3f} MB, "
          f"backward peak {bwd_peak / MB:.3f} MB")


if __name__ == "__main__":
    main()
