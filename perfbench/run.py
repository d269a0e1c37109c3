#!/usr/bin/env python3
"""Train -> predict benchmark of dregcn_absa, timed from outside the program.

Run from the repository root; nothing needs installing and nothing is
downloaded:

    python3 perfbench/run.py --workload laptop --seed 1 --seconds 50 --trace 0

The run writes seeded synthetic `.corpus` and `.emb` files, reads them back
through the program's parsers, and repeats whole rounds (one `train` call,
`save_checkpoint`, then `load_checkpoint` and prediction of the test split,
then the set-up timed again) while they fit in `--seconds`. Then it checks
the outputs. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A traced run traces
every second round and writes its spans to perfbench/results/. See
perfbench/README.md.
"""

import os

# One BLAS thread: every workload runs on one core. Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import speed
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

TRAIN_SEED = 0  # the program's own seed; the inputs change with --seed
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 4
ALONE_SAMPLE = 8
GRAD_SENTENCES = 3
GRAD_COORDS = 8
LOSS_SAMPLE = 200
PROBE_SENTENCES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    train_size: int  # sentences given to `train`, which keeps 20% of them for dev
    test_size: int
    min_length: int  # 3 keeps the whole length distribution, more keeps its long tail
    distinct_reverse_types: bool
    epochs: int
    predict_passes: int  # per round, so that prediction is timed over seconds, not a blink
    stream: int  # keeps the workloads' inputs apart under one seed


WORKLOADS = {
    w.name: w
    for w in (
        # SemEval-14 Laptop sizes: tiny tensors, ~142 tape ops per sentence.
        Workload("laptop", 3048, 800, 3, False, 1, 2, 0),
        # Long tail (45..80 tokens) with reverse relation types (83 types):
        # the dense (n, n, |N|) relation tensor and n^2 attention dominate.
        Workload("long_typed", 300, 75, 45, True, 3, 8, 1),
    )
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One workload run: inputs, rounds, set-up timing and checks."""

    def __init__(self, wl: Workload, seed: int, work_dir: Path, probe=None):
        from dregcn_absa import corpus, model, training

        self.corpus, self.model, self.training = corpus, model, training
        self.wl, self.seed = wl, seed
        self.tracer = None  # set while a round is traced
        self.probe = probe  # speed.SpeedProbe, active during prediction passes
        self.train_cfg = training.TrainConfig(epochs=wl.epochs, seed=TRAIN_SEED, runs=1)
        self.model_cfg = model.ModelConfig(distinct_reverse_types=wl.distinct_reverse_types)
        self.ckpt = work_dir / "model.npz"

        rng = np.random.default_rng([seed, wl.stream])
        self.gold_train = gen.make_corpus(rng, wl.train_size, wl.min_length)
        self.gold_test = gen.make_corpus(rng, wl.test_size, wl.min_length)
        self.files = {
            "train": work_dir / "train.corpus",
            "test": work_dir / "test.corpus",
            "general": work_dir / "general.emb",
            "domain": work_dir / "domain.emb",
        }
        self.files["train"].write_text(gen.corpus_text(self.gold_train), encoding="utf-8")
        self.files["test"].write_text(gen.corpus_text(self.gold_test), encoding="utf-8")
        self.files["general"].write_text(gen.embedding_text(rng, gen.GENERAL_DIM), encoding="utf-8")
        self.files["domain"].write_text(gen.embedding_text(rng, gen.DOMAIN_DIM), encoding="utf-8")

        self.train, self.test, self.general, self.domain = self.read_inputs()
        self.split_train, _ = corpus.split_train_dev(self.train, self.train_cfg.dev_ratio, TRAIN_SEED)
        self.steps_per_round = wl.epochs * math.ceil(len(self.split_train) / self.train_cfg.batch_size)
        self.attempted = self.failed = 0
        self.train_s, self.round_s, self.setup_s = [], [], []
        self.predict_iv, self.predict_speed = [], []  # per pass: (t0, t1), probe times
        self.traced = []  # per round
        self.failure_shown = False

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def read_inputs(self):
        """What `train` and `predict` read before they start."""
        corpus = self.corpus
        train = corpus.parse_corpus_file(self.files["train"].read_text(encoding="utf-8"))
        test = corpus.parse_corpus_file(self.files["test"].read_text(encoding="utf-8"))
        rng = np.random.default_rng(TRAIN_SEED)  # OOV rows, seeded as the CLI does
        general = corpus.load_embedding_table(
            self.files["general"].read_text(encoding="utf-8"), gen.GENERAL_DIM, rng
        )
        domain = corpus.load_embedding_table(
            self.files["domain"].read_text(encoding="utf-8"), gen.DOMAIN_DIM, rng
        )
        return train, test, general, domain

    def predict_all(self, mdl, sentences):
        preds = []
        for s in sentences:
            self.attempted += 1
            try:
                preds.append(self.training.predict_sentence_tags(mdl, s))
            except Exception:  # counted as a failed operation; the run goes on
                self.failed += 1
                preds.append(None)
                if not self.failure_shown:
                    traceback.print_exc()
                    self.failure_shown = True
        return preds

    def round(self, tracer=None):
        """train -> save -> load -> predict the test split, as the CLI
        commands do, then time the set-up. Each prediction pass loads the
        checkpoint afresh, so that each one builds its graphs as `predict`
        does. With a tracer, the program's functions are traced meanwhile."""
        undo = tracing.instrument(tracer) if tracer else []
        self.tracer = tracer
        try:
            gc.collect()
            with self.span("bench.round"):
                t_start = time.perf_counter()
                self.attempted += self.steps_per_round
                result = self.training.train(
                    self.train, self.train_cfg, self.model_cfg, self.general, self.domain
                )
                self.train_s.append(time.perf_counter() - t_start)
                result.model.restore(result.best_snapshot)
                self.model.save_checkpoint(result.model, str(self.ckpt))
                with self.probe or contextlib.nullcontext():
                    first = len(self.probe.samples) if self.probe else 0
                    for _ in range(self.wl.predict_passes):
                        loaded = self.model.load_checkpoint(str(self.ckpt))
                        t0 = time.perf_counter()
                        with self.span("bench.predict"):
                            preds = self.predict_all(loaded, self.test)
                        self.predict_iv.append((t0, time.perf_counter()))
                if self.probe:
                    block = [d for _, d in self.probe.samples[first:]]
                    self.predict_speed.extend([block] * self.wl.predict_passes)
                self.round_s.append(time.perf_counter() - t_start)
            for _ in range(SETUPS_PER_ROUND):
                self.setup_s.append(self.setup_once())
        finally:
            tracing.unpatch(undo)
            self.tracer = None
        self.traced.append(tracer is not None)
        return result, loaded, preds

    def setup_once(self) -> float:
        gc.collect()
        with self.span("bench.setup"):
            t0 = time.perf_counter()
            self.read_inputs()
            self.model.load_checkpoint(str(self.ckpt))
            return time.perf_counter() - t0

    def end_to_end(self):
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "train_sent_per_s": (
                statistics.median(
                    self.wl.epochs * len(self.split_train) / t for t in self.train_s
                ),
                "sent/s",
            ),
            "predict_sent_per_s": (statistics.median(self.predict_rates()), "sent/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def predict_rates(self):
        """Test sentences per reference-core second, per prediction pass."""
        return [
            len(self.test) / speed.reference_seconds(self.probe.samples, iv, block)
            for iv, block in zip(self.predict_iv, self.predict_speed)
        ]

    # -- checks ------------------------------------------------------------

    def run_checks(self, result, loaded, preds):
        from dregcn_absa import evaluation

        training = self.training
        rng = np.random.default_rng([self.seed, self.wl.stream, 1])
        failures = {}
        ok = [i for i, p in enumerate(preds) if p is not None]
        got = [preds[i] for i in ok]
        gold = [(self.gold_test[i].ae_tags, self.gold_test[i].as_tags) for i in ok]

        failures["tags"] = checks.tag_violations(got, [self.test[i].n for i in ok])
        report = evaluation.corpus_metrics(got, [self.test[i] for i in ok])
        failures["scorer"] = checks.scorer_mismatches(got, gold, report)

        alone_idx = rng.choice(ok, size=min(ALONE_SAMPLE, len(ok)), replace=False)
        alone = [
            training.predict_sentence_tags(self.model.load_checkpoint(str(self.ckpt)), self.test[i])
            for i in alone_idx
        ]
        failures["alone"] = checks.prediction_mismatches(
            [preds[i] for i in alone_idx], alone, "alone vs in corpus"
        )
        in_memory = [training.predict_sentence_tags(result.model, self.test[i]) for i in ok]
        failures["reload"] = checks.prediction_mismatches(in_memory, got, "reloaded vs in-memory")

        failures["gradient"], compared, skipped = self.gradient_check(loaded, rng)
        failures["loss"] = self.loss_check(result, rng)
        print(
            f"checks: F1-a {report.f1_a:.4f} F1-o {report.f1_o:.4f} acc-s {report.acc_s:.4f} "
            f"F1-s {report.f1_s:.4f} F1-I {report.f1_i:.4f}; gradient coordinates "
            f"{compared} compared, {skipped} skipped at a ReLU kink"
        )
        for name, msgs in failures.items():
            for m in msgs[:5]:
                print(f"CHECK FAILED [{name}] {m}")
        return not any(failures.values())

    def gradient_check(self, mdl, rng):
        """Backward of joint_loss against own central differences on sampled
        coordinates of sampled training sentences."""
        from dregcn_absa.autodiff import Tape, backward

        training = self.training
        params = mdl.trainable_parameters()
        dense = [k for k in params if not k.startswith("emb/")]
        analytic, numeric, labels = [], [], []
        skipped = 0
        for k in rng.choice(len(self.split_train), size=GRAD_SENTENCES, replace=False):
            s = self.split_train[int(k)]
            with Tape() as tape:
                loss = training.joint_loss(mdl.forward(s), s)
            backward(tape, loss, params=list(params.values()))
            grads = {name: p.grad.copy() for name, p in params.items()}
            coords = []
            for _ in range(GRAD_COORDS - 1):
                name = dense[int(rng.integers(len(dense)))]
                coords.append((name, int(rng.integers(params[name].data.size))))
            row = mdl.general_emb.row_index(s.tokens[int(rng.integers(s.n))])
            coords.append(("emb/general", row * mdl.general_emb.dim + int(rng.integers(mdl.general_emb.dim))))
            for name, flat in coords:
                values = params[name].data.reshape(-1)
                orig = values[flat]

                def loss_at(offset, values=values, flat=flat, orig=orig, s=s):
                    values[flat] = orig + offset
                    try:
                        return float(training.joint_loss(mdl.forward(s), s).data)
                    finally:
                        values[flat] = orig

                slope, smooth = checks.central_difference(loss_at)
                if not smooth:
                    skipped += 1
                    continue
                analytic.append(float(grads[name].reshape(-1)[flat]))
                numeric.append(slope)
                labels.append(f"{name}[{flat}] sentence {int(k)}")
        failures = checks.gradient_mismatches(analytic, numeric, labels)
        if len(analytic) < (GRAD_SENTENCES * GRAD_COORDS) // 2:
            failures.append(f"only {len(analytic)} coordinates were smooth enough to compare")
        return failures, len(analytic), skipped

    def loss_check(self, result, rng):
        """Dropout-free training-set loss: trained model below the same
        model at initialisation (`train` with zero epochs)."""
        training = self.training
        initial = training.train(
            self.train,
            training.TrainConfig(epochs=0, seed=TRAIN_SEED, runs=1),
            self.model_cfg,
            self.general,
            self.domain,
        ).model
        result.model.restore(result.final_snapshot)
        idx = rng.choice(len(self.split_train), size=min(LOSS_SAMPLE, len(self.split_train)), replace=False)
        sample = [self.split_train[int(i)] for i in idx]

        def mean_loss(mdl):
            return sum(float(training.joint_loss(mdl.forward(s), s).data) for s in sample) / len(sample)

        return checks.loss_not_reduced(mean_loss(initial), mean_loss(result.model))


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)


def per_layer_metrics(bench, tracer, probes):
    idx = tracing.SpanIndex(tracer.spans)
    rounds = idx.named("bench.round")
    inside = idx.within(rounds)
    setups = idx.named("bench.setup")
    trains = idx.named("training.train", inside)

    def per_call(name):
        return idx.mean_duration(name, inside)

    forwards_in_predict = [
        i for i in idx.named("model.forward", inside)
        if tracer.spans[tracer.spans[i][tracing.PARENT]][tracing.NAME] == "training.predict"
    ]
    loss, bwd, adam = per_call("training.loss"), per_call("autodiff.backward"), per_call("training.adam")
    traced_round_s = statistics.median(t for t, on in zip(bench.round_s, bench.traced) if on)
    untraced_round_s = statistics.median(t for t, on in zip(bench.round_s, bench.traced) if not on)
    m = {
        "corpus.parse_s": (tracing.median_per_root(idx, setups, "corpus.parse"), "s"),
        "corpus.emb_load_s": (tracing.median_per_root(idx, setups, "corpus.emb_load"), "s"),
        "corpus.graph_build_s": (per_call("corpus.graph_build"), "s"),
        "corpus.graph_bytes": (
            idx.value_sum("corpus.graph_build", idx.within(trains)) // len(trains), "B"
        ),
        "corpus.embed_fwd_s": (per_call("corpus.embed_fwd"), "s"),
        "encoder.fwd_s": (per_call("encoder.fwd"), "s"),
        "encoder.dregcn_fwd_s": (per_call("encoder.dregcn_fwd"), "s"),
        "encoder.dregcn_bwd_s": (probes["encoder.dregcn_bwd_s"], "s"),
        "encoder.cnn_fwd_s": (per_call("encoder.cnn_fwd"), "s"),
        "encoder.cnn_bwd_s": (probes["encoder.cnn_bwd_s"], "s"),
        "heads.ae_fwd_s": (per_call("heads.ae_fwd"), "s"),
        "heads.ae_bwd_s": (probes["heads.ae_bwd_s"], "s"),
        "heads.as_fwd_s": (per_call("heads.as_fwd"), "s"),
        "heads.as_bwd_s": (probes["heads.as_bwd_s"], "s"),
        "heads.mp_fwd_s": (per_call("heads.mp_fwd"), "s"),
        "autodiff.tape_ops_per_sent": (
            idx.value_sum("autodiff.backward", inside) / idx.value_sum("training.loss", inside),
            "ops",
        ),
        "autodiff.backward_s": (bwd, "s"),
        "training.step_s": (loss + bwd + adam, "s"),
        "training.loss_s": (loss, "s"),
        "training.adam_s": (adam, "s"),
        "model.forward_s": (
            sum(idx.duration(i) for i in forwards_in_predict) / len(forwards_in_predict),
            "s",
        ),
        "model.ckpt_save_s": (per_call("model.ckpt_save"), "s"),
        "model.ckpt_load_s": (tracing.median_per_root(idx, setups, "model.ckpt_load"), "s"),
        "model.ckpt_bytes": (bench.ckpt.stat().st_size, "B"),
        "evaluation.metrics_s": (per_call("evaluation.metrics"), "s"),
        "trace.overhead_pct": (100.0 * (traced_round_s / untraced_round_s - 1.0), "%"),
    }

    # Shares of the traced training step and prediction pass that the named layers cover.
    layer_names = ["corpus.graph_build", "corpus.embed_fwd", "encoder.fwd",
                   "heads.ae_fwd", "heads.as_fwd", "heads.mp_fwd"]
    step_total = idx.total(["training.loss", "autodiff.backward", "training.adam"], inside)
    step_covered = idx.total(layer_names, idx.within(idx.named("training.loss", inside))) + idx.total(
        ["autodiff.backward", "training.adam"], inside
    )
    passes = idx.named("bench.predict", inside)
    under_predict = idx.within(passes)
    predict_total = sum(idx.duration(i) for i in passes)
    summary = {
        "workload": bench.wl.name,
        "seed": bench.seed,
        "untraced_round_s": untraced_round_s,
        "traced_round_s": traced_round_s,
        "traced_rounds": len(rounds),
        # The measured overhead compares rounds run at different moments of a
        # shared machine; this estimate counts wrapped calls instead.
        "wrapper_estimate_pct": 100.0 * len(inside) * tracing.wrapper_cost_s()
        / sum(idx.duration(r) for r in rounds),
        "train_step_share_covered": step_covered / step_total,
        "predict_share_in_forward": idx.total(["model.forward"], under_predict) / predict_total,
        "predict_share_covered": idx.total(layer_names, under_predict) / predict_total,
        "totals_s": {
            name: idx.total([name], inside)
            for name in sorted({tracer.spans[i][tracing.NAME] for i in inside})
        },
    }
    return m, summary


PROBED = (
    ("encoder.dregcn_bwd_s", "encoder", "dregcn_layer_forward"),
    ("encoder.cnn_bwd_s", "encoder", "cnn_encoder_forward"),
    ("heads.ae_bwd_s", "heads", "ae_head_forward"),
    ("heads.as_bwd_s", "heads", "as_head_forward"),
)


def backward_probes(mdl, sentences, rng):
    """Per layer: rerun its public forward on inputs captured from real
    forwards, under a fresh Tape, and time `backward` on a probe loss
    sum(out * r) with fixed random r. Mean seconds per call."""
    from dregcn_absa import autodiff, encoder, heads

    owners = {"encoder": encoder, "heads": heads}
    captured = {key: [] for key, _, _ in PROBED}

    def capture(fn, store):
        def wrapper(*args, **kwargs):
            store.append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    undo = tracing.patch(
        (owners[mod], attr, lambda fn, key=key: capture(fn, captured[key]))
        for key, mod, attr in PROBED
    )
    try:
        for s in sentences:
            mdl.forward(s)
    finally:
        tracing.unpatch(undo)

    out = {}
    for key, mod, attr in PROBED:
        fn = getattr(owners[mod], attr)
        times = []
        for args, kwargs in captured[key]:
            with autodiff.Tape() as tape:
                result = fn(*args, **kwargs)
                outs = [o for o in (result if isinstance(result, tuple) else (result,))
                        if isinstance(o, autodiff.Tensor)]
                loss = autodiff.add_n(
                    [autodiff.sum_all(autodiff.mul(o, rng.normal(size=o.shape))) for o in outs]
                )
            t0 = time.perf_counter()
            autodiff.backward(tape, loss)
            times.append(time.perf_counter() - t0)
        out[key] = sum(times) / len(times)
    return out


# ---------------------------------------------------------------------------


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else speed.SpeedProbe()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = Bench(wl, args.seed, Path(tmp), probe)
        print(
            f"{wl.name}: {len(bench.train)} train ({len(bench.split_train)} after the dev split), "
            f"{len(bench.test)} test sentences, mean length "
            f"{sum(s.n for s in bench.train) / len(bench.train):.1f}"
        )
        started = time.perf_counter()
        result = loaded = preds = None
        # Whole rounds only: start one more while it should end within --seconds.
        while len(bench.round_s) < MIN_ROUNDS or (
            (time.perf_counter() - started) * (len(bench.round_s) + 1) / len(bench.round_s)
            <= args.seconds
        ):
            # Drop the last round first, so that one model's graphs are held at a time.
            result = loaded = preds = None
            traced = tracer is not None and len(bench.round_s) % 2 == 1
            result, loaded, preds = bench.round(tracer if traced else None)
        rates = bench.predict_rates() if probe else []
        for k, t_round in enumerate(bench.round_s):
            passes = slice(k * wl.predict_passes, (k + 1) * wl.predict_passes)
            print(
                f"round {k}{' (traced)' if bench.traced[k] else ''}: train {bench.train_s[k]:.3f} s, "
                "predict passes " + " ".join(f"{t1 - t0:.3f}" for t0, t1 in bench.predict_iv[passes])
                + f" s, round {t_round:.3f} s"
                + (" ; reference-core predict sent/s " + " ".join(f"{r:.0f}" for r in rates[passes]) if rates else "")
            )

        if tracer:
            probe_rng = np.random.default_rng([args.seed, wl.stream, 2])
            probe_idx = probe_rng.choice(len(bench.test), size=min(PROBE_SENTENCES, len(bench.test)), replace=False)
            probes = backward_probes(loaded, [bench.test[int(i)] for i in probe_idx], probe_rng)
            metrics, summary = per_layer_metrics(bench, tracer, probes)
        else:
            metrics = bench.end_to_end()

        correct = bench.run_checks(result, loaded, preds)

    if tracer:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{wl.name}-seed{args.seed}.json"
        tracing.write_spans(path, tracer.spans, summary)
        print(
            f"trace: {len(tracer.spans)} spans -> {path.relative_to(HERE.parent)}; "
            f"overhead {summary['traced_round_s'] / summary['untraced_round_s'] - 1:.1%} "
            f"(wrapped calls add {summary['wrapper_estimate_pct']:.2f}%), "
            f"train step covered {summary['train_step_share_covered']:.1%}, "
            f"prediction covered {summary['predict_share_covered']:.1%}"
        )
    steps = bench.steps_per_round * len(bench.round_s)
    print(
        f"attempted {bench.attempted} operations ({steps} training steps, "
        f"{bench.attempted - steps} predicted sentences), failed {bench.failed}"
    )
    return {
        "correct": bool(correct),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dregcn_absa" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'dregcn_absa'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
