"""Command-line surface: train, evaluate, predict, ablate, gradcheck, stats.

Configuration is a flat `key = value` text file; command-line flags override
file values, which override defaults. Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 verification failure, 4 training diverged (non-finite
gradient).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import synth
from .autodiff import (
    Tensor,
    concat,
    finite_diff_gradcheck,
    linear,
    masked_softmax,
    matmul,
    mul,
    nll_rows,
    relu,
    softmax_rows,
    sum_all,
)
from .corpus import (
    EmbeddingMatrix,
    ParseError,
    RelationVocab,
    Sentence,
    SplitError,
    VocabularyError,
    build_dependency_graph,
    corpus_stats,
    load_embedding_table,
    parse_corpus_file,
    random_embedding_table,
    serialize_corpus,
)
from .encoder import (
    EncoderConfig,
    cnn_encoder_forward,
    dregcn_layer_forward,
    gcn_layer_forward,
    init_cnn_layer,
    init_dregcn_layer,
    init_gcn_layer,
    init_relation_table,
    relation_counts,
)
from .heads import MessagePassingConfig, as_head_forward, init_as_head
from .model import CheckpointError, Model, ModelConfig, load_checkpoint, save_checkpoint
from .training import (
    NumericError,
    TrainConfig,
    joint_loss,
    multi_run,
    predict_sentence_tags,
    evaluate_model,
)

CONFIG_DIR_ENV = "DREGCN_ABSA_CONFIG_DIR"
GRADCHECK_THRESHOLD = 1e-4


class UsageError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    pass


CONFIG_DEFAULTS: Dict[str, object] = {
    "mode": "dregcn_plus_cnn",
    "mp_variant": "representations",
    "rounds": 2,
    "d": 32,
    "m": 16,
    "d_t": 16,
    "gcn_layers": 2,
    "cnn_layers": 2,
    "learning_rate": 0.0005,
    "batch_size": 50,
    "epochs": 100,
    "seed": 0,
    "runs": 5,
    "dev_ratio": 0.2,
    "dropout": 0.5,
    "opinion_passing": True,
    "normalize_adjacency": False,
    "distinct_reverse_types": False,
    "freeze_embeddings": False,
    "pass_pre_attention_as": False,
    "general_dim": 16,
    "domain_dim": 8,
}


def _parse_value(raw: str) -> object:
    raw = raw.strip().strip('"').strip("'")
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def load_config_file(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        cfg_dir = os.environ.get(CONFIG_DIR_ENV)
        if cfg_dir and os.path.exists(os.path.join(cfg_dir, path)):
            path = os.path.join(cfg_dir, path)
        else:
            raise UsageError(f"config file not found: {path}")
    out: Dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped or stripped.startswith("["):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in CONFIG_DEFAULTS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_value(raw)
    return out


def merged_config(args: argparse.Namespace) -> Dict[str, object]:
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    overrides = {
        "seed": getattr(args, "seed", None),
        "runs": getattr(args, "runs", None),
        "mode": getattr(args, "mode", None),
        "mp_variant": getattr(args, "mp_variant", None),
        "rounds": getattr(args, "rounds", None),
        "epochs": getattr(args, "epochs", None),
    }
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def build_configs(cfg: Dict[str, object]) -> Tuple[TrainConfig, ModelConfig]:
    try:
        train_cfg = TrainConfig(
            learning_rate=float(cfg["learning_rate"]),
            batch_size=int(cfg["batch_size"]),
            epochs=int(cfg["epochs"]),
            seed=int(cfg["seed"]),
            runs=int(cfg["runs"]),
            dev_ratio=float(cfg["dev_ratio"]),
        )
        model_cfg = ModelConfig(
            encoder=EncoderConfig(
                mode=str(cfg["mode"]),
                gcn_layers=int(cfg["gcn_layers"]),
                cnn_layers=int(cfg["cnn_layers"]),
                d=int(cfg["d"]),
                m=int(cfg["m"]),
                normalize_adjacency=bool(cfg["normalize_adjacency"]),
            ),
            mp=MessagePassingConfig(str(cfg["mp_variant"]), int(cfg["rounds"])),
            d_t=int(cfg["d_t"]),
            opinion_passing=bool(cfg["opinion_passing"]),
            dropout=float(cfg["dropout"]),
            freeze_embeddings=bool(cfg["freeze_embeddings"]),
            pass_pre_attention_as=bool(cfg["pass_pre_attention_as"]),
            distinct_reverse_types=bool(cfg["distinct_reverse_types"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return train_cfg, model_cfg


# ---------------------------------------------------------------------------
# IO helpers


def _read_corpus(path: str) -> List[Sentence]:
    if not os.path.exists(path):
        raise UsageError(f"corpus file not found: {path}")
    sentences = parse_corpus_file(Path(path).read_text(encoding="utf-8"))
    if not sentences:
        raise ParseError(f"corpus file {path} contains no sentences")
    return sentences


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_embeddings(
    cfg: Dict[str, object],
    args: argparse.Namespace,
    corpus: Sequence[Sentence],
) -> Tuple[EmbeddingMatrix, EmbeddingMatrix, Dict[str, str]]:
    """Load embedding files when given, else build seeded random tables over
    the corpus vocabulary."""
    digests: Dict[str, str] = {}
    rng = np.random.default_rng(int(cfg["seed"]))
    words = [w for s in corpus for w in s.tokens]

    def one(path: Optional[str], dim_key: str, label: str) -> EmbeddingMatrix:
        if path:
            if not os.path.exists(path):
                raise UsageError(f"embedding file not found: {path}")
            digests[label] = _digest(path)
            return load_embedding_table(
                Path(path).read_text(encoding="utf-8"), int(cfg[dim_key]), rng
            )
        digests[label] = f"random(dim={cfg[dim_key]}, seed={cfg['seed']})"
        return random_embedding_table(words, int(cfg[dim_key]), rng)

    general = one(getattr(args, "general_emb", None), "general_dim", "general_emb")
    domain = one(getattr(args, "domain_emb", None), "domain_dim", "domain_emb")
    return general, domain, digests


# ---------------------------------------------------------------------------
# commands


def cmd_train(args: argparse.Namespace) -> int:
    cfg = merged_config(args)
    train_cfg, model_cfg = build_configs(cfg)
    corpus = _read_corpus(args.corpus)
    general, domain, digests = _load_embeddings(cfg, args, corpus)
    digests["corpus"] = _digest(args.corpus)

    dev_set = _read_corpus(args.dev_corpus) if getattr(args, "dev_corpus", None) else None
    eval_corpus = (
        _read_corpus(args.test_corpus) if getattr(args, "test_corpus", None) else None
    )
    if getattr(args, "dev_corpus", None):
        digests["dev_corpus"] = _digest(args.dev_corpus)
    if getattr(args, "test_corpus", None):
        digests["test_corpus"] = _digest(args.test_corpus)

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    results: list = []
    report = multi_run(
        corpus, train_cfg, model_cfg, general, domain,
        eval_corpus=eval_corpus, keep_results=results, dev_set=dev_set,
    )
    wall_clock = time.time() - started

    checkpoints = []
    for seed, result in zip(report.seeds, results):
        result.model.restore(result.best_snapshot)
        ckpt_path = os.path.join(out_dir, f"checkpoint_seed{seed}.npz")
        save_checkpoint(result.model, ckpt_path)
        checkpoints.append(ckpt_path)

    manifest = {
        "config": cfg,
        "seeds": report.seeds,
        "digests": digests,
        "checkpoints": checkpoints,
        "per_run": [
            {
                "f1_a": r.f1_a, "f1_o": r.f1_o, "acc_s": r.acc_s,
                "f1_s": r.f1_s, "f1_i": r.f1_i,
            }
            for r in report.per_run
        ],
        "averaged": {
            "f1_a": report.averaged.f1_a,
            "f1_o": report.averaged.f1_o,
            "acc_s": report.averaged.acc_s,
            "f1_s": report.averaged.f1_s,
            "f1_i": report.averaged.f1_i,
        },
        "history_final_epoch": [r.history[-1] if r.history else None for r in results],
        "wall_clock_seconds": wall_clock,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {manifest_path}")
    print(report.averaged.format_flat(), end="")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    corpus = _read_corpus(args.corpus)
    report = evaluate_model(model, corpus)
    text = report.format_flat()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    corpus = _read_corpus(args.corpus)
    predicted = []
    for s in corpus:
        ae, asx = predict_sentence_tags(model, s)
        predicted.append(
            Sentence(s.tokens, tuple(ae), tuple(asx), s.heads, s.deprels)
        )
    text = serialize_corpus(predicted)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


ABLATION_ROWS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("cnn", {"mode": "cnn_only", "opinion_passing": False, "mp_variant": "none"}),
    ("vanilla_gcn", {"mode": "vanilla_gcn", "opinion_passing": False, "mp_variant": "none"}),
    ("dregcn", {"mode": "dregcn", "opinion_passing": False, "mp_variant": "none"}),
    ("dregcn+opinion_passing", {"mode": "dregcn", "opinion_passing": True, "mp_variant": "none"}),
    (
        "dregcn+opinion_passing+message_passing_predictions",
        {"mode": "dregcn", "opinion_passing": True, "mp_variant": "predictions"},
    ),
    (
        "dregcn+opinion_passing+message_passing_representations",
        {"mode": "dregcn", "opinion_passing": True, "mp_variant": "representations"},
    ),
)


def run_ablation(
    cfg: Dict[str, object], corpus: Sequence[Sentence]
) -> List[Tuple[str, float]]:
    """Six named configurations, identical seed and train/dev split."""
    rows = []
    for label, overrides in ABLATION_ROWS:
        row_cfg = dict(cfg)
        row_cfg.update(overrides)
        train_cfg, model_cfg = build_configs(row_cfg)
        general, domain, _ = _load_embeddings(row_cfg, argparse.Namespace(), corpus)
        report = multi_run(corpus, train_cfg, model_cfg, general, domain)
        rows.append((label, report.averaged.f1_i))
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = merged_config(args)
    corpus = _read_corpus(args.corpus)
    rows = run_ablation(cfg, corpus)
    lines = [f"{i} {label} f1_i = {100 * f1:.2f}" for i, (label, f1) in enumerate(rows)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus)
    st = corpus_stats(corpus)
    print(f"sentences = {st.sentences}")
    print(f"aspect_terms = {st.aspect_terms}")
    print(f"opinion_terms = {st.opinion_terms}")
    return 0


# ---------------------------------------------------------------------------
# gradient verification


def gradcheck_suite(seed: int = 0) -> List[Tuple[str, float]]:
    """Finite-difference checks per layer type and end to end."""
    rng = np.random.default_rng(seed)
    checks: List[Tuple[str, float]] = []

    # core op chain: cross-entropy of a row softmax
    logits = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(5, 3)))
    gold = np.array([1, 4, 0])
    weights = np.full(3, 1.0 / 3)

    def core():
        probs = softmax_rows(matmul(logits, matmul(w, Tensor(rng_fixed_core))))
        return nll_rows(probs, gold, weights)

    rng_fixed_core = np.random.default_rng(seed + 1).normal(size=(3, 5))
    checks.append(("softmax_cross_entropy", finite_diff_gradcheck(core, [logits, w])))

    # masked softmax with a nontrivial mask
    scores = Tensor(rng.normal(size=(4, 4)))
    mask = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(mask, False)
    probe = np.random.default_rng(seed + 2).normal(size=(4, 4))

    def msoft():
        return sum_all(mul(masked_softmax(scores, mask), probe))

    checks.append(("masked_softmax", finite_diff_gradcheck(msoft, [scores])))

    # concat + relu + linear
    a = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=(3, 4)))
    wc = Tensor(rng.normal(size=(2, 6)))

    def catrelu():
        return sum_all(relu(linear(concat(a, b), wc)))

    checks.append(("concat_relu_linear", finite_diff_gradcheck(catrelu, [a, b, wc])))

    # graph layers on a 4-token chain
    n, d, m = 4, 5, 3
    h = Tensor(rng.normal(size=(n, d)))
    chain = Sentence(
        ("w0", "w1", "w2", "w3"), ("O",) * n, ("none",) * n,
        (None, 0, 1, 2), ("r1", "r1", "r2", "r3"),
    )
    rv = RelationVocab.from_corpus([chain], include_unknown=False)  # <self>, r1, r2, r3
    graph = build_dependency_graph(chain, rv)
    adj = graph.adjacency
    counts = relation_counts(adj, graph.relation_indicator, rv.size)
    gcn = init_gcn_layer(rng, d)
    probe_g = np.random.default_rng(seed + 3).normal(size=(n, d))

    def gcn_fn():
        return sum_all(mul(gcn_layer_forward(h, adj, gcn), probe_g))

    checks.append(
        ("gcn_layer", finite_diff_gradcheck(gcn_fn, [h, gcn.weight, gcn.bias]))
    )

    table = init_relation_table(rng, rv.size, m)
    dre = init_dregcn_layer(rng, d, m)

    def dre_fn():
        return sum_all(mul(dregcn_layer_forward(h, adj, counts, dre, table), probe_g))

    checks.append(
        (
            "dregcn_layer",
            finite_diff_gradcheck(dre_fn, [h, dre.weight, dre.bias, table.table]),
        )
    )

    cnn = init_cnn_layer(rng, d, (3, 5))

    def cnn_fn():
        return sum_all(mul(cnn_encoder_forward(h, [cnn]), probe_g))

    cnn_params = [h] + cnn.conv_weights + cnn.conv_biases + [cnn.proj_weight, cnn.proj_bias]
    checks.append(("cnn_layer", finite_diff_gradcheck(cnn_fn, cnn_params)))

    # AS head with opinion attention
    as_head = init_as_head(rng, d, 4)
    yae = Tensor(softmax_rows(Tensor(rng.normal(size=(n, 5)))).data)
    gold_as = np.array([0, 1, 2, 0])

    def as_fn():
        _, _, yas, _ = as_head_forward(h, as_head, yae, opinion_passing=True)
        return nll_rows(yas, gold_as, np.full(n, 0.25))

    as_params = [
        h,
        yae,
        as_head.hidden_weight,
        as_head.hidden_bias,
        as_head.bilinear,
        as_head.out_weight,
        as_head.out_bias,
    ]
    checks.append(("as_head_attention", finite_diff_gradcheck(as_fn, as_params)))

    # full model, T=2 representation message-passing, joint loss. Unit-scale
    # embeddings keep every live gradient coordinate well above the central-
    # difference noise floor (~1e-11 at eps=1e-5); tiny-activation instances
    # produce near-zero gradients that the relative-error metric cannot
    # resolve.
    full_seed = seed + 4
    full_rng = np.random.default_rng(full_seed)
    sentence = synth.overfit_corpus(3, seed=full_seed + 5)[0]
    model_cfg = ModelConfig(
        encoder=EncoderConfig(mode="dregcn_plus_cnn", gcn_layers=1, cnn_layers=1, d=6, m=3),
        mp=MessagePassingConfig("representations", 2),
        d_t=4,
        dropout=0.0,
    )
    rv = RelationVocab.from_corpus([sentence])
    words = sorted(set(sentence.tokens))
    vocab = {w: i for i, w in enumerate(words)}
    general = EmbeddingMatrix(vocab, full_rng.normal(size=(len(words) + 1, 3)), 3)
    domain = EmbeddingMatrix(vocab, full_rng.normal(size=(len(words) + 1, 2)), 2)
    model = Model(model_cfg, general, domain, rv, full_rng)

    def full_fn():
        return joint_loss(model.forward(sentence), sentence)

    checks.append(
        ("full_model_T2", finite_diff_gradcheck(full_fn, list(model.parameters().values())))
    )
    return checks


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = merged_config(args)
    checks = gradcheck_suite(int(cfg["seed"]))
    failed = [(name, err) for name, err in checks if err >= GRADCHECK_THRESHOLD]
    for name, err in checks:
        status = "FAIL" if err >= GRADCHECK_THRESHOLD else "ok"
        print(f"{status} {name} max_rel_err={err:.3e}")
    if failed:
        raise VerificationFailure(
            "gradient check failed: " + ", ".join(name for name, _ in failed)
        )
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dregcn-absa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--runs", type=int)
        p.add_argument("--mode")
        p.add_argument("--mp-variant", dest="mp_variant")
        p.add_argument("--rounds", type=int)
        p.add_argument("--epochs", type=int)

    p = sub.add_parser("train", help="train and write checkpoint(s) + manifest")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev-corpus", dest="dev_corpus")
    p.add_argument("--test-corpus", dest="test_corpus")
    p.add_argument("--general-emb", dest="general_emb")
    p.add_argument("--domain-emb", dest="domain_emb")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="emit the corpus with predicted tags")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="run the six-configuration ablation grid")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="sentence/aspect/opinion span counts")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, VocabularyError, SplitError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
