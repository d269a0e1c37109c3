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
import platform
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import __version__
from .autodiff import (
    Tensor,
    bilinear_attention,
    concat,
    conv_branches,
    finite_diff_gradcheck,
    linear,
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
    ParamTable,
    cnn_encoder_forward,
    dregcn_layer_forward,
    init_cnn_layer,
    init_dregcn_layer,
    init_relation_table,
    relation_messages,
)
from .heads import MessagePassingConfig, as_head_forward, attention_constants, init_as_head
from .model import CheckpointError, Model, ModelConfig, load_checkpoint, save_checkpoint
from .model import JSON_TYPES, typed_value
from .training import (
    NumericError,
    SizeError,
    TrainConfig,
    evaluate_model,
    joint_loss,
    multi_run,
    predict_tags,
    too_big,
)

CONFIG_DIR_ENV = "DREGCN_ABSA_CONFIG_DIR"
GRADCHECK_THRESHOLD = 1e-4


class UsageError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    pass


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


def _read(path: str, kind: str) -> Tuple[str, str]:
    """The text of the `kind` file at path and the sha256 of its bytes, from
    one read. A missing file or a directory is a usage error, and a byte
    that is not UTF-8 a ParseError naming its line."""
    if not os.path.exists(path):
        raise UsageError(f"{kind} file not found: {path}")
    if os.path.isdir(path):
        raise UsageError(f"{kind} file is a directory: {path}")
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8") from exc


def load_config_file(path: str) -> Dict[str, object]:
    cfg_dir = os.environ.get(CONFIG_DIR_ENV)
    if not os.path.exists(path) and cfg_dir and os.path.exists(os.path.join(cfg_dir, path)):
        path = os.path.join(cfg_dir, path)
    try:
        text, _ = _read(path, "config")
    except ParseError as exc:
        raise UsageError(str(exc)) from exc
    out: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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
    """Defaults, then the config file's values, then the flags that are set."""
    cfg = dict(CONFIG_DEFAULTS)
    if args.config:
        cfg.update(load_config_file(args.config))
    cfg.update({k: v for k, v in vars(args).items() if k in CONFIG_DEFAULTS and v is not None})
    return cfg


# Each config key is a scalar field of one of these dataclasses, with that
# field's default and type; `MessagePassingConfig.variant` is `mp_variant`.
# Tuple fields such as `kernel_widths` are not keys.
_CONFIG_CLASSES = (TrainConfig, EncoderConfig, MessagePassingConfig, ModelConfig)
_RENAMED = {"variant": "mp_variant"}


def _keys(cls: type) -> Dict[str, Tuple[str, type, object]]:
    """Config key -> (field name, type, default) of each scalar field of cls."""
    types = get_type_hints(cls)
    return {
        _RENAMED.get(f.name, f.name): (f.name, types[f.name], f.default)
        for f in fields(cls)
        if types[f.name] in JSON_TYPES
    }


# the widths of the two embedding tables, which no config dataclass holds
EMBEDDING_DIMS = {"general_dim": 16, "domain_dim": 8}
CONFIG_DEFAULTS: Dict[str, object] = {
    **{key: default for cls in _CONFIG_CLASSES for key, (_, _, default) in _keys(cls).items()},
    **EMBEDDING_DIMS,
}


def _build(cls: type, cfg: Dict[str, object], **nested):
    """cls from the config keys of its scalar fields, each read by the
    checkpoint's `typed_value`, plus its nested configs."""
    values = {name: typed_value(key, t, cfg[key]) for key, (name, t, _) in _keys(cls).items()}
    return cls(**nested, **values)


def build_configs(cfg: Dict[str, object]) -> Tuple[TrainConfig, ModelConfig]:
    try:
        widths = [typed_value(key, int, cfg[key]) for key in EMBEDDING_DIMS]
        if min(widths) < 0 or sum(widths) == 0:
            raise ValueError("general_dim and domain_dim must be >= 0, and not both 0")
        train_cfg = _build(TrainConfig, cfg)
        encoder, mp = _build(EncoderConfig, cfg), _build(MessagePassingConfig, cfg)
        model_cfg = _build(ModelConfig, cfg, encoder=encoder, mp=mp)
    except (OverflowError, TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return train_cfg, model_cfg


# ---------------------------------------------------------------------------
# IO helpers


def _read_corpus(path: str) -> Tuple[List[Sentence], str]:
    """The sentences of a corpus file and the sha256 of its bytes."""
    text, digest = _read(path, "corpus")
    sentences = parse_corpus_file(text)
    if not sentences:
        raise ParseError(f"corpus file {path} contains no sentences")
    return sentences, digest


def _load_embeddings(
    cfg: Dict[str, object],
    corpus: Sequence[Sentence],
    general_path: Optional[str] = None,
    domain_path: Optional[str] = None,
) -> Tuple[EmbeddingMatrix, EmbeddingMatrix, Dict[str, str]]:
    """Load embedding files when given, else build seeded random tables over
    the corpus vocabulary."""
    digests: Dict[str, str] = {}
    rng = np.random.default_rng(cfg["seed"])
    words = [w for s in corpus for w in s.tokens]

    def one(path: Optional[str], dim_key: str, label: str) -> EmbeddingMatrix:
        if path:
            text, digests[label] = _read(path, "embedding")
            return load_embedding_table(text, cfg[dim_key], rng)
        digests[label] = f"random(dim={cfg[dim_key]}, seed={cfg['seed']})"
        try:
            return random_embedding_table(words, cfg[dim_key], rng)
        except (MemoryError, ValueError) as exc:
            if not too_big(exc):
                raise
            raise SizeError(f"{dim_key} = {cfg[dim_key]}: the table cannot be allocated: {exc}") from exc

    general = one(general_path, "general_dim", "general_emb")
    domain = one(domain_path, "domain_dim", "domain_emb")
    return general, domain, digests


def _check_out_file(path: Optional[str]) -> None:
    """A usage error unless `--out` is unset or a file path in an existing directory."""
    if path and os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"--out {path} is not in an existing directory")


def _environment() -> Dict[str, object]:
    """The versions that trained weights can depend on: checkpoint bytes
    follow the BLAS build, which NumPy reports offline."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "dregcn_absa": __version__,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_train(args: argparse.Namespace) -> int:
    ancestor = args.out  # made after training, so its nearest existing ancestor must be a directory
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        where = "exists and" if ancestor == args.out else f"is under {ancestor}, which"
        raise UsageError(f"--out {args.out} {where} is not a directory")
    cfg = merged_config(args)
    train_cfg, model_cfg = build_configs(cfg)
    corpus, corpus_digest = _read_corpus(args.corpus)
    general, domain, digests = _load_embeddings(cfg, corpus, args.general_emb, args.domain_emb)
    digests["corpus"] = corpus_digest
    dev_set = eval_corpus = None
    if args.dev_corpus:
        dev_set, digests["dev_corpus"] = _read_corpus(args.dev_corpus)
    if args.test_corpus:
        eval_corpus, digests["test_corpus"] = _read_corpus(args.test_corpus)

    started = time.time()
    report = multi_run(
        corpus, train_cfg, model_cfg, general, domain,
        eval_corpus=eval_corpus, dev_set=dev_set,
    )
    wall_clock = time.time() - started

    # made only now, so that a run that fails leaves no `--out` behind
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    checkpoints = []
    for seed, result in zip(report.seeds, report.results):
        ckpt_path = os.path.join(out_dir, f"checkpoint_seed{seed}.npz")
        save_checkpoint(result.model, ckpt_path)
        checkpoints.append(ckpt_path)

    manifest = {
        "config": cfg,
        "seeds": report.seeds,
        "digests": digests,
        "checkpoints": checkpoints,
        "per_run": [r.scores() for r in report.per_run],
        "averaged": report.averaged.scores(),
        "history": [r.history for r in report.results],
        "history_final_epoch": [r.history[-1] if r.history else None for r in report.results],
        "model_config": asdict(model_cfg),
        "train_config": asdict(train_cfg),
        "environment": _environment(),
        "wall_clock_seconds": wall_clock,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    Path(manifest_path).write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    print(f"wrote {manifest_path}")
    print(report.averaged.format_flat(), end="")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    model = load_checkpoint(args.checkpoint)
    corpus, _ = _read_corpus(args.corpus)
    report = evaluate_model(model, corpus)
    text = report.format_flat()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    model = load_checkpoint(args.checkpoint)
    corpus, _ = _read_corpus(args.corpus)
    predicted = [
        Sentence(s.tokens, tuple(ae), tuple(asx), s.heads, s.deprels)
        for s, (ae, asx) in zip(corpus, predict_tags(model, corpus))
    ]
    text = serialize_corpus(predicted)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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


def cmd_ablate(args: argparse.Namespace) -> int:
    """The six `ABLATION_ROWS` with one seed, split and pair of embedding
    tables; every row's configs are built first, so a bad value exits 1."""
    _check_out_file(args.out)
    cfg = merged_config(args)
    corpus, _ = _read_corpus(args.corpus)
    rows = [(label, build_configs({**cfg, **overrides})) for label, overrides in ABLATION_ROWS]
    general, domain, _ = _load_embeddings(cfg, corpus)
    lines = []
    for i, (label, (train_cfg, model_cfg)) in enumerate(rows):
        report = multi_run(corpus, train_cfg, model_cfg, general, domain)
        lines.append(f"{i} {label} f1_i = {100 * report.averaged.f1_i:.2f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus, _ = _read_corpus(args.corpus)
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

    # concat + relu + linear
    a = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=(3, 4)))
    wc = Tensor(rng.normal(size=(2, 6)))

    def catrelu():
        return sum_all(relu(linear(concat(a, b), wc)))

    checks.append(("concat_relu_linear", finite_diff_gradcheck(catrelu, [a, b, wc])))

    # layers on a bucket of one 4-token chain
    n, d, m = 4, 5, 3
    h = Tensor(rng.normal(size=(n, d))[None])
    chain = Sentence(
        ("w0", "w1", "w2", "w3"), ("O",) * n, ("none",) * n,
        (None, 0, 1, 2), ("r1", "r1", "r2", "r3"),
    )
    rv = RelationVocab({"<self>": 0, "r1": 1, "r2": 2, "r3": 3})
    graph = build_dependency_graph([chain], rv)
    # each layer check differentiates its input and its own table's
    # parameters; every table draws from `rng` in turn
    gcn_p = ParamTable(rng)
    gcn = init_dregcn_layer(gcn_p, "gcn", d, 0)
    probe_g = np.random.default_rng(seed + 3).normal(size=(n, d))

    def gcn_fn():
        return sum_all(mul(dregcn_layer_forward(h, graph.adjacency, None, gcn), probe_g))

    checks.append(("gcn_layer", finite_diff_gradcheck(gcn_fn, [h, *gcn_p.tensors.values()])))

    dre_p = ParamTable(rng)
    table = init_relation_table(dre_p, rv.size, m)
    dre = init_dregcn_layer(dre_p, "dregcn", d, m)

    def dre_fn():
        messages = relation_messages(graph.adjacency, graph.relation_indicator, table)
        return sum_all(mul(dregcn_layer_forward(h, graph.adjacency, messages, dre), probe_g))

    checks.append(("dregcn_layer", finite_diff_gradcheck(dre_fn, [h, *dre_p.tensors.values()])))

    cnn_p = ParamTable(rng)
    cnn = init_cnn_layer(cnn_p, "cnn", d, (3, 5))

    def cnn_fn():
        return sum_all(mul(cnn_encoder_forward(h, [cnn]), probe_g))

    checks.append(("cnn_layer", finite_diff_gradcheck(cnn_fn, [h, *cnn_p.tensors.values()])))

    # AS head with opinion attention
    as_p = ParamTable(rng)
    as_head = init_as_head(as_p, d, 4)
    yae = Tensor(softmax_rows(Tensor(rng.normal(size=(n, 5)))).data[None])
    gold_as = np.array([[0, 1, 2, 0]])

    def as_fn():
        _, _, yas, _ = as_head_forward(h, as_head, yae, attention_constants(n))
        return nll_rows(yas, gold_as, np.full((1, n), 0.25))

    checks.append(("as_head_attention", finite_diff_gradcheck(as_fn, [h, yae, *as_p.tensors.values()])))

    # full model, T=2 representation message-passing, joint loss. Unit-scale
    # embeddings keep every live gradient coordinate well above the central-
    # difference noise floor (~1e-11 at eps=1e-5); tiny-activation instances
    # produce near-zero gradients that the relative-error metric cannot
    # resolve.
    full_seed = seed + 4
    full_rng = np.random.default_rng(full_seed)
    sentence = Sentence(
        ("speaker", "fragile", "and", "feels", "feels"), ("BA", "BP", "O", "O", "O"),
        ("neg", "none", "none", "none", "none"), (None, 0, 1, 2, 3),
        ("root", "nsubj", "nsubj", "obj", "det"),
    )
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
        return joint_loss(model.forward([sentence]), [sentence])

    checks.append(
        ("full_model_T2", finite_diff_gradcheck(full_fn, list(model.parameters().values())))
    )

    # the fused ops on a padded bucket of lengths 2 and 4, so that the pad
    # masks are differentiated too. Nonzero biases keep the windows that
    # read only padding off the ReLU kink.
    pad = np.arange(n) < np.array([[2], [n]])
    xb = Tensor(rng.normal(size=(2, n, d)))
    conv_w = [Tensor(rng.normal(size=(width, d, d))) for width in (3, 5)]
    conv_b = [Tensor(rng.normal(size=d)) for _ in conv_w]
    probe_b = np.random.default_rng(seed + 6).normal(size=(2, n, 2 * d))

    def conv_fn():
        return sum_all(mul(conv_branches(xb, conv_w, conv_b, pad), probe_b))

    checks.append(
        ("conv_branches_bucket", finite_diff_gradcheck(conv_fn, [xb] + conv_w + conv_b))
    )

    wb = Tensor(rng.normal(size=(d, d)))
    pop_b = Tensor(rng.random((2, n)))
    factors = rng.random((n, n))
    constants = attention_constants(n, pad)._replace(factors=factors)  # the bucket's masks
    probe_a = np.random.default_rng(seed + 7).normal(size=(2, n, n))

    def att_fn():
        return sum_all(mul(bilinear_attention(xb, wb, pop_b, constants), probe_a))

    checks.append(("bilinear_attention_bucket", finite_diff_gradcheck(att_fn, [xb, wb, pop_b])))
    return checks


def cmd_gradcheck(args: argparse.Namespace) -> int:
    # the seed is the one key read, so it is the one key checked
    try:
        seed = TrainConfig(seed=typed_value("seed", int, merged_config(args)["seed"])).seed
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    checks = gradcheck_suite(seed)
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

    def config_flags(p, *flags):  # each of `flags` overrides the config key it names
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        for flag, kind in flags:
            p.add_argument(flag, type=kind)

    run_flags = (("--runs", int), ("--rounds", int), ("--epochs", int))
    p = sub.add_parser("train", help="train and write checkpoint(s) + manifest")
    config_flags(p, *run_flags, ("--mode", str), ("--mp-variant", str))
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
    config_flags(p, *run_flags)  # each row sets its own mode and variant
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    config_flags(p)
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
    except (UsageError, SizeError) as exc:
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
