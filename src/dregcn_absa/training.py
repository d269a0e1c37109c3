"""Joint loss with AS masking, adam optimization and the training loop.

The loss follows the sentence-mean-then-corpus-mean weighting: each sentence
contributes the mean over its tokens of the AE cross-entropy plus the AS
cross-entropy masked to gold aspect tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tape, Tensor, add_n, backward, nll_rows, scale
from .corpus import (
    AE_INDEX,
    AE_TAGS,
    AS_INDEX,
    AS_NONE,
    AS_TAGS,
    EmbeddingMatrix,
    RelationVocab,
    Sentence,
    split_train_dev,
)
from .evaluation import MetricReport, corpus_metrics, decode_spans
from .heads import IterationOutput
from .model import Model, ModelConfig


class NumericError(RuntimeError):
    """A gradient went non-finite; message names the parameter."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.0005
    batch_size: int = 50
    epochs: int = 100
    seed: int = 0
    runs: int = 5
    dev_ratio: float = 0.2

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate and batch size must be positive")
        if self.epochs < 0 or self.runs < 1:
            raise ValueError("epochs must be >= 0 and runs >= 1")


def as_loss_mask(gold_ae_tags: Sequence[str]) -> np.ndarray:
    """True exactly where the gold AE tag marks an aspect token."""
    return np.array([t in ("BA", "IA") for t in gold_ae_tags], dtype=bool)


def joint_loss(outputs: IterationOutput, s: Sentence) -> Tensor:
    """Mean over tokens of AE cross-entropy plus masked AS cross-entropy,
    computed on the final round's distributions."""
    final = outputs.final
    n = s.n
    ae_idx = np.array([AE_INDEX[t] for t in s.ae_tags], dtype=np.intp)
    mask = as_loss_mask(s.ae_tags)
    as_idx = np.array(
        [AS_INDEX[t] if t != AS_NONE else 0 for t in s.as_tags], dtype=np.intp
    )
    token_weight = np.full(n, 1.0 / n)
    ae_term = nll_rows(final.yae, ae_idx, token_weight)
    as_term = nll_rows(final.yas, as_idx, token_weight * mask)
    return add_n([ae_term, as_term])


def batch_loss(model: Model, batch: Sequence[Sentence], rng: np.random.Generator) -> Tensor:
    losses = [joint_loss(model.forward(s, train=True, rng=rng), s) for s in batch]
    return scale(add_n(losses), 1.0 / len(batch))


# ---------------------------------------------------------------------------
# adam


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Dict[str, Tensor], state: AdamState, lr: float
) -> None:
    """Standard bias-corrected adam update, reading each tensor's .grad."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1**t)
        v_hat = state.v[name] / (1 - state.beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# evaluation plumbing


def _argmax_tags(out: IterationOutput) -> Tuple[List[str], List[str]]:
    """Per-token argmax AE and AS tags of the final round, unmasked."""
    ae_tags = [AE_TAGS[i] for i in np.argmax(out.final.yae.data, axis=1)]
    as_tags = [AS_TAGS[i] for i in np.argmax(out.final.yas.data, axis=1)]
    return ae_tags, as_tags


def predict_sentence_tags(model: Model, s: Sentence) -> Tuple[List[str], List[str]]:
    """Argmax decode of the final round; AS tags read 'none' outside the
    predicted aspect spans."""
    ae_tags, as_raw = _argmax_tags(model.forward(s))
    as_tags = [AS_NONE] * s.n
    for span in decode_spans(ae_tags):
        if span.kind != "aspect":
            continue
        for i in range(span.start, span.end):
            as_tags[i] = as_raw[i]
    return ae_tags, as_tags


def evaluate_model(model: Model, sentences: Sequence[Sentence]) -> MetricReport:
    preds = [predict_sentence_tags(model, s) for s in sentences]
    return corpus_metrics(preds, sentences)


def token_accuracy(model: Model, sentences: Sequence[Sentence]) -> Tuple[float, float]:
    """(AE token accuracy, AS token accuracy on gold aspect tokens)."""
    ae_hit = ae_total = as_hit = as_total = 0
    for s in sentences:
        ae_pred, as_pred = _argmax_tags(model.forward(s))
        for i in range(s.n):
            ae_total += 1
            ae_hit += ae_pred[i] == s.ae_tags[i]
            if s.as_tags[i] != AS_NONE:
                as_total += 1
                as_hit += as_pred[i] == s.as_tags[i]
    return ae_hit / max(ae_total, 1), (as_hit / as_total) if as_total else 1.0


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    final_snapshot: Dict[str, np.ndarray]
    best_snapshot: Dict[str, np.ndarray]
    best_dev_f1_i: float
    history: List[dict]
    model: Model


def train(
    corpus: Sequence[Sentence],
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    general_emb: EmbeddingMatrix,
    domain_emb: EmbeddingMatrix,
    relation_vocab: Optional[RelationVocab] = None,
    dev_set: Optional[Sequence[Sentence]] = None,
) -> TrainResult:
    """80/20 split, shuffled mini-batches, best-dev-F1-I checkpointing.

    Fully deterministic under (seed, config, corpus): one seeded generator
    drives initialization, the split, shuffling and dropout. An explicit
    dev_set replaces the internal split and the whole corpus is trained on.
    """
    if dev_set is None:
        train_set, dev_set = split_train_dev(corpus, train_cfg.dev_ratio, train_cfg.seed)
    else:
        train_set = list(corpus)
    if relation_vocab is None:
        relation_vocab = RelationVocab.from_corpus(
            corpus, model_cfg.distinct_reverse_types
        )
    rng = np.random.default_rng(train_cfg.seed)
    model = Model(model_cfg, general_emb, domain_emb, relation_vocab, rng)
    params = model.trainable_parameters()
    state = AdamState()

    history: List[dict] = []
    best_f1 = -1.0
    best_snapshot = model.snapshot()
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(train_set), train_cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + train_cfg.batch_size]]
            with Tape() as tape:
                loss = batch_loss(model, batch, rng)
            backward(tape, loss, params=list(params.values()))
            adam_step(params, state, train_cfg.learning_rate)
            epoch_loss += float(loss.data)
            n_batches += 1
        dev_report = evaluate_model(model, dev_set)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / max(n_batches, 1),
                "dev_f1_a": dev_report.f1_a,
                "dev_f1_o": dev_report.f1_o,
                "dev_acc_s": dev_report.acc_s,
                "dev_f1_s": dev_report.f1_s,
                "dev_f1_i": dev_report.f1_i,
            }
        )
        if dev_report.f1_i > best_f1:
            best_f1 = dev_report.f1_i
            best_snapshot = model.snapshot()

    return TrainResult(model.snapshot(), best_snapshot, max(best_f1, 0.0), history, model)


@dataclass
class MultiRunReport:
    averaged: MetricReport
    per_run: List[MetricReport]
    seeds: List[int]


def multi_run(
    corpus: Sequence[Sentence],
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    general_emb: EmbeddingMatrix,
    domain_emb: EmbeddingMatrix,
    eval_corpus: Optional[Sequence[Sentence]] = None,
    use_best: bool = True,
    relation_vocab: Optional[RelationVocab] = None,
    keep_results: Optional[list] = None,
    dev_set: Optional[Sequence[Sentence]] = None,
) -> MultiRunReport:
    """Repeat training with seeds seed+0 .. seed+runs-1 and average each
    metric arithmetically. Evaluation uses the dev split unless a separate
    corpus is given."""
    reports: List[MetricReport] = []
    seeds: List[int] = []
    for r in range(train_cfg.runs):
        run_cfg = replace(train_cfg, seed=train_cfg.seed + r)
        result = train(
            corpus, run_cfg, model_cfg, general_emb, domain_emb, relation_vocab,
            dev_set=dev_set,
        )
        if use_best:
            result.model.restore(result.best_snapshot)
        if eval_corpus is not None:
            target = eval_corpus
        elif dev_set is not None:
            target = dev_set
        else:
            _, target = split_train_dev(corpus, run_cfg.dev_ratio, run_cfg.seed)
        reports.append(evaluate_model(result.model, target))
        seeds.append(run_cfg.seed)
        if keep_results is not None:
            keep_results.append(result)

    avg = MetricReport(
        f1_a=float(np.mean([r.f1_a for r in reports])),
        f1_o=float(np.mean([r.f1_o for r in reports])),
        acc_s=float(np.mean([r.acc_s for r in reports])),
        f1_s=float(np.mean([r.f1_s for r in reports])),
        f1_i=float(np.mean([r.f1_i for r in reports])),
        counts={"runs": len(reports)},
    )
    return MultiRunReport(avg, reports, seeds)
