"""Joint loss with AS masking, adam optimization and the training loop.

The loss follows the sentence-mean-then-corpus-mean weighting: each sentence
contributes the mean over its tokens of the AE cross-entropy plus the AS
cross-entropy masked to gold aspect tokens.

Training and evaluation run the model on length buckets: the sentences of a
mini-batch (or of an evaluation pass) that share ceil(log2 n), padded to the
bucket's longest. A bucket records one tape op per layer, not one per
sentence; padded tokens get loss weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import Tape, Tensor, add_n, backward, nll_rows
from .corpus import (
    AE_INDEX,
    AE_TAGS,
    ASPECT_TAGS,
    AS_INDEX,
    AS_NONE,
    AS_TAGS,
    EmbeddingMatrix,
    RelationVocab,
    Sentence,
    split_train_dev,
)
from .evaluation import METRICS, MetricReport, corpus_metrics, decode_spans
from .heads import RoundOutput
from .model import Model, ModelConfig


MAX_BUCKET = 50  # sentences per forward; the default mini-batch size


class NumericError(RuntimeError):
    """A gradient went non-finite; message names the parameter."""


class SizeError(ValueError):
    """A model or table too large to allocate; message names its sizes."""


# the starts of what NumPy raises as a ValueError for an array it cannot hold
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def too_big(exc: BaseException) -> bool:
    """Whether `exc` is NumPy refusing to allocate an array for its size."""
    return isinstance(exc, MemoryError) or (
        isinstance(exc, ValueError) and str(exc).startswith(_TOO_BIG)
    )


@dataclass
class TrainConfig:
    learning_rate: float = 0.0005
    batch_size: int = 50
    epochs: int = 100
    seed: int = 0
    runs: int = 5
    dev_ratio: float = 0.2

    def __post_init__(self):
        # chained comparisons are False for nan, so nan fails every check
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (self.batch_size >= 1 and self.runs >= 1 and self.epochs >= 0 and self.seed >= 0):
            raise ValueError("batch_size and runs must be >= 1, epochs and seed >= 0")
        if not 0 < self.dev_ratio < 1:
            raise ValueError(f"dev_ratio must lie in (0, 1), got {self.dev_ratio}")


def as_loss_mask(gold_ae_tags: Sequence[str]) -> np.ndarray:
    """True exactly where the gold AE tag marks an aspect token."""
    return np.array([t in ASPECT_TAGS for t in gold_ae_tags], dtype=bool)


def length_buckets(sentences: Sequence[Sentence]) -> List[List[int]]:
    """Indices of the sentences grouped by ceil(log2 n), shortest bucket
    first, in corpus order within a bucket. A bucket holds at most
    MAX_BUCKET sentences, so that an evaluation pass over a whole corpus
    keeps only one mini-batch's worth of activations alive."""
    groups: Dict[int, List[int]] = {}
    for i, s in enumerate(sentences):
        groups.setdefault((s.n - 1).bit_length(), []).append(i)
    return [
        groups[key][start : start + MAX_BUCKET]
        for key in sorted(groups)
        for start in range(0, len(groups[key]), MAX_BUCKET)
    ]


def joint_loss(
    outputs: List[RoundOutput],
    batch: Union[Sentence, Sequence[Sentence]],
    batch_size: int = 1,
) -> Tensor:
    """Sum over the bucket's sentences of the token mean of AE cross-entropy
    plus masked AS cross-entropy, computed on the final round's
    distributions. Sentence s weighs each of its tokens 1 / (batch_size *
    n_s); padded tokens weigh 0."""
    bucket = [batch] if isinstance(batch, Sentence) else list(batch)
    final = outputs[-1]
    shape = final.yae.shape[:-1]
    ae_idx = np.zeros(shape, dtype=np.intp)
    as_idx = np.zeros(shape, dtype=np.intp)
    weight = np.zeros(shape)
    aspect = np.zeros(shape, dtype=bool)
    for b, s in enumerate(bucket):
        ae_idx[b, : s.n] = [AE_INDEX[t] for t in s.ae_tags]
        as_idx[b, : s.n] = [AS_INDEX[t] if t != AS_NONE else 0 for t in s.as_tags]
        weight[b, : s.n] = 1.0 / (batch_size * s.n)
        aspect[b, : s.n] = as_loss_mask(s.ae_tags)
    ae_term = nll_rows(final.yae, ae_idx, weight)
    as_term = nll_rows(final.yas, as_idx, weight * aspect)
    return add_n([ae_term, as_term])


def batch_loss(model: Model, batch: Sequence[Sentence], rng: np.random.Generator) -> Tensor:
    """Mean over the batch of each sentence's joint loss, one forward per
    length bucket. Dropout masks are drawn per sentence in batch order."""
    dropout = model.dropout_masks(batch, rng)
    losses = []
    for idx in length_buckets(batch):
        bucket = [batch[i] for i in idx]
        masks = None if dropout is None else [dropout[i] for i in idx]
        losses.append(joint_loss(model.forward(bucket, masks), bucket, len(batch)))
    return add_n(losses)


# ---------------------------------------------------------------------------
# adam

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moments' decay rates; the step's denominator floor


@dataclass
class AdamState:
    """Adam over one parameter vector, updated in place from one gradient
    vector (views such as `Model.trainable_vectors`). The moments and the
    scratch the update works in are vectors allocated once, by the first
    step: there they sit above that step's activations in the heap. Made
    before the first forward, they let glibc trim the heap after every step
    and fault it back in during the next, which doubled `long_typed`'s minor
    page faults."""

    values: np.ndarray
    grads: np.ndarray
    step: int = 0
    vectors: Optional[Tuple[np.ndarray, ...]] = None  # m, v, float scratch x 2, bool scratch


def adam_step(params: Dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Standard bias-corrected adam update of `state.values` from
    `state.grads`; after the first step, with no array allocated. `params`
    are the tensors whose values and gradients those vectors hold; a
    non-finite gradient names the first of them it is in."""
    if state.vectors is None:
        shape = state.values.shape
        state.vectors = (*(np.zeros(shape) for _ in range(4)), np.zeros(shape, dtype=bool))
    m, v, s, d, finite = state.vectors
    g = state.grads
    if not np.isfinite(g, out=finite).all():
        name = next(name for name, p in params.items() if not np.isfinite(p.grad).all())
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g, in place
    m *= BETA1
    m += np.multiply(g, 1 - BETA1, out=s)
    v *= BETA2
    np.multiply(g, 1 - BETA2, out=s)
    s *= g
    v += s
    # values -= lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1 - BETA1**t, out=s)
    s *= lr
    np.divide(v, 1 - BETA2**t, out=d)
    np.sqrt(d, out=d)
    d += EPS
    s /= d
    state.values -= s


# ---------------------------------------------------------------------------
# evaluation plumbing


def predict_tags(
    model: Model, sentences: Sequence[Sentence]
) -> List[Tuple[List[str], List[str]]]:
    """Argmax decode of the final round for every sentence, one forward per
    length bucket; AS tags read 'none' outside the predicted aspect spans."""
    preds: List[Tuple[List[str], List[str]]] = [([], [])] * len(sentences)
    for idx in length_buckets(sentences):
        final = model.forward([sentences[i] for i in idx])[-1]
        ae_best = np.argmax(final.yae.data, axis=-1).tolist()
        as_best = np.argmax(final.yas.data, axis=-1).tolist()
        for b, i in enumerate(idx):
            ae_tags = [AE_TAGS[k] for k in ae_best[b][: sentences[i].n]]
            as_tags = [AS_NONE] * len(ae_tags)
            for span in decode_spans(ae_tags):
                if span.kind == "aspect":
                    for t in range(span.start, span.end):
                        as_tags[t] = AS_TAGS[as_best[b][t]]
            preds[i] = (ae_tags, as_tags)
    return preds


def predict_sentence_tags(model: Model, s: Sentence) -> Tuple[List[str], List[str]]:
    """`predict_tags` of one sentence: a forward with B = 1."""
    return predict_tags(model, [s])[0]


def evaluate_model(model: Model, sentences: Sequence[Sentence]) -> MetricReport:
    return corpus_metrics(predict_tags(model, sentences), sentences)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    final_snapshot: np.ndarray  # parameter vectors, as `Model.snapshot` copies them
    best_snapshot: np.ndarray
    best_dev_f1_i: float
    history: List[dict]
    model: Model
    dev_set: Sequence[Sentence]  # what the run was checkpointed on


def train(
    corpus: Sequence[Sentence],
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    general_emb: EmbeddingMatrix,
    domain_emb: EmbeddingMatrix,
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
    relation_vocab = RelationVocab.from_corpus(corpus, model_cfg.distinct_reverse_types)
    rng = np.random.default_rng(train_cfg.seed)
    try:
        model = Model(model_cfg, general_emb, domain_emb, relation_vocab, rng)
    except (MemoryError, ValueError) as exc:
        if not too_big(exc):
            raise
        sizes = f"d = {model_cfg.encoder.d}, m = {model_cfg.encoder.m}, d_t = {model_cfg.d_t}"
        raise SizeError(f"the model ({sizes}) cannot be allocated: {exc}") from exc
    params = model.trainable_parameters()
    state = AdamState(*model.trainable_vectors())

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
                **{f"dev_{name}": score for name, score in dev_report.scores().items()},
            }
        )
        if dev_report.f1_i > best_f1:
            best_f1 = dev_report.f1_i
            best_snapshot = model.snapshot()

    return TrainResult(model.snapshot(), best_snapshot, max(best_f1, 0.0), history, model, dev_set)


@dataclass
class MultiRunReport:
    averaged: MetricReport
    per_run: List[MetricReport]
    seeds: List[int]
    results: List[TrainResult]


def multi_run(
    corpus: Sequence[Sentence],
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    general_emb: EmbeddingMatrix,
    domain_emb: EmbeddingMatrix,
    eval_corpus: Optional[Sequence[Sentence]] = None,
    use_best: bool = True,
    dev_set: Optional[Sequence[Sentence]] = None,
) -> MultiRunReport:
    """Repeat training with seeds seed+0 .. seed+runs-1 and average each
    metric arithmetically. Each run is scored on eval_corpus when given,
    else on the dev set it trained against. Each run's model holds its best
    snapshot when use_best is set, else its final one."""
    reports: List[MetricReport] = []
    seeds: List[int] = []
    results: List[TrainResult] = []
    for r in range(train_cfg.runs):
        run_cfg = replace(train_cfg, seed=train_cfg.seed + r)
        result = train(corpus, run_cfg, model_cfg, general_emb, domain_emb, dev_set=dev_set)
        if use_best:
            result.model.restore(result.best_snapshot)
        target = result.dev_set if eval_corpus is None else eval_corpus
        reports.append(evaluate_model(result.model, target))
        seeds.append(run_cfg.seed)
        results.append(result)

    avg = MetricReport(
        **{name: float(np.mean([getattr(r, name) for r in reports])) for name in METRICS},
        counts={"runs": len(reports)},
    )
    return MultiRunReport(avg, reports, seeds, results)
