"""AE/AS task heads, opinion-passing attention and message-passing rounds.

The AE head tags every token over {BA, IA, BP, IP, O}; the AS head tags
polarity over {pos, neg, neu} after attending to likely opinion tokens. Both
heads are re-applied with shared parameters after every message-passing
round. Every piece takes (..., n, d) token matrices: one sentence, or a
padded length bucket whose `pad_mask` (B, n) marks the real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Union

import numpy as np

from .autodiff import (
    ContractViolation,
    Tensor,
    bilinear_attention,
    linear,
    matmul,
    relu,
    softmax_rows,
    sum_last,
)
from .corpus import AE_INDEX, AE_TAGS, AS_TAGS, OPINION_TAGS
from .encoder import Dense, ParamTable, init_dense

OPINION_CLASS_SLICE = (AE_INDEX[OPINION_TAGS[0]], AE_INDEX[OPINION_TAGS[-1]] + 1)  # adjacent in AE_TAGS

MP_VARIANTS = ("none", "predictions", "representations")

# The most message-passing rounds a config may ask for; the paper uses T = 2.
# Each round can grow the shared vectors: on a tiny corpus at initialisation
# max |hs| reads about 0.4 at 10 rounds, 4 at 50 and 1e21 at 500, so a
# larger T is an error rather than a run that ends in NaN.
MAX_ROUNDS = 10


@dataclass
class AeHead:
    hidden: Dense  # (d_t, d_s)
    out: Dense  # (5, d_t)


@dataclass
class AsHead:
    hidden: Dense  # (d_t, d_s)
    bilinear: Optional[Tensor]  # (d_t, d_t), the attention weight; None without opinion passing
    out: Dense  # (3, 2 * d_t)


@dataclass
class MessagePassingConfig:
    variant: str = "representations"
    rounds: int = 2

    def __post_init__(self):
        if self.variant not in MP_VARIANTS:
            raise ValueError(
                f"unknown message-passing variant {self.variant!r}; expected one of {MP_VARIANTS}"
            )
        if not 0 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must lie in [0, {MAX_ROUNDS}], got {self.rounds}")

    @property
    def effective_rounds(self) -> int:
        return 0 if self.variant == "none" else self.rounds


FINAL_READS = ("yae", "yas")  # the `RoundOutput` fields the loss and prediction read


def message_fields(variant: str, pass_pre_attention_as: bool = False) -> tuple:
    """The `RoundOutput` fields the next round's message joins after `hs`: [yae; yas],
    or [hae; h; context] ([hae; h] when passing the pre-attention AS hidden h)."""
    if variant == "predictions":
        return ("yae", "yas")
    if variant == "representations":
        return ("hae", "has_pre") if pass_pre_attention_as else ("hae", "has_pre", "context")
    raise ContractViolation(f"variant {variant!r} carries no message")


def message_width(variant: str, d_t: int, pass_pre_attention_as: bool = False) -> int:
    """Extra re-encoder input columns beyond d_s for each variant."""
    widths = {"yae": len(AE_TAGS), "yas": len(AS_TAGS), "hae": d_t, "has_pre": d_t, "context": d_t}
    return sum(widths[f] for f in message_fields(variant, pass_pre_attention_as))


def init_ae_head(p: ParamTable, d_s: int, d_t: int) -> AeHead:
    hidden = init_dense(p, "ae/hidden_", d_t, d_s)
    return AeHead(hidden, init_dense(p, "ae/out_", len(AE_TAGS), d_t))


def init_as_head(p: ParamTable, d_s: int, d_t: int, opinion_passing: bool = True) -> AsHead:
    return AsHead(
        init_dense(p, "as/hidden_", d_t, d_s),
        p("as/bilinear", (d_t, d_t)) if opinion_passing else None,
        init_dense(p, "as/out_", len(AS_TAGS), 2 * d_t),
    )


def init_re_encoder(
    p: ParamTable, d_s: int, variant: str, d_t: int, pass_pre_attention_as: bool = False
) -> Dense:
    return init_dense(p, "re/", d_s, d_s + message_width(variant, d_t, pass_pre_attention_as))


# ---------------------------------------------------------------------------
# forward pieces


def ae_head_forward(hs: Tensor, head: AeHead, reads=FINAL_READS):
    """(hidden, row-stochastic 5-way distribution) for every token; the
    distribution is None unless `reads` names "yae"."""
    hae = relu(linear(hs, head.hidden.weight, head.hidden.bias))
    yae = softmax_rows(linear(hae, head.out.weight, head.out.bias)) if "yae" in reads else None
    return hae, yae


def distance_factors(n: int) -> np.ndarray:
    """1/|i-j| off the diagonal, 0 on it."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    return np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)


class AttentionConstants(NamedTuple):
    """What the opinion attention needs of a forward's shape alone, built once
    per forward by `attention_constants` and handed whole to every round's
    `bilinear_attention`, so that its softmax neither inverts a mask nor
    searches its rows for one with no candidate. `empty` is derived from
    `excluded` where both are built, so the two cannot disagree."""

    factors: np.ndarray  # (n, n) distance factors
    excluded: np.ndarray  # broadcastable to (..., n, n): True where j is no candidate for i
    empty: Optional[np.ndarray]  # (..., n): True for a row with no candidate; None if none is


# The distance factors and the identity of the longest n asked for so far,
# read-only; a shorter n reads their top-left corner.
_LENGTH_TABLES = (distance_factors(0), np.eye(0, dtype=bool))


def attention_constants(n: int, pad_mask: Optional[np.ndarray] = None) -> AttentionConstants:
    """The distance factors over n tokens, the positions no row may attend
    to (its own, and given `pad_mask` (B, n), padded ones) and the rows with
    no candidate. Without `pad_mask` the first two are views of the tables
    every forward shares, and a row is empty only when n = 1; with it,
    both masks are computed here, once per forward. `distance_factors` runs
    only when n is longer than any before it."""
    global _LENGTH_TABLES
    if _LENGTH_TABLES[0].shape[0] < n:
        _LENGTH_TABLES = (distance_factors(n), np.eye(n, dtype=bool))
        for table in _LENGTH_TABLES:
            table.flags.writeable = False
    factors, excluded = (table[:n, :n] for table in _LENGTH_TABLES)
    if pad_mask is None:
        return AttentionConstants(factors, excluded, None if n > 1 else excluded.all(axis=-1))
    padded = ~np.asarray(pad_mask, dtype=bool)
    excluded = excluded | padded[..., None, :] | padded[..., :, None]
    return AttentionConstants(factors, excluded, excluded.all(axis=-1))


def as_head_forward(
    hs: Tensor, head: AsHead, yae: Optional[Tensor], constants: Optional[AttentionConstants],
    reads=FINAL_READS,
):
    """(AS hidden h, context sum_j M_ij h_j for every token, 3-way
    distribution from [h_i ; context_i], attention M). The context and the
    distribution are computed where `reads` names them (the distribution
    reads the context), and M where either is; an unread one is None.

    M is row-stochastic context attention: bilinear relevance scaled by
    inverse token distance and by the context token's predicted opinion
    probability, its AE mass on BP and IP. The positions
    `constants.excluded` names (the diagonal, padding) get no weight; a row
    with no candidates (`constants.empty`: n = 1, or a padded row) comes out
    all-zero. Without `constants` (no opinion passing) there is no M: it is
    None, and the context is a constant zero array.
    """
    has = relu(linear(hs, head.hidden.weight, head.hidden.bias))
    m = context = yas = None
    if "context" in reads or "yas" in reads:
        if constants is not None:
            m = bilinear_attention(has, head.bilinear, sum_last(yae, *OPINION_CLASS_SLICE), constants)
        context = np.zeros(has.shape) if m is None else matmul(m, has)
    if "yas" in reads:
        yas = softmax_rows(linear((has, context), head.out.weight, head.out.bias))
    return has, context, yas, m


@dataclass
class RoundOutput:
    """One round's outputs; a field that no reader of the round reads is None."""

    hs: Tensor
    hae: Tensor
    yae: Optional[Tensor]
    has_pre: Tensor  # the AS hidden h
    context: Union[Tensor, np.ndarray, None]  # sum_j M_ij h_j; a zero array without M
    yas: Optional[Tensor]
    attention: Optional[Tensor]  # None without opinion passing, or if context and yas are unread


def message_pass(fields: tuple, prev: RoundOutput, re: Dense) -> Tensor:
    """Re-encode the shared vectors from the previous round's outputs: `hs`
    and the message's `fields`, joined by the re-encoder's `linear`."""
    return linear((prev.hs, *(getattr(prev, f) for f in fields)), re.weight, re.bias)


def forward_rounds(
    hs0: Tensor,
    ae_head: AeHead,
    as_head: AsHead,
    re: Optional[Dense],
    mp: MessagePassingConfig,
    opinion_passing: bool = True,
    pad_mask: Optional[np.ndarray] = None,
    pass_pre_attention_as: bool = False,
) -> List[RoundOutput]:
    """Every round's outputs, the final round last. Round 0 evaluates both
    heads on the encoder output; each further round re-encodes the shared
    vectors from the previous round's outputs and re-applies the heads with
    the same parameters. Every round shares one set of attention constants,
    which depend only on the bucket's shape; without opinion passing there
    are none.

    A round computes what its readers read: the loss and prediction read the
    final round's `FINAL_READS`, the next round's message any other round's
    `message_fields`. Only a round that reads its context or `yas` builds
    the attention they read and the `yae` the attention reads."""
    rounds: List[RoundOutput] = []
    constants = attention_constants(hs0.shape[-2], pad_mask) if opinion_passing else None
    hs, last = hs0, mp.effective_rounds
    fields = message_fields(mp.variant, pass_pre_attention_as) if last else ()
    for t in range(last + 1):
        if t > 0:
            hs = message_pass(fields, rounds[-1], re)
        reads = FINAL_READS if t == last else fields
        attends = constants is not None and ("context" in reads or "yas" in reads)
        hae, yae = ae_head_forward(hs, ae_head, ("yae", *reads) if attends else reads)
        has_pre, context, yas, attn = as_head_forward(hs, as_head, yae, constants, reads)
        rounds.append(RoundOutput(hs, hae, yae, has_pre, context, yas, attn))
    return rounds
