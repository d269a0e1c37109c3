"""AE/AS task heads, opinion-passing attention and message-passing rounds.

The AE head tags every token over {BA, IA, BP, IP, O}; the AS head tags
polarity over {pos, neg, neu} after attending to likely opinion tokens. Both
heads are re-applied with shared parameters after every message-passing
round. Every piece takes (..., n, d) token matrices: one sentence, or a
padded length bucket whose `pad_mask` (B, n) marks the real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .autodiff import (
    ContractViolation,
    Tensor,
    bilinear_attention,
    concat,
    linear,
    matmul,
    relu,
    softmax_rows,
    sum_last,
)
from .corpus import AE_TAGS, AS_TAGS
from .encoder import ParamTable

OPINION_CLASS_SLICE = (2, 4)  # BP, IP columns of the AE distribution

MP_VARIANTS = ("none", "predictions", "representations")


@dataclass
class AeHead:
    hidden_weight: Tensor  # (d_t, d_s)
    hidden_bias: Tensor
    out_weight: Tensor  # (5, d_t)
    out_bias: Tensor


@dataclass
class AsHead:
    hidden_weight: Tensor  # (d_t, d_s)
    hidden_bias: Tensor
    bilinear: Tensor  # (d_t, d_t), the attention transformation
    out_weight: Tensor  # (3, 2 * d_t)
    out_bias: Tensor


@dataclass
class ReEncoder:
    weight: Tensor  # (d_s, d_s + message width)
    bias: Tensor


@dataclass
class MessagePassingConfig:
    variant: str = "representations"
    rounds: int = 2

    def __post_init__(self):
        if self.variant not in MP_VARIANTS:
            raise ValueError(
                f"unknown message-passing variant {self.variant!r}; expected one of {MP_VARIANTS}"
            )
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")

    @property
    def effective_rounds(self) -> int:
        return 0 if self.variant == "none" else self.rounds


def message_width(variant: str, d_t: int, pass_pre_attention_as: bool = False) -> int:
    """Extra re-encoder input columns beyond d_s for each variant."""
    if variant == "predictions":
        return len(AE_TAGS) + len(AS_TAGS)  # 5 + 3
    if variant == "representations":
        if pass_pre_attention_as:
            return 2 * d_t  # AE hidden + pre-attention AS hidden
        return 3 * d_t  # d_t from AE hidden + 2*d_t from the AS output
    raise ContractViolation(f"variant {variant!r} carries no message")


def init_ae_head(p: ParamTable, d_s: int, d_t: int) -> AeHead:
    return AeHead(
        p("ae/hidden_w", (d_t, d_s)),
        p("ae/hidden_b", (d_t,), 0),
        p("ae/out_w", (len(AE_TAGS), d_t)),
        p("ae/out_b", (len(AE_TAGS),), 0),
    )


def init_as_head(p: ParamTable, d_s: int, d_t: int) -> AsHead:
    return AsHead(
        p("as/hidden_w", (d_t, d_s)),
        p("as/hidden_b", (d_t,), 0),
        p("as/bilinear", (d_t, d_t)),
        p("as/out_w", (len(AS_TAGS), 2 * d_t)),
        p("as/out_b", (len(AS_TAGS),), 0),
    )


def init_re_encoder(
    p: ParamTable,
    d_s: int,
    variant: str,
    d_t: int,
    pass_pre_attention_as: bool = False,
) -> ReEncoder:
    width = d_s + message_width(variant, d_t, pass_pre_attention_as)
    return ReEncoder(p("re/w", (d_s, width)), p("re/b", (d_s,), 0))


# ---------------------------------------------------------------------------
# forward pieces


def ae_head_forward(hs: Tensor, head: AeHead):
    """(hidden, row-stochastic 5-way distribution) for every token."""
    hae = relu(linear(hs, head.hidden_weight, head.hidden_bias))
    yae = softmax_rows(linear(hae, head.out_weight, head.out_bias))
    return hae, yae


def opinion_probs(yae: Tensor) -> Tensor:
    lo, hi = OPINION_CLASS_SLICE
    return sum_last(yae, lo, hi)


def distance_factors(n: int) -> np.ndarray:
    """1/|i-j| off the diagonal, 0 on it."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    return np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)


class AttentionConstants(NamedTuple):
    """What the opinion attention needs of a forward's shape alone, built once
    per forward by `attention_constants` and shared by every round."""

    factors: np.ndarray  # (n, n) distance factors
    mask: np.ndarray  # broadcastable to (..., n, n): True where j is a candidate for i


# The distance factors and the off-diagonal mask of the longest n asked for
# so far, read-only; a shorter n reads their top-left corner.
_LENGTH_TABLES = (distance_factors(0), np.ones((0, 0), dtype=bool))


def attention_constants(n: int, pad_mask: Optional[np.ndarray] = None) -> AttentionConstants:
    """The distance factors over n tokens and the candidate mask, which
    excludes the diagonal and, given `pad_mask` (B, n), padded positions.
    Both are views of the tables every forward shares; `distance_factors`
    runs only when n is longer than any before it."""
    global _LENGTH_TABLES
    if _LENGTH_TABLES[0].shape[0] < n:
        _LENGTH_TABLES = (distance_factors(n), ~np.eye(n, dtype=bool))
        for table in _LENGTH_TABLES:
            table.flags.writeable = False
    factors, mask = (table[:n, :n] for table in _LENGTH_TABLES)
    if pad_mask is not None:
        real = np.asarray(pad_mask, dtype=bool)
        mask = mask & real[..., None, :] & real[..., :, None]
    return AttentionConstants(factors, mask)


def opinion_attention(
    has: Tensor, ws: Tensor, pop: Tensor, constants: AttentionConstants
) -> Tensor:
    """Row-stochastic context attention: bilinear relevance scaled by inverse
    token distance and by the context token's predicted opinion probability.

    The positions `constants.mask` excludes (the diagonal, padding) get no
    weight; a row with no candidates (n = 1, or a padded row) comes out
    all-zero.
    """
    return bilinear_attention(has, ws, pop, constants.factors, constants.mask)


def opinion_passing_apply(has: Tensor, m: Tensor) -> Tensor:
    """[h_i ; sum_j M_ij h_j] for every token."""
    return concat(has, matmul(m, has))


def as_head_forward(
    hs: Tensor,
    head: AsHead,
    yae: Tensor,
    constants: AttentionConstants,
    opinion_passing: bool = True,
):
    """(concatenated AS representation, 3-way distribution, attention)."""
    has = relu(linear(hs, head.hidden_weight, head.hidden_bias))
    if opinion_passing:
        m = opinion_attention(has, head.bilinear, opinion_probs(yae), constants)
    else:
        m = Tensor(np.zeros(hs.shape[:-1] + (hs.shape[-2],)))
    has_final = opinion_passing_apply(has, m)
    yas = softmax_rows(linear(has_final, head.out_weight, head.out_bias))
    return has, has_final, yas, m


def message_pass(
    variant: str,
    hs_prev: Tensor,
    hae_prev: Tensor,
    yae_prev: Tensor,
    has_final_prev: Tensor,
    yas_prev: Tensor,
    re: ReEncoder,
) -> Tensor:
    """Re-encode the shared vectors from the previous round's task outputs."""
    if variant == "predictions":
        message = concat(hs_prev, yae_prev, yas_prev)
    elif variant == "representations":
        message = concat(hs_prev, hae_prev, has_final_prev)
    else:
        raise ContractViolation(f"message_pass called with variant {variant!r}")
    return linear(message, re.weight, re.bias)


@dataclass
class RoundOutput:
    hs: Tensor
    hae: Tensor
    yae: Tensor
    has_pre: Tensor
    has_final: Tensor
    yas: Tensor
    attention: Tensor


@dataclass
class IterationOutput:
    rounds: List[RoundOutput] = field(default_factory=list)

    @property
    def final(self) -> RoundOutput:
        return self.rounds[-1]


def forward_rounds(
    hs0: Tensor,
    ae_head: AeHead,
    as_head: AsHead,
    re: Optional[ReEncoder],
    mp: MessagePassingConfig,
    opinion_passing: bool = True,
    pad_mask: Optional[np.ndarray] = None,
    pass_pre_attention_as: bool = False,
) -> IterationOutput:
    """Round 0 evaluates both heads on the encoder output; each further round
    re-encodes the shared vectors from the previous round's outputs and
    re-applies the heads with the same parameters. The attention constants
    depend only on the bucket's shape, so every round shares one set."""
    out = IterationOutput()
    constants = attention_constants(hs0.shape[-2], pad_mask)
    hs = hs0
    for t in range(mp.effective_rounds + 1):
        if t > 0:
            prev = out.rounds[-1]
            as_message = prev.has_pre if pass_pre_attention_as else prev.has_final
            hs = message_pass(
                mp.variant, prev.hs, prev.hae, prev.yae, as_message, prev.yas, re
            )
        hae, yae = ae_head_forward(hs, ae_head)
        has_pre, has_final, yas, attn = as_head_forward(
            hs, as_head, yae, constants, opinion_passing=opinion_passing
        )
        out.rounds.append(RoundOutput(hs, hae, yae, has_pre, has_final, yas, attn))
    return out
