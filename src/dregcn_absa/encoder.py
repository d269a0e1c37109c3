"""Shared-feature encoders: relation-embedded GCN (DreGCN), n-gram CNN.

All layers consume and produce (..., n, d) token matrices built on the
autodiff kernel: one sentence as (n, d), or a length bucket of B sentences
padded to its longest as (B, n, d). Padded rows never reach a real one: the
adjacency is zero on them, and each convolution zeroes them first. The graph
layers follow the update rules literally, without degree normalization,
unless `normalize_adjacency` is set. The vanilla GCN is the DreGCN layer
without relation messages: `vanilla_gcn` runs the same layers with m = 0
and no relation table.

DreGCN needs the relation types only through the counts C[i, k] =
sum_j A_ij Q_ijk. `encode_shared` computes C once per forward, after any
normalization of A, with one `np.bincount` over the graphs' typed arcs: O(n)
for a parse tree's 3n - 2 arcs, and no (n, n, |N|) tensor is ever formed.
Every DreGCN layer shares one relation table R, so the relation messages
C R are also computed once per forward and handed to each layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import (
    ContractViolation,
    DimensionError,
    Tensor,
    concat,
    conv_branches,
    linear,
    matmul,
    relu,
)
from .corpus import DepGraph

MODES = ("cnn_only", "vanilla_gcn", "dregcn", "dregcn_plus_cnn")


@dataclass
class EncoderConfig:
    mode: str = "dregcn_plus_cnn"
    gcn_layers: int = 2
    cnn_layers: int = 2
    d: int = 32
    m: int = 16
    kernel_widths: Tuple[int, ...] = (3, 5)
    normalize_adjacency: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown encoder mode {self.mode!r}; expected one of {MODES}")
        if self.d < 1 or self.m < 0 or self.gcn_layers < 0 or self.cnn_layers < 0:
            raise ValueError("d must be >= 1; m, gcn_layers and cnn_layers >= 0")
        if any(w < 1 or w % 2 == 0 for w in self.kernel_widths):
            raise ValueError(f"kernel widths must be odd and >= 1, got {self.kernel_widths}")

    @property
    def uses_graph(self) -> bool:
        return self.mode in ("vanilla_gcn", "dregcn", "dregcn_plus_cnn")

    @property
    def uses_cnn(self) -> bool:
        return self.mode in ("cnn_only", "dregcn_plus_cnn")


@dataclass
class DreGcnLayer:
    weight: Tensor  # (d, d + m)
    bias: Tensor  # (d,)


@dataclass
class CnnLayer:
    conv_weights: List[Tensor]  # one (width, d, d) kernel per width
    conv_biases: List[Tensor]
    proj_weight: Tensor  # (d, d * n_widths)
    proj_bias: Tensor


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int, *lead) -> np.ndarray:
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=(*lead, fan_out, fan_in) if lead else (fan_out, fan_in))


def init_dregcn_layer(rng: np.random.Generator, d: int, m: int) -> DreGcnLayer:
    return DreGcnLayer(Tensor(glorot(rng, d, d + m)), Tensor(np.zeros(d)))


def init_relation_table(rng: np.random.Generator, n_types: int, m: int) -> Tensor:
    return Tensor(rng.uniform(-0.05, 0.05, size=(n_types, m)))


def init_cnn_layer(rng: np.random.Generator, d: int, widths: Sequence[int]) -> CnnLayer:
    conv_w, conv_b = [], []
    for w in widths:
        conv_w.append(Tensor(rng.uniform(-np.sqrt(6.0 / (w * d + d)), np.sqrt(6.0 / (w * d + d)), size=(w, d, d))))
        conv_b.append(Tensor(np.zeros(d)))
    proj = Tensor(glorot(rng, d, d * len(widths)))
    return CnnLayer(conv_w, conv_b, proj, Tensor(np.zeros(d)))


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^-1/2 A D^-1/2 of each (n, n) graph."""
    deg = a.sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    return a * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def relation_counts(a: np.ndarray, arcs: np.ndarray, n_types: int) -> np.ndarray:
    """C[b, i, k] = sum_j A_bij Q_bijk (B, n, |N|), summed over the typed arcs
    (b, i, j, k) that mark the nonzeros of Q in a bucket's (B, n, n) graph."""
    b, i, j, k = arcs.T
    shape = a.shape[:-1] + (n_types,)
    cell = np.ravel_multi_index((b, i, k), shape)
    counts = np.bincount(cell, weights=a[b, i, j], minlength=int(np.prod(shape)))
    return counts.reshape(shape)


def relation_messages(counts: np.ndarray, table: Tensor) -> Optional[Tensor]:
    """The relation messages C R (..., n, m) from the counts C (..., n, |N|)
    that `relation_counts` builds and the table R (|N|, m); None when m = 0,
    where there are none."""
    n_types, m = table.shape
    if counts.shape[-1] != n_types:
        raise ContractViolation(
            f"relation counts have {counts.shape[-1]} types, the table {n_types}"
        )
    return matmul(counts, table) if m > 0 else None


def dregcn_layer_forward(
    h: Tensor,
    a: np.ndarray,
    messages: Optional[Tensor],
    layer: DreGcnLayer,
) -> Tensor:
    """Typed graph convolution: each edge (i, j) of type k contributes
    W [h_j; R[k]]; summed over neighbors, bias and ReLU on top.

    The double sum is W [A H; C R] row by row, where `messages` is C R
    (..., n, m), built by `relation_messages` from the same A and the graph's
    typed arcs. Without messages (m = 0, or no relation table) this is the
    vanilla GCN, ReLU((A H) W^T + b).
    """
    if a.shape != h.shape[:-1] + (h.shape[-2],):
        raise DimensionError(f"adjacency {a.shape} does not match features {h.shape}")
    neighbors = matmul(a, h)
    if messages is not None:
        if messages.shape[:-1] != h.shape[:-1]:
            raise ContractViolation(
                f"relation messages shape {messages.shape} does not match features {h.shape}"
            )
        neighbors = concat(neighbors, messages)
    return relu(linear(neighbors, layer.weight, layer.bias))


def cnn_encoder_forward(
    e: Tensor, layers: Sequence[CnnLayer], pad_mask: Optional[np.ndarray] = None
) -> Tensor:
    """Length-preserving n-gram stack: per layer, parallel odd-width
    convolutions with ReLU, concatenated and projected back to d. Rows where
    `pad_mask` is False are zeroed before each convolution."""
    x = e
    for layer in layers:
        branches = conv_branches(x, layer.conv_weights, layer.conv_biases, pad_mask)
        x = linear(branches, layer.proj_weight, layer.proj_bias)
    return x


@dataclass
class EncoderParams:
    input_proj_weight: Tensor  # (d, d_g + d_d)
    input_proj_bias: Tensor
    graph_layers: List[DreGcnLayer] = field(default_factory=list)
    relation_table: Optional[Tensor] = None  # (|N|, m); None in vanilla_gcn
    cnn_layers: List[CnnLayer] = field(default_factory=list)
    combine_weight: Optional[Tensor] = None  # (d, 2d) for dregcn_plus_cnn
    combine_bias: Optional[Tensor] = None


def init_encoder_params(
    rng: np.random.Generator, cfg: EncoderConfig, emb_dim: int, n_relation_types: int
) -> EncoderParams:
    params = EncoderParams(
        Tensor(glorot(rng, cfg.d, emb_dim)), Tensor(np.zeros(cfg.d))
    )
    if cfg.mode in ("dregcn", "dregcn_plus_cnn"):
        params.relation_table = init_relation_table(rng, n_relation_types, cfg.m)
    if cfg.uses_graph:
        m = 0 if params.relation_table is None else cfg.m
        params.graph_layers = [init_dregcn_layer(rng, cfg.d, m) for _ in range(cfg.gcn_layers)]
    if cfg.uses_cnn:
        params.cnn_layers = [
            init_cnn_layer(rng, cfg.d, cfg.kernel_widths) for _ in range(cfg.cnn_layers)
        ]
    if cfg.mode == "dregcn_plus_cnn":
        params.combine_weight = Tensor(glorot(rng, cfg.d, 2 * cfg.d))
        params.combine_bias = Tensor(np.zeros(cfg.d))
    return params


def encode_shared(
    emb: Tensor,
    graph: Optional[DepGraph],
    cfg: EncoderConfig,
    params: EncoderParams,
    pad_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Project the token embeddings to width d and run the mode's stack(s).

    Output width is d (= d_s) in every mode; the dregcn_plus_cnn mode
    concatenates both stacks and projects back down. `graph` is the
    bucket's graph; for a padded bucket, `pad_mask` (B, n) marks the real
    tokens.
    """
    x0 = linear(emb, params.input_proj_weight, params.input_proj_bias)
    if cfg.mode == "cnn_only":
        return cnn_encoder_forward(x0, params.cnn_layers, pad_mask)

    if graph is None:
        raise ContractViolation(f"mode {cfg.mode!r} requires a dependency graph")
    a = graph.adjacency
    if cfg.normalize_adjacency:
        a = normalize_adjacency(a)

    table = params.relation_table
    messages = None
    if table is not None:
        counts = relation_counts(a, graph.relation_indicator, table.shape[0])
        messages = relation_messages(counts, table)
    h = x0
    for layer in params.graph_layers:
        h = dregcn_layer_forward(h, a, messages, layer)
    if not cfg.uses_cnn:
        return h
    c = cnn_encoder_forward(x0, params.cnn_layers, pad_mask)
    return linear(concat(h, c), params.combine_weight, params.combine_bias)
