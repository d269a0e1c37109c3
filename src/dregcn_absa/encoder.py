"""Shared-feature encoders: vanilla GCN, relation-embedded GCN, n-gram CNN.

All layers consume and produce (n, d) token matrices built on the autodiff
kernel. The graph layers follow the update rules literally, without degree
normalization, unless `normalize_adjacency` is set.

DreGCN needs the relation types only through the counts C[i, k] =
sum_j A_ij Q_ijk. `encode_shared` computes C once per forward, after any
normalization of A, with one `np.bincount` over the graph's typed arcs: O(n)
for a parse tree's 3n - 2 arcs, and no (n, n, |N|) tensor is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import (
    ContractViolation,
    DimensionError,
    Tensor,
    add,
    concat,
    conv1d,
    linear,
    matmul,
    relu,
    slice_last,
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

    @property
    def uses_graph(self) -> bool:
        return self.mode in ("vanilla_gcn", "dregcn", "dregcn_plus_cnn")

    @property
    def uses_cnn(self) -> bool:
        return self.mode in ("cnn_only", "dregcn_plus_cnn")


@dataclass
class GcnLayer:
    weight: Tensor  # (d, d)
    bias: Tensor  # (d,)


@dataclass
class RelationTable:
    table: Tensor  # (|N|, m)

    @property
    def m(self) -> int:
        return self.table.shape[1]


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


def init_gcn_layer(rng: np.random.Generator, d: int) -> GcnLayer:
    return GcnLayer(Tensor(glorot(rng, d, d)), Tensor(np.zeros(d)))


def init_dregcn_layer(rng: np.random.Generator, d: int, m: int) -> DreGcnLayer:
    return DreGcnLayer(Tensor(glorot(rng, d, d + m)), Tensor(np.zeros(d)))


def init_relation_table(rng: np.random.Generator, n_types: int, m: int) -> RelationTable:
    return RelationTable(Tensor(rng.uniform(-0.05, 0.05, size=(n_types, m))))


def init_cnn_layer(rng: np.random.Generator, d: int, widths: Sequence[int]) -> CnnLayer:
    conv_w, conv_b = [], []
    for w in widths:
        conv_w.append(Tensor(rng.uniform(-np.sqrt(6.0 / (w * d + d)), np.sqrt(6.0 / (w * d + d)), size=(w, d, d))))
        conv_b.append(Tensor(np.zeros(d)))
    proj = Tensor(glorot(rng, d, d * len(widths)))
    return CnnLayer(conv_w, conv_b, proj, Tensor(np.zeros(d)))


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^-1/2 A D^-1/2."""
    deg = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def _check_graph(h: Tensor, a: np.ndarray):
    n = h.shape[0]
    if a.shape != (n, n):
        raise DimensionError(f"adjacency {a.shape} does not match features ({n}, ...)")


def gcn_layer_forward(h: Tensor, a: np.ndarray, layer: GcnLayer) -> Tensor:
    """ReLU(A @ H W^T + b) with raw (or pre-normalized) adjacency."""
    _check_graph(h, a)
    return relu(add(matmul(a, linear(h, layer.weight)), layer.bias))


def relation_counts(a: np.ndarray, arcs: np.ndarray, n_types: int) -> np.ndarray:
    """C[i, k] = sum_j A_ij Q_ijk, summed over the typed arcs (i, j, k) that
    mark the nonzeros of Q."""
    i, j, k = arcs.T
    n = a.shape[0]
    counts = np.bincount(i * n_types + k, weights=a[i, j], minlength=n * n_types)
    return counts.reshape(n, n_types)


def dregcn_layer_forward(
    h: Tensor,
    a: np.ndarray,
    counts: np.ndarray,
    layer: DreGcnLayer,
    table: RelationTable,
) -> Tensor:
    """Typed graph convolution: each edge (i, j) of type k contributes
    W [h_j; R[k]]; summed over neighbors, bias and ReLU on top.

    Splitting W into its node and relation blocks turns the double sum into
    A @ H W_node^T + C @ R W_rel^T, where `counts` is C (n, |N|), built by
    `relation_counts` from the same A and the graph's typed arcs.
    """
    _check_graph(h, a)
    n = h.shape[0]
    n_types = table.table.shape[0]
    if counts.shape != (n, n_types):
        raise ContractViolation(f"relation counts shape {counts.shape} != ({n}, {n_types})")

    d = h.shape[1]
    m = table.m
    w_node = slice_last(layer.weight, 0, d)
    node_part = matmul(a, linear(h, w_node))
    if m == 0:
        return relu(add(node_part, layer.bias))
    w_rel = slice_last(layer.weight, d, d + m)
    rel_part = linear(matmul(counts, table.table), w_rel)
    return relu(add(add(node_part, rel_part), layer.bias))


def cnn_encoder_forward(e: Tensor, layers: Sequence[CnnLayer]) -> Tensor:
    """Length-preserving n-gram stack: per layer, parallel odd-width
    convolutions with ReLU, concatenated and projected back to d."""
    x = e
    for layer in layers:
        branches = [
            relu(conv1d(x, w, b))
            for w, b in zip(layer.conv_weights, layer.conv_biases)
        ]
        x = linear(concat(*branches), layer.proj_weight, layer.proj_bias)
    return x


@dataclass
class EncoderParams:
    input_proj_weight: Tensor  # (d, d_g + d_d)
    input_proj_bias: Tensor
    gcn_layers: List[GcnLayer] = field(default_factory=list)
    dregcn_layers: List[DreGcnLayer] = field(default_factory=list)
    relation_table: Optional[RelationTable] = None
    cnn_layers: List[CnnLayer] = field(default_factory=list)
    combine_weight: Optional[Tensor] = None  # (d, 2d) for dregcn_plus_cnn
    combine_bias: Optional[Tensor] = None


def init_encoder_params(
    rng: np.random.Generator, cfg: EncoderConfig, emb_dim: int, n_relation_types: int
) -> EncoderParams:
    params = EncoderParams(
        Tensor(glorot(rng, cfg.d, emb_dim)), Tensor(np.zeros(cfg.d))
    )
    if cfg.mode == "vanilla_gcn":
        params.gcn_layers = [init_gcn_layer(rng, cfg.d) for _ in range(cfg.gcn_layers)]
    elif cfg.mode in ("dregcn", "dregcn_plus_cnn"):
        params.relation_table = init_relation_table(rng, n_relation_types, cfg.m)
        params.dregcn_layers = [
            init_dregcn_layer(rng, cfg.d, cfg.m) for _ in range(cfg.gcn_layers)
        ]
    if cfg.uses_cnn:
        params.cnn_layers = [
            init_cnn_layer(rng, cfg.d, cfg.kernel_widths) for _ in range(cfg.cnn_layers)
        ]
    if cfg.mode == "dregcn_plus_cnn":
        params.combine_weight = Tensor(glorot(rng, cfg.d, 2 * cfg.d))
        params.combine_bias = Tensor(np.zeros(cfg.d))
    return params


def encode_shared(
    emb: Tensor, graph: Optional[DepGraph], cfg: EncoderConfig, params: EncoderParams
) -> Tensor:
    """Project the token embeddings to width d and run the mode's stack(s).

    Output width is d (= d_s) in every mode; the dregcn_plus_cnn mode
    concatenates both stacks and projects back down.
    """
    x0 = linear(emb, params.input_proj_weight, params.input_proj_bias)
    if cfg.mode == "cnn_only":
        return cnn_encoder_forward(x0, params.cnn_layers)

    if graph is None:
        raise ContractViolation(f"mode {cfg.mode!r} requires a dependency graph")
    a = graph.adjacency
    if cfg.normalize_adjacency:
        a = normalize_adjacency(a)

    h = x0
    if cfg.mode == "vanilla_gcn":
        for layer in params.gcn_layers:
            h = gcn_layer_forward(h, a, layer)
        return h

    table = params.relation_table
    counts = relation_counts(a, graph.relation_indicator, table.table.shape[0])
    for layer in params.dregcn_layers:
        h = dregcn_layer_forward(h, a, counts, layer, table)
    if cfg.mode == "dregcn":
        return h
    c = cnn_encoder_forward(x0, params.cnn_layers)
    return linear(concat(h, c), params.combine_weight, params.combine_bias)
