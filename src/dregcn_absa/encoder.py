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
sum_j A_ij Q_ijk, built after any normalization of A with one `np.bincount`
over the graphs' typed arcs: O(n) for a parse tree's 3n - 2 arcs, and no
(n, n, |N|) tensor is ever formed. Every DreGCN layer shares one relation
table R, so `encode_shared` computes the relation messages C R once per
forward, as one op whose backward rebuilds C from the arcs rather than hold
it, and hands them to each layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import (
    ContractViolation,
    DimensionError,
    Tensor,
    conv_branches,
    linear,
    matmul,
    rebuilt_matmul,
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


class ParamTable:
    """Every trainable tensor of a model by checkpoint name, in declaration
    order (a checkpoint's member order). `p(name, shape, bound)` declares
    one. Over a generator it is new: uniform in [-bound, bound] (the Glorot
    bound when None), zeros without a draw for bound 0, or `init` itself.
    Over a checkpoint's stored arrays it is the stored array as it is, once
    checked to be finite float64 of that shape (else a ValueError naming it).
    `pack` then copies them all into one vector.
    """

    def __init__(self, source: Union[np.random.Generator, Mapping[str, np.ndarray]]):
        self.source = source
        self.tensors: Dict[str, Tensor] = {}

    def __call__(self, name: str, shape: Tuple[int, ...], bound=None, init=None) -> Tensor:
        if name in self.tensors:
            raise ContractViolation(f"parameter {name!r} is declared twice")
        if not isinstance(self.source, np.random.Generator):
            data = self.source.get(name)
            fault = (
                "is missing" if data is None
                else f"has dtype {data.dtype}, not float64" if data.dtype != np.float64
                else f"has shape {data.shape}, expected {shape}" if data.shape != shape
                else "has non-finite values" if not np.isfinite(data).all() else None
            )
            if fault:
                raise ValueError(f"parameter {name!r} {fault}")
        elif init is not None:
            data = init
        elif bound == 0:
            data = np.zeros(shape)
        else:
            if bound is None:  # Glorot: the last axis is one fan, the others the other
                bound = np.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
            data = self.source.uniform(-bound, bound, size=shape)
        self.tensors[name] = tensor = Tensor(data)
        return tensor

    def pack(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copy every declared tensor into one new float64 vector and give it
        a zeroed gradient in a second; each `.data` and `.grad` becomes a view
        of its vector, the tensors laid end to end in declaration order.
        Returns (parameter vector, gradient vector)."""
        tensors = self.tensors.values()
        values = np.concatenate([t.data.ravel() for t in tensors])
        grads = np.zeros_like(values)
        bounds = np.cumsum([t.data.size for t in tensors])[:-1]
        for t, value, grad in zip(tensors, np.split(values, bounds), np.split(grads, bounds)):
            t.data, t.grad = value.reshape(t.data.shape), grad.reshape(t.data.shape)
        return values, grads


@dataclass
class Dense:
    """An affine layer x W^T + b, which `linear` applies."""

    weight: Tensor  # (out, in)
    bias: Tensor  # (out,)


def init_dense(p: ParamTable, prefix: str, out_dim: int, in_dim: int) -> Dense:
    """Declare `<prefix>w` (out_dim, in_dim), Glorot, then `<prefix>b`, zero:
    the one place an affine layer's names and initialisation are set."""
    return Dense(p(f"{prefix}w", (out_dim, in_dim)), p(f"{prefix}b", (out_dim,), 0))


@dataclass
class CnnLayer:
    conv_weights: List[Tensor]  # one (width, d, d) kernel per width
    conv_biases: List[Tensor]
    proj: Dense  # (d, d * n_widths)


def init_dregcn_layer(p: ParamTable, name: str, d: int, m: int) -> Dense:
    return init_dense(p, f"{name}_", d, d + m)


def init_relation_table(p: ParamTable, n_types: int, m: int) -> Tensor:
    return p("enc/relations", (n_types, m), 0.05)


def init_cnn_layer(p: ParamTable, name: str, d: int, widths: Sequence[int]) -> CnnLayer:
    conv_w, conv_b = [], []
    for j, w in enumerate(widths):
        conv_w.append(p(f"{name}_conv{j}_w", (w, d, d)))
        conv_b.append(p(f"{name}_conv{j}_b", (d,), 0))
    return CnnLayer(conv_w, conv_b, init_dense(p, f"{name}_proj_", d, d * len(widths)))


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^-1/2 A D^-1/2 of each (n, n) graph."""
    deg = a.sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    return a * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def relation_counts(a: np.ndarray, arcs: np.ndarray, n_types: int) -> np.ndarray:
    """C[b, i, k] = sum_j A[b, i, j] Q[b, i, j, k] (B, n, |N|), summed over the
    typed arcs (b, i, j, k) of a bucket's (B, n, n) graph that mark Q's nonzeros."""
    b, i, j, k = arcs.T
    shape = a.shape[:-1] + (n_types,)
    cell = np.ravel_multi_index((b, i, k), shape)
    counts = np.bincount(cell, weights=a[b, i, j], minlength=int(np.prod(shape)))
    return counts.reshape(shape)


def relation_messages(a: np.ndarray, arcs: np.ndarray, table: Tensor) -> Optional[Tensor]:
    """The relation messages C R (B, n, m) of the bucket graph A with typed
    `arcs` (b, i, j, k) and the table R (|N|, m), as one op whose backward
    rebuilds C; None when m = 0, where there are none."""
    n_types, m = table.shape
    if arcs.shape[-1] != 4 or (arcs.size and arcs[:, -1].max() >= n_types):
        raise ContractViolation(
            f"arcs of shape {arcs.shape} do not index a {a.shape} graph over {n_types} types"
        )
    if m == 0:
        return None
    return rebuilt_matmul(lambda: relation_counts(a, arcs, n_types), table)


def dregcn_layer_forward(
    h: Tensor,
    a: np.ndarray,
    messages: Optional[Tensor],
    layer: Dense,
) -> Tensor:
    """Typed graph convolution: each edge (i, j) of type k contributes
    W [h_j; R[k]]; summed over neighbors, bias and ReLU on top.

    The double sum is W [A H; C R] row by row, where `messages` is C R
    (..., n, m), built by `relation_messages` from the same A and the graph's
    typed arcs; `linear` joins A H and C R itself. Without messages (m = 0,
    or no relation table) this is the vanilla GCN, ReLU((A H) W^T + b).
    """
    if a.shape != h.shape[:-1] + (h.shape[-2],):
        raise DimensionError(f"adjacency {a.shape} does not match features {h.shape}")
    if messages is not None and messages.shape[:-1] != h.shape[:-1]:
        raise ContractViolation(
            f"relation messages shape {messages.shape} does not match features {h.shape}"
        )
    ah = matmul(a, h)
    return relu(linear(ah if messages is None else (ah, messages), layer.weight, layer.bias))


def cnn_encoder_forward(
    e: Tensor, layers: Sequence[CnnLayer], pad_mask: Optional[np.ndarray] = None
) -> Tensor:
    """Length-preserving n-gram stack: per layer, parallel odd-width
    convolutions with ReLU, concatenated and projected back to d. Rows where
    `pad_mask` is False are zeroed before each convolution."""
    x = e
    for layer in layers:
        branches = conv_branches(x, layer.conv_weights, layer.conv_biases, pad_mask)
        x = linear(branches, layer.proj.weight, layer.proj.bias)
    return x


@dataclass
class EncoderParams:
    input_proj: Dense  # (d, d_g + d_d)
    graph_layers: List[Dense] = field(default_factory=list)  # each (d, d + m)
    relation_table: Optional[Tensor] = None  # (|N|, m); None in vanilla_gcn
    cnn_layers: List[CnnLayer] = field(default_factory=list)
    combine: Optional[Dense] = None  # (d, 2d) for dregcn_plus_cnn


def init_encoder_params(
    p: ParamTable, cfg: EncoderConfig, emb_dim: int, n_relation_types: int
) -> EncoderParams:
    params = EncoderParams(init_dense(p, "enc/in_", cfg.d, emb_dim))
    if cfg.mode in ("dregcn", "dregcn_plus_cnn"):
        params.relation_table = init_relation_table(p, n_relation_types, cfg.m)
    if cfg.uses_graph:
        # vanilla_gcn keeps its enc/gcn{i} names
        kind, m = ("gcn", 0) if params.relation_table is None else ("dregcn", cfg.m)
        params.graph_layers = [
            init_dregcn_layer(p, f"enc/{kind}{i}", cfg.d, m) for i in range(cfg.gcn_layers)
        ]
    if cfg.uses_cnn:
        params.cnn_layers = [
            init_cnn_layer(p, f"enc/cnn{i}", cfg.d, cfg.kernel_widths) for i in range(cfg.cnn_layers)
        ]
    if cfg.mode == "dregcn_plus_cnn":
        params.combine = init_dense(p, "enc/combine_", cfg.d, 2 * cfg.d)
    return params


def encode_shared(
    emb: Union[Tensor, np.ndarray],
    graph: Optional[DepGraph],
    cfg: EncoderConfig,
    params: EncoderParams,
    pad_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Project the token embeddings to width d and run the mode's stack(s).

    Output width is d (= d_s) in every mode; the dregcn_plus_cnn mode
    hands `linear` both stacks to join and project back down. `graph` is
    the bucket's graph; for a padded bucket, `pad_mask` (B, n) marks the
    real tokens. `emb` is a plain array when the embedding tables are frozen.
    """
    x0 = linear(emb, params.input_proj.weight, params.input_proj.bias)
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
        messages = relation_messages(a, graph.relation_indicator, table)
    h = x0
    for layer in params.graph_layers:
        h = dregcn_layer_forward(h, a, messages, layer)
    if not cfg.uses_cnn:
        return h
    c = cnn_encoder_forward(x0, params.cnn_layers, pad_mask)
    return linear((h, c), params.combine.weight, params.combine.bias)
