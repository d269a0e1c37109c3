"""End-to-end model: embeddings -> shared encoder -> iterated task heads.

Also owns parameter initialization, the flat parameter registry used by the
optimizer and gradient checks, and bit-exact checkpoint serialization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

import numpy as np

from .autodiff import Tensor, mul
from .corpus import (
    DepGraph,
    EmbeddingMatrix,
    RelationVocab,
    Sentence,
    build_dependency_graph,
    embed_tokens,
)
from .encoder import EncoderConfig, EncoderParams, encode_shared, init_encoder_params
from .heads import (
    AeHead,
    AsHead,
    IterationOutput,
    MessagePassingConfig,
    ReEncoder,
    forward_rounds,
    init_ae_head,
    init_as_head,
    init_re_encoder,
)

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or incompatible with its inputs."""


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    mp: MessagePassingConfig = field(default_factory=MessagePassingConfig)
    d_t: int = 16  # task-head hidden width, default d/2
    opinion_passing: bool = True
    dropout: float = 0.5
    freeze_embeddings: bool = False
    pass_pre_attention_as: bool = False
    distinct_reverse_types: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["encoder"]["kernel_widths"] = list(self.encoder.kernel_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        enc = dict(d["encoder"])
        enc["kernel_widths"] = tuple(enc["kernel_widths"])
        return cls(
            encoder=EncoderConfig(**enc),
            mp=MessagePassingConfig(**d["mp"]),
            d_t=d["d_t"],
            opinion_passing=d["opinion_passing"],
            dropout=d["dropout"],
            freeze_embeddings=d["freeze_embeddings"],
            pass_pre_attention_as=d["pass_pre_attention_as"],
            distinct_reverse_types=d["distinct_reverse_types"],
        )


class Model:
    """Bundles configuration, vocabularies and every trainable tensor."""

    def __init__(
        self,
        cfg: ModelConfig,
        general_emb: EmbeddingMatrix,
        domain_emb: EmbeddingMatrix,
        relation_vocab: RelationVocab,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.general_emb = general_emb
        self.domain_emb = domain_emb
        self.relation_vocab = relation_vocab

        self.general_param = Tensor(general_emb.matrix.copy(), name="emb_general")
        self.domain_param = Tensor(domain_emb.matrix.copy(), name="emb_domain")
        emb_dim = general_emb.dim + domain_emb.dim
        self.encoder_params: EncoderParams = init_encoder_params(
            rng, cfg.encoder, emb_dim, relation_vocab.size
        )
        d_s = cfg.encoder.d
        self.ae_head: AeHead = init_ae_head(rng, d_s, cfg.d_t)
        self.as_head: AsHead = init_as_head(rng, d_s, cfg.d_t)
        self.re_encoder: Optional[ReEncoder] = None
        if cfg.mp.variant != "none":
            self.re_encoder = init_re_encoder(
                rng, d_s, cfg.mp.variant, cfg.d_t, cfg.pass_pre_attention_as
            )
        self._graph_cache: Dict[Sentence, DepGraph] = {}

    # -- parameter registry -------------------------------------------------

    def parameters(self) -> Dict[str, Tensor]:
        params: Dict[str, Tensor] = {
            "emb/general": self.general_param,
            "emb/domain": self.domain_param,
            "enc/in_w": self.encoder_params.input_proj_weight,
            "enc/in_b": self.encoder_params.input_proj_bias,
        }
        for i, layer in enumerate(self.encoder_params.gcn_layers):
            params[f"enc/gcn{i}_w"] = layer.weight
            params[f"enc/gcn{i}_b"] = layer.bias
        if self.encoder_params.relation_table is not None:
            params["enc/relations"] = self.encoder_params.relation_table.table
        for i, layer in enumerate(self.encoder_params.dregcn_layers):
            params[f"enc/dregcn{i}_w"] = layer.weight
            params[f"enc/dregcn{i}_b"] = layer.bias
        for i, layer in enumerate(self.encoder_params.cnn_layers):
            for j, (w, b) in enumerate(zip(layer.conv_weights, layer.conv_biases)):
                params[f"enc/cnn{i}_conv{j}_w"] = w
                params[f"enc/cnn{i}_conv{j}_b"] = b
            params[f"enc/cnn{i}_proj_w"] = layer.proj_weight
            params[f"enc/cnn{i}_proj_b"] = layer.proj_bias
        if self.encoder_params.combine_weight is not None:
            params["enc/combine_w"] = self.encoder_params.combine_weight
            params["enc/combine_b"] = self.encoder_params.combine_bias
        params.update(
            {
                "ae/hidden_w": self.ae_head.hidden_weight,
                "ae/hidden_b": self.ae_head.hidden_bias,
                "ae/out_w": self.ae_head.out_weight,
                "ae/out_b": self.ae_head.out_bias,
                "as/hidden_w": self.as_head.hidden_weight,
                "as/hidden_b": self.as_head.hidden_bias,
                "as/bilinear": self.as_head.bilinear,
                "as/out_w": self.as_head.out_weight,
                "as/out_b": self.as_head.out_bias,
            }
        )
        if self.re_encoder is not None:
            params["re/w"] = self.re_encoder.weight
            params["re/b"] = self.re_encoder.bias
        return params

    def trainable_parameters(self) -> Dict[str, Tensor]:
        params = self.parameters()
        if self.cfg.freeze_embeddings:
            params = {k: v for k, v in params.items() if not k.startswith("emb/")}
        return params

    def as_head_parameters(self) -> Dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if k.startswith("as/")}

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.parameters().items()}

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        params = self.parameters()
        for k, v in snapshot.items():
            params[k].data = v.copy()

    # -- forward -------------------------------------------------------------

    def graph_for(self, s: Sentence) -> Optional[DepGraph]:
        if not self.cfg.encoder.uses_graph:
            return None
        g = self._graph_cache.get(s)
        if g is None:
            g = build_dependency_graph(
                s, self.relation_vocab, self.cfg.distinct_reverse_types
            )
            self._graph_cache[s] = g
        return g

    def forward(
        self,
        s: Sentence,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> IterationOutput:
        emb = embed_tokens(
            s, self.general_emb, self.domain_emb, self.general_param, self.domain_param
        )
        if train and self.cfg.dropout > 0:
            if rng is None:
                raise ValueError("training forward requires an rng for dropout")
            keep = 1.0 - self.cfg.dropout
            mask = (rng.random(emb.shape) < keep) / keep
            emb = mul(emb, mask)
        hs0 = encode_shared(emb, self.graph_for(s), self.cfg.encoder, self.encoder_params)
        return forward_rounds(
            hs0,
            self.ae_head,
            self.as_head,
            self.re_encoder,
            self.cfg.mp,
            opinion_passing=self.cfg.opinion_passing,
            pass_pre_attention_as=self.cfg.pass_pre_attention_as,
        )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: str) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": model.cfg.to_dict(),
        "relation_vocab": model.relation_vocab.index,
        "general_vocab": model.general_emb.vocab,
        "general_dim": model.general_emb.dim,
        "domain_vocab": model.domain_emb.vocab,
        "domain_dim": model.domain_emb.dim,
    }
    arrays = {f"param:{k}": v.data for k, v in model.parameters().items()}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str) -> Model:
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {k[len("param:"):]: data[k] for k in data.files if k.startswith("param:")}
    except (OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')!r}")
    cfg = ModelConfig.from_dict(meta["config"])
    general = EmbeddingMatrix(
        meta["general_vocab"], arrays["emb/general"].copy(), meta["general_dim"]
    )
    domain = EmbeddingMatrix(
        meta["domain_vocab"], arrays["emb/domain"].copy(), meta["domain_dim"]
    )
    rv = RelationVocab({k: int(v) for k, v in meta["relation_vocab"].items()})
    model = Model(cfg, general, domain, rv, np.random.default_rng(0))
    params = model.parameters()
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"checkpoint parameters do not match the model: missing={sorted(missing)}, "
            f"extra={sorted(extra)}"
        )
    for k, v in arrays.items():
        if params[k].data.shape != v.shape:
            raise CheckpointError(f"parameter {k!r} has shape {v.shape}, expected {params[k].data.shape}")
        data = v.astype(np.float64)
        if not np.isfinite(data).all():
            raise CheckpointError(f"parameter {k!r} has non-finite values")
        params[k].data = data
    return model
