"""End-to-end model: embeddings -> shared encoder -> iterated task heads.

Also owns the parameter table that gradient checks and checkpoints read by
name, and bit-exact checkpoint serialization. Every parameter is a view of one
parameter vector and its gradient a view of one gradient vector, allocated
when the model is built; Adam, snapshots and restores work on the vectors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union, get_type_hints

import numpy as np

from .autodiff import Tensor, mul, recording
from .corpus import (
    EmbeddingMatrix,
    RelationVocab,
    Sentence,
    build_dependency_graph,
    embed_tokens,
)
from .encoder import Dense, EncoderConfig, ParamTable, encode_shared, init_encoder_params
from .heads import (
    MessagePassingConfig,
    RoundOutput,
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
    d_t: int = 16  # task-head hidden width, a fixed default that does not follow d
    opinion_passing: bool = True
    dropout: float = 0.5
    freeze_embeddings: bool = False
    pass_pre_attention_as: bool = False
    distinct_reverse_types: bool = False

    def __post_init__(self):
        if self.d_t < 1:
            raise ValueError(f"d_t must be >= 1, got {self.d_t}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The inverse of `asdict`; every field must be present."""
        encoder, mp = _typed(EncoderConfig, d["encoder"]), _typed(MessagePassingConfig, d["mp"])
        return _typed(cls, d, encoder=encoder, mp=mp)


# the JSON value types each config field type accepts (a bool is no number)
JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def typed_value(name: str, t: type, value: object) -> object:
    """`value`, checked to be a JSON value of type t: an int takes no bool or
    float, a float any number (stored as float), a bool only a bool, a str
    only a string, and a tuple of ints a list of ints."""
    if t == Tuple[int, ...]:
        if any(type(v) is not int for v in value):
            raise TypeError(f"{name} must be a list of int, got {value!r}")
        return tuple(value)
    if type(value) not in JSON_TYPES[t]:
        raise TypeError(f"{name} must be {t.__name__}, got {value!r}")
    return float(value) if t is float else value


def _typed(cls, d: dict, **nested):
    """cls from the JSON values in `d` for each of its fields but `nested`,
    each read by `typed_value` under its field's name."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.name not in nested]
    return cls(**nested, **{name: typed_value(name, hints[name], d[name]) for name in names})


class Model:
    """Bundles configuration, vocabularies and every trainable tensor its
    forward reads, drawn from `source` (a generator) or a checkpoint's arrays.

    The tensors are views, in declaration order (embedding tables first), of
    `param_vector`, and their gradients views of `grad_vector`."""

    def __init__(
        self,
        cfg: ModelConfig,
        general_emb: EmbeddingMatrix,
        domain_emb: EmbeddingMatrix,
        relation_vocab: RelationVocab,
        source: Union[np.random.Generator, Mapping[str, np.ndarray]],
    ):
        self.cfg = cfg
        self.general_emb = general_emb
        self.domain_emb = domain_emb
        self.relation_vocab = relation_vocab

        p = ParamTable(source)
        self.general_param = p("emb/general", general_emb.matrix.shape, init=general_emb.matrix)
        self.domain_param = p("emb/domain", domain_emb.matrix.shape, init=domain_emb.matrix)
        emb_dim = general_emb.dim + domain_emb.dim
        self.encoder_params = init_encoder_params(p, cfg.encoder, emb_dim, relation_vocab.size)
        d_s = cfg.encoder.d
        self.ae_head = init_ae_head(p, d_s, cfg.d_t)
        self.as_head = init_as_head(p, d_s, cfg.d_t, cfg.opinion_passing)
        self.re_encoder: Optional[Dense] = None
        if cfg.mp.effective_rounds:  # no round, no re-encoder to read
            self.re_encoder = init_re_encoder(p, d_s, cfg.mp.variant, cfg.d_t, cfg.pass_pre_attention_as)
        self._tensors = p.tensors  # not `p`, whose source may be a checkpoint's arrays
        self.param_vector, self.grad_vector = p.pack()

    # -- parameter registry -------------------------------------------------

    def parameters(self) -> Dict[str, Tensor]:
        """Every parameter by its checkpoint name, in declaration order."""
        return dict(self._tensors)

    def trainable_parameters(self) -> Dict[str, Tensor]:
        params = self.parameters()
        if self.cfg.freeze_embeddings:
            params = {k: v for k, v in params.items() if not k.startswith("emb/")}
        return params

    def trainable_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """The trainable spans of the parameter and gradient vectors: past the
        two embedding tables, declared first, when they are frozen, else all."""
        tables = self.general_param.data.size + self.domain_param.data.size
        start = tables if self.cfg.freeze_embeddings else 0
        return self.param_vector[start:], self.grad_vector[start:]

    def snapshot(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.param_vector.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Write a `snapshot` back into the parameter vector."""
        self.param_vector[...] = snapshot

    # -- forward -------------------------------------------------------------

    def dropout_masks(
        self, sentences: Sequence[Sentence], rng: np.random.Generator
    ) -> Optional[List[np.ndarray]]:
        """One inverted-dropout mask (n, embedding width) per sentence, drawn
        in order; None when dropout is off, which draws nothing."""
        if self.cfg.dropout == 0:
            return None
        keep = 1.0 - self.cfg.dropout
        width = self.general_emb.dim + self.domain_emb.dim
        return [(rng.random((s.n, width)) < keep) / keep for s in sentences]

    def forward(
        self,
        batch: Union[Sentence, Sequence[Sentence]],
        dropout: Optional[Sequence[np.ndarray]] = None,
    ) -> List[RoundOutput]:
        """Each round's outputs, final last, over a bucket padded to its longest sentence, n.

        Every output has a leading bucket axis: (B, n, ...), or (1, n, ...)
        for a lone sentence. `dropout` holds the bucket's masks from
        `dropout_masks`; without it the forward evaluates.
        """
        bucket = [batch] if isinstance(batch, Sentence) else list(batch)
        lengths = [s.n for s in bucket]
        n = max(lengths)
        pad_mask = None if min(lengths) == n else np.arange(n) < np.array(lengths)[:, None]
        tables = self.general_param, self.domain_param
        if self.cfg.freeze_embeddings or not recording():  # no gradient read: gather the arrays
            tables = tuple(t.data for t in tables)
        emb = embed_tokens(bucket, self.general_emb, self.domain_emb, *tables)
        if dropout is not None:
            keep = np.zeros(emb.shape)
            for b, mask in enumerate(dropout):
                keep[b, : len(mask)] = mask
            emb = mul(emb, keep) if isinstance(emb, Tensor) else emb * keep
        graph = None
        if self.cfg.encoder.uses_graph:
            graph = build_dependency_graph(
                bucket, self.relation_vocab, self.cfg.distinct_reverse_types
            )
        hs0 = encode_shared(emb, graph, self.cfg.encoder, self.encoder_params, pad_mask)
        return forward_rounds(
            hs0,
            self.ae_head,
            self.as_head,
            self.re_encoder,
            self.cfg.mp,
            opinion_passing=self.cfg.opinion_passing,
            pad_mask=pad_mask,
            pass_pre_attention_as=self.cfg.pass_pre_attention_as,
        )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: str) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.cfg),
        "relation_vocab": model.relation_vocab.index,
        "general_vocab": model.general_emb.vocab,
        "general_dim": model.general_emb.dim,
        "domain_vocab": model.domain_emb.vocab,
        "domain_dim": model.domain_emb.dim,
    }
    arrays = {f"param:{k}": v.data for k, v in model.parameters().items()}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def _ids(meta: dict, key: str) -> Dict[str, int]:
    """A name -> id map from checkpoint metadata, checked to hold only
    integer ids (a bool is not one). JSON object keys are strings."""
    index = meta[key]
    if not {int}.issuperset(map(type, index.values())):
        name = next(k for k, v in index.items() if type(v) is not int)
        raise ValueError(f"{key} maps {name!r} to {index[name]!r}, not an integer id")
    return index


def _vocab(meta: dict, key: str, rows: int) -> Dict[str, int]:
    """A word index from checkpoint metadata, checked to stay inside the
    table of `rows` rows that it indexes."""
    index = _ids(meta, key)
    if index and not (0 <= min(index.values()) and max(index.values()) < rows):
        outside = next(k for k, v in index.items() if not 0 <= v < rows)
        raise ValueError(f"{key} maps {outside!r} outside its table's {rows} rows")
    return index


def _embedding(meta: dict, arrays: Dict[str, np.ndarray], kind: str) -> EmbeddingMatrix:
    """The `kind` ("general" or "domain") embedding table, its vocabulary and
    its width (an int, not a bool) checked against the stored matrix."""
    matrix, dim = arrays[f"emb/{kind}"], meta[f"{kind}_dim"]
    if type(dim) is not int or matrix.shape[1:] != (dim,):
        raise ValueError(f"{kind}_dim is {dim!r}, not the width of its {matrix.shape} table")
    return EmbeddingMatrix(_vocab(meta, f"{kind}_vocab", len(matrix)), matrix, dim)


def load_checkpoint(path: str) -> Model:
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {k[len("param:"):]: data[k] for k in data.files if k.startswith("param:")}
    except (OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if type(meta) is not dict:
        kind = type(meta).__name__
        raise CheckpointError(f"malformed checkpoint {path!r}: metadata is {kind}, not an object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')!r}")
    try:
        cfg = ModelConfig.from_dict(meta["config"])
        general, domain = _embedding(meta, arrays, "general"), _embedding(meta, arrays, "domain")
        rv = RelationVocab(_ids(meta, "relation_vocab"))
        model = Model(cfg, general, domain, rv, arrays)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path!r}: {type(exc).__name__}: {exc}") from exc
    extra = set(arrays) - set(model.parameters()) - {"re/w", "re/b", "as/bilinear"}  # held unread once
    if extra:
        raise CheckpointError(f"malformed checkpoint {path!r}: extra parameters {sorted(extra)}")
    return model
