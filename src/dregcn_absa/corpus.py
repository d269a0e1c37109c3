"""Corpus parsing, dependency graphs, embedding tables and splits.

File format (one token per line, blank line between sentences):

    surface ae_tag as_tag head deprel

where ae_tag is one of BA/IA/BP/IP/O, as_tag is pos/neg/neu or the literal
`none`, and head is the 0-based index of the token's syntactic head or the
literal `ROOT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tensor, concat, rows

AE_TAGS = ("BA", "IA", "BP", "IP", "O")
AE_INDEX = {t: i for i, t in enumerate(AE_TAGS)}
AS_TAGS = ("pos", "neg", "neu")
AS_INDEX = {t: i for i, t in enumerate(AS_TAGS)}
AS_NONE = "none"
ROOT_MARKER = "ROOT"
SELF_RELATION = "<self>"
UNK_RELATION = "<unk>"
REVERSE_PREFIX = "rev:"


class ParseError(ValueError):
    """Malformed corpus or embedding file; message carries the line number."""


class VocabularyError(ValueError):
    """A relation type is missing from the vocabulary and no OOV bucket exists."""


class SplitError(ValueError):
    """The corpus is too small to split."""


@dataclass(frozen=True)
class Sentence:
    tokens: Tuple[str, ...]
    ae_tags: Tuple[str, ...]
    as_tags: Tuple[str, ...]
    heads: Tuple[Optional[int], ...]  # None marks the ROOT token
    deprels: Tuple[str, ...]

    def __post_init__(self):
        n = len(self.tokens)
        if n < 1:
            raise ValueError("sentence must have at least one token")
        for name in ("ae_tags", "as_tags", "heads", "deprels"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
        for i, tag in enumerate(self.ae_tags):
            if tag not in AE_INDEX:
                raise ValueError(f"token {i}: unknown AE tag {tag!r}")
        for i, (ae, asx) in enumerate(zip(self.ae_tags, self.as_tags)):
            if ae in ("BA", "IA"):
                if asx not in AS_INDEX:
                    raise ValueError(
                        f"token {i}: aspect token must carry pos/neg/neu, got {asx!r}"
                    )
            elif asx != AS_NONE:
                raise ValueError(
                    f"token {i}: non-aspect token must carry {AS_NONE!r}, got {asx!r}"
                )
        roots = [i for i, h in enumerate(self.heads) if h is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one ROOT head, found {len(roots)}")
        for i, h in enumerate(self.heads):
            if h is None:
                continue
            if not (0 <= h < n):
                raise ValueError(f"token {i}: head index {h} out of range for n={n}")
            if h == i:
                raise ValueError(f"token {i}: head points at itself")
        # Follow heads from every token, stamping each node with the walk
        # that reached it first: a walk that meets its own stamp has looped,
        # one that meets an older stamp joins a path already known to end
        # at ROOT.
        stamp = [-1] * n
        for i in range(n):
            j = i
            while j is not None and stamp[j] < 0:
                stamp[j] = i
                j = self.heads[j]
            if j is not None and stamp[j] == i:
                raise ValueError(f"token {j}: heads form a cycle, not a tree")

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class RelationVocab:
    index: Dict[str, int]

    @classmethod
    def from_corpus(
        cls,
        sentences: Iterable[Sentence],
        distinct_reverse_types: bool = False,
        include_unknown: bool = True,
    ) -> "RelationVocab":
        names = sorted({d for s in sentences for d in s.deprels})
        ordered = [SELF_RELATION]
        if include_unknown:
            ordered.append(UNK_RELATION)
        ordered.extend(names)
        if distinct_reverse_types:
            ordered.extend(REVERSE_PREFIX + n for n in names)
            if include_unknown:
                ordered.append(REVERSE_PREFIX + UNK_RELATION)
        return cls({name: i for i, name in enumerate(ordered)})

    @property
    def size(self) -> int:
        return len(self.index)

    def index_of(self, name: str, reverse: bool = False) -> int:
        key = REVERSE_PREFIX + name if reverse else name
        if key in self.index:
            return self.index[key]
        fallback = REVERSE_PREFIX + UNK_RELATION if reverse else UNK_RELATION
        if fallback in self.index:
            return self.index[fallback]
        if not reverse and UNK_RELATION in self.index:
            return self.index[UNK_RELATION]
        raise VocabularyError(f"unknown relation type {key!r} and no OOV bucket")


@dataclass
class DepGraph:
    adjacency: np.ndarray  # (n, n) binary, symmetric, unit diagonal
    relation_indicator: np.ndarray  # (3n - 2, 3) intp, one (i, j, k) row per Q_ijk = 1

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def build_dependency_graph(
    s: Sentence,
    rv: RelationVocab,
    distinct_reverse_types: bool = False,
) -> DepGraph:
    """Symmetric self-looped adjacency plus the typed arcs behind it.

    The arcs are the nonzeros of the relation indicator Q, one (i, j, k) row
    per Q_ijk = 1: a SELF loop per token, then every dependency arc in both
    directions (head -> dependent typed by its deprel, the mirror by the same
    type or its reverse). A validated sentence is a tree, so every adjacency
    edge carries exactly one type per direction.
    """
    n = s.n
    self_k = rv.index[SELF_RELATION]
    rows = [(i, i, self_k) for i in range(n)]
    for i, (h, rel) in enumerate(zip(s.heads, s.deprels)):
        if h is None:
            continue
        k_fwd = rv.index_of(rel)
        k_rev = rv.index_of(rel, reverse=True) if distinct_reverse_types else k_fwd
        rows += [(h, i, k_fwd), (i, h, k_rev)]
    arcs = np.array(rows, dtype=np.intp)
    a = np.zeros((n, n))
    a[arcs[:, 0], arcs[:, 1]] = 1.0
    return DepGraph(a, arcs)


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_corpus_file(text: str) -> List[Sentence]:
    sentences: List[Sentence] = []
    block: List[Tuple[int, List[str]]] = []

    def flush():
        if not block:
            return
        first_line = block[0][0]
        tokens, ae, asx, heads, deprels = [], [], [], [], []
        for lineno, cols in block:
            if len(cols) != 5:
                raise ParseError(f"line {lineno}: expected 5 columns, got {len(cols)}")
            surface, ae_tag, as_tag, head, deprel = cols
            tokens.append(surface)
            ae.append(ae_tag)
            asx.append(as_tag)
            if head == ROOT_MARKER:
                heads.append(None)
            else:
                try:
                    heads.append(int(head))
                except ValueError:
                    raise ParseError(f"line {lineno}: head must be an index or ROOT, got {head!r}")
            deprels.append(deprel)
        try:
            sentences.append(
                Sentence(tuple(tokens), tuple(ae), tuple(asx), tuple(heads), tuple(deprels))
            )
        except ValueError as exc:
            raise ParseError(f"sentence starting at line {first_line}: {exc}") from exc
        block.clear()

    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        block.append((lineno, stripped.split()))
    flush()
    return sentences


def serialize_corpus(sentences: Sequence[Sentence]) -> str:
    blocks = []
    for s in sentences:
        lines = []
        for tok, ae, asx, head, rel in zip(s.tokens, s.ae_tags, s.as_tags, s.heads, s.deprels):
            head_str = ROOT_MARKER if head is None else str(head)
            lines.append(f"{tok} {ae} {asx} {head_str} {rel}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingMatrix:
    vocab: Dict[str, int]
    matrix: np.ndarray  # (V + 1, dim); the last row is the OOV row
    dim: int

    @property
    def oov_index(self) -> int:
        return self.matrix.shape[0] - 1

    def row_index(self, word: str) -> int:
        return self.vocab.get(word, self.oov_index)

    def indices(self, words: Sequence[str]) -> np.ndarray:
        return np.array([self.row_index(w) for w in words], dtype=np.intp)


def load_embedding_table(
    text: str, expected_dim: int, rng: np.random.Generator
) -> EmbeddingMatrix:
    """Parse `word v1 ... v_d` lines; duplicates keep the first occurrence."""
    vocab: Dict[str, int] = {}
    vectors: List[np.ndarray] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != expected_dim + 1:
            raise ParseError(
                f"line {lineno}: expected {expected_dim} values after the word, "
                f"got {len(parts) - 1}"
            )
        word = parts[0]
        if word in vocab:
            continue
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric embedding value")
        vocab[word] = len(vectors)
        vectors.append(vec)
    oov = rng.uniform(-0.05, 0.05, size=expected_dim)
    matrix = np.vstack(vectors + [oov])
    if not np.isfinite(matrix).all():
        word = list(vocab)[int(np.argmin(np.isfinite(matrix).all(axis=1)))]
        lineno = next(
            k for k, line in enumerate(text.splitlines(), 1) if line.split()[:1] == [word]
        )
        raise ParseError(f"line {lineno}: non-finite embedding value")
    return EmbeddingMatrix(vocab, matrix, expected_dim)


def random_embedding_table(
    words: Iterable[str], dim: int, rng: np.random.Generator
) -> EmbeddingMatrix:
    """Uniform [-0.05, 0.05] table over the given vocabulary, plus an OOV row."""
    vocab = {w: i for i, w in enumerate(sorted(set(words)))}
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab) + 1, dim))
    return EmbeddingMatrix(vocab, matrix, dim)


def embed_tokens(
    s: Sentence,
    general: EmbeddingMatrix,
    domain: EmbeddingMatrix,
    general_param: Optional[Tensor] = None,
    domain_param: Optional[Tensor] = None,
) -> Tensor:
    """Row i = [general(w_i); domain(w_i)]; unseen words hit the OOV rows.

    When trainable parameter tensors backing the two tables are supplied the
    lookup stays on the tape, so the embeddings fine-tune during training.
    """
    gp = general_param if general_param is not None else Tensor(general.matrix)
    dp = domain_param if domain_param is not None else Tensor(domain.matrix)
    return concat(rows(gp, general.indices(s.tokens)), rows(dp, domain.indices(s.tokens)))


# ---------------------------------------------------------------------------
# splits and statistics


def split_train_dev(
    corpus: Sequence[Sentence], ratio: float = 0.2, seed: int = 0
) -> Tuple[List[Sentence], List[Sentence]]:
    if not (0 < ratio < 1):
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    if len(corpus) < 2:
        raise SplitError(f"cannot split a corpus of {len(corpus)} sentences")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(corpus))
    dev_size = int(round(ratio * len(corpus)))
    dev_idx = set(perm[:dev_size].tolist())
    train = [s for i, s in enumerate(corpus) if i not in dev_idx]
    dev = [s for i, s in enumerate(corpus) if i in dev_idx]
    return train, dev


@dataclass
class CorpusStats:
    sentences: int
    aspect_terms: int
    opinion_terms: int


def corpus_stats(corpus: Sequence[Sentence]) -> CorpusStats:
    """Span counts via BIO decoding of the gold AE tags."""
    from .evaluation import decode_spans

    aspects = opinions = 0
    for s in corpus:
        for span in decode_spans(s.ae_tags):
            if span.kind == "aspect":
                aspects += 1
            else:
                opinions += 1
    return CorpusStats(len(corpus), aspects, opinions)
