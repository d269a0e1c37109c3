"""Corpus parsing, dependency graphs, embedding tables and splits.

File format (one token per line, blank line between sentences):

    surface ae_tag as_tag head deprel

where ae_tag is one of BA/IA/BP/IP/O, as_tag is pos/neg/neu or the literal
`none`, and head is the 0-based index of the token's syntactic head or the
literal `ROOT`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import Tensor, concat, rows

ASPECT_TAGS, OPINION_TAGS = ("BA", "IA"), ("BP", "IP")  # each (begin, inside)
AE_TAGS = (*ASPECT_TAGS, *OPINION_TAGS, "O")
AE_INDEX = {t: i for i, t in enumerate(AE_TAGS)}
AS_TAGS = ("pos", "neg", "neu")
AS_INDEX = {t: i for i, t in enumerate(AS_TAGS)}
AS_NONE = "none"
ROOT_MARKER = "ROOT"
SELF_RELATION = "<self>"
UNK_RELATION = "<unk>"
REVERSE_PREFIX = "rev:"
_RESERVED = frozenset((SELF_RELATION, UNK_RELATION))  # as is every name with REVERSE_PREFIX
# the (AE tag, AS tag) pairs a token may carry
_TAG_PAIRS = frozenset(
    (ae, asx) for ae in AE_TAGS for asx in (AS_TAGS if ae in ASPECT_TAGS else (AS_NONE,))
)


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
        if not len(self.ae_tags) == len(self.as_tags) == len(self.heads) == len(self.deprels) == n:
            for name in ("ae_tags", "as_tags", "heads", "deprels"):
                if len(getattr(self, name)) != n:
                    raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
        # Each check tests the sentence's columns whole; only once one has
        # failed does a loop over the tokens name the first fault, so the
        # message is the one the checks give token by token, in this order.
        bad_tags = not _TAG_PAIRS.issuperset(zip(self.ae_tags, self.as_tags))
        if bad_tags:
            for i, tag in enumerate(self.ae_tags):
                if tag not in AE_INDEX:
                    raise ValueError(f"token {i}: unknown AE tag {tag!r}")
        names = set(self.deprels)
        if not names.isdisjoint(_RESERVED) or any(
            map(str.startswith, names, repeat(REVERSE_PREFIX))
        ):
            for i, rel in enumerate(self.deprels):
                if rel in _RESERVED or rel.startswith(REVERSE_PREFIX):
                    raise ValueError(f"token {i}: deprel {rel!r} is a reserved relation name")
        if bad_tags:  # every AE tag is known: an AS tag does not fit its token
            pairs = enumerate(zip(self.ae_tags, self.as_tags))
            i, (ae, asx) = next((i, tags) for i, tags in pairs if tags not in _TAG_PAIRS)
            aspect = ae in ASPECT_TAGS
            kind, want = ("aspect", "pos/neg/neu") if aspect else ("non-aspect", repr(AS_NONE))
            raise ValueError(f"token {i}: {kind} token must carry {want}, got {asx!r}")
        heads = self.heads
        roots = heads.count(None)
        if roots != 1:
            raise ValueError(f"expected exactly one ROOT head, found {roots}")
        r = heads.index(None)
        deps = heads[:r] + heads[r + 1 :]
        if deps and (min(deps) < 0 or max(deps) >= n):
            self._name_head_fault()
        # Follow heads from every token, stamping each node with the walk
        # that reached it first: a walk that meets its own stamp has looped,
        # one that meets an older stamp joins a path already known to end
        # at ROOT.
        stamp = [-1] * n
        for i in range(n):
            j = i
            while j is not None and stamp[j] < 0:
                stamp[j] = i
                j = heads[j]
            if j is not None and stamp[j] == i:
                self._name_head_fault()  # a head on itself is a loop named as such
                raise ValueError(f"token {j}: heads form a cycle, not a tree")

    def _name_head_fault(self):
        """Raise at the first token whose head is out of range or on itself."""
        n = len(self.heads)
        for i, h in enumerate(self.heads):
            if h is None:
                continue
            if not (0 <= h < n):
                raise ValueError(f"token {i}: head index {h} out of range for n={n}")
            if h == i:
                raise ValueError(f"token {i}: head points at itself")

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class RelationVocab:
    """Relation type names to row ids of the relation table: the ids are
    exactly 0 .. size - 1, one name each.

    The name -> id tables behind `indices` are built with the vocabulary:
    the forward table is `index` itself, the reverse table holds every name
    whose reverse type (`rev:` + name) is in the vocabulary. A name missing from a
    table reads `<unk>` (forward) or `rev:<unk>` (reverse) when present.
    """

    index: Dict[str, int]
    _tables: tuple = field(init=False, repr=False, compare=False)  # (forward, reverse)

    def __post_init__(self):
        owner: Dict[int, str] = {}
        for name, k in self.index.items():
            if not 0 <= k < self.size:
                raise ValueError(f"relation_vocab maps {name!r} outside its table's {self.size} rows")
            if k in owner:
                raise ValueError(f"relation_vocab maps {owner[k]!r} and {name!r} to one id, {k}")
            owner[k] = name
        reverse = {
            name[len(REVERSE_PREFIX) :]: k
            for name, k in self.index.items()
            if name.startswith(REVERSE_PREFIX)
        }
        self._tables = (
            (self.index, self.index.get(UNK_RELATION)),
            (reverse, self.index.get(REVERSE_PREFIX + UNK_RELATION)),
        )

    @classmethod
    def from_corpus(
        cls, sentences: Iterable[Sentence], distinct_reverse_types: bool = False
    ) -> "RelationVocab":
        names = sorted({d for s in sentences for d in s.deprels})
        ordered = [SELF_RELATION, UNK_RELATION, *names]
        if distinct_reverse_types:
            ordered.extend(REVERSE_PREFIX + n for n in [*names, UNK_RELATION])
        return cls({name: i for i, name in enumerate(ordered)})

    @property
    def size(self) -> int:
        return len(self.index)

    def indices(self, names: Sequence[str], reverse: bool = False) -> List[int]:
        """The type id of each name, or of its reverse type."""
        table, unknown = self._tables[reverse]
        ids = [table.get(name, unknown) for name in names]
        if None in ids:
            key = names[ids.index(None)]
            key = REVERSE_PREFIX + key if reverse else key
            raise VocabularyError(f"unknown relation type {key!r} and no OOV bucket")
        return ids


@dataclass
class DepGraph:
    """The graph of a bucket of B sentences padded to the longest, n."""

    adjacency: np.ndarray  # (B, n, n): binary, symmetric, unit diagonal, zero when padded
    relation_indicator: np.ndarray  # intp, one (b, i, j, k) row per Q_bijk = 1


def build_dependency_graph(
    bucket: Sequence[Sentence], rv: RelationVocab, distinct_reverse_types: bool = False
) -> DepGraph:
    """Symmetric self-looped adjacency plus the typed arcs behind it, for a
    length bucket in one pass; a lone sentence is the bucket [s].

    The arcs are the nonzeros of the relation indicator Q, one (b, i, j, k)
    row per Q_bijk = 1: a SELF loop per token, then every dependency arc in
    both directions (head -> dependent typed by its deprel, the mirror by
    the same type or its reverse). A validated sentence is a tree, so every
    adjacency edge carries exactly one type per direction. Adjacency is
    (B, n, n), padded to the longest sentence and zero on every padded row
    and column.
    """
    lengths = np.array([s.n for s in bucket])
    real = np.arange(lengths.max()) < lengths[:, None]
    b, i = np.nonzero(real)  # every token, in bucket then token order
    loops = np.array((b, i, i, np.full_like(i, rv.index[SELF_RELATION]))).T
    heads = np.array([-1 if head is None else head for s in bucket for head in s.heads])
    dependent = heads >= 0
    b, i, h = b[dependent], i[dependent], heads[dependent]
    rels = [r for s in bucket for head, r in zip(s.heads, s.deprels) if head is not None]
    k_fwd = k_rev = rv.indices(rels)
    if distinct_reverse_types:
        k_rev = rv.indices(rels, reverse=True)
    pairs = np.array((b, h, i, k_fwd, b, i, h, k_rev), dtype=np.intp).T.reshape(-1, 4)
    # every loop, then both directions of every arc: the arcs of each
    # (b, i, k) cell keep the order of the sentence's own graph
    arcs = np.concatenate((loops, pairs))
    a = np.zeros(real.shape + real.shape[-1:])
    a[arcs[:, 0], arcs[:, 1], arcs[:, 2]] = 1.0
    return DepGraph(a, arcs)


# ---------------------------------------------------------------------------
# parsing / serialization


# a head column's text -> the head; other texts are read by int()
_HEAD_INDEX: Dict[str, Optional[int]] = {ROOT_MARKER: None, **{str(i): i for i in range(1024)}}


def _read_heads(block: Sequence[List[str]], first: int) -> Tuple[Optional[int], ...]:
    """The heads of a sentence's lines, read by int(), or a ParseError at
    the first line, in line order, whose column count or head is wrong."""
    heads: List[Optional[int]] = []
    for lineno, cols in enumerate(block, first):
        if len(cols) != 5:
            raise ParseError(f"line {lineno}: expected 5 columns, got {len(cols)}")
        try:
            heads.append(None if cols[3] == ROOT_MARKER else int(cols[3]))
        except ValueError:
            raise ParseError(f"line {lineno}: head must be an index or ROOT, got {cols[3]!r}")
    return tuple(heads)


def _block_sentence(block: List[List[str]], first: int, seen: Dict[str, str]) -> Sentence:
    """The sentence of the whitespace-split lines first, first + 1, ...; each
    text column reads through `seen`, so that equal strings are one object."""
    try:
        tokens, ae, asx, heads, deprels = zip(*block, strict=True)
        heads = tuple(map(_HEAD_INDEX.__getitem__, heads))
    except (ValueError, KeyError):  # a line without 5 columns, a head past the table or no index
        heads = _read_heads(block, first)  # raises at the first faulty line, if any
    columns = (tokens, ae, asx, deprels)
    tokens, ae, asx, deprels = (tuple(map(seen.setdefault, col, col)) for col in columns)
    try:
        return Sentence(tokens, ae, asx, heads, deprels)
    except ValueError as exc:
        raise ParseError(f"sentence starting at line {first}: {exc}") from exc


PIECE_CHARS = 1 << 16  # the least a piece of `text_lines` holds, when the text is longer


def text_lines(text: str) -> Iterator[str]:
    """The lines of `text`, as `text.splitlines()` gives them, split one
    bounded piece at a time: each piece ends just after the first "\n" at
    least `PIECE_CHARS` characters in, so no line (nor a "\r\n") is cut,
    and no list of every line is ever held."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + PIECE_CHARS) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def parse_corpus_file(text: str) -> List[Sentence]:
    """The sentences of a corpus file: 5 whitespace-separated columns per
    token line, blank or whitespace-only lines between sentences. A
    ParseError names the first faulty line of the first faulty sentence.
    Equal strings in the text columns are one object, through a table that
    lives only for this call: a corpus repeats its words, tags and deprels."""
    sentences: List[Sentence] = []
    block: List[List[str]] = []
    seen: Dict[str, str] = {}
    # a final empty line ends the last sentence
    for lineno, cols in enumerate(chain(map(str.split, text_lines(text)), ([],)), 1):
        if cols:
            block.append(cols)
        elif block:
            sentences.append(_block_sentence(block, lineno - len(block), seen))
            block = []
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


def load_embedding_table(
    text: str, expected_dim: int, rng: np.random.Generator
) -> EmbeddingMatrix:
    """Parse `word v1 ... v_d` lines; duplicates keep the first occurrence.
    Each line's values go straight into one float64 buffer, with no array
    per line; a ParseError names the first faulty line."""
    vocab: Dict[str, int] = {}
    values = array("d")
    lines: List[int] = []  # the line each row was read on
    for lineno, parts in enumerate(map(str.split, text_lines(text)), 1):
        if not parts:
            continue
        if len(parts) != expected_dim + 1:
            raise ParseError(
                f"line {lineno}: expected {expected_dim} values after the word, "
                f"got {len(parts) - 1}"
            )
        if parts[0] in vocab:
            continue
        try:
            values.extend(map(float, parts[1:]))
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric embedding value")
        vocab[parts[0]] = len(lines)
        lines.append(lineno)
    oov = rng.uniform(-0.05, 0.05, size=expected_dim)
    matrix = np.concatenate((np.frombuffer(values), oov)).reshape(len(lines) + 1, expected_dim)
    if not np.isfinite(matrix).all():
        row = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        raise ParseError(f"line {lines[row]}: non-finite embedding value")
    return EmbeddingMatrix(vocab, matrix, expected_dim)


def random_embedding_table(
    words: Iterable[str], dim: int, rng: np.random.Generator
) -> EmbeddingMatrix:
    """Uniform [-0.05, 0.05] table over the given vocabulary, plus an OOV row."""
    vocab = {w: i for i, w in enumerate(sorted(set(words)))}
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab) + 1, dim))
    return EmbeddingMatrix(vocab, matrix, dim)


def embed_tokens(
    sentences: Sequence[Sentence],
    general: EmbeddingMatrix,
    domain: EmbeddingMatrix,
    general_param: Union[Tensor, np.ndarray],
    domain_param: Union[Tensor, np.ndarray],
) -> Union[Tensor, np.ndarray]:
    """(B, n, d_g + d_d) for a bucket of B sentences padded to the longest,
    n: row (b, i) = [general(w); domain(w)] for token i of sentence b.
    Unseen words and padded rows read the OOV rows.

    The rows are read from the parameter tensors that back the two tables,
    so the lookup stays on the tape and the embeddings fine-tune. Given
    the tables' arrays instead (frozen embeddings, or no tape recording),
    the lookup is two gathers and one concatenate: a constant array that
    records nothing.
    """
    n = max(s.n for s in sentences)

    def indices(table: EmbeddingMatrix) -> np.ndarray:
        get, oov = table.vocab.get, table.oov_index
        padded = [[get(w, oov) for w in s.tokens] + [oov] * (n - s.n) for s in sentences]
        return np.array(padded, dtype=np.intp)

    if isinstance(general_param, Tensor):
        return concat(rows(general_param, indices(general)), rows(domain_param, indices(domain)))
    return np.concatenate((general_param[indices(general)], domain_param[indices(domain)]), axis=-1)


# ---------------------------------------------------------------------------
# splits and statistics


def split_train_dev(
    corpus: Sequence[Sentence], ratio: float = 0.2, seed: int = 0
) -> Tuple[List[Sentence], List[Sentence]]:
    if not (0 < ratio < 1):
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    dev_size = int(round(ratio * len(corpus)))
    if not 0 < dev_size < len(corpus):
        raise SplitError(
            f"splitting {len(corpus)} sentences at dev ratio {ratio} leaves "
            f"{len(corpus) - dev_size} train and {dev_size} dev sentences; both must be nonempty"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(corpus))
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
