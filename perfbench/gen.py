"""Seeded synthetic inputs for the benchmark, written in the program's formats.

Sentences are shaped like SemEval-14 Laptop: lengths from N(18, 9) rounded
and clipped to [3, 80], random dependency trees with 40 deprel labels, a
Zipf-like filler vocabulary, and aspect/opinion terms drawn from fixed
lexicons. Each aspect takes the polarity of its nearest opinion term (or
`neu` when the sentence has none), so the tags are learnable and the
training loss falls.

Nothing is downloaded: every word, tree and vector comes from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

LENGTH_MEAN = 18.0
LENGTH_SD = 9.0
LENGTH_MIN = 3
LENGTH_MAX = 80

ROOT_DEPREL = "root"
# 39 labels below plus `root` make the 40 deprel types of the corpus.
DEPRELS: Tuple[str, ...] = (
    "punct", "det", "nsubj", "amod", "obj", "case", "advmod", "nmod", "obl",
    "conj", "cc", "compound", "aux", "mark", "cop", "xcomp", "nummod", "acl",
    "advcl", "ccomp", "appos", "nmod:poss", "aux:pass", "nsubj:pass", "flat",
    "fixed", "parataxis", "iobj", "expl", "obl:tmod", "csubj", "discourse",
    "dep", "acl:relcl", "det:predet", "compound:prt", "list", "vocative",
    "orphan",
)

N_FILLERS = 3000
ZIPF_EXPONENT = 1.05
ASPECT_WORDS = tuple(f"asp{i:02d}" for i in range(80))
OPINION_WORDS = {
    "pos": tuple(f"good{i:02d}" for i in range(40)),
    "neg": tuple(f"bad{i:02d}" for i in range(40)),
    "neu": tuple(f"meh{i:02d}" for i in range(20)),
}
POLARITIES = ("pos", "neg", "neu")
POLARITY_WEIGHTS = (0.45, 0.35, 0.20)
ASPECTS_PER_SENTENCE = 0.8  # Poisson means; Laptop has ~0.8 of each
OPINIONS_PER_SENTENCE = 0.9
ASPECT_SPAN_LENGTHS = ((1, 2, 3), (0.70, 0.25, 0.05))
OPINION_SPAN_LENGTHS = ((1, 2), (0.85, 0.15))

GENERAL_DIM = 16
DOMAIN_DIM = 8


@dataclass(frozen=True)
class GenSentence:
    tokens: Tuple[str, ...]
    ae_tags: Tuple[str, ...]
    as_tags: Tuple[str, ...]
    heads: Tuple[int, ...]  # -1 marks the root
    deprels: Tuple[str, ...]


def filler_words() -> Tuple[str, ...]:
    return tuple(f"w{i:04d}" for i in range(N_FILLERS))


def vocabulary() -> Tuple[str, ...]:
    words = list(filler_words()) + list(ASPECT_WORDS)
    for p in POLARITIES:
        words.extend(OPINION_WORDS[p])
    return tuple(words)


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return np.cumsum(w / w.sum())


_FILLER_CDF = _zipf_cdf(N_FILLERS, ZIPF_EXPONENT)
_DEPREL_CDF = _zipf_cdf(len(DEPRELS), 1.0)


def draw_lengths(rng: np.random.Generator, count: int, min_length: int = LENGTH_MIN) -> np.ndarray:
    """`count` lengths from round(N(18, 9)) clipped to [3, 80], kept only
    when at least `min_length` (the long tail when min_length > 3)."""
    out: List[int] = []
    while len(out) < count:
        raw = np.clip(np.rint(rng.normal(LENGTH_MEAN, LENGTH_SD, 4096)), LENGTH_MIN, LENGTH_MAX)
        out.extend(int(n) for n in raw[raw >= min_length])
    return np.array(out[:count], dtype=int)


def random_tree(rng: np.random.Generator, n: int) -> List[int]:
    """Random recursive tree: tokens join in a random order and each one
    attaches to a token that joined before it, so there is one root and no
    cycle. Returns head indices with -1 for the root."""
    order = rng.permutation(n)
    heads = [-1] * n
    for k in range(1, n):
        heads[order[k]] = int(order[rng.integers(k)])
    return heads


def _place(rng, free: np.ndarray, length: int) -> int:
    """Start of a random free run of `length` positions, or -1 (one try)."""
    if length > len(free):
        return -1
    start = int(rng.integers(len(free) - length + 1))
    return start if free[start : start + length].all() else -1


def make_sentence(rng: np.random.Generator, n: int) -> GenSentence:
    tokens = [""] * n
    ae = ["O"] * n
    asx = ["none"] * n
    free = np.ones(n, dtype=bool)

    opinions: List[Tuple[int, int, str]] = []
    for _ in range(rng.poisson(OPINIONS_PER_SENTENCE)):
        length = int(rng.choice(OPINION_SPAN_LENGTHS[0], p=OPINION_SPAN_LENGTHS[1]))
        start = _place(rng, free, length)
        if start < 0:
            continue
        pol = POLARITIES[int(rng.choice(3, p=POLARITY_WEIGHTS))]
        lex = OPINION_WORDS[pol]
        for i in range(start, start + length):
            tokens[i] = lex[int(rng.integers(len(lex)))]
            ae[i] = "BP" if i == start else "IP"
        free[start : start + length] = False
        opinions.append((start, start + length, pol))

    for _ in range(rng.poisson(ASPECTS_PER_SENTENCE)):
        length = int(rng.choice(ASPECT_SPAN_LENGTHS[0], p=ASPECT_SPAN_LENGTHS[1]))
        start = _place(rng, free, length)
        if start < 0:
            continue
        end = start + length
        pol = "neu"
        if opinions:
            gap = [max(o_start - end + 1, start - o_end + 1) for o_start, o_end, _ in opinions]
            pol = opinions[int(np.argmin(gap))][2]
        for i in range(start, end):
            tokens[i] = ASPECT_WORDS[int(rng.integers(len(ASPECT_WORDS)))]
            ae[i] = "BA" if i == start else "IA"
            asx[i] = pol
        free[start:end] = False

    fill = np.flatnonzero(free)
    ranks = np.searchsorted(_FILLER_CDF, rng.random(len(fill)))
    for i, r in zip(fill, ranks):
        tokens[i] = f"w{int(r):04d}"

    heads = random_tree(rng, n)
    rel_ranks = np.searchsorted(_DEPREL_CDF, rng.random(n))
    deprels = [ROOT_DEPREL if h < 0 else DEPRELS[int(r)] for h, r in zip(heads, rel_ranks)]
    return GenSentence(tuple(tokens), tuple(ae), tuple(asx), tuple(heads), tuple(deprels))


def make_corpus(rng: np.random.Generator, count: int, min_length: int = LENGTH_MIN) -> List[GenSentence]:
    return [make_sentence(rng, int(n)) for n in draw_lengths(rng, count, min_length)]


def corpus_text(sentences: Sequence[GenSentence]) -> str:
    """The program's corpus format: `surface ae_tag as_tag head deprel`."""
    blocks = []
    for s in sentences:
        blocks.append(
            "\n".join(
                f"{t} {ae} {asx} {'ROOT' if h < 0 else h} {rel}"
                for t, ae, asx, h, rel in zip(s.tokens, s.ae_tags, s.as_tags, s.heads, s.deprels)
            )
        )
    return "\n\n".join(blocks) + "\n"


def embedding_text(rng: np.random.Generator, dim: int, missing_share: float = 0.03) -> str:
    """The program's `.emb` format over the generator's vocabulary.

    Words of one lexicon class share a centre, as pretrained vectors cluster
    by meaning. A share of the rarest fillers is left out so that OOV
    lookups happen.
    """
    words = vocabulary()
    fillers = filler_words()
    dropped = set(fillers[int(len(fillers) * (1 - missing_share)) :])
    centres = {c: rng.normal(0.0, 0.3, dim) for c in ("filler", "aspect", *POLARITIES)}
    lexicon_class = {w: "aspect" for w in ASPECT_WORDS}
    for p in POLARITIES:
        lexicon_class.update({w: p for w in OPINION_WORDS[p]})
    lines = []
    for w in words:
        if w in dropped:
            continue
        vec = centres[lexicon_class.get(w, "filler")] + rng.normal(0.0, 0.1, dim)
        lines.append(w + " " + " ".join(f"{v:.6f}" for v in vec))
    return "\n".join(lines) + "\n"
