"""Synthetic corpora for sanity runs and the relation-type experiment."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from dregcn_absa.corpus import AS_NONE, Sentence

# word -> (ae_tag, as_tag) roles for the overfit corpus
_ASPECT_POS = ("screen", "battery", "keyboard")
_ASPECT_NEG = ("fan", "hinge", "speaker")
_OPINION = ("great", "noisy", "fragile", "crisp")
_FILLER = ("the", "it", "works", "very", "and", "feels")
_DEPRELS = ("nsubj", "amod", "det", "obj", "advmod")


def overfit_corpus(n_sentences: int = 10, seed: int = 7) -> List[Sentence]:
    """Small corpus with a consistent word -> tag mapping, chain parses and
    randomized relation labels. Easily memorized by any of the encoders."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n_sentences):
        n = int(rng.integers(4, 8))
        tokens, ae, asx = [], [], []
        for i in range(n):
            bucket = rng.random()
            if bucket < 0.25:
                w = str(rng.choice(_ASPECT_POS))
                tokens.append(w); ae.append("BA"); asx.append("pos")
            elif bucket < 0.5:
                w = str(rng.choice(_ASPECT_NEG))
                tokens.append(w); ae.append("BA"); asx.append("neg")
            elif bucket < 0.7:
                w = str(rng.choice(_OPINION))
                tokens.append(w); ae.append("BP"); asx.append(AS_NONE)
            else:
                w = str(rng.choice(_FILLER))
                tokens.append(w); ae.append("O"); asx.append(AS_NONE)
        heads = [None] + [i - 1 for i in range(1, n)]
        deprels = ["root"] + [str(rng.choice(_DEPRELS)) for _ in range(1, n)]
        sentences.append(
            Sentence(tuple(tokens), tuple(ae), tuple(asx), tuple(heads), tuple(deprels))
        )
    return sentences


# relation type -> (ae_tag, as_tag) for the separability corpus
RELATION_ROLES: Tuple[Tuple[str, str, str], ...] = (
    ("asp_pos", "BA", "pos"),
    ("asp_neg", "BA", "neg"),
    ("opin", "BP", AS_NONE),
    ("plain", "O", AS_NONE),
)


def relation_type_corpus(n_sentences: int = 60, seed: int = 11, leaves: int = 4) -> List[Sentence]:
    """Every token shares one surface form and every sentence shares one star
    parse; gold tags are a deterministic function of each leaf's incident
    relation type. A type-blind encoder sees identical inputs for every
    sentence, so only a relation-aware encoder can separate the tags."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n_sentences):
        n = leaves + 1
        tokens = ["tok"] * n
        ae = ["O"]
        asx = [AS_NONE]
        heads: List = [None]
        deprels = ["root"]
        for _ in range(leaves):
            rel, ae_tag, as_tag = RELATION_ROLES[int(rng.integers(len(RELATION_ROLES)))]
            ae.append(ae_tag)
            asx.append(as_tag)
            heads.append(0)
            deprels.append(rel)
        sentences.append(
            Sentence(tuple(tokens), tuple(ae), tuple(asx), tuple(heads), tuple(deprels))
        )
    return sentences


def majority_baseline_tags(train: List[Sentence], n: int) -> Tuple[List[str], List[str]]:
    """Strongest constant per-position (ae, as) assignment, selected by F1-I
    on the train gold; the ceiling for any predictor blind to relation types
    on the relation_type_corpus.

    Candidates at each position are the pairs actually observed there. The
    product space is searched exhaustively while it stays small and falls back
    to per-position frequency otherwise.
    """
    import itertools
    from collections import Counter

    from dregcn_absa.evaluation import corpus_metrics

    per_pos: List[List[Tuple[str, str]]] = []
    freq_choice: List[Tuple[str, str]] = []
    for pos in range(n):
        pairs = Counter((s.ae_tags[pos], s.as_tags[pos]) for s in train if s.n > pos)
        per_pos.append(sorted(pairs))
        freq_choice.append(pairs.most_common(1)[0][0])

    total = 1
    for cands in per_pos:
        total *= len(cands)
    if total > 4096:
        ae_out = [p[0] for p in freq_choice]
        as_out = [p[1] for p in freq_choice]
        return ae_out, as_out

    fitting = [s for s in train if s.n == n]
    best, best_f1 = freq_choice, -1.0
    for combo in itertools.product(*per_pos):
        ae = [p[0] for p in combo]
        asx = [p[1] for p in combo]
        report = corpus_metrics([(ae, asx)] * len(fitting), fitting)
        if report.f1_i > best_f1:
            best, best_f1 = list(combo), report.f1_i
    return [p[0] for p in best], [p[1] for p in best]
