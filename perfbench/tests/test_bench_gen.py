"""Properties of the benchmark's input generator for fixed seeds."""

import numpy as np
import pytest

import checks
import gen
from dregcn_absa.corpus import RelationVocab, load_embedding_table, parse_corpus_file


@pytest.fixture(scope="module")
def laptop():
    return gen.make_corpus(np.random.default_rng([7, 0]), 3048)


def test_lengths_follow_clipped_normal(laptop):
    n = np.array([len(s.tokens) for s in laptop])
    assert n.min() >= gen.LENGTH_MIN and n.max() <= gen.LENGTH_MAX
    assert abs(n.mean() - 18.0) < 1.0
    assert abs(n.std() - 9.0) < 1.0


def test_long_tail_lengths():
    n = gen.draw_lengths(np.random.default_rng(3), 500, min_length=45)
    assert n.min() >= 45 and n.max() <= gen.LENGTH_MAX
    assert 45 < n.mean() < 55


def test_every_parse_is_a_tree(laptop):
    for s in laptop:
        n = len(s.tokens)
        assert [h for h in s.heads].count(-1) == 1
        for i, h in enumerate(s.heads):
            assert h == -1 or (0 <= h < n and h != i)
            steps, j = 0, i
            while s.heads[j] != -1:  # walking up reaches the root, so no cycle
                j = s.heads[j]
                steps += 1
                assert steps < n
        assert all((h == -1) == (rel == gen.ROOT_DEPREL) for h, rel in zip(s.heads, s.deprels))


def test_corpus_text_round_trips_through_the_parser(laptop):
    parsed = parse_corpus_file(gen.corpus_text(laptop))
    assert len(parsed) == len(laptop)
    for p, s in zip(parsed, laptop):
        assert p.tokens == s.tokens and p.ae_tags == s.ae_tags and p.as_tags == s.as_tags
        assert p.heads == tuple(None if h == -1 else h for h in s.heads)
        assert p.deprels == s.deprels


def test_relation_types(laptop):
    labels = {rel for s in laptop for rel in s.deprels}
    assert labels == set(gen.DEPRELS) | {gen.ROOT_DEPREL} and len(labels) == 40
    parsed = parse_corpus_file(gen.corpus_text(laptop))
    assert RelationVocab.from_corpus(parsed).size == 42  # + self loop, OOV
    assert RelationVocab.from_corpus(parsed, distinct_reverse_types=True).size == 83


def test_tags_come_from_the_lexicons(laptop):
    opinion_pol = {w: p for p, words in gen.OPINION_WORDS.items() for w in words}
    aspects = 0
    for s in laptop:
        for tok, ae, asx in zip(s.tokens, s.ae_tags, s.as_tags):
            if ae in ("BA", "IA"):
                aspects += 1
                assert tok in gen.ASPECT_WORDS and asx in gen.POLARITIES
            elif ae in ("BP", "IP"):
                assert tok in opinion_pol and asx == "none"
            else:
                assert tok not in opinion_pol and tok not in gen.ASPECT_WORDS and asx == "none"
    assert 0.5 < aspects / len(laptop) < 1.5


def test_aspect_takes_nearest_opinion_polarity():
    opinion_pol = {w: p for p, words in gen.OPINION_WORDS.items() for w in words}
    checked = 0
    for s in gen.make_corpus(np.random.default_rng(11), 400):
        spans = checks.bio_spans(s.ae_tags)
        opinions = [(a, b, opinion_pol[s.tokens[a]]) for kind, a, b in spans if kind == "opinion"]
        for kind, a, b in spans:
            if kind != "aspect":
                continue
            assert len(set(s.as_tags[a:b])) == 1
            if not opinions:
                assert s.as_tags[a] == "neu"
                continue
            gaps = [min(abs(i - j) for i in range(a, b) for j in range(oa, ob)) for oa, ob, _ in opinions]
            nearest = {pol for gap, (_, _, pol) in zip(gaps, opinions) if gap == min(gaps)}
            assert s.as_tags[a] in nearest
            checked += 1
    assert checked > 100


def test_same_seed_same_inputs():
    a = gen.corpus_text(gen.make_corpus(np.random.default_rng([5, 1]), 50, 45))
    b = gen.corpus_text(gen.make_corpus(np.random.default_rng([5, 1]), 50, 45))
    c = gen.corpus_text(gen.make_corpus(np.random.default_rng([6, 1]), 50, 45))
    assert a == b and a != c


def test_embedding_file_parses_and_leaves_oov_words():
    rng = np.random.default_rng(2)
    table = load_embedding_table(gen.embedding_text(rng, gen.GENERAL_DIM), gen.GENERAL_DIM, rng)
    assert table.matrix.shape[1] == gen.GENERAL_DIM
    vocab = gen.vocabulary()
    missing = [w for w in vocab if w not in table.vocab]
    assert 0 < len(missing) < 0.05 * len(vocab)
    assert all(w in table.vocab for w in gen.ASPECT_WORDS)
