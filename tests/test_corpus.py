import gc
import re
import tracemalloc

import numpy as np
import pytest

from dregcn_absa import autodiff as ad
from dregcn_absa.corpus import (
    REVERSE_PREFIX,
    SELF_RELATION,
    UNK_RELATION,
    EmbeddingMatrix,
    ParseError,
    RelationVocab,
    Sentence,
    SplitError,
    VocabularyError,
    build_dependency_graph,
    corpus_stats,
    embed_tokens,
    load_embedding_table,
    parse_corpus_file,
    random_embedding_table,
    serialize_corpus,
    split_train_dev,
)

import oracles


def simple_sentence():
    return Sentence(
        ("the", "screen", "is", "great"),
        ("O", "BA", "O", "BP"),
        ("none", "pos", "none", "none"),
        (1, 3, 3, None),
        ("det", "nsubj", "cop", "root"),
    )


SIMPLE_DEPRELS = ("cop", "det", "nsubj", "root")  # simple_sentence's, sorted


# ---------------------------------------------------------------------------
# Sentence validation


def test_sentence_requires_consistent_tags():
    with pytest.raises(ValueError, match="pos/neg/neu"):
        Sentence(("a",), ("BA",), ("none",), (None,), ("root",))
    with pytest.raises(ValueError, match="non-aspect"):
        Sentence(("a", "b"), ("O", "O"), ("pos", "none"), (None, 0), ("root", "det"))


def test_sentence_requires_exactly_one_root():
    with pytest.raises(ValueError, match="ROOT"):
        Sentence(("a", "b"), ("O", "O"), ("none", "none"), (None, None), ("root", "root"))
    with pytest.raises(ValueError, match="out of range"):
        Sentence(("a", "b"), ("O", "O"), ("none", "none"), (None, 5), ("root", "det"))
    with pytest.raises(ValueError, match="itself"):
        Sentence(("a", "b"), ("O", "O"), ("none", "none"), (None, 1), ("root", "det"))


def test_sentence_rejects_cyclic_heads():
    with pytest.raises(ValueError, match="cycle"):  # 0 <-> 1
        Sentence(("a", "b", "c"), ("O",) * 3, ("none",) * 3, (1, 0, None), ("x", "y", "root"))
    with pytest.raises(ValueError, match="cycle"):  # 1 -> 2 -> 3 -> 1
        Sentence(("a", "b", "c", "d"), ("O",) * 4, ("none",) * 4, (None, 2, 3, 1), ("root", "x", "y", "z"))
    # a deep chain that reaches ROOT is a tree
    Sentence(("a", "b", "c", "d"), ("O",) * 4, ("none",) * 4, (1, 2, 3, None), ("x", "y", "z", "root"))


def test_parse_rejects_cyclic_parse_with_line_number():
    text = "a O none ROOT root\n\nb O none 1 x\nc O none 0 y\nd O none ROOT root\n"
    with pytest.raises(ParseError, match="sentence starting at line 3: .*cycle"):
        parse_corpus_file(text)


def test_sentence_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        Sentence(("a", "b"), ("O",), ("none", "none"), (None, 0), ("root", "det"))


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_round_trip(tiny_corpus):
    assert len(tiny_corpus) == 3
    text = serialize_corpus(tiny_corpus)
    assert parse_corpus_file(text) == tiny_corpus


def test_parse_fixture_content(tiny_corpus):
    s = tiny_corpus[0]
    assert s.tokens[0] == "Coffee" and s.tokens[-1] == "sandwiches"
    assert s.ae_tags == ("BA", "O", "O", "BP", "O", "O", "BP", "BA", "IA")
    assert s.as_tags[7:] == ("neg", "neg")
    assert s.heads[4] is None and s.heads[7] == 8


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_corpus_file("a O none ROOT root\nb O none\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_corpus_file("a O none xyz root\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_corpus_file("a ZZ none ROOT root\n")
    # the relation vocabulary's own names may not be deprels
    for reserved in (SELF_RELATION, UNK_RELATION, REVERSE_PREFIX + "nsubj"):
        with pytest.raises(ParseError, match=re.escape(f"line 3: token 1: deprel {reserved!r}")):
            parse_corpus_file(f"a O none ROOT root\n\nb O none ROOT root\nc O none 0 {reserved}\n")


def test_parse_shares_equal_strings_within_a_file(tiny_corpus):
    parsed = parse_corpus_file(serialize_corpus(tiny_corpus * 4))
    strings = [x for s in parsed for col in (s.tokens, s.ae_tags, s.as_tags, s.deprels) for x in col]
    assert len({id(x) for x in strings}) == len(set(strings))


def test_parsed_corpus_holds_under_100_bytes_per_token():
    """Laptop-shaped sentences of 18 tokens over a 300-word vocabulary: the
    parsed corpus holds its tuples and sentences, not four strings per
    token (about 260 bytes a token here)."""
    rng = np.random.default_rng(0)
    sentences, n = 500, 18
    pairs = (("O", "none"), ("BA", "pos"), ("IA", "neg"), ("BP", "none"))
    lines = []
    for words, tags, rels in zip(
        rng.integers(300, size=(sentences, n)),
        rng.integers(len(pairs), size=(sentences, n)),
        rng.integers(20, size=(sentences, n)),
    ):
        lines += [
            f"word{w} {' '.join(pairs[t])} {i - 1 if i else 'ROOT'} {f'rel{r}' if i else 'root'}"
            for i, (w, t, r) in enumerate(zip(words, tags, rels))
        ]
        lines.append("")
    text = "\n".join(lines)
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_corpus_file(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(parsed) == sentences
    assert held / (sentences * n) <= 100


def test_parse_peak_stays_near_what_it_returns():
    """A laptop-sized file (3,048 sentences of N(18, 9) tokens, 58k lines)
    is walked a bounded piece at a time, so the parse's traced peak is at
    most 1.3 times the corpus it returns (about 1.1; 2.3 with a list of
    every line)."""
    rng = np.random.default_rng(1)
    pairs = (("O", "none"), ("BA", "pos"), ("IA", "neg"), ("BP", "none"))
    lines = []
    for n in np.clip(np.rint(rng.normal(18, 9, size=3048)), 3, 80).astype(int):
        words, tags, rels = rng.integers(3000, size=n), rng.integers(4, size=n), rng.integers(40, size=n)
        lines += [
            f"word{w} {' '.join(pairs[t])} {i - 1 if i else 'ROOT'} {f'rel{r}' if i else 'root'}"
            for i, (w, t, r) in enumerate(zip(words, tags, rels))
        ]
        lines.append("")
    text = "\n".join(lines)
    del lines
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_corpus_file(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed) == 3048
    assert peak <= 1.3 * held


# ---------------------------------------------------------------------------
# relation vocabulary


def test_relation_vocab_ordering():
    rv = RelationVocab.from_corpus([simple_sentence()])
    names = sorted(rv.index, key=rv.index.get)
    assert names[0] == SELF_RELATION
    assert names[1] == UNK_RELATION
    assert names[2:] == ["cop", "det", "nsubj", "root"]


def test_relation_vocab_oov_and_reverse():
    rv = RelationVocab.from_corpus([simple_sentence()])
    assert rv.indices(["nomatch"]) == [rv.index[UNK_RELATION]]
    rv2 = RelationVocab.from_corpus([simple_sentence()], distinct_reverse_types=True)
    assert rv2.indices(["det"], reverse=True) == [rv2.index[REVERSE_PREFIX + "det"]]
    rv3 = known_only(SELF_RELATION, *SIMPLE_DEPRELS)
    with pytest.raises(VocabularyError):
        rv3.indices(["nomatch"])


def known_only(*names):
    """A vocabulary of exactly these names, in order: no OOV bucket."""
    return RelationVocab({name: i for i, name in enumerate(names)})


def _vocabularies():
    s = simple_sentence()
    for distinct in (False, True):
        reverse = [REVERSE_PREFIX + name for name in SIMPLE_DEPRELS] if distinct else []
        yield known_only(SELF_RELATION, *SIMPLE_DEPRELS, *reverse)
        yield RelationVocab.from_corpus([s], distinct)
    # index maps a checkpoint may hold: a reverse OOV bucket alone, a
    # doubly prefixed name, a forward OOV bucket without reverse types
    yield RelationVocab({SELF_RELATION: 0, "det": 1, REVERSE_PREFIX + UNK_RELATION: 2})
    yield RelationVocab({SELF_RELATION: 0, "rev:rev:det": 1, "rev:det": 2, UNK_RELATION: 3})
    yield RelationVocab({SELF_RELATION: 0, UNK_RELATION: 1, "det": 2})


@pytest.mark.parametrize("rv", list(_vocabularies()), ids=lambda rv: ",".join(rv.index))
def test_relation_tables_answer_as_the_fallback_chain(rv):
    names = set(rv.index) | {k[len(REVERSE_PREFIX):] for k in rv.index if k.startswith(REVERSE_PREFIX)}
    names |= {"nomatch", REVERSE_PREFIX + "nomatch", "", UNK_RELATION, REVERSE_PREFIX + UNK_RELATION}
    for reverse in (False, True):
        for name in sorted(names):
            try:
                expected = oracles.index_of_reference(rv.index, name, reverse)
            except VocabularyError as exc:
                with pytest.raises(VocabularyError, match=re.escape(str(exc))):
                    rv.indices([name], reverse)
                continue
            assert rv.indices([name, name], reverse) == [expected, expected], (name, reverse)


def test_vocabulary_without_unknown_rejects_an_unknown_deprel():
    s = simple_sentence()
    rv = known_only(SELF_RELATION, *SIMPLE_DEPRELS)
    odd = Sentence(s.tokens, s.ae_tags, s.as_tags, s.heads, ("det", "nomatch", "cop", "root"))
    with pytest.raises(VocabularyError, match="'nomatch'"):
        rv.indices(odd.deprels)
    with pytest.raises(VocabularyError, match="'nomatch'"):
        build_dependency_graph([odd], rv)
    with pytest.raises(VocabularyError, match="'nomatch'"):
        build_dependency_graph([s, odd], rv)
    # the root's deprel labels no arc, so it is never looked up
    rootless = Sentence(s.tokens, s.ae_tags, s.as_tags, s.heads, ("det", "nsubj", "cop", "nomatch"))
    assert len(build_dependency_graph([rootless], rv).relation_indicator) == 3 * 4 - 2


# ---------------------------------------------------------------------------
# dependency graphs


def arc_rows(g):
    """The (i, j, k) arcs of a one-sentence bucket graph."""
    assert (g.relation_indicator[:, 0] == 0).all()
    return [tuple(int(x) for x in row[1:]) for row in g.relation_indicator]


def test_graph_shape_and_symmetry():
    s = simple_sentence()
    rv = RelationVocab.from_corpus([s])
    g = build_dependency_graph([s], rv)
    assert g.adjacency.shape == (1, 4, 4)
    a = g.adjacency[0]
    np.testing.assert_array_equal(a, a.T)
    np.testing.assert_array_equal(np.diag(a), 1.0)
    assert g.relation_indicator.shape == (3 * 4 - 2, 4)
    assert g.relation_indicator.dtype == np.intp
    # every edge carries exactly one relation type in each direction
    pairs = [(i, j) for i, j, _ in arc_rows(g)]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {(int(i), int(j)) for i, j in np.argwhere(a)}
    self_k = rv.index[SELF_RELATION]
    assert all((i, i, self_k) in arc_rows(g) for i in range(4))


def test_graph_reverse_arcs_share_or_split_types():
    s = simple_sentence()
    rv = RelationVocab.from_corpus([s])
    g = build_dependency_graph([s], rv)
    k = rv.index["det"]
    assert (1, 0, k) in arc_rows(g)  # head -> dependent
    assert (0, 1, k) in arc_rows(g)  # mirrored arc reuses the type
    rv2 = RelationVocab.from_corpus([s], distinct_reverse_types=True)
    g2 = build_dependency_graph([s], rv2, distinct_reverse_types=True)
    assert (1, 0, rv2.index["det"]) in arc_rows(g2)
    assert (0, 1, rv2.index[REVERSE_PREFIX + "det"]) in arc_rows(g2)


def test_graph_memory_is_linear_in_relation_types():
    # an 80-token chain over 40 deprels with reverse types: |N| = 83
    n = 80
    s = Sentence(
        tuple(f"w{i}" for i in range(n)), ("O",) * n, ("none",) * n,
        (None, *range(n - 1)), tuple(f"d{i % 40}" for i in range(n)),
    )
    rv = RelationVocab.from_corpus([s], distinct_reverse_types=True)
    assert rv.size == 83
    g = build_dependency_graph([s], rv, distinct_reverse_types=True)
    assert g.adjacency.nbytes + g.relation_indicator.nbytes <= 8 * n * n + 32 * (3 * n - 2)


# ---------------------------------------------------------------------------
# embeddings


def test_load_embedding_table(fixtures_dir):
    rng = np.random.default_rng(0)
    table = load_embedding_table((fixtures_dir / "tiny_general.emb").read_text(), 4, rng)
    assert table.dim == 4
    assert table.matrix.shape == (8, 4)  # 7 unique words + OOV row
    # duplicates keep the first occurrence
    np.testing.assert_allclose(
        table.matrix[table.vocab["great"]], [0.04, 0.04, -0.02, 0.01]
    )
    assert table.row_index("unseen-word") == table.oov_index


def test_load_embedding_dim_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ParseError, match="line 1"):
        load_embedding_table("word 0.1 0.2\n", 3, rng)
    with pytest.raises(ParseError, match="non-numeric"):
        load_embedding_table("word 0.1 x 0.3\n", 3, rng)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_embedding_rejects_non_finite(bad):
    rng = np.random.default_rng(0)
    text = f"a 0.1 0.2\n\nb 0.3 0.4\nc 0.5 {bad}\nd 0.7 0.8\n"
    with pytest.raises(ParseError, match="line 4: non-finite"):
        load_embedding_table(text, 2, rng)


def test_random_embedding_table_range():
    rng = np.random.default_rng(1)
    table = random_embedding_table(["b", "a", "b"], 5, rng)
    assert table.matrix.shape == (3, 5)
    assert (np.abs(table.matrix) <= 0.05).all()
    assert list(table.vocab) == ["a", "b"]


def test_embed_tokens_concatenates_both_tables():
    s = simple_sentence()
    rng = np.random.default_rng(2)
    general = random_embedding_table(s.tokens, 3, rng)
    domain = random_embedding_table(["screen"], 2, rng)  # others hit OOV
    emb = embed_tokens([s], general, domain, ad.Tensor(general.matrix), ad.Tensor(domain.matrix))
    assert emb.shape == (1, 4, 5)
    np.testing.assert_allclose(emb.data[0, 1, :3], general.matrix[general.vocab["screen"]])
    np.testing.assert_allclose(emb.data[0, 0, 3:], domain.matrix[domain.oov_index])


def test_embed_tokens_trainable_path():
    s = simple_sentence()
    rng = np.random.default_rng(3)
    general = random_embedding_table(s.tokens, 3, rng)
    domain = random_embedding_table(s.tokens, 2, rng)
    gp = ad.Tensor(general.matrix.copy())
    dp = ad.Tensor(domain.matrix.copy())
    with ad.Tape() as tape:
        emb = embed_tokens([s], general, domain, gp, dp)
        loss = ad.sum_all(emb)
    ad.backward(tape, loss, params=[gp, dp])
    assert gp.grad.sum() == s.n * 3
    assert dp.grad is not None and dp.grad.any()


# ---------------------------------------------------------------------------
# splits and statistics


def test_split_is_deterministic_and_disjoint(tiny_corpus):
    corpus = tiny_corpus * 4
    a_train, a_dev = split_train_dev(corpus, 0.25, seed=9)
    b_train, b_dev = split_train_dev(corpus, 0.25, seed=9)
    assert a_train == b_train and a_dev == b_dev
    assert len(a_dev) == 3 and len(a_train) == 9


def test_split_rejects_bad_inputs(tiny_corpus):
    with pytest.raises(SplitError):
        split_train_dev(tiny_corpus, 1.5)
    with pytest.raises(SplitError):
        split_train_dev(tiny_corpus[:1], 0.2)
    with pytest.raises(SplitError):
        split_train_dev([], 0.5)
    # a side left empty is named with both sizes
    with pytest.raises(SplitError, match="leaves 2 train and 0 dev"):
        split_train_dev(tiny_corpus[:2], 0.2)
    with pytest.raises(SplitError, match="leaves 0 train and 2 dev"):
        split_train_dev(tiny_corpus[:2], 0.9)


def test_corpus_stats(tiny_corpus):
    stats = corpus_stats(tiny_corpus)
    assert stats.sentences == 3
    assert stats.aspect_terms == 4  # Coffee, cosi sandwiches, screen, battery life
    assert stats.opinion_terms == 4  # better, overpriced, great, short
