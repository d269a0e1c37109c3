"""Property tests over random parse trees, random corpora and random
mini-batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dregcn_absa.autodiff import Tape, backward

from dregcn_absa.corpus import (
    AE_TAGS,
    AS_NONE,
    AS_TAGS,
    SELF_RELATION,
    RelationVocab,
    Sentence,
    build_dependency_graph,
    parse_corpus_file,
    random_embedding_table,
    serialize_corpus,
)
from dregcn_absa.encoder import MODES, EncoderConfig, normalize_adjacency, relation_counts
from dregcn_absa.evaluation import Span, decode_spans
from dregcn_absa.heads import MP_VARIANTS, MessagePassingConfig
from dregcn_absa.model import Model, ModelConfig
from dregcn_absa.training import batch_loss

from oracles import (
    dense_relations,
    encode_spans,
    per_sentence_batch_loss,
    sentence_graph,
    stack_graphs,
)

DEPRELS = ("root", "nsubj", "det", "amod", "dobj", "advmod", "cop")
WORDS = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda w: not any(c.isspace() for c in w))


@st.composite
def sentences(draw, max_n=30, words=st.just("w"), small_lengths=False):
    """A valid sentence whose heads form a random tree: tokens join the tree
    in a random order, each hanging off one that joined before it. With
    `small_lengths`, about half of the draws have one or two tokens."""
    lengths = st.integers(1, max_n)
    if small_lengths:
        lengths = st.one_of(st.integers(1, 2), lengths)
    n = draw(lengths)
    order = draw(st.permutations(range(n)))
    heads = [None] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    ae = draw(st.lists(st.sampled_from(AE_TAGS), min_size=n, max_size=n))
    asx = [draw(st.sampled_from(AS_TAGS)) if t in ("BA", "IA") else AS_NONE for t in ae]
    return Sentence(
        tuple(draw(st.lists(words, min_size=n, max_size=n))),
        tuple(ae),
        tuple(asx),
        tuple(heads),
        tuple(draw(st.lists(st.sampled_from(DEPRELS), min_size=n, max_size=n))),
    )


def graph_of(s, distinct):
    rv = RelationVocab.from_corpus([s], distinct_reverse_types=distinct)
    return rv, build_dependency_graph([s], rv, distinct_reverse_types=distinct)


@given(sentences(), st.booleans())
def test_arcs_cover_adjacency_once_per_direction(s, distinct):
    _, g = graph_of(s, distinct)
    arcs = g.relation_indicator
    assert arcs.shape == (3 * s.n - 2, 4) and arcs.dtype == np.intp
    hits = np.zeros((1, s.n, s.n), dtype=int)
    np.add.at(hits, (arcs[:, 0], arcs[:, 1], arcs[:, 2]), 1)
    np.testing.assert_array_equal(hits, g.adjacency)


@given(sentences(), st.booleans())
def test_self_loops_carry_self_relation(s, distinct):
    rv, g = graph_of(s, distinct)
    b, i, j, k = g.relation_indicator.T
    assert (b == 0).all()
    assert set(np.flatnonzero(k == rv.index[SELF_RELATION])) == set(np.flatnonzero(i == j))
    assert sorted(i[i == j]) == list(range(s.n))


@given(sentences(), st.booleans(), st.booleans())
def test_relation_counts_equal_dense_contraction(s, distinct, normalize):
    rv, g = graph_of(s, distinct)
    a = normalize_adjacency(g.adjacency) if normalize else g.adjacency
    counts = relation_counts(a, g.relation_indicator, rv.size)
    q = dense_relations(s, rv, distinct)[None]
    if normalize:
        # positive terms summed in another order: equal up to rounding
        np.testing.assert_allclose(counts, np.einsum("bij,bijk->bik", a, q), rtol=1e-13, atol=0)
    else:
        np.testing.assert_array_equal(counts, np.einsum("bij,bijk->bik", a, q))


@given(
    st.lists(sentences(small_lengths=True), min_size=1, max_size=6),
    st.integers(0, 6),
    st.booleans(),
    st.booleans(),
)
def test_bucket_graph_equals_stacked_sentence_graphs(bucket, known, distinct, normalize):
    """A lone sentence's graph, the bucket [s], equals the one a per-token
    loop builds, arc for arc; a bucket's graph holds the same arcs as those graphs stacked,
    in the same order within each relation-count cell, so the counts are
    bit-identical. The vocabulary knows the deprels of the first `known`
    sentences only, so the others read the OOV buckets."""
    rv = RelationVocab.from_corpus(bucket[:known], distinct_reverse_types=distinct)
    n = max(s.n for s in bucket)
    alone = [sentence_graph(s, rv, distinct) for s in bucket]
    for s, one in zip(bucket, alone):
        lone = build_dependency_graph([s], rv, distinct)
        np.testing.assert_array_equal(lone.adjacency, one.adjacency)
        np.testing.assert_array_equal(lone.relation_indicator, one.relation_indicator)
    g = build_dependency_graph(bucket, rv, distinct)
    ref = stack_graphs(alone, n)
    np.testing.assert_array_equal(g.adjacency, ref.adjacency)
    # the same arcs, and the same order within each (b, i, k) cell: a
    # stable sort by cell gives the same rows
    arcs, ref_arcs = g.relation_indicator, ref.relation_indicator
    np.testing.assert_array_equal(
        arcs[np.lexsort(arcs[:, [3, 1, 0]].T)], ref_arcs[np.lexsort(ref_arcs[:, [3, 1, 0]].T)]
    )
    assert g.relation_indicator.dtype == np.intp
    norm = normalize_adjacency if normalize else (lambda a: a)
    counts = relation_counts(norm(g.adjacency), g.relation_indicator, rv.size)
    expected = np.zeros_like(counts)
    for b, (s, one) in enumerate(zip(bucket, alone)):
        expected[b, : s.n] = relation_counts(norm(one.adjacency), one.relation_indicator, rv.size)[0]
    np.testing.assert_array_equal(counts, expected)


@given(st.lists(sentences(max_n=8, words=WORDS), min_size=1, max_size=4))
def test_corpus_round_trip(corpus):
    assert parse_corpus_file(serialize_corpus(corpus)) == corpus


@st.composite
def span_sets(draw, max_spans=6):
    """Sorted non-overlapping spans and a sentence length that holds them;
    spans may touch, including two of the same kind."""
    spans, start = [], 0
    for _ in range(draw(st.integers(0, max_spans))):
        start += draw(st.integers(0, 3))
        end = start + draw(st.integers(1, 4))
        spans.append(Span(start, end, draw(st.sampled_from(("aspect", "opinion")))))
        start = end
    return spans, start + draw(st.integers(0, 3))


@given(span_sets())
def test_decode_inverts_encode(case):
    spans, n = case
    assert decode_spans(encode_spans(spans, n)) == spans


@given(st.lists(st.sampled_from(AE_TAGS), max_size=30))
def test_reencoding_decoded_tags_is_idempotent(tags):
    once = encode_spans(decode_spans(tags), len(tags))
    assert encode_spans(decode_spans(once), len(once)) == once
    assert decode_spans(once) == decode_spans(tags)


@st.composite
def model_configs(draw, mode):
    return ModelConfig(
        encoder=EncoderConfig(
            mode=mode,
            gcn_layers=1,
            cnn_layers=draw(st.integers(1, 2)),
            d=6,
            m=draw(st.sampled_from((0, 3))),
            normalize_adjacency=draw(st.booleans()),
        ),
        mp=MessagePassingConfig(draw(st.sampled_from(MP_VARIANTS)), draw(st.integers(0, 2))),
        d_t=4,
        opinion_passing=draw(st.booleans()),
        dropout=0.5,
        pass_pre_attention_as=draw(st.booleans()),
        distinct_reverse_types=draw(st.booleans()),
    )


@pytest.mark.parametrize("mode", MODES)
def test_bucketed_batch_loss_equals_per_sentence_composition(mode):
    """Loss and every gradient of a bucketed mini-batch, with dropout on,
    against one forward per sentence through the unfused ops."""

    @settings(max_examples=25)
    @given(
        st.lists(
            sentences(max_n=80, words=st.sampled_from("abcdefg"), small_lengths=True),
            min_size=1,
            max_size=7,
        ),
        model_configs(mode),
        st.integers(0, 2**32 - 1),
    )
    def check(batch, cfg, seed):
        rng = np.random.default_rng(seed)
        general = random_embedding_table("abcde", 5, rng)  # f and g are out of vocabulary
        domain = random_embedding_table("abc", 3, rng)
        rv = RelationVocab.from_corpus(batch, cfg.distinct_reverse_types)
        model = Model(cfg, general, domain, rv, rng)
        params = list(model.parameters().values())
        results = []
        for loss_fn in (batch_loss, per_sentence_batch_loss):
            with Tape() as tape:
                loss = loss_fn(model, batch, np.random.default_rng(seed))  # same dropout draws
            backward(tape, loss, params=params)
            results.append((float(loss.data), [p.grad.copy() for p in params]))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        for name, g, ref in zip(model.parameters(), grads, ref_grads):
            assert np.abs(g - ref).max(initial=0.0) <= 1e-10 * np.abs(ref).max(initial=0.0), name

    check()
