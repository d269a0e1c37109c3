"""Property tests over random parse trees and random corpora."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dregcn_absa.corpus import (
    AE_TAGS,
    AS_NONE,
    AS_TAGS,
    SELF_RELATION,
    RelationVocab,
    Sentence,
    build_dependency_graph,
    parse_corpus_file,
    serialize_corpus,
)
from dregcn_absa.encoder import normalize_adjacency, relation_counts

from oracles import dense_relations

DEPRELS = ("root", "nsubj", "det", "amod", "dobj", "advmod", "cop")
WORDS = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda w: not any(c.isspace() for c in w))


@st.composite
def sentences(draw, max_n=30, words=st.just("w")):
    """A valid sentence whose heads form a random tree: tokens join the tree
    in a random order, each hanging off one that joined before it."""
    n = draw(st.integers(1, max_n))
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
    return rv, build_dependency_graph(s, rv, distinct_reverse_types=distinct)


@given(sentences(), st.booleans())
def test_arcs_cover_adjacency_once_per_direction(s, distinct):
    _, g = graph_of(s, distinct)
    arcs = g.relation_indicator
    assert arcs.shape == (3 * s.n - 2, 3) and arcs.dtype == np.intp
    hits = np.zeros((s.n, s.n), dtype=int)
    np.add.at(hits, (arcs[:, 0], arcs[:, 1]), 1)
    np.testing.assert_array_equal(hits, g.adjacency)


@given(sentences(), st.booleans())
def test_self_loops_carry_self_relation(s, distinct):
    rv, g = graph_of(s, distinct)
    i, j, k = g.relation_indicator.T
    assert set(np.flatnonzero(k == rv.index[SELF_RELATION])) == set(np.flatnonzero(i == j))
    assert sorted(i[i == j]) == list(range(s.n))


@given(sentences(), st.booleans(), st.booleans())
def test_relation_counts_equal_dense_contraction(s, distinct, normalize):
    rv, g = graph_of(s, distinct)
    a = normalize_adjacency(g.adjacency) if normalize else g.adjacency
    counts = relation_counts(a, g.relation_indicator, rv.size)
    q = dense_relations(s, rv, distinct)
    if normalize:
        # positive terms summed in another order: equal up to rounding
        np.testing.assert_allclose(counts, np.einsum("ij,ijk->ik", a, q), rtol=1e-13, atol=0)
    else:
        np.testing.assert_array_equal(counts, np.einsum("ij,ijk->ik", a, q))


@given(st.lists(sentences(max_n=8, words=WORDS), min_size=1, max_size=4))
def test_corpus_round_trip(corpus):
    assert parse_corpus_file(serialize_corpus(corpus)) == corpus
