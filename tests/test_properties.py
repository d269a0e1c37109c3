"""Property tests over random parse trees, random corpora and random
mini-batches."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dregcn_absa.corpus as corpus_module
from dregcn_absa.autodiff import Tape, backward

from dregcn_absa.corpus import (
    AE_TAGS,
    AS_NONE,
    AS_TAGS,
    REVERSE_PREFIX,
    ROOT_MARKER,
    SELF_RELATION,
    UNK_RELATION,
    ParseError,
    RelationVocab,
    Sentence,
    build_dependency_graph,
    load_embedding_table,
    parse_corpus_file,
    random_embedding_table,
    serialize_corpus,
    text_lines,
)
from dregcn_absa.encoder import MODES, EncoderConfig, normalize_adjacency, relation_counts
from dregcn_absa.evaluation import Span, decode_spans
from dregcn_absa.heads import MP_VARIANTS, MessagePassingConfig
from dregcn_absa.model import Model, ModelConfig
from dregcn_absa.training import batch_loss

from oracles import (
    dense_relations,
    encode_spans,
    load_embedding_reference,
    parse_corpus_reference,
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


# Separators the parsers must treat alike: str.split whitespace inside a
# line, str.splitlines boundaries between lines.
GAPS = (" ", "\t", "  ", " \t", "\xa0")
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\u2028")
BLANKS = ("", " ", "\t", " \t ")
# (column, replacement texts) of each single-token mutation
MUTATIONS = {
    "head": (3, ("x", "1.5", "3a")),
    "index": (3, ("-1", "+3", "03", "1_0", ROOT_MARKER)),
    "ae": (1, (*AE_TAGS, "ZZ")),
    "as": (2, (*AS_TAGS, AS_NONE, "bad")),
    "deprel": (4, (SELF_RELATION, UNK_RELATION, REVERSE_PREFIX + "nsubj", "nsubj")),
}
# two faults are of two kinds, so that the order of the checks shows
FAULT_KINDS = ("columns", "head", *MUTATIONS, "cycle")
# Strategies are built once: building one per draw costs more than the
# parsing under test. Choices are made by `_pick`.
_INDEX = st.integers(0, 2**16)
_TOKEN = st.tuples(
    st.sampled_from(("w", "Coffee", "\u00e9t\u00e9", "\u4e2d\u6587", ROOT_MARKER, "0", "x_1")),
    st.sampled_from([(ae, asx) for ae in AE_TAGS
                     for asx in (AS_TAGS if ae in ("BA", "IA") else (AS_NONE,))]),
    st.sampled_from(DEPRELS),
)


def _pick(draw, seq):
    return seq[draw(_INDEX) % len(seq)]


def _random_tree(draw, n):
    """Heads of a random tree: tokens join in a random order, each hanging
    off one that joined before it."""
    order = draw(st.permutations(range(n)))
    heads = [None] * n
    for k in range(1, n):
        heads[order[k]] = _pick(draw, order[:k])
    return heads


def _descendant(heads, i):
    """The last token other than i whose head chain runs through token i,
    else i itself: as token i's head it closes a cycle, or points at i."""
    def below(j):
        while j is not None and j != i:
            j = heads[j]
        return j == i

    return max((j for j in range(len(heads)) if j != i and below(j)), default=i)


@st.composite
def corpus_texts(draw):
    """Corpus text of 1-3 valid sentences of 1-6 tokens with up to two
    faults drawn into it: a wrong column count, a head that is no index,
    negative, out of range, on itself or closing a cycle, a second or a
    missing root, a bad AE or AS tag, a reserved deprel; written with varied
    whitespace and line ends."""
    trees, lines = [], []
    for _ in range(1 + draw(_INDEX) % 3):
        n = 1 + draw(_INDEX) % 6
        trees.append(_random_tree(draw, n))
        rows = draw(st.lists(_TOKEN, min_size=n, max_size=n))
        lines.append([[w, ae, asx, ROOT_MARKER if h is None else str(h), rel]
                      for (w, (ae, asx), rel), h in zip(rows, trees[-1])])
    first, step, kinds = draw(_INDEX), 1 + draw(_INDEX) % (len(FAULT_KINDS) - 1), len(FAULT_KINDS)
    faults = [FAULT_KINDS[first % kinds], FAULT_KINDS[(first + step) % kinds]]
    # mostly in one sentence, where the first fault in line and check order
    # must be named; column counts change last, so that every other fault
    # finds 5 columns
    b = draw(_INDEX) % len(lines)
    for fault in sorted(faults[: _pick(draw, (0, 1, 2, 2, 2))], key=lambda f: f == "columns"):
        b = _pick(draw, (b, b, b, len(lines) - 1 - b))
        heads = trees[b]
        cols = _pick(draw, lines[b])
        if fault == "columns":
            if draw(st.booleans()):
                del cols[draw(_INDEX) % 5]
            else:
                cols.append("x")
        elif fault == "cycle":
            i = _pick(draw, [j for j, h in enumerate(heads) if h is not None] or [0])
            lines[b][i][3] = str(_descendant(heads, i))
        else:
            k, texts = MUTATIONS[fault]
            if fault == "index":  # also out of range, or any index
                texts += (str(len(heads)), str(_pick(draw, range(len(heads)))))
            cols[k] = _pick(draw, texts)
    out = [_pick(draw, BLANKS) + "\n" for _ in range(draw(_INDEX) % 2)]
    for b, block in enumerate(lines):
        gap, end = _pick(draw, GAPS), _pick(draw, LINE_ENDS)
        if b:
            out += [_pick(draw, BLANKS) + end] * (1 + draw(_INDEX) % 2)
        out += [gap + gap.join(cols) + end for cols in block]
    return "".join(out)


def _outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=400)
@given(corpus_texts())
def test_parse_matches_line_by_line_reference(text):
    """The same sentences as the line-by-line reader, or the same
    ParseError: when a sentence has faults of more than one kind, the one
    the reference meets first in line order and check order."""
    assert _outcome(parse_corpus_file, text) == _outcome(parse_corpus_reference, text)


@given(st.text(st.sampled_from("ab \t\n\r\x0b\x0c\x1c\x85\u2028"), max_size=40), st.integers(1, 8))
def test_text_lines_in_pieces_are_the_splitlines_lines(text, piece):
    """Cutting the text into pieces of at least `piece` characters, each
    just after a "\n", splits it into exactly the lines of str.splitlines."""
    with mock.patch.object(corpus_module, "PIECE_CHARS", piece):
        assert list(text_lines(text)) == text.splitlines()


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(("1", "-0", "+.5", "1e-3", "1_0", "nan", "-inf", "x", "1.2.3")),
)


@st.composite
def embedding_texts(draw):
    """(text, dim): lines `word v1 .. v_dim`, mostly well formed, with
    repeated words, blank lines, varied line ends, now and then a value that
    is no number or not finite, or a line with one value too many or few."""
    dim = draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)))
            continue
        count = dim + draw(st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1)))
        values = [draw(VALUES) for _ in range(max(count, 0))]
        lines.append(" ".join([draw(st.sampled_from("abcd")), *values]))
    return "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines), dim


@settings(max_examples=200)
@given(embedding_texts())
def test_embedding_load_matches_line_by_line_reference(case):
    """The same vocabulary and a bit-identical matrix as the line-by-line
    reader, or the same ParseError."""
    text, dim = case
    got = _outcome(load_embedding_table, text, dim, np.random.default_rng(0))
    ref = _outcome(load_embedding_reference, text, dim, np.random.default_rng(0))
    if isinstance(ref, str):
        assert got == ref
    else:
        assert not isinstance(got, str), got
        assert list(got.vocab.items()) == list(ref.vocab.items())
        assert got.matrix.dtype == ref.matrix.dtype and got.matrix.shape == ref.matrix.shape
        assert got.matrix.tobytes() == ref.matrix.tobytes() and got.dim == ref.dim


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
