import numpy as np
import pytest

from dregcn_absa.autodiff import ContractViolation, Tensor
from dregcn_absa.corpus import SELF_RELATION, RelationVocab, Sentence, build_dependency_graph
from dregcn_absa.encoder import (
    EncoderConfig,
    ParamTable,
    dregcn_layer_forward,
    encode_shared,
    init_dregcn_layer,
    init_encoder_params,
    init_relation_table,
    normalize_adjacency,
    relation_counts,
    relation_messages,
)
from oracles import dense_relations, dregcn_double_sum, gcn_reference
from test_corpus import simple_sentence

RNG = np.random.default_rng(7)


def random_graph(rng, n, n_types):
    """Adjacency and relation counts of a random parse tree whose arcs are
    typed r1 .. r{n_types - 1} over the vocabulary <self>, r1, ..."""
    order = rng.permutation(n)
    heads = [None] * n
    for k in range(1, n):
        heads[order[k]] = int(order[rng.integers(0, k)])
    rels = tuple(f"r{rng.integers(1, n_types)}" for _ in range(n))
    s = Sentence(("w",) * n, ("O",) * n, ("none",) * n, tuple(heads), rels)
    rv = RelationVocab({SELF_RELATION: 0, **{f"r{k}": k for k in range(1, n_types)}})
    g = build_dependency_graph([s], rv)
    return g.adjacency[0], relation_counts(g.adjacency, g.relation_indicator, rv.size)[0]


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(mode="bogus")
    cfg = EncoderConfig(mode="cnn_only")
    assert cfg.uses_cnn and not cfg.uses_graph
    cfg2 = EncoderConfig(mode="dregcn_plus_cnn")
    assert cfg2.uses_cnn and cfg2.uses_graph


def test_normalize_adjacency_symmetric():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    norm = normalize_adjacency(a)
    np.testing.assert_allclose(norm, 0.5)


def test_gcn_layer_matches_manual_formula():
    d, n = 6, 4
    layer = init_dregcn_layer(ParamTable(np.random.default_rng(1)), "gcn", d, 0)
    h = Tensor(RNG.normal(size=(n, d)))
    a, _ = random_graph(RNG, n, 3)
    out = dregcn_layer_forward(h, a, None, layer)
    expect = gcn_reference(h.data, a, layer.weight.data, layer.bias.data)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_dregcn_layer_matches_double_sum_oracle():
    d, m = 5, 3
    rng = np.random.default_rng(2)
    s = Sentence(
        ("the", "screen", "is", "very", "great"),
        ("O", "BA", "O", "O", "BP"),
        ("none", "pos", "none", "none", "none"),
        (1, 4, 4, 4, None),
        ("det", "nsubj", "cop", "advmod", "root"),
    )
    h = Tensor(RNG.normal(size=(1, s.n, d)))
    for distinct in (False, True):
        rv = RelationVocab.from_corpus([s], distinct_reverse_types=distinct)
        g = build_dependency_graph([s], rv, distinct_reverse_types=distinct)
        p = ParamTable(rng)
        layer = init_dregcn_layer(p, "dregcn", d, m)
        table = init_relation_table(p, rv.size, m)
        q = dense_relations(s, rv, distinct)
        for a in (g.adjacency, normalize_adjacency(g.adjacency)):
            counts = relation_counts(a, g.relation_indicator, rv.size)
            out = dregcn_layer_forward(h, a, relation_messages(counts, table), layer)
            expect = dregcn_double_sum(
                h.data[0], a[0], q, layer.weight.data, layer.bias.data, table.data
            )[None]
            np.testing.assert_allclose(out.data, expect, atol=1e-10)


def test_dregcn_m0_reduces_to_gcn():
    d, n = 6, 5
    p = ParamTable(np.random.default_rng(3))
    layer = init_dregcn_layer(p, "dregcn", d, 0)
    table = init_relation_table(p, 4, 0)
    h = Tensor(RNG.normal(size=(n, d)))
    a, c = random_graph(RNG, n, 4)
    out_dre = dregcn_layer_forward(h, a, relation_messages(c, table), layer)
    out_gcn = gcn_reference(h.data, a, layer.weight.data, layer.bias.data)
    assert np.abs(out_dre.data - out_gcn.data).max() <= 1e-12


def test_dregcn_zero_relations_reduce_to_gcn():
    # alternative route: m > 0 but R = 0, identical to the node-only path
    d, m, n = 6, 3, 5
    layer = init_dregcn_layer(ParamTable(np.random.default_rng(4)), "dregcn", d, m)
    table = Tensor(np.zeros((4, m)))
    h = Tensor(RNG.normal(size=(n, d)))
    a, c = random_graph(RNG, n, 4)
    out_dre = dregcn_layer_forward(h, a, relation_messages(c, table), layer)
    out_gcn = gcn_reference(h.data, a, layer.weight.data[:, :d], layer.bias.data)
    assert np.abs(out_dre.data - out_gcn.data).max() <= 1e-12


def test_dregcn_rejects_inconsistent_indicator():
    d, m, n = 4, 2, 3
    p = ParamTable(np.random.default_rng(5))
    layer = init_dregcn_layer(p, "dregcn", d, m)
    table = init_relation_table(p, 3, m)
    h = Tensor(RNG.normal(size=(n, d)))
    a, c = random_graph(RNG, n, 3)
    with pytest.raises(ContractViolation):
        relation_messages(c[:, :2], table)
    with pytest.raises(ContractViolation):
        dregcn_layer_forward(h, a, relation_messages(c[:2], table), layer)


def test_encode_shared_output_width_per_mode():
    s = simple_sentence()
    rv = RelationVocab.from_corpus([s])
    graph = build_dependency_graph([s], rv)
    emb = Tensor(RNG.normal(size=(1, s.n, 7)))
    for mode in ("cnn_only", "vanilla_gcn", "dregcn", "dregcn_plus_cnn"):
        cfg = EncoderConfig(mode=mode, gcn_layers=2, cnn_layers=1, d=10, m=4)
        params = init_encoder_params(ParamTable(np.random.default_rng(6)), cfg, 7, rv.size)
        out = encode_shared(emb, graph if cfg.uses_graph else None, cfg, params)
        assert out.shape == (1, s.n, 10), mode


def test_encode_shared_requires_graph_for_gcn_modes():
    cfg = EncoderConfig(mode="dregcn", d=8, m=4)
    params = init_encoder_params(ParamTable(np.random.default_rng(8)), cfg, 7, 5)
    emb = Tensor(RNG.normal(size=(4, 7)))
    with pytest.raises(ContractViolation):
        encode_shared(emb, None, cfg, params)


def test_normalized_adjacency_option_changes_output():
    s = simple_sentence()
    rv = RelationVocab.from_corpus([s])
    graph = build_dependency_graph([s], rv)
    emb = Tensor(RNG.normal(size=(1, s.n, 7)))
    outs = []
    for norm in (False, True):
        cfg = EncoderConfig(mode="vanilla_gcn", d=8, normalize_adjacency=norm)
        params = init_encoder_params(ParamTable(np.random.default_rng(9)), cfg, 7, rv.size)
        outs.append(encode_shared(emb, graph, cfg, params).data)
    assert np.abs(outs[0] - outs[1]).max() > 1e-6
