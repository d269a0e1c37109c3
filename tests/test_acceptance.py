"""End-to-end acceptance suite. Each test covers one numbered criterion and
prints a single PASS line with the measured quantities; a failed assertion is
the corresponding FAIL line."""

import json
import pathlib
import time

import numpy as np
import pytest

from dregcn_absa import cli
from dregcn_absa.autodiff import Tensor, bilinear_attention
from dregcn_absa.corpus import (
    RelationVocab,
    Sentence,
    parse_corpus_file,
    random_embedding_table,
    split_train_dev,
)
from dregcn_absa.encoder import (
    EncoderConfig,
    ParamTable,
    dregcn_layer_forward,
    init_dregcn_layer,
    init_relation_table,
    relation_messages,
)
from dregcn_absa.evaluation import corpus_metrics
from dregcn_absa.heads import (
    MessagePassingConfig,
    attention_constants,
    distance_factors,
    forward_rounds,
    init_ae_head,
    init_as_head,
    init_re_encoder,
    message_width,
)
from dregcn_absa.model import Model, ModelConfig
from dregcn_absa.training import (
    TrainConfig,
    as_loss_mask,
    batch_loss,
    joint_loss,
    multi_run,
    train,
)
from dregcn_absa.autodiff import Tape, backward

import synth
from oracles import brute_force_metrics, gcn_reference, random_metric_corpus, token_accuracy
from test_encoder import random_graph

SEMEVAL_DIR = pathlib.Path(__file__).resolve().parents[1] / "data" / "semeval14_laptop"


def report(num, detail):
    print(f"criterion {num:02d} PASS — {detail}")


def test_criterion_01_gradient_correctness():
    started = time.time()
    checks = cli.gradcheck_suite(seed=0)
    elapsed = time.time() - started
    worst = max(err for _, err in checks)
    layer_names = {name for name, _ in checks}
    assert {"gcn_layer", "dregcn_layer", "cnn_layer", "full_model_T2"} <= layer_names
    failed = [(n, e) for n, e in checks if e >= 1e-4]
    assert not failed, f"gradcheck failures: {failed}"
    assert elapsed < 60, f"gradcheck took {elapsed:.1f}s"
    report(1, f"{len(checks)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_loss_mask_invariance():
    corpus = synth.overfit_corpus(6, seed=4)
    rng = np.random.default_rng(0)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 6, rng)
    domain = random_embedding_table(words, 3, rng)
    cfg = ModelConfig(
        encoder=EncoderConfig(mode="dregcn", gcn_layers=1, d=8, m=4),
        mp=MessagePassingConfig("none", 0), d_t=4, dropout=0.0,
    )
    model = Model(cfg, general, domain, RelationVocab.from_corpus(corpus), rng)

    # (a) AS probabilities outside gold aspect tokens never touch the loss
    for s in corpus:
        out = model.forward(s)
        base = float(joint_loss(out, s).data)
        mask = as_loss_mask(s.ae_tags)
        out[-1].yas.data[0, ~mask] = rng.dirichlet(np.ones(3), size=(~mask).sum())
        assert float(joint_loss(out, s).data) == base  # exact, no tolerance

    # (b) aspect-free batches leave every AS-head parameter gradient at 0
    aspect_free = [
        Sentence(("it", "works"), ("O", "O"), ("none", "none"), (1, None), ("nsubj", "root")),
        Sentence(("so", "it", "goes"), ("O", "BP", "O"), ("none", "none", "none"),
                 (2, 2, None), ("advmod", "nsubj", "root")),
    ]
    with Tape() as tape:
        loss = batch_loss(model, aspect_free, rng)
    backward(tape, loss, params=list(model.parameters().values()))
    for name, p in model.parameters().items():
        if name.startswith("as/"):
            assert (p.grad == 0).all(), f"nonzero AS gradient in {name}"
    report(2, "loss exactly invariant; AS-head gradients exactly 0 on aspect-free batches")


def test_criterion_03_attention_contract():
    rng = np.random.default_rng(13)
    d_t = 6
    worst_row_gap = 0.0
    for draw in range(1000):
        n = int(rng.integers(2, 9))
        head = init_as_head(ParamTable(rng), 10, d_t)
        has = Tensor(rng.normal(size=(n, d_t)))
        pop = Tensor(rng.random(n))
        m = bilinear_attention(has, head.bilinear, pop, *attention_constants(n)).data
        assert (np.diag(m) == 0).all(), f"draw {draw}: nonzero diagonal"
        gap = np.abs(m.sum(axis=1) - 1.0).max()
        worst_row_gap = max(worst_row_gap, gap)
        assert gap <= 1e-9, f"draw {draw}: row sum off by {gap:.2e}"
    assert distance_factors(8)[2, 5] == 1 / 3
    report(3, f"1000 draws, worst row-sum deviation {worst_row_gap:.1e}, factor(2,5)=1/3")


def test_criterion_04_reduction_equivalence():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(3, 9))
        n_types = int(rng.integers(2, 6))
        p = ParamTable(rng)
        layer = init_dregcn_layer(p, "dregcn", d, 0)
        table = init_relation_table(p, n_types, 0)
        h = Tensor(rng.normal(size=(n, d))[None])
        a, arcs = random_graph(rng, n, n_types)
        gap = np.abs(
            dregcn_layer_forward(h, a, relation_messages(a, arcs, table), layer).data
            - gcn_reference(h.data, a, layer.weight.data, layer.bias.data)
        ).max()
        worst = max(worst, gap)
    assert worst <= 1e-12, f"max deviation {worst:.2e}"
    report(4, f"100 instances, max |dregcn(m=0) - gcn| = {worst:.1e}")


def test_criterion_05_metric_oracle():
    # predicted aspect spans [0,1) and [3,5) against gold [0,1) and [2,4)
    gold = Sentence(
        ("a", "b", "c", "d", "e"), ("BA", "O", "BA", "IA", "O"),
        ("pos", "none", "pos", "pos", "none"), (None, 0, 1, 2, 3),
        ("root", "dep", "dep", "dep", "dep"),
    )
    hand = corpus_metrics([(["BA", "O", "O", "BA", "IA"], ["pos"] * 5)], [gold])
    assert hand.f1_a == 0.5
    rng = np.random.default_rng(29)
    for trial in range(1000):
        preds, gold = random_metric_corpus(rng)
        got = corpus_metrics(preds, gold)
        expect = brute_force_metrics(preds, gold)
        actual = (got.f1_a, got.f1_o, got.acc_s, got.f1_s, got.f1_i)
        assert actual == pytest.approx(expect, abs=0), f"trial {trial}"
    report(5, "hand case F1=0.5; 1000 random corpora agree exactly with enumerator")


def test_criterion_06_overfit_sanity():
    corpus = synth.overfit_corpus(10, seed=7)
    rng = np.random.default_rng(0)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 16, rng)
    domain = random_embedding_table(words, 8, rng)
    model_cfg = ModelConfig(
        encoder=EncoderConfig(mode="dregcn_plus_cnn", gcn_layers=2, cnn_layers=2, d=32, m=16),
        mp=MessagePassingConfig("representations", 2), d_t=16, dropout=0.5,
    )
    tc = TrainConfig(learning_rate=0.0005, batch_size=50, epochs=200, seed=0, runs=1)
    started = time.time()
    result = train(corpus, tc, model_cfg, general, domain)
    elapsed = time.time() - started
    train_set, _ = split_train_dev(corpus, tc.dev_ratio, tc.seed)
    ae_acc, as_acc = token_accuracy(result.model, train_set)
    assert elapsed < 300, f"training took {elapsed:.0f}s"
    assert ae_acc >= 0.99, f"AE token accuracy {ae_acc:.3f}"
    assert as_acc >= 0.99, f"AS token accuracy {as_acc:.3f}"
    report(6, f"AE acc {ae_acc:.3f}, AS acc {as_acc:.3f} after 200 epochs in {elapsed:.1f}s")


def test_criterion_07_relation_type_separability():
    train_c = synth.relation_type_corpus(60, seed=11, leaves=4)
    test_c = synth.relation_type_corpus(200, seed=12, leaves=4)
    rng = np.random.default_rng(3)
    general = random_embedding_table(["tok"], 16, rng)
    domain = random_embedding_table(["tok"], 8, rng)

    ae_maj, as_maj = synth.majority_baseline_tags(train_c, 5)
    majority = corpus_metrics([(ae_maj, as_maj)] * len(test_c), test_c).f1_i

    scores = {}
    for mode in ("vanilla_gcn", "dregcn"):
        model_cfg = ModelConfig(
            encoder=EncoderConfig(mode=mode, gcn_layers=2, d=16, m=16),
            mp=MessagePassingConfig("none", 0), d_t=8, dropout=0.0,
        )
        tc = TrainConfig(learning_rate=0.01, batch_size=50, epochs=80, seed=0, runs=5)
        rep = multi_run(
            train_c, tc, model_cfg, general, domain,
            eval_corpus=test_c, use_best=False,
        )
        scores[mode] = rep.averaged.f1_i

    assert scores["vanilla_gcn"] <= majority + 0.05, (
        f"vanilla {scores['vanilla_gcn']:.3f} > majority {majority:.3f} + 0.05"
    )
    assert scores["dregcn"] >= 0.90, f"dregcn {scores['dregcn']:.3f} < 0.90"
    assert scores["dregcn"] - scores["vanilla_gcn"] >= 0.30
    report(
        7,
        f"majority {100 * majority:.1f}, vanilla {100 * scores['vanilla_gcn']:.1f}, "
        f"dregcn {100 * scores['dregcn']:.1f} F1-I over 5 seeds",
    )


def test_criterion_08_message_passing_plumbing():
    d_s, d_t = 12, 5
    assert message_width("predictions", d_t) == 8
    assert message_width("representations", d_t) == 3 * d_t
    rng = np.random.default_rng(31)
    assert init_re_encoder(ParamTable(rng), d_s, "predictions", d_t, False).weight.shape == (
        d_s, d_s + 8,
    )
    assert init_re_encoder(ParamTable(rng), d_s, "representations", d_t, False).weight.shape == (
        d_s, d_s + 3 * d_t,
    )

    p = ParamTable(rng)
    ae_head = init_ae_head(p, d_s, d_t)
    as_head = init_as_head(p, d_s, d_t)
    re = init_re_encoder(p, d_s, "representations", d_t, False)
    hs0 = Tensor(rng.normal(size=(6, d_s)))
    out_none = forward_rounds(hs0, ae_head, as_head, None, MessagePassingConfig("none", 0))
    out_t0 = forward_rounds(hs0, ae_head, as_head, re, MessagePassingConfig("representations", 0))
    np.testing.assert_array_equal(out_none[-1].yae.data, out_t0[-1].yae.data)
    np.testing.assert_array_equal(out_none[-1].yas.data, out_t0[-1].yas.data)
    np.testing.assert_array_equal(out_none[-1].has_pre.data, out_t0[-1].has_pre.data)
    np.testing.assert_array_equal(out_none[-1].context.data, out_t0[-1].context.data)
    report(8, "widths 8 and 3*d_t verified; variant=none bit-equal to T=0")


def test_criterion_09_checkpoint_determinism(tmp_path, fixtures_dir):
    corpus = tmp_path / "train.corpus"
    corpus.write_text("\n".join([(fixtures_dir / "tiny.corpus").read_text()] * 4))
    config = tmp_path / "small.conf"
    config.write_text(
        "d = 8\nm = 4\nd_t = 4\ngeneral_dim = 6\ndomain_dim = 3\n"
        "gcn_layers = 1\ncnn_layers = 1\nepochs = 2\nruns = 1\nbatch_size = 4\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["train", "--corpus", str(corpus), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    bytes_a = (outs[0] / "checkpoint_seed0.npz").read_bytes()
    bytes_b = (outs[1] / "checkpoint_seed0.npz").read_bytes()
    assert bytes_a == bytes_b, "checkpoints differ between identical runs"
    # the metric sections of the manifests must agree too
    ma = json.loads((outs[0] / "manifest.json").read_text())
    mb = json.loads((outs[1] / "manifest.json").read_text())
    assert ma["averaged"] == mb["averaged"] and ma["per_run"] == mb["per_run"]
    report(9, f"two cmd_train runs, {len(bytes_a)} checkpoint bytes bit-identical")


def test_criterion_10_semeval_laptop_stats():
    train_path = SEMEVAL_DIR / "train.corpus"
    test_path = SEMEVAL_DIR / "test.corpus"
    if not (train_path.exists() and test_path.exists()):
        pytest.skip(f"criterion 10 SKIP — no corpus at {SEMEVAL_DIR}")
    from dregcn_absa.corpus import corpus_stats

    tr = corpus_stats(parse_corpus_file(train_path.read_text()))
    te = corpus_stats(parse_corpus_file(test_path.read_text()))
    assert (tr.sentences, tr.aspect_terms, tr.opinion_terms) == (3048, 2373, 2504)
    assert (te.sentences, te.aspect_terms, te.opinion_terms) == (800, 654, 674)
    report(10, "SemEval-14 Laptop counts match exactly")
