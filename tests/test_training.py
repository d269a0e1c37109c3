import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from dregcn_absa import heads
from dregcn_absa.autodiff import Tape, Tensor, backward
from dregcn_absa.corpus import EmbeddingMatrix, RelationVocab, Sentence, random_embedding_table
from dregcn_absa.encoder import MODES, EncoderConfig
from dregcn_absa.heads import MessagePassingConfig
from dregcn_absa.model import (
    CheckpointError,
    Model,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from dregcn_absa.evaluation import corpus_metrics
from dregcn_absa.training import (
    MAX_BUCKET,
    AdamState,
    NumericError,
    TrainConfig,
    adam_step,
    as_loss_mask,
    batch_loss,
    evaluate_model,
    joint_loss,
    length_buckets,
    multi_run,
    predict_sentence_tags,
    predict_tags,
    train,
)

import synth
from oracles import backward_keep_all, random_gold_sentence


def small_model_config(mode="dregcn", variant="none", rounds=0, dropout=0.0):
    return ModelConfig(
        encoder=EncoderConfig(mode=mode, gcn_layers=1, cnn_layers=1, d=8, m=4),
        mp=MessagePassingConfig(variant, rounds),
        d_t=4,
        dropout=dropout,
    )


def build_model(corpus, cfg=None, seed=0):
    cfg = cfg or small_model_config()
    rng = np.random.default_rng(seed)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 6, rng)
    domain = random_embedding_table(words, 3, rng)
    rv = RelationVocab.from_corpus(corpus)
    return Model(cfg, general, domain, rv, rng), general, domain


# ---------------------------------------------------------------------------
# loss


def test_as_loss_mask():
    np.testing.assert_array_equal(
        as_loss_mask(["BA", "IA", "BP", "IP", "O"]), [True, True, False, False, False]
    )


def test_joint_loss_matches_manual_formula(tiny_corpus):
    model, _, _ = build_model(tiny_corpus)
    s = tiny_corpus[0]
    out = model.forward(s)
    loss = joint_loss(out, s)

    from dregcn_absa.corpus import AE_INDEX, AS_INDEX

    yae, yas = out.final.yae.data[0], out.final.yas.data[0]
    expect = 0.0
    for i in range(s.n):
        expect += -np.log(yae[i, AE_INDEX[s.ae_tags[i]]]) / s.n
        if s.ae_tags[i] in ("BA", "IA"):
            expect += -np.log(yas[i, AS_INDEX[s.as_tags[i]]]) / s.n
    assert float(loss.data) == pytest.approx(expect, rel=1e-12)


def test_loss_ignores_as_probs_outside_aspects(tiny_corpus):
    model, _, _ = build_model(tiny_corpus)
    s = tiny_corpus[0]
    out = model.forward(s)
    base = float(joint_loss(out, s).data)
    mask = as_loss_mask(s.ae_tags)
    # scramble AS rows on non-aspect tokens
    yas = out.final.yas.data[0]
    yas[~mask] = np.roll(yas[~mask], 1, axis=1)
    perturbed = float(joint_loss(out, s).data)
    assert perturbed == base  # exactly, not approximately


def test_aspect_free_batch_gives_zero_as_head_gradient(tiny_corpus):
    aspect_free = Sentence(
        ("it", "works", "fine"),
        ("O", "O", "O"),
        ("none", "none", "none"),
        (1, None, 1),
        ("nsubj", "root", "advmod"),
    )
    model, _, _ = build_model(tiny_corpus)
    params = model.parameters()
    with Tape() as tape:
        loss = batch_loss(model, [aspect_free], np.random.default_rng(0))
    backward(tape, loss, params=list(params.values()))
    for name, p in params.items():
        if name.startswith("as/"):
            assert p.grad is not None and (p.grad == 0).all(), name
    # sanity: the AE head does receive gradient
    assert np.abs(params["ae/out_w"].grad).max() > 0


# ---------------------------------------------------------------------------
# backward frees each intermediate gradient


def _taped(tape):
    """Every tensor on the tape in order: each op's output, then its inputs."""
    return [t for op in tape.ops for t in (op.output, *op.inputs) if isinstance(t, Tensor)]


@pytest.mark.parametrize("mode", MODES)
def test_backward_matches_the_keep_every_gradient_reference(mode):
    """A bucketed batch loss, dropout on: parameter gradients bit-identical
    to the reference backward's. Afterwards no op output outside `params`
    holds a gradient, leaves keep the reference's, and the tape its ops."""
    rng = np.random.default_rng(5)
    batch = [random_gold_sentence(rng, n) for n in (3, 4, 7, 9, 12, 16)]  # padded buckets
    cfg = small_model_config(mode=mode, variant="representations", rounds=2, dropout=0.5)
    model, _, _ = build_model(batch, cfg)
    params = list(model.parameters().values())
    grads = []
    for run in (backward_keep_all, backward):
        with Tape() as tape:
            loss = batch_loss(model, batch, np.random.default_rng(1))
        n_ops = len(tape.ops)
        run(tape, loss, params=params)
        assert len(tape.ops) == n_ops
        grads.append([None if t.grad is None else t.grad.tobytes() for t in _taped(tape) + params])
    reference, lean = grads
    assert lean[-len(params):] == reference[-len(params):]
    kept, outputs = {id(p) for p in params}, {id(op.output) for op in tape.ops}
    for t, g, ref in zip(_taped(tape), lean, reference):
        if id(t) in outputs and id(t) not in kept:
            assert g is None
        else:  # a leaf or a parameter keeps what the reference gave it
            assert g == ref


def test_backward_peak_stays_below_half_the_tape():
    """On a B = 8 bucket of 45-60-token sentences, the memory that backward
    adds at its peak is at most half of what the tape holds when it starts
    (about 0.8 when every intermediate gradient is kept, 0.25 here)."""
    rng = np.random.default_rng(3)
    batch = [random_gold_sentence(rng, int(n)) for n in rng.integers(45, 61, size=8)]
    model, _, _ = build_model(batch, ModelConfig())
    params = list(model.parameters().values())
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = batch_loss(model, batch, np.random.default_rng(1))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss, params=params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 0.5 * start


# ---------------------------------------------------------------------------
# adam


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(3,)))
    ref = p.data.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    state = AdamState()
    lr = 0.1
    for t in range(1, 4):
        g = rng.normal(size=3)
        p.grad = g.copy()
        adam_step({"p": p}, state, lr)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.data, ref, atol=1e-15)


def test_adam_rejects_non_finite_gradient():
    p = Tensor(np.ones(2))
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(NumericError, match="p"):
        adam_step({"p": p}, AdamState(), 0.1)


# ---------------------------------------------------------------------------
# prediction and training loop


def test_predict_masks_as_outside_predicted_spans(tiny_corpus):
    model, _, _ = build_model(tiny_corpus)
    s = tiny_corpus[0]
    ae_tags, as_tags = predict_sentence_tags(model, s)
    assert len(ae_tags) == len(as_tags) == s.n
    from dregcn_absa.evaluation import decode_spans

    inside = set()
    for span in decode_spans(ae_tags):
        if span.kind == "aspect":
            inside.update(range(span.start, span.end))
    for i in range(s.n):
        if i in inside:
            assert as_tags[i] in ("pos", "neg", "neu")
        else:
            assert as_tags[i] == "none"


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(runs=0)


def test_train_is_deterministic_under_seed():
    corpus = synth.overfit_corpus(6, seed=1)
    rng = np.random.default_rng(0)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 6, rng)
    domain = random_embedding_table(words, 3, rng)
    cfg = small_model_config(dropout=0.5)
    tc = TrainConfig(learning_rate=0.01, batch_size=4, epochs=3, seed=5, runs=1)
    a = train(corpus, tc, cfg, general, domain)
    b = train(corpus, tc, cfg, general, domain)
    for name in a.final_snapshot:
        np.testing.assert_array_equal(a.final_snapshot[name], b.final_snapshot[name])
    assert a.history == b.history
    c = train(corpus, TrainConfig(learning_rate=0.01, batch_size=4, epochs=3, seed=6, runs=1),
              cfg, general, domain)
    assert any(
        np.abs(a.final_snapshot[k] - c.final_snapshot[k]).max() > 0 for k in a.final_snapshot
    )


def test_train_loss_decreases():
    corpus = synth.overfit_corpus(8, seed=2)
    rng = np.random.default_rng(0)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 6, rng)
    domain = random_embedding_table(words, 3, rng)
    tc = TrainConfig(learning_rate=0.01, batch_size=8, epochs=15, seed=0, runs=1)
    result = train(corpus, tc, small_model_config(), general, domain)
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
    assert result.best_dev_f1_i >= 0.0


def test_multi_run_average_is_mean_of_runs():
    corpus = synth.overfit_corpus(8, seed=3)
    rng = np.random.default_rng(0)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 6, rng)
    domain = random_embedding_table(words, 3, rng)
    tc = TrainConfig(learning_rate=0.01, batch_size=8, epochs=2, seed=0, runs=3)
    report = multi_run(corpus, tc, small_model_config(), general, domain)
    assert report.seeds == [0, 1, 2]
    assert report.averaged.f1_i == pytest.approx(
        np.mean([r.f1_i for r in report.per_run])
    )
    assert len(report.results) == 3
    for result in report.results:  # each model holds its best snapshot
        for name, value in result.model.snapshot().items():
            np.testing.assert_array_equal(value, result.best_snapshot[name])


def _footprint(obj, path="model"):
    """(path, size) for every container and array reachable from obj."""
    if isinstance(obj, np.ndarray):
        yield path, obj.shape
    elif isinstance(obj, Tensor):
        yield from _footprint(obj.data, path + ".data")
        yield from _footprint(obj.grad, path + ".grad")
    elif isinstance(obj, dict):
        yield path, len(obj)
        for k, v in obj.items():
            yield from _footprint(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple)):
        yield path, len(obj)
        for i, v in enumerate(obj):
            yield from _footprint(v, f"{path}[{i}]")
    elif hasattr(obj, "__dict__"):
        yield path, sorted(vars(obj))
        for k, v in vars(obj).items():
            yield from _footprint(v, f"{path}.{k}")


@pytest.mark.parametrize("mode", ["dregcn_plus_cnn", "vanilla_gcn", "cnn_only"])
def test_forward_keeps_no_per_sentence_state(tiny_corpus, mode):
    cfg = small_model_config(mode=mode, variant="representations", rounds=2, dropout=0.5)
    model, _, _ = build_model(tiny_corpus, cfg)
    before = list(_footprint(model))
    rng = np.random.default_rng(1)
    for s in tiny_corpus * 3:
        model.forward(s)
        model.forward(s, model.dropout_masks([s], rng))
    assert list(_footprint(model)) == before


def test_lone_sentence_forward_builds_its_constants_once(tiny_corpus, monkeypatch):
    """The attention tables are shared per length: after a first forward at
    each length, repeat forwards build no distance factors at all."""
    model, _, _ = build_model(tiny_corpus, ModelConfig())
    for s in tiny_corpus:
        model.forward(s)
    calls = []
    factors = heads.distance_factors

    def counted(n):
        calls.append(n)
        return factors(n)

    monkeypatch.setattr(heads, "distance_factors", counted)
    for s in tiny_corpus:
        with Tape() as tape:
            joint_loss(model.forward(s), s)
        assert len(tape.ops) == 62
    assert calls == []


@pytest.mark.parametrize("mode", MODES)
def test_initial_parameters_keep_their_recorded_draws(fixtures_dir, mode):
    """Each parameter of a new default model, in declaration order, hashes
    as recorded in fixtures/initial_parameters.json. PCG64 draws do not
    depend on BLAS, so this pins the draw order that checkpoints depend on."""
    recorded = json.loads((fixtures_dir / "initial_parameters.json").read_text())[mode]
    vocab = {"good": 0, "screen": 1, "battery": 2}
    general = EmbeddingMatrix(vocab, np.arange(64.0).reshape(4, 16) / 64, 16)
    domain = EmbeddingMatrix(vocab, np.arange(32.0).reshape(4, 8) / 32, 8)
    rv = RelationVocab({"<self>": 0, "<unk>": 1, "nsubj": 2, "amod": 3, "det": 4})
    cfg = ModelConfig(encoder=EncoderConfig(mode=mode))
    model = Model(cfg, general, domain, rv, np.random.default_rng(0))
    digests = [(k, hashlib.sha256(p.data.tobytes()).hexdigest()) for k, p in model.parameters().items()]
    assert digests == list(recorded.items())


def test_parameters_share_no_memory_with_their_sources(tmp_path):
    corpus = synth.overfit_corpus(6, seed=1)
    rng = np.random.default_rng(0)
    words = [w for s in corpus for w in s.tokens]
    general = random_embedding_table(words, 6, rng)
    domain = random_embedding_table(words, 3, rng)
    tables = general.matrix.copy(), domain.matrix.copy()
    tc = TrainConfig(learning_rate=0.01, batch_size=4, epochs=2, seed=0, runs=1)
    result = train(corpus, tc, small_model_config(), general, domain)
    # training fine-tuned copies of the tables, not the caller's arrays
    np.testing.assert_array_equal(general.matrix, tables[0])
    np.testing.assert_array_equal(domain.matrix, tables[1])
    assert np.abs(result.model.general_param.data - tables[0]).max() > 0

    path = str(tmp_path / "model.npz")
    save_checkpoint(result.model, path)
    loaded = load_checkpoint(path)
    arrays = [p.data for p in loaded.parameters().values()]
    arrays += [loaded.general_emb.matrix, loaded.domain_emb.matrix]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    snapshot = loaded.snapshot()
    loaded.restore(snapshot)
    for name, p in loaded.parameters().items():
        assert not np.shares_memory(p.data, snapshot[name]), name


def test_freeze_embeddings_excludes_tables(tiny_corpus):
    cfg = small_model_config()
    cfg.freeze_embeddings = True
    model, _, _ = build_model(tiny_corpus, cfg)
    names = model.trainable_parameters()
    assert not any(n.startswith("emb/") for n in names)
    assert any(n.startswith("emb/") for n in model.parameters())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tiny_corpus, tmp_path):
    cfg = small_model_config(mode="dregcn_plus_cnn", variant="representations", rounds=2)
    model, _, _ = build_model(tiny_corpus, cfg)
    path = str(tmp_path / "model.npz")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == model.cfg
    assert loaded.relation_vocab.index == model.relation_vocab.index
    a, b = model.parameters(), loaded.parameters()
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    # forward agreement on a real sentence
    s = tiny_corpus[0]
    np.testing.assert_array_equal(
        model.forward(s).final.yae.data, loaded.forward(s).final.yae.data
    )


_CNN_KEYS = (
    "enc/cnn0_conv0_w", "enc/cnn0_conv0_b", "enc/cnn0_conv1_w", "enc/cnn0_conv1_b",
    "enc/cnn0_proj_w", "enc/cnn0_proj_b",
)
_DREGCN_KEYS = (
    "enc/relations", "enc/dregcn0_w", "enc/dregcn0_b", "enc/dregcn1_w", "enc/dregcn1_b",
)
ENCODER_KEYS = {
    "cnn_only": _CNN_KEYS,
    "vanilla_gcn": ("enc/gcn0_w", "enc/gcn0_b", "enc/gcn1_w", "enc/gcn1_b"),
    "dregcn": _DREGCN_KEYS,
    "dregcn_plus_cnn": _DREGCN_KEYS + _CNN_KEYS + ("enc/combine_w", "enc/combine_b"),
}


@pytest.mark.parametrize("mode", sorted(ENCODER_KEYS))
def test_checkpoint_parameter_names_and_order(tiny_corpus, tmp_path, mode):
    cfg = ModelConfig(
        encoder=EncoderConfig(mode=mode, gcn_layers=2, cnn_layers=1, d=8, m=4),
        mp=MessagePassingConfig("representations", 2),
        d_t=4,
    )
    model, _, _ = build_model(tiny_corpus, cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(model, str(path))
    with np.load(path) as data:
        files = list(data.files)
    expect = (
        ("emb/general", "emb/domain", "enc/in_w", "enc/in_b")
        + ENCODER_KEYS[mode]
        + ("ae/hidden_w", "ae/hidden_b", "ae/out_w", "ae/out_b")
        + ("as/hidden_w", "as/hidden_b", "as/bilinear", "as/out_w", "as/out_b", "re/w", "re/b")
    )
    assert files == ["meta"] + [f"param:{k}" for k in expect]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_synth_majority_baseline_is_constant_ceiling():
    corpus = synth.relation_type_corpus(40, seed=11, leaves=4)
    ae, asx = synth.majority_baseline_tags(corpus, 5)
    assert len(ae) == len(asx) == 5
    assert ae[0] == "O" and asx[0] == "none"  # the hub is never an aspect


def test_bucketed_prediction_equals_one_sentence_at_a_time(tiny_corpus):
    rng = np.random.default_rng(5)
    generated = [random_gold_sentence(rng, int(n)) for n in np.clip(rng.normal(18, 12, 160), 1, 80)]
    cfg = small_model_config(mode="dregcn_plus_cnn", variant="representations", rounds=2)
    for corpus in (tiny_corpus, generated):
        model, _, _ = build_model(corpus, cfg)
        alone = [predict_sentence_tags(model, s) for s in corpus]
        assert predict_tags(model, corpus) == alone
        assert evaluate_model(model, corpus) == corpus_metrics(alone, corpus)


def test_length_buckets_share_log2_length_and_cover_the_corpus():
    rng = np.random.default_rng(6)
    corpus = [random_gold_sentence(rng, int(n)) for n in rng.integers(1, 81, size=300)]
    buckets = length_buckets(corpus)
    assert sorted(i for b in buckets for i in b) == list(range(len(corpus)))
    for b in buckets:
        assert 1 <= len(b) <= MAX_BUCKET and b == sorted(b)
        assert len({int(np.ceil(np.log2(corpus[i].n))) for i in b}) == 1
