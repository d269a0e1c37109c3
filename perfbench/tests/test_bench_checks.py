"""Each benchmark check passes on right inputs and rejects a wrong one."""

import numpy as np
import pytest

import checks
import gen
from dregcn_absa.autodiff import Tape, backward
from dregcn_absa.corpus import RelationVocab, parse_corpus_file, random_embedding_table
from dregcn_absa.evaluation import corpus_metrics, decode_spans
from dregcn_absa.model import Model, ModelConfig
from dregcn_absa.training import joint_loss

AE = ("BA", "IA", "BP", "IP", "O")


def random_tags(rng, n):
    ae = [AE[i] for i in rng.choice(5, size=n, p=(0.15, 0.1, 0.1, 0.05, 0.6))]
    asx = ["none"] * n
    for kind, a, b in checks.bio_spans(ae):
        if kind == "aspect":
            asx[a:b] = [checks.POLARITIES[int(rng.integers(3))]] * (b - a)
    return ae, asx


@pytest.fixture(scope="module")
def corpus():
    sents = gen.make_corpus(np.random.default_rng(4), 60)
    return sents, parse_corpus_file(gen.corpus_text(sents))


def test_bio_spans_agree_with_the_program_decoder():
    rng = np.random.default_rng(0)
    for _ in range(500):
        ae, _ = random_tags(rng, int(rng.integers(1, 20)))
        ours = sorted((a, b, kind) for kind, a, b in checks.bio_spans(ae))
        theirs = sorted((s.start, s.end, s.kind) for s in decode_spans(ae))
        assert ours == theirs


def test_scorer_agrees_with_corpus_metrics(corpus):
    gold, parsed = corpus
    rng = np.random.default_rng(1)
    preds = [random_tags(rng, len(s.tokens)) for s in gold]
    # keep a share of gold spans so that every metric is away from 0
    preds[: len(preds) // 2] = [(s.ae_tags, s.as_tags) for s in gold[: len(preds) // 2]]
    report = corpus_metrics(preds, parsed)
    gold_tags = [(s.ae_tags, s.as_tags) for s in gold]
    assert checks.scorer_mismatches(preds, gold_tags, report) == []
    assert 0 < report.f1_i < 1 and 0 < report.acc_s < 1


def test_scorer_rejects_a_perturbed_prediction(corpus):
    gold, parsed = corpus
    preds = [(list(s.ae_tags), list(s.as_tags)) for s in gold]
    report = corpus_metrics(preds, parsed)
    k = next(i for i, s in enumerate(gold) if "BA" in s.ae_tags)
    perturbed = list(preds)
    ae = list(preds[k][0])
    ae[ae.index("BA")] = "O"
    perturbed[k] = (ae, preds[k][1])
    gold_tags = [(s.ae_tags, s.as_tags) for s in gold]
    assert checks.scorer_mismatches(perturbed, gold_tags, report)


def test_tag_check_rejects_polarity_outside_a_span():
    ae, asx = ["O", "BA", "IA", "BP"], ["none", "pos", "pos", "none"]
    assert checks.tag_violations([(ae, asx)], [4]) == []
    assert checks.tag_violations([(ae, ["neg", "pos", "pos", "none"])], [4])
    assert checks.tag_violations([(ae, ["none", "pos", "none", "none"])], [4])
    assert checks.tag_violations([(ae, asx)], [5])
    assert checks.tag_violations([(["O", "XX", "IA", "BP"], asx)], [4])


def test_prediction_check_rejects_one_changed_tag():
    a = [(["BA", "O"], ["pos", "none"]), (["O"], ["none"])]
    b = [(["BA", "O"], ["neg", "none"]), (["O"], ["none"])]
    assert checks.prediction_mismatches(a, [tuple(map(tuple, p)) for p in a], "same") == []
    assert checks.prediction_mismatches(a, b, "changed") == ["changed: sentence 0 differs"]
    assert checks.prediction_mismatches(a, a[:1], "short")


def small_model(parsed):
    rng = np.random.default_rng(0)
    words = [w for s in parsed for w in s.tokens]
    general = random_embedding_table(words, 16, rng)
    domain = random_embedding_table(words, 8, rng)
    return Model(ModelConfig(dropout=0.0), general, domain, RelationVocab.from_corpus(parsed), rng)


def test_gradient_check_accepts_backward_and_rejects_a_scaled_gradient(corpus):
    _, parsed = corpus
    model = small_model(parsed)
    s = parsed[0]
    params = model.trainable_parameters()
    with Tape() as tape:
        loss = joint_loss(model.forward(s), s)
    backward(tape, loss, params=list(params.values()))
    analytic, numeric, labels = [], [], []
    for name in ("enc/in_w", "enc/dregcn0_w", "ae/out_w", "as/bilinear", "re/w"):
        values = params[name].data.reshape(-1)
        grad = params[name].grad.reshape(-1)
        for flat in range(0, values.size, max(1, values.size // 3)):
            orig = values[flat]

            def loss_at(off, values=values, flat=flat, orig=orig):
                values[flat] = orig + off
                try:
                    return float(joint_loss(model.forward(s), s).data)
                finally:
                    values[flat] = orig

            slope, smooth = checks.central_difference(loss_at)
            if smooth:
                analytic.append(float(grad[flat]))
                numeric.append(slope)
                labels.append(f"{name}[{flat}]")
    assert len(analytic) >= 10
    assert checks.gradient_mismatches(analytic, numeric, labels) == []
    scaled = [1.01 * a for a in analytic]
    assert checks.gradient_mismatches(scaled, numeric, labels)


def test_central_difference_flags_a_kink():
    slope, smooth = checks.central_difference(lambda x: (x - 0.3) ** 2)
    assert smooth and abs(slope + 0.6) < 1e-8
    _, smooth = checks.central_difference(lambda x: abs(x - 4e-7))
    assert not smooth


def test_loss_check_rejects_a_loss_that_did_not_fall():
    assert checks.loss_not_reduced(1.5, 1.2) == []
    assert checks.loss_not_reduced(1.5, 1.5)
    assert checks.loss_not_reduced(1.5, float("nan"))
