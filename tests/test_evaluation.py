import numpy as np
import pytest

from dregcn_absa.corpus import Sentence
from dregcn_absa.evaluation import (
    MetricReport,
    Span,
    TermPolarityPair,
    corpus_metrics,
    decode_spans,
    encode_spans,
    extract_pairs,
)

from oracles import brute_force_metrics, enumerate_spans, random_metric_corpus


# ---------------------------------------------------------------------------
# span decoding


def test_decode_simple_runs():
    tags = ["BA", "IA", "O", "BP", "O", "BA"]
    assert decode_spans(tags) == [
        Span(0, 2, "aspect"),
        Span(3, 4, "opinion"),
        Span(5, 6, "aspect"),
    ]


def test_decode_adjacent_begins_split():
    assert decode_spans(["BA", "BA", "IA"]) == [Span(0, 1, "aspect"), Span(1, 3, "aspect")]


def test_decode_orphan_inside_opens_span():
    tags = ["O", "IA", "IA", "O", "IP"]
    assert decode_spans(tags) == [Span(1, 3, "aspect"), Span(4, 5, "opinion")]


def test_decode_kind_switch_closes_span():
    assert decode_spans(["BA", "IP"]) == [Span(0, 1, "aspect"), Span(1, 2, "opinion")]


def test_encode_decode_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        tags = [("BA", "IA", "BP", "IP", "O")[i] for i in rng.integers(0, 5, size=n)]
        spans = decode_spans(tags)
        assert decode_spans(encode_spans(spans, n)) == spans


def test_decode_agrees_with_interval_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        tags = [("BA", "IA", "BP", "IP", "O")[i] for i in rng.integers(0, 5, size=n)]
        got = {(s.start, s.end, s.kind) for s in decode_spans(tags)}
        assert got == enumerate_spans(tags), tags


# ---------------------------------------------------------------------------
# pairs and hand-checked scores


def gold_sentence(ae_tags, as_tags):
    """A gold sentence over the given tags, parsed as a left-to-right chain."""
    n = len(ae_tags)
    return Sentence(
        tuple(f"w{i}" for i in range(n)), tuple(ae_tags), tuple(as_tags),
        (None,) + tuple(range(n - 1)), ("root",) + ("dep",) * (n - 1),
    )


def score(pred_ae, pred_as, gold_ae, gold_as):
    return corpus_metrics([(pred_ae, pred_as)], [gold_sentence(gold_ae, gold_as)])


def test_extract_pairs_first_token_polarity():
    pairs = extract_pairs(["BA", "IA", "O"], ["pos", "neg", "none"])
    assert pairs == [TermPolarityPair(Span(0, 2, "aspect"), "pos")]


def test_span_f1_hand_case():
    # predicted aspects [0,1) and [3,5); gold aspects [0,1) and [2,4)
    report = score(
        ["BA", "O", "O", "BA", "IA"], ["pos", "none", "none", "pos", "pos"],
        ["BA", "O", "BA", "IA", "O"], ["pos", "none", "pos", "pos", "none"],
    )
    assert report.f1_a == 0.5
    assert (report.counts["aspect_tp"], report.counts["aspect_fp"], report.counts["aspect_fn"]) == (1, 1, 1)


def test_empty_vs_empty_is_perfect():
    report = score(["O", "O"], ["none", "none"], ["O", "O"], ["none", "none"])
    assert (report.f1_a, report.f1_o, report.f1_i) == (1.0, 1.0, 1.0)


def test_sentiment_metrics_hand_case():
    # pred pairs (0,pos) (2,neg) (5,neu); gold pairs (0,pos) (2,pos) (7,neg)
    report = score(
        ["BA", "O", "BA", "O", "O", "BA", "O", "O"],
        ["pos", "none", "neg", "none", "none", "neu", "none", "none"],
        ["BA", "O", "BA", "O", "O", "O", "O", "BA"],
        ["pos", "none", "pos", "none", "none", "none", "none", "neg"],
    )
    assert report.counts["matched_spans"] == 2
    assert report.acc_s == 0.5
    # pos: tp=1 fp=0 fn=1 -> f1 2/3; neg: tp=0 fp=1 fn=0 -> 0; neu absent
    assert report.f1_s == pytest.approx((2 / 3) / 3)
    assert report.notes == ["absent polarity classes on matched spans: neu"]


def test_sentiment_metrics_no_matches():
    report = score(["BA", "O", "O"], ["pos", "none", "none"],
                   ["O", "O", "BA"], ["none", "none", "pos"])
    assert (report.acc_s, report.f1_s, report.counts["matched_spans"]) == (0.0, 0.0, 0)
    assert report.notes == ["no predicted aspect span matched a gold span"]


def test_overall_f1_polarity_must_match():
    report = score(["BA"], ["pos"], ["BA"], ["neg"])
    assert report.f1_a == 1.0
    assert report.f1_i == 0.0


# ---------------------------------------------------------------------------
# corpus-level aggregation vs the brute-force oracle


def test_corpus_metrics_match_brute_force():
    rng = np.random.default_rng(123)
    for trial in range(1000):
        preds, gold = random_metric_corpus(rng)
        report = corpus_metrics(preds, gold)
        oracle = brute_force_metrics(preds, gold)
        got = (report.f1_a, report.f1_o, report.acc_s, report.f1_s, report.f1_i)
        assert got == pytest.approx(oracle, abs=0), f"trial {trial}"


def test_corpus_metrics_perfect_prediction(tiny_corpus):
    preds = [(list(s.ae_tags), list(s.as_tags)) for s in tiny_corpus]
    report = corpus_metrics(preds, tiny_corpus)
    assert (report.f1_a, report.f1_o, report.acc_s, report.f1_i) == (1.0, 1.0, 1.0, 1.0)
    # fixed 3-class macro denominator: neu never occurs in the fixture
    assert report.f1_s == pytest.approx(2 / 3)
    assert any("neu" in n for n in report.notes)
    assert report.counts["aspect_tp"] == 4
    assert not [n for n in report.notes if "no predicted" in n]


def test_format_flat_layout():
    report = MetricReport(0.5, 1.0, 0.25, 0.125, 0.75, {"pair_tp": 3})
    text = report.format_flat()
    assert "f1_a = 50.00" in text
    assert "f1_i = 75.00" in text
    assert "pair_tp = 3" in text
    assert text.endswith("\n")
