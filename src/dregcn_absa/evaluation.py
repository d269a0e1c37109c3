"""BIO span decoding, term-polarity pairs and the five corpus metrics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import ASPECT_TAGS, AS_TAGS, OPINION_TAGS, Sentence

SPAN_TAGS = {"aspect": ASPECT_TAGS, "opinion": OPINION_TAGS}  # by span kind
BEGIN = {begin: kind for kind, (begin, _) in SPAN_TAGS.items()}
INSIDE = {inside: kind for kind, (_, inside) in SPAN_TAGS.items()}


@dataclass(frozen=True, order=True)
class Span:
    start: int  # inclusive
    end: int  # exclusive
    kind: str  # "aspect" | "opinion"

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span bounds ({self.start}, {self.end})")
        if self.kind not in SPAN_TAGS:
            raise ValueError(f"invalid span kind {self.kind!r}")


@dataclass(frozen=True, order=True)
class TermPolarityPair:
    span: Span
    polarity: str  # pos | neg | neu


@dataclass
class MetricReport:
    f1_a: float
    f1_o: float
    acc_s: float
    f1_s: float
    f1_i: float
    counts: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def scores(self) -> Dict[str, float]:
        """The five scores by name, in METRICS order."""
        return {name: getattr(self, name) for name in METRICS}

    def format_flat(self) -> str:
        """Flat key-value text, percentages with 2 decimals plus raw counts."""
        lines = [f"{name} = {100 * score:.2f}" for name, score in self.scores().items()]
        lines.extend(f"{k} = {v}" for k, v in sorted(self.counts.items()))
        lines.extend(f"note = {n}" for n in self.notes)
        return "\n".join(lines) + "\n"


METRICS = tuple(f.name for f in fields(MetricReport) if f.type == "float")  # the five scores


def decode_spans(tags: Sequence[str]) -> List[Span]:
    """Maximal BIO runs; an orphan I-tag starts a new span. No span is
    returned twice."""
    spans: List[Span] = []
    open_start: Optional[int] = None
    open_kind: Optional[str] = None

    def close(end: int):
        nonlocal open_start, open_kind
        if open_start is not None:
            spans.append(Span(open_start, end, open_kind))
        open_start = open_kind = None

    for i, tag in enumerate(tags):
        if tag in BEGIN:
            close(i)
            open_start, open_kind = i, BEGIN[tag]
        elif tag in INSIDE:
            kind = INSIDE[tag]
            if open_kind == kind:
                continue
            close(i)
            open_start, open_kind = i, kind
        else:
            close(i)
    close(len(tags))
    return spans


def extract_pairs(ae_tags: Sequence[str], as_tags: Sequence[str]) -> List[TermPolarityPair]:
    """One pair per decoded aspect span; polarity taken from the span's first
    token even when interior tokens disagree."""
    pairs = []
    for span in decode_spans(ae_tags):
        if span.kind != "aspect":
            continue
        polarity = as_tags[span.start]
        pairs.append(TermPolarityPair(span, polarity))
    return pairs


def _f1(tp: int, fp: int, fn: int) -> float:
    """Exact-match F1 from counts; an empty-vs-empty pool scores 1."""
    if tp + fp + fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def corpus_metrics(
    pred_tags: Sequence[Tuple[Sequence[str], Sequence[str]]],
    gold_sentences: Sequence[Sentence],
) -> MetricReport:
    """Aggregate the five metrics over a corpus of (ae_tags, as_tags)
    predictions aligned with gold sentences.

    Counts come first: tp/fp/fn for the aspect, opinion and (span, polarity)
    pools, and per polarity class on the predicted aspect spans that exactly
    match a gold one. Every pool is then scored by the same `_f1`. acc-s and
    the 3-class macro F1-s (absent classes contribute 0) are read off the
    matched spans only.
    """
    counts = {
        "aspect_tp": 0, "aspect_fp": 0, "aspect_fn": 0,
        "opinion_tp": 0, "opinion_fp": 0, "opinion_fn": 0,
        "pair_tp": 0, "pair_fp": 0, "pair_fn": 0,
        "matched_spans": 0, "sent_correct": 0,
    }
    per_class = {cls: [0, 0, 0] for cls in AS_TAGS}  # tp, fp, fn

    def tally(key: str, pred: set, gold: set) -> None:
        tp = len(pred & gold)
        counts[f"{key}_tp"] += tp
        counts[f"{key}_fp"] += len(pred) - tp
        counts[f"{key}_fn"] += len(gold) - tp

    for (ae_pred, as_pred), sent in zip(pred_tags, gold_sentences):
        pred_spans = decode_spans(ae_pred)
        gold_spans = decode_spans(sent.ae_tags)
        for kind in ("aspect", "opinion"):
            tally(
                kind,
                {s for s in pred_spans if s.kind == kind},
                {s for s in gold_spans if s.kind == kind},
            )
        pred_pairs = extract_pairs(ae_pred, as_pred)
        gold_pairs = extract_pairs(sent.ae_tags, sent.as_tags)
        tally("pair", set(pred_pairs), set(gold_pairs))

        gold_polarity = {g.span: g.polarity for g in gold_pairs}
        for p in pred_pairs:
            gold = gold_polarity.get(p.span)
            if gold is None:
                continue
            counts["matched_spans"] += 1
            if p.polarity == gold:
                counts["sent_correct"] += 1
                per_class[gold][0] += 1
                continue
            if p.polarity in per_class:  # a prediction may read "none"
                per_class[p.polarity][1] += 1
            per_class[gold][2] += 1

    f1 = {
        key: _f1(counts[f"{key}_tp"], counts[f"{key}_fp"], counts[f"{key}_fn"])
        for key in ("aspect", "opinion", "pair")
    }

    notes = []
    if counts["matched_spans"]:
        acc_s = counts["sent_correct"] / counts["matched_spans"]
        f1_s = sum(_f1(*c) for c in per_class.values() if any(c)) / len(AS_TAGS)
        absent = [cls for cls, c in per_class.items() if not any(c)]
        if absent:
            notes.append("absent polarity classes on matched spans: " + ",".join(absent))
    else:
        acc_s = f1_s = 0.0
        notes.append("no predicted aspect span matched a gold span")

    return MetricReport(f1["aspect"], f1["opinion"], acc_s, f1_s, f1["pair"], counts, notes)
