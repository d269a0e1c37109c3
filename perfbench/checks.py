"""Correctness checks the benchmark runs on every run.

Each check is computed apart from the program (an own BIO decoder and
scorer, own central finite differences) or tests a property the method must
have. Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

Tags = Tuple[Sequence[str], Sequence[str]]  # (ae_tags, as_tags) of one sentence

AE_LABELS = ("BA", "IA", "BP", "IP", "O")
POLARITIES = ("pos", "neg", "neu")
INSIDE_OF = {"BA": "IA", "IA": "IA", "BP": "IP", "IP": "IP"}
KIND_OF = {"BA": "aspect", "IA": "aspect", "BP": "opinion", "IP": "opinion"}

SCORE_TOLERANCE = 1e-12
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7
FD_EPS = 1e-6


def bio_spans(ae_tags: Sequence[str]) -> List[Tuple[str, int, int]]:
    """(kind, start, end) runs; any B or orphan I tag opens a span that
    the following I tags of the same kind extend."""
    spans = []
    i, n = 0, len(ae_tags)
    while i < n:
        tag = ae_tags[i]
        if tag not in KIND_OF:
            i += 1
            continue
        j = i + 1
        while j < n and ae_tags[j] == INSIDE_OF[tag]:
            j += 1
        spans.append((KIND_OF[tag], i, j))
        i = j
    return spans


def _f1(tp: int, fp: int, fn: int) -> float:
    return 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


def score(preds: Sequence[Tags], gold: Sequence[Tags]) -> Dict[str, float]:
    """F1-a, F1-o (exact spans), acc-s and macro F1-s over the 3 polarities
    on exactly matched aspect spans, and F1-I over (span, polarity) pairs
    with the polarity read from a span's first token."""
    tally = {k: [0, 0, 0] for k in ("aspect", "opinion", "pair")}
    matched: List[Tuple[str, str]] = []
    for (p_ae, p_as), (g_ae, g_as) in zip(preds, gold):
        p_spans, g_spans = set(bio_spans(p_ae)), set(bio_spans(g_ae))
        for kind in ("aspect", "opinion"):
            p = {s for s in p_spans if s[0] == kind}
            g = {s for s in g_spans if s[0] == kind}
            tally[kind][0] += len(p & g)
            tally[kind][1] += len(p - g)
            tally[kind][2] += len(g - p)
        p_pairs = {(s, p_as[s[1]]) for s in p_spans if s[0] == "aspect"}
        g_pairs = {(s, g_as[s[1]]) for s in g_spans if s[0] == "aspect"}
        tally["pair"][0] += len(p_pairs & g_pairs)
        tally["pair"][1] += len(p_pairs - g_pairs)
        tally["pair"][2] += len(g_pairs - p_pairs)
        gold_polarity = dict(g_pairs)
        matched.extend((pol, gold_polarity[s]) for s, pol in p_pairs if s in gold_polarity)

    if matched:
        acc_s = sum(p == g for p, g in matched) / len(matched)
        f1_s = sum(
            _f1(
                sum(p == c and g == c for p, g in matched),
                sum(p == c and g != c for p, g in matched),
                sum(p != c and g == c for p, g in matched),
            )
            for c in POLARITIES
            if any(c in pg for pg in matched)
        ) / len(POLARITIES)
    else:
        acc_s = f1_s = 0.0
    return {
        "f1_a": _f1(*tally["aspect"]),
        "f1_o": _f1(*tally["opinion"]),
        "acc_s": acc_s,
        "f1_s": f1_s,
        "f1_i": _f1(*tally["pair"]),
    }


def scorer_mismatches(preds: Sequence[Tags], gold: Sequence[Tags], report) -> List[str]:
    """The program's MetricReport against the own scorer on the same tags."""
    own = score(preds, gold)
    return [
        f"{key}: program {getattr(report, key)!r}, benchmark {value!r}"
        for key, value in own.items()
        if abs(getattr(report, key) - value) > SCORE_TOLERANCE
    ]


def tag_violations(preds: Sequence[Tags], lengths: Sequence[int]) -> List[str]:
    """Well-formed tags; AS tags are `none` outside predicted aspect spans
    and a polarity inside them."""
    out = []
    for k, ((ae, asx), n) in enumerate(zip(preds, lengths)):
        if len(ae) != n or len(asx) != n:
            out.append(f"sentence {k}: {len(ae)}/{len(asx)} tags for {n} tokens")
            continue
        if any(t not in AE_LABELS for t in ae):
            out.append(f"sentence {k}: unknown AE tag in {list(ae)}")
            continue
        in_aspect = np.zeros(n, dtype=bool)
        for kind, start, end in bio_spans(ae):
            if kind == "aspect":
                in_aspect[start:end] = True
        for i in range(n):
            ok = asx[i] in POLARITIES if in_aspect[i] else asx[i] == "none"
            if not ok:
                where = "inside" if in_aspect[i] else "outside"
                out.append(f"sentence {k} token {i}: AS tag {asx[i]!r} {where} an aspect span")
    return out


def prediction_mismatches(expected: Sequence[Tags], got: Sequence[Tags], what: str) -> List[str]:
    if len(expected) != len(got):
        return [f"{what}: {len(got)} predictions, expected {len(expected)}"]
    return [
        f"{what}: sentence {k} differs"
        for k, (a, b) in enumerate(zip(expected, got))
        if tuple(map(tuple, a)) != tuple(map(tuple, b))
    ]


def central_difference(loss_at, eps: float = FD_EPS) -> Tuple[float, bool]:
    """(slope, smooth) of a scalar function of one coordinate's offset.

    The slope is the central difference at `eps`. `smooth` is False when it
    disagrees with the central difference at eps/10 beyond the comparison
    tolerance: then a ReLU kink lies within eps of the point, the function
    has no single slope there, and the coordinate cannot be checked.
    """
    coarse = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    fine = (loss_at(eps / 10) - loss_at(-eps / 10)) / (eps / 5)
    return coarse, abs(coarse - fine) <= GRAD_ATOL + GRAD_RTOL * abs(coarse)


def gradient_mismatches(analytic: Sequence[float], numeric: Sequence[float], labels: Sequence[str]) -> List[str]:
    return [
        f"{label}: backward {a!r}, finite difference {f!r}"
        for a, f, label in zip(analytic, numeric, labels)
        if not abs(a - f) <= GRAD_ATOL + GRAD_RTOL * abs(f)
    ]


def loss_not_reduced(before: float, after: float) -> List[str]:
    if not (np.isfinite(after) and after < before):
        return [f"training-set loss {after!r} after training is not below {before!r} at initialisation"]
    return []
