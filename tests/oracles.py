"""Independent brute-force re-implementations used to cross-check the
package's evaluation code and its DreGCN layer. Spans are found by
enumerating every interval and testing it for maximality, not by scanning
runs; the relation indicator is a dense (n, n, |N|) tensor filled by a plain
double loop over the heads, not the package's typed arcs. So the two
implementations share no logic."""

import numpy as np

AE_TAGS = ("BA", "IA", "BP", "IP", "O")
POLARITIES = ("pos", "neg", "neu")
KIND_TAGS = {"aspect": ("BA", "IA"), "opinion": ("BP", "IP")}


def enumerate_spans(tags):
    """All maximal BIO intervals, orphan-I opens a span (lenient)."""
    n = len(tags)
    spans = set()
    for kind, (b, i) in KIND_TAGS.items():
        for start in range(n):
            for end in range(start + 1, n + 1):
                if any(tags[t] != i for t in range(start + 1, end)):
                    continue
                head_ok = tags[start] == b or (
                    tags[start] == i and (start == 0 or tags[start - 1] not in (b, i))
                )
                if not head_ok:
                    continue
                if end < n and tags[end] == i:
                    continue
                spans.add((start, end, kind))
    return spans


def enumerate_pairs(ae_tags, as_tags):
    """(start, end, polarity-of-first-token) per aspect interval."""
    return {
        (s, e, as_tags[s])
        for (s, e, kind) in enumerate_spans(ae_tags)
        if kind == "aspect"
    }


def f1(tp, fp, fn):
    if tp + fp + fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def brute_force_metrics(pred_tags, gold_sentences):
    """(f1_a, f1_o, acc_s, f1_s, f1_i) by exhaustive enumeration."""
    span_counts = {k: [0, 0, 0] for k in ("aspect", "opinion")}
    pair_counts = [0, 0, 0]
    matched = []  # (pred polarity, gold polarity) per exactly-matched span
    for (ae_pred, as_pred), sent in zip(pred_tags, gold_sentences):
        pred_spans = enumerate_spans(ae_pred)
        gold_spans = enumerate_spans(sent.ae_tags)
        for kind in ("aspect", "opinion"):
            ps = {s for s in pred_spans if s[2] == kind}
            gs = {s for s in gold_spans if s[2] == kind}
            c = span_counts[kind]
            c[0] += len(ps & gs)
            c[1] += len(ps - gs)
            c[2] += len(gs - ps)
        pp = enumerate_pairs(ae_pred, as_pred)
        gp = enumerate_pairs(sent.ae_tags, sent.as_tags)
        pair_counts[0] += len(pp & gp)
        pair_counts[1] += len(pp - gp)
        pair_counts[2] += len(gp - pp)
        gold_by_span = {(s, e): pol for (s, e, pol) in gp}
        for (s, e, pol) in pp:
            if (s, e) in gold_by_span:
                matched.append((pol, gold_by_span[(s, e)]))

    f1_a = f1(*span_counts["aspect"])
    f1_o = f1(*span_counts["opinion"])
    f1_i = f1(*pair_counts)
    if matched:
        acc_s = sum(p == g for p, g in matched) / len(matched)
        total = 0.0
        for cls in POLARITIES:
            tp = sum(1 for p, g in matched if p == cls and g == cls)
            fp = sum(1 for p, g in matched if p == cls and g != cls)
            fn = sum(1 for p, g in matched if p != cls and g == cls)
            if tp + fp + fn:
                total += f1(tp, fp, fn)
        f1_s = total / len(POLARITIES)
    else:
        acc_s = f1_s = 0.0
    return f1_a, f1_o, acc_s, f1_s, f1_i


def random_tagging(rng, n):
    """A random (ae_tags, as_tags) pair; AS tags unconstrained by validity."""
    ae = [AE_TAGS[i] for i in rng.integers(0, len(AE_TAGS), size=n)]
    asx = [
        (POLARITIES + ("none",))[i] for i in rng.integers(0, 4, size=n)
    ]
    return ae, asx


def random_gold_sentence(rng, n):
    """A structurally valid random sentence (tags consistent, a random tree).

    Each non-root token, in index order, hangs off a token placed before it
    in the order root-first; this draws the same random numbers as picking
    any other token as head, so the tags of every corpus stay as they were.
    """
    from dregcn_absa.corpus import Sentence

    ae = [AE_TAGS[i] for i in rng.integers(0, len(AE_TAGS), size=n)]
    asx = [
        POLARITIES[rng.integers(0, 3)] if t in ("BA", "IA") else "none" for t in ae
    ]
    root = int(rng.integers(0, n))
    order = [root] + [i for i in range(n) if i != root]
    heads = [None] * n
    for k, i in enumerate(order[1:], 1):
        heads[i] = order[int(rng.integers(0, n - 1)) % k]
    rels = [f"r{rng.integers(0, 4)}" for _ in range(n)]
    return Sentence(tuple(["w%d" % i for i in rng.integers(0, 6, size=n)]),
                    tuple(ae), tuple(asx), tuple(heads), tuple(rels))


def random_metric_corpus(rng, n_sentences=3, max_tokens=8):
    gold, preds = [], []
    for _ in range(n_sentences):
        n = int(rng.integers(1, max_tokens + 1))
        gold.append(random_gold_sentence(rng, n))
        preds.append(random_tagging(rng, n))
    return preds, gold


def dense_relations(sentence, rv, distinct_reverse_types=False):
    """Q[i, j, k] = 1 when node i hears node j over relation type k: SELF on
    the diagonal, the deprel from head to dependent, and the same type (or
    its reverse) back from dependent to head."""
    n = sentence.n
    q = np.zeros((n, n, rv.size))
    for i in range(n):
        for j in range(n):
            if i == j:
                q[i, j, rv.index["<self>"]] = 1.0
            elif sentence.heads[j] == i:
                q[i, j, rv.index_of(sentence.deprels[j])] = 1.0
            elif sentence.heads[i] == j:
                q[i, j, rv.index_of(sentence.deprels[i], reverse=distinct_reverse_types)] = 1.0
    return q


def dregcn_double_sum(h, a, q, weight, bias, table):
    """ReLU(b + sum_j sum_k A_ij Q_ijk W [h_j; R[k]]), one term at a time."""
    n = h.shape[0]
    pre = np.zeros((n, weight.shape[0]))
    for i in range(n):
        for j in range(n):
            for k in range(q.shape[2]):
                if a[i, j] != 0 and q[i, j, k] != 0:
                    pre[i] += a[i, j] * q[i, j, k] * (weight @ np.concatenate([h[j], table[k]]))
    return np.maximum(pre + bias, 0.0)
