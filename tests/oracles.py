"""Independent brute-force re-implementations used to cross-check the
package's evaluation code, its graph layer (DreGCN, and the vanilla GCN it
reduces to), its fused ops, its bucketed forward and its backward (against
one that keeps every gradient). Spans are found by
enumerating every interval and testing it for maximality, not by scanning
runs; the relation indicator is a dense (n, n, |N|) tensor filled by a plain
double loop over the heads, not the package's typed arcs. So the two
implementations share no logic. Graphs are built one sentence at a time by
a loop over the tokens, and stacked into a bucket's graph afterwards;
relation types are looked up by walking the fallback chain per name.
Corpus and embedding files are read line by line, each line checked and
converted as it is read, each sentence checked token by token.

The model is re-composed one sentence at a time from small taped ops (a
per-offset `conv1d`, `transpose`, `reshape`, `slice_last`, `sum_axis`,
`scale`, `masked_softmax`) that the package does not use: its layers run
fused ops over padded length buckets."""

import numpy as np

from dregcn_absa import autodiff as ad
from dregcn_absa.autodiff import (
    Tensor,
    _accum,
    _record,
    _val,
    add,
    add_n,
    concat,
    linear,
    matmul,
    mul,
    nll_rows,
    relu,
    rows,
)

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


def encode_spans(spans, n):
    """Inverse of decode_spans for non-overlapping span sets."""
    tags = ["O"] * n
    for span in spans:
        begin = "BA" if span.kind == "aspect" else "BP"
        inside = "IA" if span.kind == "aspect" else "IP"
        tags[span.start] = begin
        for i in range(span.start + 1, span.end):
            tags[i] = inside
    return tags


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


def token_accuracy(model, sentences):
    """(AE token accuracy, AS token accuracy on gold aspect tokens) of the
    final round's argmax, one sentence at a time."""
    ae_hit = ae_total = as_hit = as_total = 0
    for s in sentences:
        final = model.forward(s)[-1]
        ae_pred = np.argmax(final.yae.data[0], axis=-1)
        as_pred = np.argmax(final.yas.data[0], axis=-1)
        for i in range(s.n):
            ae_total += 1
            ae_hit += AE_TAGS[ae_pred[i]] == s.ae_tags[i]
            if s.as_tags[i] != "none":
                as_total += 1
                as_hit += POLARITIES[as_pred[i]] == s.as_tags[i]
    return ae_hit / max(ae_total, 1), (as_hit / as_total) if as_total else 1.0


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
                q[i, j, index_of_reference(rv.index, sentence.deprels[j])] = 1.0
            elif sentence.heads[i] == j:
                rel = sentence.deprels[i]
                q[i, j, index_of_reference(rv.index, rel, reverse=distinct_reverse_types)] = 1.0
    return q


def sentence_graph(sentence, rv, distinct_reverse_types=False):
    """One sentence's graph by a loop over its tokens, as the bucket [s]: the
    SELF loops, then each dependency arc head -> dependent and back, in token
    order, as rows (0, i, j, k)."""
    from dregcn_absa.corpus import DepGraph

    rows = [(0, i, i, rv.index["<self>"]) for i in range(sentence.n)]
    for i, (h, rel) in enumerate(zip(sentence.heads, sentence.deprels)):
        if h is not None:
            k_fwd = index_of_reference(rv.index, rel)
            k_rev = index_of_reference(rv.index, rel, reverse=distinct_reverse_types)
            rows += [(0, h, i, k_fwd), (0, i, h, k_rev)]
    arcs = np.array(rows, dtype=np.intp)
    a = np.zeros((1, sentence.n, sentence.n))
    a[0, arcs[:, 1], arcs[:, 2]] = 1.0
    return DepGraph(a, arcs)


def stack_graphs(graphs, n):
    """One-sentence graphs as one bucket graph: adjacency (B, n, n), zero on
    every padded row and column, and graph b's arcs as rows (b, i, j, k)."""
    from dregcn_absa.corpus import DepGraph

    a = np.zeros((len(graphs), n, n))
    arcs = []
    for b, g in enumerate(graphs):
        size = g.adjacency.shape[-1]
        a[b, :size, :size] = g.adjacency[0]
        arcs.append(g.relation_indicator + np.array([b, 0, 0, 0]))
    return DepGraph(a, np.concatenate(arcs))


def index_of_reference(index, name, reverse=False):
    """The type id of a relation name (or of its reverse) by the fallback
    chain, walked per lookup: the name itself, then the OOV bucket of its
    direction, then, looking forward, `<unk>`."""
    from dregcn_absa.corpus import VocabularyError

    key = "rev:" + name if reverse else name
    if key in index:
        return index[key]
    fallback = "rev:<unk>" if reverse else "<unk>"
    if fallback in index:
        return index[fallback]
    if not reverse and "<unk>" in index:
        return index["<unk>"]
    raise VocabularyError(f"unknown relation type {key!r} and no OOV bucket")


def unchecked_sentence(tokens, ae_tags, as_tags, heads, deprels):
    """A Sentence holding the given columns, built without running its
    checks, so that a reference can check it and compare it."""
    from dregcn_absa.corpus import Sentence

    s = object.__new__(Sentence)
    for name, value in zip(("tokens", "ae_tags", "as_tags", "heads", "deprels"),
                           (tokens, ae_tags, as_tags, heads, deprels)):
        object.__setattr__(s, name, value)
    return s


def sentence_checks_reference(self):
    """The checks of a Sentence, token by token: each kind of fault in turn,
    the first token with it named."""
    from dregcn_absa.corpus import (
        AE_INDEX, AS_INDEX, AS_NONE, REVERSE_PREFIX, SELF_RELATION, UNK_RELATION,
    )

    n = len(self.tokens)
    if n < 1:
        raise ValueError("sentence must have at least one token")
    for name in ("ae_tags", "as_tags", "heads", "deprels"):
        if len(getattr(self, name)) != n:
            raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
    for i, tag in enumerate(self.ae_tags):
        if tag not in AE_INDEX:
            raise ValueError(f"token {i}: unknown AE tag {tag!r}")
    for i, rel in enumerate(self.deprels):
        if rel in (SELF_RELATION, UNK_RELATION) or rel.startswith(REVERSE_PREFIX):
            raise ValueError(f"token {i}: deprel {rel!r} is a reserved relation name")
    for i, (ae, asx) in enumerate(zip(self.ae_tags, self.as_tags)):
        if ae in ("BA", "IA"):
            if asx not in AS_INDEX:
                raise ValueError(
                    f"token {i}: aspect token must carry pos/neg/neu, got {asx!r}"
                )
        elif asx != AS_NONE:
            raise ValueError(
                f"token {i}: non-aspect token must carry {AS_NONE!r}, got {asx!r}"
            )
    roots = [i for i, h in enumerate(self.heads) if h is None]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one ROOT head, found {len(roots)}")
    for i, h in enumerate(self.heads):
        if h is None:
            continue
        if not (0 <= h < n):
            raise ValueError(f"token {i}: head index {h} out of range for n={n}")
        if h == i:
            raise ValueError(f"token {i}: head points at itself")
    stamp = [-1] * n
    for i in range(n):
        j = i
        while j is not None and stamp[j] < 0:
            stamp[j] = i
            j = self.heads[j]
        if j is not None and stamp[j] == i:
            raise ValueError(f"token {j}: heads form a cycle, not a tree")


def parse_corpus_reference(text):
    """A corpus file parsed line by line: each line's columns and head are
    checked as the line is read, each sentence by the token-by-token checks."""
    from dregcn_absa.corpus import ROOT_MARKER, ParseError

    sentences = []
    block = []

    def flush():
        if not block:
            return
        first_line = block[0][0]
        tokens, ae, asx, heads, deprels = [], [], [], [], []
        for lineno, cols in block:
            if len(cols) != 5:
                raise ParseError(f"line {lineno}: expected 5 columns, got {len(cols)}")
            surface, ae_tag, as_tag, head, deprel = cols
            tokens.append(surface)
            ae.append(ae_tag)
            asx.append(as_tag)
            if head == ROOT_MARKER:
                heads.append(None)
            else:
                try:
                    heads.append(int(head))
                except ValueError:
                    raise ParseError(f"line {lineno}: head must be an index or ROOT, got {head!r}")
            deprels.append(deprel)
        s = unchecked_sentence(tuple(tokens), tuple(ae), tuple(asx), tuple(heads), tuple(deprels))
        try:
            sentence_checks_reference(s)
        except ValueError as exc:
            raise ParseError(f"sentence starting at line {first_line}: {exc}") from exc
        sentences.append(s)
        block.clear()

    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        block.append((lineno, stripped.split()))
    flush()
    return sentences


def load_embedding_reference(text, expected_dim, rng):
    """An embedding file read line by line, each line's values converted as
    the line is read."""
    from dregcn_absa.corpus import EmbeddingMatrix, ParseError

    vocab = {}
    vectors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != expected_dim + 1:
            raise ParseError(
                f"line {lineno}: expected {expected_dim} values after the word, "
                f"got {len(parts) - 1}"
            )
        word = parts[0]
        if word in vocab:
            continue
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric embedding value")
        vocab[word] = len(vectors)
        vectors.append(vec)
    oov = rng.uniform(-0.05, 0.05, size=expected_dim)
    matrix = np.vstack(vectors + [oov])
    if not np.isfinite(matrix).all():
        word = list(vocab)[int(np.argmin(np.isfinite(matrix).all(axis=1)))]
        lineno = next(
            k for k, line in enumerate(text.splitlines(), 1) if line.split()[:1] == [word]
        )
        raise ParseError(f"line {lineno}: non-finite embedding value")
    return EmbeddingMatrix(vocab, matrix, expected_dim)


def backward_keep_all(tape, loss, params=()):
    """The reference backward: the same reverse sweep as `autodiff.backward`,
    but every gradient it computes stays on its tensor until the next pass."""
    if loss.data.shape != ():
        raise ad.ContractViolation(f"backward: loss has shape {loss.data.shape}, not scalar")
    for op in tape.ops:
        op.output.grad = None
        for t in op.inputs:
            if isinstance(t, Tensor):
                t.grad = None
    for p in params:
        p.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for op in reversed(tape.ops):
        g = op.output.grad
        if g is None:
            continue
        op.backward(g)
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


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


def gcn_reference(h, a, weight, bias):
    """The vanilla GCN update ReLU(A H W^T + b) in plain NumPy."""
    return np.maximum(0, a @ h @ weight.T + bias)


# ---------------------------------------------------------------------------
# small taped ops, the pieces of the unfused compositions


class DegenerateMaskError(ValueError):
    """masked_softmax received a row with every position masked."""



def transpose(a):
    out = Tensor(_val(a).T)
    _record(out, (a,), lambda g: _accum(a, g.T))
    return out


def reshape(a, shape):
    av = _val(a)
    out = Tensor(av.reshape(shape))
    _record(out, (a,), lambda g: _accum(a, g.reshape(av.shape)))
    return out


def slice_last(a, start, stop):
    av = _val(a)
    out = Tensor(av[..., start:stop])

    def bwd(g):
        full = np.zeros_like(av)
        full[..., start:stop] = g
        _accum(a, full)

    _record(out, (a,), bwd)
    return out


def sum_axis(a, axis):
    av = _val(a)
    out = Tensor(av.sum(axis=axis))
    _record(out, (a,), lambda g: _accum(a, np.broadcast_to(np.expand_dims(g, axis), av.shape)))
    return out


def masked_softmax(scores, mask, zero_fully_masked=False):
    """Softmax along the last axis restricted to unmasked positions; a fully
    masked row raises unless zero_fully_masked, which leaves it all-zero."""
    sv = _val(scores)
    m = np.asarray(mask, dtype=bool)
    if m.shape != sv.shape:
        raise ad.DimensionError(f"masked_softmax: mask shape {m.shape} != scores {sv.shape}")
    if not zero_fully_masked and not m.any(axis=-1).all():
        raise DegenerateMaskError("masked_softmax: a row has every position masked")
    p = ad._softmax(sv, m)
    out = Tensor(p)
    _record(out, (scores,), lambda g: _accum(scores, ad._softmax_grad(p, g)))
    return out


def scale(a, c):
    out = Tensor(_val(a) * c)
    _record(out, (a,), lambda g: _accum(a, g * c))
    return out


def conv1d(x, w, b):
    """Length-preserving 1-D convolution of one sentence, x (n, d_in), with
    w (width, d_in, c_out), odd width, zero padding of width//2 per side;
    one product per kernel offset."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    if xv.ndim != 2 or wv.ndim != 3 or wv.shape[1] != xv.shape[1] or wv.shape[0] % 2 == 0:
        raise ad.DimensionError(f"conv1d: x {xv.shape}, w {wv.shape}")
    width, n = wv.shape[0], xv.shape[0]
    pad = width // 2
    xp = np.pad(xv, ((pad, pad), (0, 0)))
    acc = np.broadcast_to(bv, (n, wv.shape[2])).copy()
    for k in range(width):
        acc += xp[k : k + n] @ wv[k]
    out = Tensor(acc)

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(wv)
        for k in range(width):
            gw[k] = xp[k : k + n].T @ g
            gxp[k : k + n] += g @ wv[k].T
        _accum(x, gxp[pad : pad + n])
        _accum(w, gw)
        _accum(b, g.sum(axis=0))

    _record(out, (x, w, b), bwd)
    return out


# ---------------------------------------------------------------------------
# unfused compositions of the fused ops, one sentence at a time


def conv_branches_unfused(x, weights, biases):
    """ReLU(conv1d) per kernel, concatenated."""
    return concat(*[relu(conv1d(x, w, b)) for w, b in zip(weights, biases)])


def opinion_attention_unfused(has, ws, pop):
    """Bilinear scores, scaled by 1/|i - j| and by pop_j, masked softmax off
    the diagonal; has (n, d_t), pop (n,)."""
    n = has.shape[0]
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    factors = np.where(dist > 0, 1.0 / np.maximum(dist, 1.0), 0.0)
    scores = matmul(matmul(has, ws), transpose(has))
    scores = mul(scores, factors)
    scores = mul(scores, reshape(pop, (1, n)))
    return masked_softmax(scores, ~np.eye(n, dtype=bool), zero_fully_masked=True)


# ---------------------------------------------------------------------------
# the model, one sentence at a time


def _sentence_encoder(model, s, emb):
    cfg, params = model.cfg.encoder, model.encoder_params
    x0 = linear(emb, params.input_proj.weight, params.input_proj.bias)

    def cnn(x):
        for layer in params.cnn_layers:
            branches = conv_branches_unfused(x, layer.conv_weights, layer.conv_biases)
            x = linear(branches, layer.proj.weight, layer.proj.bias)
        return x

    if cfg.mode == "cnn_only":
        return cnn(x0)
    a = np.zeros((s.n, s.n))
    for i, h in enumerate(s.heads):
        a[i, i] = 1.0
        if h is not None:
            a[i, h] = a[h, i] = 1.0
    if cfg.normalize_adjacency:
        inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        a = a * inv_sqrt[:, None] * inv_sqrt[None, :]
    h = x0
    if cfg.mode == "vanilla_gcn":
        for layer in params.graph_layers:
            h = relu(add(matmul(a, linear(h, layer.weight)), layer.bias))
        return h
    table = params.relation_table
    d, m = x0.shape[1], table.shape[1]
    q = dense_relations(s, model.relation_vocab, model.cfg.distinct_reverse_types)
    counts = np.einsum("ij,ijk->ik", a, q)
    for layer in params.graph_layers:
        pre = matmul(a, linear(h, slice_last(layer.weight, 0, d)))
        if m:
            rel = linear(matmul(counts, table), slice_last(layer.weight, d, d + m))
            pre = add(pre, rel)
        h = relu(add(pre, layer.bias))
    if cfg.mode == "dregcn":
        return h
    return linear(concat(h, cnn(x0)), params.combine.weight, params.combine.bias)


def token_indices(table, words):
    """The row of each word in an `EmbeddingMatrix`, its OOV row for an
    unseen word, one word at a time."""
    return np.array([table.vocab.get(w, table.oov_index) for w in words], dtype=np.intp)


def sentence_forward(model, s, keep=None):
    """Final-round (yae, yas) of one sentence as (n, 5) and (n, 3), composed
    from the unfused ops; `keep` is the sentence's dropout mask."""
    emb = concat(
        rows(model.general_param, token_indices(model.general_emb, s.tokens)),
        rows(model.domain_param, token_indices(model.domain_emb, s.tokens)),
    )
    if keep is not None:
        emb = mul(emb, keep)
    hs = _sentence_encoder(model, s, emb)
    ae, asp, re, cfg = model.ae_head, model.as_head, model.re_encoder, model.cfg
    prev = None
    for _ in range(cfg.mp.effective_rounds + 1):
        if prev is not None:
            hs_prev, hae, yae, has_pre, has_final, yas = prev
            if cfg.mp.variant == "predictions":
                message = concat(hs_prev, yae, yas)
            else:
                message = concat(hs_prev, hae, has_pre if cfg.pass_pre_attention_as else has_final)
            hs = linear(message, re.weight, re.bias)
        hae = relu(linear(hs, ae.hidden.weight, ae.hidden.bias))
        yae = ad.softmax_rows(linear(hae, ae.out.weight, ae.out.bias))
        has = relu(linear(hs, asp.hidden.weight, asp.hidden.bias))
        if cfg.opinion_passing:
            pop = sum_axis(slice_last(yae, 2, 4), axis=1)
            att = opinion_attention_unfused(has, asp.bilinear, pop)
        else:
            att = Tensor(np.zeros((s.n, s.n)))
        has_final = concat(has, matmul(att, has))
        yas = ad.softmax_rows(linear(has_final, asp.out.weight, asp.out.bias))
        prev = (hs, hae, yae, has, has_final, yas)
    return yae, yas


def sentence_loss(model, s, keep=None):
    """Token mean of AE cross-entropy plus AS cross-entropy on gold aspects."""
    yae, yas = sentence_forward(model, s, keep)
    ae_idx = [AE_TAGS.index(t) for t in s.ae_tags]
    as_idx = [POLARITIES.index(t) if t in POLARITIES else 0 for t in s.as_tags]
    aspect = np.array([t in ("BA", "IA") for t in s.ae_tags])
    weight = np.full(s.n, 1.0 / s.n)
    return add_n([nll_rows(yae, ae_idx, weight), nll_rows(yas, as_idx, weight * aspect)])


def per_sentence_batch_loss(model, batch, rng):
    """Batch mean of sentence losses, one forward per sentence; the inverted
    dropout mask of each sentence is drawn just before its forward."""
    keep = 1.0 - model.cfg.dropout
    width = model.general_emb.dim + model.domain_emb.dim
    losses = []
    for s in batch:
        mask = (rng.random((s.n, width)) < keep) / keep if model.cfg.dropout else None
        losses.append(sentence_loss(model, s, mask))
    return scale(add_n(losses), 1.0 / len(batch))
