"""In-memory span tracing of the program's public functions, from outside.

`instrument` replaces a public function by a timing wrapper in the module
namespace its caller looks it up in, so the program runs unchanged apart
from one `perf_counter` pair per call. Spans (name, start, end, parent,
value) are kept in a list and written out when the benchmark ends; `value`
carries a count taken at the call, such as tape ops or graph bytes.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, value: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][START] = t0
                spans[idx][END] = t1
            if value is not None:
                spans[idx][VALUE] = value(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a round, a setup)."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = perf_counter()


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, timed on a function that does nothing."""
    traced = Tracer().wrap(lambda: None, "noop")
    t0 = perf_counter()
    for _ in range(calls):
        traced()
    return (perf_counter() - t0) / calls


Patch = Tuple[object, str, object]


def patch(targets: Iterable[Tuple[object, str, Callable[[Callable], Callable]]]) -> List[Patch]:
    """Replace `owner.attr` by `make(original)` for every target; returns
    what `unpatch` needs to put the originals back."""
    undo: List[Patch] = []
    for owner, attr, make in targets:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))
    return undo


def unpatch(undo: Sequence[Patch]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _graph_nbytes(args, graph) -> int:
    return int(graph.adjacency.nbytes + graph.relation_indicator.nbytes)


def instrument(tracer: Tracer) -> List[Patch]:
    """Wrap the public functions of each layer where their callers find them."""
    from dregcn_absa import corpus, encoder, heads, model, training

    table = (
        (corpus, "parse_corpus_file", "corpus.parse", None),
        (corpus, "load_embedding_table", "corpus.emb_load", None),
        (model, "build_dependency_graph", "corpus.graph_build", _graph_nbytes),
        (model, "embed_tokens", "corpus.embed_fwd", None),
        (model, "encode_shared", "encoder.fwd", None),
        (encoder, "dregcn_layer_forward", "encoder.dregcn_fwd", None),
        (encoder, "cnn_encoder_forward", "encoder.cnn_fwd", None),
        (heads, "ae_head_forward", "heads.ae_fwd", None),
        (heads, "as_head_forward", "heads.as_fwd", None),
        (heads, "message_pass", "heads.mp_fwd", None),
        (training, "train", "training.train", None),
        (training, "batch_loss", "training.loss", lambda args, out: len(args[1])),
        (training, "backward", "autodiff.backward", lambda args, out: len(args[0].ops)),
        (training, "adam_step", "training.adam", None),
        (training, "evaluate_model", "training.dev_eval", None),
        (training, "predict_sentence_tags", "training.predict", None),
        (training, "corpus_metrics", "evaluation.metrics", None),
        (model.Model, "forward", "model.forward", None),
        (model, "save_checkpoint", "model.ckpt_save", None),
        (model, "load_checkpoint", "model.ckpt_load", None),
    )
    return patch(
        (owner, attr, lambda fn, name=name, value=value: tracer.wrap(fn, name, value))
        for owner, attr, name, value in table
    )


# ---------------------------------------------------------------------------
# reading spans back


class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans: Sequence[list]):
        self.spans = spans

    def duration(self, idx: int) -> float:
        s = self.spans[idx]
        return s[END] - s[START]

    def within(self, roots: Sequence[int]) -> List[int]:
        """Indices of every span nested (at any depth) under one of `roots`."""
        inside = set(roots)
        out = []
        for idx, s in enumerate(self.spans):
            if s[PARENT] in inside:
                inside.add(idx)
                out.append(idx)
        return out

    def named(self, name: str, among: Optional[Sequence[int]] = None) -> List[int]:
        pool = range(len(self.spans)) if among is None else among
        return [i for i in pool if self.spans[i][NAME] == name]

    def mean_duration(self, name: str, among: Optional[Sequence[int]] = None) -> float:
        idx = self.named(name, among)
        if not idx:
            raise KeyError(f"no span named {name!r}")
        return sum(self.duration(i) for i in idx) / len(idx)

    def total(self, names: Iterable[str], among: Sequence[int]) -> float:
        wanted = set(names)
        return sum(self.duration(i) for i in among if self.spans[i][NAME] in wanted)

    def value_sum(self, name: str, among: Sequence[int]) -> int:
        return sum(self.spans[i][VALUE] for i in self.named(name, among))


def median_per_root(index: SpanIndex, roots: Sequence[int], name: str) -> float:
    """Median over `roots` of the summed duration of `name` spans under each."""
    return statistics.median(
        index.total([name], index.within([r])) for r in roots
    )


def write_spans(path, spans: Sequence[list], summary: Dict[str, object]) -> None:
    """Spans as [name, start_s, duration_s, parent, value] rows, times
    relative to the first span."""
    t0 = spans[0][START] if spans else 0.0
    rows = [
        [s[NAME], round(s[START] - t0, 7), round(s[END] - s[START], 7), s[PARENT], s[VALUE]]
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "fields": ["name", "start_s", "duration_s", "parent", "value"], "spans": rows}, fh)
