"""The tracer records nested spans and puts every wrapped function back."""

import tracing
from dregcn_absa import corpus, encoder, heads, model, training


def test_instrument_then_unpatch_restores_every_function():
    before = {
        (owner, attr): getattr(owner, attr)
        for owner, attr in (
            (corpus, "parse_corpus_file"), (model, "build_dependency_graph"),
            (encoder, "dregcn_layer_forward"), (heads, "as_head_forward"),
            (training, "backward"), (model.Model, "forward"),
        )
    }
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    assert training.backward is not before[(training, "backward")]
    tracing.unpatch(undo)
    for (owner, attr), fn in before.items():
        assert getattr(owner, attr) is fn


def test_spans_nest_and_carry_values():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda xs: sum(xs), "inner", value=lambda args, out: len(args[0]))
    outer = tracer.wrap(lambda: inner([1, 2, 3]) + inner([4]), "outer")
    with tracer.span("root"):
        assert outer() == 10
    outer()
    idx = tracing.SpanIndex(tracer.spans)
    root = idx.named("root")
    under = idx.within(root)
    assert [tracer.spans[i][tracing.NAME] for i in under] == ["outer", "inner", "inner"]
    assert idx.value_sum("inner", under) == 4
    assert len(idx.named("inner")) == 4
    assert idx.duration(root[0]) >= idx.total(["outer"], under) >= idx.total(["inner"], under)
