import numpy as np
import pytest

from dregcn_absa import heads
from dregcn_absa.autodiff import Tape, Tensor, backward, mul, sum_all
from dregcn_absa.encoder import ParamTable
from dregcn_absa.heads import (
    MessagePassingConfig,
    ae_head_forward,
    as_head_forward,
    attention_constants,
    distance_factors,
    forward_rounds,
    init_ae_head,
    init_as_head,
    init_re_encoder,
    message_width,
    opinion_attention,
    opinion_probs,
)

import oracles

RNG = np.random.default_rng(11)
D_S, D_T = 10, 6


def make_heads(seed=0):
    p = ParamTable(np.random.default_rng(seed))
    return init_ae_head(p, D_S, D_T), init_as_head(p, D_S, D_T)


def test_mp_config_validation():
    with pytest.raises(ValueError):
        MessagePassingConfig("bogus", 1)
    with pytest.raises(ValueError):
        MessagePassingConfig("predictions", -1)
    assert MessagePassingConfig("none", 3).effective_rounds == 0
    assert MessagePassingConfig("representations", 2).effective_rounds == 2


def test_distance_factors_values():
    fac = distance_factors(8)
    assert fac[2, 5] == pytest.approx(1 / 3, abs=0)
    assert fac[5, 2] == fac[2, 5]
    assert (np.diag(fac) == 0).all()
    assert fac[0, 1] == 1.0


def test_attention_tables_are_read_only_views_of_one_table(monkeypatch):
    longest = heads._LENGTH_TABLES[0].shape[0]
    calls = []
    monkeypatch.setattr(heads, "distance_factors", lambda n: calls.append(n) or distance_factors(n))
    grown = attention_constants(longest + 3)  # grows the table once, to the new longest n
    for n in (1, longest + 3, 2, longest + 1):
        constants = attention_constants(n)
        np.testing.assert_array_equal(constants.factors, distance_factors(n))
        np.testing.assert_array_equal(constants.mask, ~np.eye(n, dtype=bool))
        assert not constants.factors.flags.writeable and not constants.mask.flags.writeable
        assert np.shares_memory(constants.factors, grown.factors)
    assert calls == [longest + 3]
    padded = attention_constants(4, np.array([[True, True, False, False]]))
    assert padded.mask.shape == (1, 4, 4) and padded.mask[0, :2, :2].sum() == 2


def test_ae_head_distribution():
    ae_head, _ = make_heads()
    hs = Tensor(RNG.normal(size=(5, D_S)))
    hae, yae = ae_head_forward(hs, ae_head)
    assert hae.shape == (5, D_T) and yae.shape == (5, 5)
    np.testing.assert_allclose(yae.data.sum(axis=1), 1.0, atol=1e-12)


def test_opinion_probs_slice():
    _, as_head = make_heads()
    yae = Tensor(np.abs(RNG.normal(size=(4, 5))))
    pop = opinion_probs(yae)
    np.testing.assert_allclose(pop.data, yae.data[:, 2:4].sum(axis=1))


def test_attention_zero_diagonal_and_stochastic_rows():
    _, as_head = make_heads()
    n = 6
    has = Tensor(RNG.normal(size=(n, D_T)))
    pop = Tensor(RNG.random(n))
    m = opinion_attention(has, as_head.bilinear, pop, attention_constants(n))
    assert (np.diag(m.data) == 0).all()
    np.testing.assert_allclose(m.data.sum(axis=1), 1.0, atol=1e-9)


def test_attention_single_token_row_is_zero():
    _, as_head = make_heads()
    has = Tensor(RNG.normal(size=(1, D_T)))
    pop = Tensor(RNG.random(1))
    m = opinion_attention(has, as_head.bilinear, pop, attention_constants(1))
    assert m.shape == (1, 1) and (m.data == 0).all()


def test_attention_respects_pad_mask():
    _, as_head = make_heads()
    n = 5
    has = Tensor(RNG.normal(size=(n, D_T)))
    pop = Tensor(RNG.random(n))
    pad = np.array([True, True, True, False, False])
    m = opinion_attention(has, as_head.bilinear, pop, attention_constants(n, pad))
    assert (m.data[:, ~pad] == 0).all()
    assert (m.data[~pad] == 0).all()
    np.testing.assert_allclose(m.data[pad].sum(axis=1), 1.0, atol=1e-9)


def test_as_head_shapes_and_opinion_passing_toggle():
    ae_head, as_head = make_heads()
    hs = Tensor(RNG.normal(size=(4, D_S)))
    _, yae = ae_head_forward(hs, ae_head)
    constants = attention_constants(4)
    has, has_final, yas, m = as_head_forward(hs, as_head, yae, constants)
    assert has.shape == (4, D_T)
    assert has_final.shape == (4, 2 * D_T)
    assert yas.shape == (4, 3)
    np.testing.assert_allclose(yas.data.sum(axis=1), 1.0, atol=1e-12)
    # disabling opinion passing keeps all widths but zeroes the context half
    has2, has_final2, _, m2 = as_head_forward(hs, as_head, yae, constants, opinion_passing=False)
    assert (m2.data == 0).all()
    assert has_final2.shape == (4, 2 * D_T)
    np.testing.assert_array_equal(has_final2.data[:, D_T:], 0.0)
    np.testing.assert_array_equal(has_final2.data[:, :D_T], has2.data)


def test_message_width_table():
    assert message_width("predictions", D_T) == 8
    assert message_width("representations", D_T) == 3 * D_T
    assert message_width("representations", D_T, pass_pre_attention_as=True) == 2 * D_T
    with pytest.raises(ValueError):
        message_width("none", D_T)


def test_re_encoder_consumes_exact_width():
    rng = np.random.default_rng(1)
    re_p = init_re_encoder(ParamTable(rng), D_S, "predictions", D_T, False)
    assert re_p.weight.shape == (D_S, D_S + 8)
    re_r = init_re_encoder(ParamTable(rng), D_S, "representations", D_T, False)
    assert re_r.weight.shape == (D_S, D_S + 3 * D_T)


def test_forward_rounds_counts_and_none_equals_t0():
    ae_head, as_head = make_heads()
    re = init_re_encoder(ParamTable(np.random.default_rng(2)), D_S, "representations", D_T, False)
    hs0 = Tensor(RNG.normal(size=(5, D_S)))

    out_none = forward_rounds(hs0, ae_head, as_head, None, MessagePassingConfig("none", 0))
    out_t0 = forward_rounds(
        hs0, ae_head, as_head, re, MessagePassingConfig("representations", 0)
    )
    out_t2 = forward_rounds(
        hs0, ae_head, as_head, re, MessagePassingConfig("representations", 2)
    )
    assert len(out_none.rounds) == 1
    assert len(out_t0.rounds) == 1
    assert len(out_t2.rounds) == 3
    # variant none and zero rounds are the same computation, bit for bit
    np.testing.assert_array_equal(out_none.final.yae.data, out_t0.final.yae.data)
    np.testing.assert_array_equal(out_none.final.yas.data, out_t0.final.yas.data)
    # round 0 of a T=2 run equals the T=0 run
    np.testing.assert_array_equal(out_t2.rounds[0].yae.data, out_t0.final.yae.data)
    # later rounds actually move
    assert np.abs(out_t2.final.yae.data - out_t0.final.yae.data).max() > 0


def test_forward_rounds_predictions_variant():
    ae_head, as_head = make_heads()
    re = init_re_encoder(ParamTable(np.random.default_rng(3)), D_S, "predictions", D_T, False)
    hs0 = Tensor(RNG.normal(size=(4, D_S)))
    out = forward_rounds(hs0, ae_head, as_head, re, MessagePassingConfig("predictions", 1))
    assert len(out.rounds) == 2
    assert out.final.hs.shape == (4, D_S)


def test_forward_rounds_pre_attention_message():
    ae_head, as_head = make_heads()
    re = init_re_encoder(ParamTable(np.random.default_rng(4)), D_S, "representations", D_T, True)
    assert re.weight.shape == (D_S, D_S + 2 * D_T)
    hs0 = Tensor(RNG.normal(size=(4, D_S)))
    out = forward_rounds(
        hs0, ae_head, as_head, re, MessagePassingConfig("representations", 1),
        pass_pre_attention_as=True,
    )
    assert len(out.rounds) == 2


# ---------------------------------------------------------------------------
# the fused attention against its unfused composition


def _attention_value_and_grads(fn, params, probe):
    with Tape() as tape:
        out = fn()
        loss = sum_all(mul(out, probe))
    backward(tape, loss, params=params)
    return out.data, [p.grad.copy() for p in params]


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_attention_matches_unfused_oracle(n):
    _, as_head = make_heads()
    has = Tensor(RNG.normal(size=(n, D_T)))
    pop = Tensor(RNG.random(n))
    probe = RNG.normal(size=(n, n))
    params = [has, as_head.bilinear, pop]
    fused, g_fused = _attention_value_and_grads(
        lambda: opinion_attention(has, as_head.bilinear, pop, attention_constants(n)),
        params,
        probe,
    )
    ref, g_ref = _attention_value_and_grads(
        lambda: oracles.opinion_attention_unfused(has, as_head.bilinear, pop), params, probe
    )
    assert np.abs(fused - ref).max() <= 1e-12
    for a, b in zip(g_fused, g_ref):
        assert np.abs(a - b).max() <= 1e-12


def test_attention_bucket_matches_each_sentence_alone():
    _, as_head = make_heads()
    lengths = [2, 1, 5, 3]
    n = max(lengths)
    pad = np.arange(n) < np.array(lengths)[:, None]
    has = Tensor(RNG.normal(size=(len(lengths), n, D_T)))
    pop = Tensor(RNG.random((len(lengths), n)))
    probe = RNG.normal(size=(len(lengths), n, n))
    out, (g_has, g_w, g_pop) = _attention_value_and_grads(
        lambda: opinion_attention(has, as_head.bilinear, pop, attention_constants(n, pad)),
        [has, as_head.bilinear, pop],
        probe,
    )
    assert (out[~pad] == 0).all() and (out.transpose(0, 2, 1)[~pad] == 0).all()
    assert (g_has[~pad] == 0).all() and (g_pop[~pad] == 0).all()
    w_sum = np.zeros_like(g_w)
    for b, k in enumerate(lengths):
        h1, p1 = Tensor(has.data[b, :k]), Tensor(pop.data[b, :k])
        ref, (gh, gw, gp) = _attention_value_and_grads(
            lambda: oracles.opinion_attention_unfused(h1, as_head.bilinear, p1),
            [h1, as_head.bilinear, p1],
            probe[b, :k, :k],
        )
        assert np.abs(out[b, :k, :k] - ref).max() <= 1e-12
        assert np.abs(g_has[b, :k] - gh).max() <= 1e-12
        assert np.abs(g_pop[b, :k] - gp).max() <= 1e-12
        w_sum += gw
    assert np.abs(g_w - w_sum).max() <= 1e-12
