import tracemalloc

import numpy as np
import pytest

from dregcn_absa import heads
from dregcn_absa.autodiff import Tape, Tensor, backward, bilinear_attention, mul, sum_all, sum_last
from dregcn_absa.corpus import AE_INDEX, AE_TAGS
from dregcn_absa.encoder import ParamTable
from dregcn_absa.heads import (
    OPINION_CLASS_SLICE,
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
    with pytest.raises(ValueError, match=r"rounds must lie in \[0, 10\], got 11"):
        MessagePassingConfig("representations", heads.MAX_ROUNDS + 1)
    assert MessagePassingConfig("representations", heads.MAX_ROUNDS).rounds == 10
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
        np.testing.assert_array_equal(constants.excluded, np.eye(n, dtype=bool))
        assert not constants.factors.flags.writeable and not constants.excluded.flags.writeable
        assert np.shares_memory(constants.factors, grown.factors)
        assert np.shares_memory(constants.excluded, grown.excluded)
    assert calls == [longest + 3]
    padded = attention_constants(4, np.array([[True, True, False, False]]))
    assert padded.excluded.shape == (1, 4, 4) and (~padded.excluded[0, :2, :2]).sum() == 2


def test_unpadded_attention_constants_allocate_no_square_array():
    """An unpadded forward's masks are read from the shared tables: the
    excluded positions are a read-only view of the identity table, no row
    is empty when n > 1, and no (n, n) array is allocated."""
    n = heads._LENGTH_TABLES[0].shape[0] + 64
    grown = attention_constants(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        constants = attention_constants(n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < n * n // 4  # a (n, n) bool array is n * n bytes
    assert np.shares_memory(constants.excluded, grown.excluded)
    assert np.shares_memory(constants.excluded, heads._LENGTH_TABLES[1])
    assert not constants.excluded.flags.writeable
    assert constants.empty is None


def test_padded_attention_constants_are_the_candidate_mask_complements():
    """With padding, the excluded positions and the empty rows equal the
    complement of the candidate mask (off the diagonal, both positions
    real) and the rows where it has no candidate. A 1-token sentence's
    only real row is empty, as is the only row at n = 1."""
    n = 5
    pad = np.arange(n) < np.array([[5], [1], [3]])
    candidate = ~np.eye(n, dtype=bool) & pad[:, None, :] & pad[:, :, None]
    constants = attention_constants(n, pad)
    assert constants.excluded.dtype == bool and constants.empty.dtype == bool
    np.testing.assert_array_equal(constants.excluded, ~candidate)
    np.testing.assert_array_equal(constants.empty, ~candidate.any(axis=-1))
    assert constants.empty[1].all() and not constants.empty[0].any()
    lone = attention_constants(1)
    np.testing.assert_array_equal(lone.excluded, [[True]])
    np.testing.assert_array_equal(lone.empty, [True])


def test_attention_over_a_bucket_with_a_one_token_sentence_matches_the_oracle():
    """`bilinear_attention` over a padded bucket that holds a 1-token
    sentence gives, bit for bit, the oracle's masked softmax of the same
    scores under the candidate mask, with all-zero rows for rows that have
    no candidate."""
    rng = np.random.default_rng(8)
    n, d = 5, 4
    pad = np.arange(n) < np.array([[5], [1], [3]])
    h, w, col = rng.normal(size=(3, n, d)), rng.normal(size=(d, d)), rng.random((3, n))
    got = bilinear_attention(h, w, col, attention_constants(n, pad)).data
    scores = (h @ w) @ np.swapaxes(h, -1, -2) * distance_factors(n) * col[:, None, :]
    candidate = ~np.eye(n, dtype=bool) & pad[:, None, :] & pad[:, :, None]
    want = oracles.masked_softmax(Tensor(scores), candidate, zero_fully_masked=True).data
    assert got.tobytes() == want.tobytes()
    assert not got[1].any() and not got[2, 3:].any()
    np.testing.assert_allclose(got[0].sum(axis=-1), 1.0, atol=1e-12)


def test_ae_head_distribution():
    ae_head, _ = make_heads()
    hs = Tensor(RNG.normal(size=(5, D_S)))
    hae, yae = ae_head_forward(hs, ae_head)
    assert hae.shape == (5, D_T) and yae.shape == (5, 5)
    np.testing.assert_allclose(yae.data.sum(axis=1), 1.0, atol=1e-12)


def test_opinion_probs_slice():
    """The opinion probability is the AE mass on exactly BP and IP."""
    assert AE_TAGS[slice(*OPINION_CLASS_SLICE)] == ("BP", "IP")
    yae = Tensor(np.abs(RNG.normal(size=(4, 5))))
    pop = sum_last(yae, *OPINION_CLASS_SLICE)
    np.testing.assert_allclose(pop.data, yae.data[:, AE_INDEX["BP"]] + yae.data[:, AE_INDEX["IP"]])


def test_attention_zero_diagonal_and_stochastic_rows():
    _, as_head = make_heads()
    n = 6
    has = Tensor(RNG.normal(size=(n, D_T)))
    pop = Tensor(RNG.random(n))
    m = bilinear_attention(has, as_head.bilinear, pop, attention_constants(n))
    assert (np.diag(m.data) == 0).all()
    np.testing.assert_allclose(m.data.sum(axis=1), 1.0, atol=1e-9)


def test_attention_single_token_row_is_zero():
    _, as_head = make_heads()
    has = Tensor(RNG.normal(size=(1, D_T)))
    pop = Tensor(RNG.random(1))
    m = bilinear_attention(has, as_head.bilinear, pop, attention_constants(1))
    assert m.shape == (1, 1) and (m.data == 0).all()


def test_attention_respects_pad_mask():
    _, as_head = make_heads()
    n = 5
    has = Tensor(RNG.normal(size=(n, D_T)))
    pop = Tensor(RNG.random(n))
    pad = np.array([True, True, True, False, False])
    m = bilinear_attention(has, as_head.bilinear, pop, attention_constants(n, pad))
    assert (m.data[:, ~pad] == 0).all()
    assert (m.data[~pad] == 0).all()
    np.testing.assert_allclose(m.data[pad].sum(axis=1), 1.0, atol=1e-9)


def test_as_head_shapes_and_opinion_passing_toggle():
    ae_head, as_head = make_heads()
    hs = Tensor(RNG.normal(size=(4, D_S)))
    _, yae = ae_head_forward(hs, ae_head)
    constants = attention_constants(4)
    has, context, yas, m = as_head_forward(hs, as_head, yae, constants)
    assert has.shape == (4, D_T)
    assert context.shape == (4, D_T)
    assert yas.shape == (4, 3)
    np.testing.assert_allclose(yas.data.sum(axis=1), 1.0, atol=1e-12)
    # without attention constants (no opinion passing) there is no attention:
    # all widths stay, the context is a constant zero array
    has2, context2, yas2, m2 = as_head_forward(hs, as_head, yae, None)
    assert m2 is None
    assert type(context2) is np.ndarray and context2.shape == (4, D_T)
    np.testing.assert_array_equal(context2, 0.0)
    np.testing.assert_array_equal(has2.data, has.data)
    assert yas2.shape == (4, 3)


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
    assert len(out_none) == 1
    assert len(out_t0) == 1
    assert len(out_t2) == 3
    # variant none and zero rounds are the same computation, bit for bit
    np.testing.assert_array_equal(out_none[-1].yae.data, out_t0[-1].yae.data)
    np.testing.assert_array_equal(out_none[-1].yas.data, out_t0[-1].yas.data)
    # round 0 of a T=2 run equals the T=0 run
    np.testing.assert_array_equal(out_t2[0].yae.data, out_t0[-1].yae.data)
    # later rounds actually move
    assert np.abs(out_t2[-1].yae.data - out_t0[-1].yae.data).max() > 0


def test_forward_rounds_predictions_variant():
    ae_head, as_head = make_heads()
    re = init_re_encoder(ParamTable(np.random.default_rng(3)), D_S, "predictions", D_T, False)
    hs0 = Tensor(RNG.normal(size=(4, D_S)))
    out = forward_rounds(hs0, ae_head, as_head, re, MessagePassingConfig("predictions", 1))
    assert len(out) == 2
    assert out[-1].hs.shape == (4, D_S)


@pytest.mark.parametrize("pre_attention", [False, True])
def test_only_the_final_round_has_an_as_output_under_representations(pre_attention):
    """No round but the last feeds its AS distribution to anything."""
    ae_head, as_head = make_heads()
    re = init_re_encoder(
        ParamTable(np.random.default_rng(5)), D_S, "representations", D_T, pre_attention
    )
    hs0 = Tensor(RNG.normal(size=(2, 4, D_S)))
    out = forward_rounds(
        hs0, ae_head, as_head, re, MessagePassingConfig("representations", 2),
        pass_pre_attention_as=pre_attention,
    )
    assert [r.yas is None for r in out] == [True, True, False]
    assert out[-1].yas.shape == (2, 4, 3)
    # the pre-attention message reads no context, so only the final round has
    # one, and the attention and the AE distribution that the context reads
    unread = [pre_attention, pre_attention, False]
    assert [r.context is None for r in out] == unread
    assert [r.attention is None for r in out] == unread
    assert [r.yae is None for r in out] == unread
    assert out[-1].attention.shape == (2, 4, 4)


def test_every_round_has_an_as_output_under_predictions():
    """Each round's message reads that round's AS distribution."""
    ae_head, as_head = make_heads()
    re = init_re_encoder(ParamTable(np.random.default_rng(6)), D_S, "predictions", D_T, False)
    hs0 = Tensor(RNG.normal(size=(4, D_S)))
    out = forward_rounds(hs0, ae_head, as_head, re, MessagePassingConfig("predictions", 2))
    assert len(out) == 3
    for r in out:
        assert r.yas.shape == (4, 3)
        np.testing.assert_allclose(r.yas.data.sum(axis=-1), 1.0, atol=1e-12)


def test_as_head_without_output_computes_the_rest_bit_for_bit():
    ae_head, as_head = make_heads()
    hs = Tensor(RNG.normal(size=(5, D_S)))
    _, yae = ae_head_forward(hs, ae_head)
    constants = attention_constants(5)
    full = as_head_forward(hs, as_head, yae, constants)
    part = as_head_forward(hs, as_head, yae, constants, reads=("context",))
    assert part[2] is None
    for a, b in zip(full[:2] + full[3:], part[:2] + part[3:]):
        np.testing.assert_array_equal(a.data, b.data)
    # reading neither leaves the context and the attention unread too
    bare = as_head_forward(hs, as_head, yae, constants, reads=())
    assert bare[1] is None and bare[2] is None and bare[3] is None
    np.testing.assert_array_equal(bare[0].data, full[0].data)


def test_forward_rounds_pre_attention_message():
    ae_head, as_head = make_heads()
    re = init_re_encoder(ParamTable(np.random.default_rng(4)), D_S, "representations", D_T, True)
    assert re.weight.shape == (D_S, D_S + 2 * D_T)
    hs0 = Tensor(RNG.normal(size=(4, D_S)))
    out = forward_rounds(
        hs0, ae_head, as_head, re, MessagePassingConfig("representations", 1),
        pass_pre_attention_as=True,
    )
    assert len(out) == 2


# ---------------------------------------------------------------------------
# the fused attention against its unfused composition


def _attention_value_and_grads(fn, params, probe):
    with Tape() as tape:
        out = fn()
        loss = sum_all(mul(out, probe))
    value = out.data  # read before backward, which drops an op output's value
    backward(tape, loss, params=params)
    return value, [p.grad.copy() for p in params]


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_attention_matches_unfused_oracle(n):
    _, as_head = make_heads()
    has = Tensor(RNG.normal(size=(n, D_T)))
    pop = Tensor(RNG.random(n))
    probe = RNG.normal(size=(n, n))
    params = [has, as_head.bilinear, pop]
    fused, g_fused = _attention_value_and_grads(
        lambda: bilinear_attention(has, as_head.bilinear, pop, attention_constants(n)),
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
        lambda: bilinear_attention(has, as_head.bilinear, pop, attention_constants(n, pad)),
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
