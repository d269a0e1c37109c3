import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dregcn_absa import autodiff as ad
from dregcn_absa.autodiff import (
    DimensionError,
    Tape,
    Tensor,
    backward,
    finite_diff_gradcheck,
)
from dregcn_absa.heads import attention_constants

import oracles

RNG = np.random.default_rng(42)


def check(build, params, tol=1e-6):
    err = finite_diff_gradcheck(build, params)
    assert err < tol, f"max relative error {err:.3e}"


def t(*shape):
    return Tensor(RNG.normal(size=shape))


# ---------------------------------------------------------------------------
# forward values against numpy


def test_matmul_linear_forward():
    a, b = t(3, 4), t(4, 2)
    with Tape():
        out = ad.matmul(a, b)
    np.testing.assert_allclose(out.data, a.data @ b.data)
    x, w, bias = t(3, 4), t(2, 4), t(2)
    with Tape() as tape:
        out = ad.linear(x, w, bias)
    np.testing.assert_allclose(out.data, x.data @ w.data.T + bias.data)
    assert len(tape.ops) == 1  # one op, not transpose + matmul + add


def test_softmax_rows_forward():
    x = t(4, 5)
    with Tape():
        out = ad.softmax_rows(x)
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    np.testing.assert_allclose(out.data, e / e.sum(axis=1, keepdims=True))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0)


def test_ops_run_without_tape():
    # inference mode: no active tape, values still correct
    a, b = t(2, 3), t(3, 2)
    out = ad.matmul(a, b)
    np.testing.assert_allclose(out.data, a.data @ b.data)


def test_conv1d_forward_matches_naive_loop():
    n, d_in, c_out, width = 6, 3, 4, 3
    x, w, b = t(n, d_in), t(width, d_in, c_out), t(c_out)
    with Tape():
        out = oracles.conv1d(x, w, b)
    assert out.shape == (n, c_out)
    half = width // 2
    padded = np.vstack([np.zeros((half, d_in)), x.data, np.zeros((half, d_in))])
    for i in range(n):
        window = padded[i : i + width]  # (width, d_in)
        expect = np.einsum("wd,wdc->c", window, w.data) + b.data
        np.testing.assert_allclose(out.data[i], expect, atol=1e-12)


def test_dimension_error():
    with pytest.raises(DimensionError):
        ad.matmul(t(2, 3), t(4, 2))


# ---------------------------------------------------------------------------
# gradients via central differences


def test_grad_matmul():
    a, b = t(3, 4), t(4, 2)
    check(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])


def test_grad_linear_and_relu():
    x, w, b = t(3, 4), t(5, 4), t(5)
    check(lambda: ad.sum_all(ad.relu(ad.linear(x, w, b))), [x, w, b])


def test_grad_concat_slice_reshape():
    a, b = t(3, 2), t(3, 4)

    def build():
        c = ad.concat(a, b)
        s = oracles.slice_last(c, 1, 5)
        return ad.sum_all(ad.mul(oracles.reshape(s, (2, 6)), 1.5))

    check(build, [a, b])


def test_grad_mul_broadcast():
    a, b = t(3, 4), t(1, 4)
    check(lambda: ad.sum_all(ad.mul(a, b)), [a, b])


def test_grad_add_broadcast():
    a, b = t(3, 4), t(4)
    probe = RNG.normal(size=(3, 4))
    check(lambda: ad.sum_all(ad.mul(ad.add(a, b), probe)), [a, b])


def test_grad_rows_scatter():
    table = t(5, 3)
    idx = np.array([1, 1, 4, 0])
    probe = RNG.normal(size=(4, 3))
    check(lambda: ad.sum_all(ad.mul(ad.rows(table, idx), probe)), [table])


@pytest.mark.parametrize("idx_shape", [(9,), (3, 5)])
def test_rows_backward_matches_an_add_at_oracle_bit_for_bit(idx_shape):
    """The scatter sums each row's contributions in index order, as
    np.add.at does; repeated indices and untouched rows included."""
    rng = np.random.default_rng(4)
    table = Tensor(rng.normal(size=(6, 3)))
    idx = rng.integers(0, 4, size=idx_shape)  # rows 4 and 5 are never read
    probe = rng.normal(size=idx_shape + (3,))
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.rows(table, idx), probe))
    backward(tape, loss, params=[table])
    expect = np.zeros((6, 3))
    np.add.at(expect, idx, probe)
    assert len(set(idx.ravel().tolist())) < idx.size
    assert table.grad.tobytes() == expect.tobytes()


def test_grad_sum_axis():
    a = t(4, 3)
    check(lambda: ad.sum_all(ad.mul(oracles.sum_axis(a, axis=1), np.arange(1.0, 5.0))), [a])


def test_grad_masked_softmax():
    scores = t(4, 4)
    mask = ~np.eye(4, dtype=bool)
    probe = RNG.normal(size=(4, 4))
    check(lambda: ad.sum_all(ad.mul(oracles.masked_softmax(scores, mask), probe)), [scores])


def test_grad_nll_rows():
    logits = t(4, 3)
    weights = np.array([0.25, 0.0, 0.5, 0.25])
    check(
        lambda: ad.nll_rows(ad.softmax_rows(logits), np.array([0, 2, 1, 1]), weights),
        [logits],
    )


def test_grad_conv1d():
    x, w, b = t(5, 3), t(3, 3, 2), t(2)
    probe = RNG.normal(size=(5, 2))
    check(lambda: ad.sum_all(ad.mul(oracles.conv1d(x, w, b), probe)), [x, w, b])


def test_finite_diff_flags_a_wrong_gradient():
    a = t(3, 3)

    def square_with_broken_pullback():
        out = Tensor(a.data**2)
        # wrong rule: claims d(x^2)/dx = x instead of 2x
        ad._record(out, [a], lambda g: ad._accum(a, g * a.data))
        return ad.sum_all(out)

    err = finite_diff_gradcheck(square_with_broken_pullback, [a])
    assert err > 1e-2, "a corrupted pullback must be detected"


# ---------------------------------------------------------------------------
# masked softmax contract


def test_masked_softmax_rows_sum_to_one():
    scores = t(6, 6)
    mask = RNG.random((6, 6)) < 0.7
    mask[np.arange(6), np.arange(6)] = False
    mask[:, 0] = True  # guarantee no fully-masked row
    with Tape():
        out = oracles.masked_softmax(scores, mask)
    sums = out.data.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert (out.data[~mask] == 0).all()


def test_masked_softmax_degenerate_row():
    scores = t(2, 2)
    mask = np.zeros((2, 2), dtype=bool)
    with pytest.raises(oracles.DegenerateMaskError):
        oracles.masked_softmax(scores, mask)
    out = oracles.masked_softmax(scores, mask, zero_fully_masked=True)
    assert (out.data == 0).all()


# ---------------------------------------------------------------------------
# backward engine behaviour


def test_backward_resets_and_zero_fills():
    a, unused = t(2, 2), t(3, 3)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(a, a))
    backward(tape, loss, params=[a, unused])
    np.testing.assert_allclose(a.grad, 2 * a.data)
    assert unused.grad is not None and (unused.grad == 0).all()
    # a second pass must not double-accumulate
    with Tape() as tape2:
        loss2 = ad.sum_all(ad.mul(a, a))
    backward(tape2, loss2, params=[a])
    np.testing.assert_allclose(a.grad, 2 * a.data)


def test_backward_keeps_gradients_on_leaves_and_params_only():
    a = t(3, 3)
    with Tape() as tape:
        h = ad.relu(ad.matmul(a, a))
        loss = ad.sum_all(ad.mul(h, h))
    backward(tape, loss, params=[h])  # an op output may be listed too
    np.testing.assert_array_equal(h.grad, 2 * h.data)
    assert a.grad is not None  # a leaf
    assert [op.output.grad is None for op in tape.ops] == [True, False, True, True]
    assert len(tape.ops) == 4


def test_reused_tensor_accumulates_both_paths():
    a = t(3, 3)
    with Tape() as tape:
        loss = ad.add_n([ad.sum_all(ad.mul(a, 2.0)), ad.sum_all(ad.mul(a, 3.0))])
    backward(tape, loss, params=[a])
    np.testing.assert_allclose(a.grad, np.full((3, 3), 5.0))


def test_first_gradient_is_not_aliased():
    # add hands the same g to both inputs; x's first gradient comes from add,
    # so the later += from mul(x, 2) must not write through into y's
    x, y = t(3), t(3)
    probe = RNG.normal(size=3)
    with Tape() as tape:
        doubled = ad.mul(x, 2.0)  # recorded first, so its backward runs last
        total = ad.add(x, y)
        loss = ad.add_n([ad.sum_all(ad.mul(total, probe)), ad.sum_all(doubled)])
    backward(tape, loss, params=[x, y])
    np.testing.assert_array_equal(y.grad, probe)
    np.testing.assert_array_equal(x.grad, probe + 2.0)


# ---------------------------------------------------------------------------
# batched ops and the fused convolution


def test_grad_batched_ops():
    a, b, w, bias = t(2, 3, 4), t(2, 4, 3), t(5, 3), t(5)
    table = t(4, 2)
    probe = RNG.normal(size=(2, 3, 5))
    check(
        lambda: ad.sum_all(ad.mul(ad.linear(ad.matmul(a, b), w, bias), probe)),
        [a, b, w, bias],
    )
    counts = RNG.normal(size=(2, 3, 4))  # a constant batched left operand
    check(lambda: ad.sum_all(ad.mul(ad.matmul(counts, table), counts[..., :2])), [table])
    logits = t(2, 3, 5)
    gold = np.array([[0, 4, 2], [1, 1, 3]])
    weights = np.array([[0.5, 0.0, 0.25], [0.1, 0.2, 0.3]])
    check(lambda: ad.nll_rows(ad.softmax_rows(logits), gold, weights), [logits])
    check(lambda: ad.sum_all(ad.mul(ad.sum_last(logits, 2, 4), probe[..., 0])), [logits])


def _value_and_grads(out_fn, params, probe):
    with Tape() as tape:
        out = out_fn()
        loss = ad.sum_all(ad.mul(out, probe))
    value = out.data  # read before backward, which drops an op output's value
    backward(tape, loss, params=params)
    return value, [p.grad.copy() for p in params]


@pytest.mark.parametrize("lead", [(), (2,)])
def test_linear_of_parts_is_bit_identical_to_linear_of_concat(lead):
    """`linear` given its operands as parts gives the bytes of `linear` over
    their `concat`, for the value and for every gradient, a part passed
    twice included; the finite differences agree with it too."""
    a, b, c = t(*lead, 3, 2), t(*lead, 3, 4), t(*lead, 3, 1)
    w, bias = t(5, 9), t(5)
    probe = RNG.normal(size=lead + (3, 5))
    params = [a, b, c, w, bias]
    joined = _value_and_grads(lambda: ad.linear((a, b, c, a), w, bias), params, probe)
    reference = _value_and_grads(lambda: ad.linear(ad.concat(a, b, c, a), w, bias), params, probe)
    for got, want in zip([joined[0], *joined[1]], [reference[0], *reference[1]]):
        assert got.tobytes() == want.tobytes()
    check(lambda: ad.sum_all(ad.mul(ad.linear((a, b, c, a), w, bias), probe)), params)


def test_linear_of_parts_checks_their_shapes():
    w = t(2, 5)
    with pytest.raises(DimensionError):
        ad.linear((), w)
    with pytest.raises(DimensionError):
        ad.linear((t(3, 2), t(4, 3)), w)  # leading dimensions disagree
    with pytest.raises(DimensionError):
        ad.linear((t(3, 2), t(3, 2)), w)  # joined width 4, not 5


def _conv_params(widths, d_in, c_out):
    weights = [t(w, d_in, c_out) for w in widths]
    return weights, [t(c_out) for _ in widths]


@pytest.mark.parametrize("n", [1, 2, 3, 9])
@pytest.mark.parametrize("widths", [(3, 5), (1, 3), (5,)])
def test_conv_branches_matches_unfused_oracle(n, widths):
    weights, biases = _conv_params(widths, 4, 3)
    x = t(n, 4)
    probe = RNG.normal(size=(n, 3 * len(widths)))
    params = [x, *weights, *biases]
    fused, g_fused = _value_and_grads(lambda: ad.conv_branches(x, weights, biases), params, probe)
    ref, g_ref = _value_and_grads(
        lambda: oracles.conv_branches_unfused(x, weights, biases), params, probe
    )
    assert np.abs(fused - ref).max() <= 1e-12
    for a, b in zip(g_fused, g_ref):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("lead", [(), (3,)])
def test_conv_branches_all_true_mask_equals_no_mask(lead):
    weights, biases = _conv_params((3, 5), 4, 3)
    x = t(*lead, 6, 4)
    probe = RNG.normal(size=(*lead, 6, 6))
    params = [x, *weights, *biases]
    full = np.ones(lead + (6,), dtype=bool)
    bare, g_bare = _value_and_grads(lambda: ad.conv_branches(x, weights, biases), params, probe)
    masked, g_masked = _value_and_grads(
        lambda: ad.conv_branches(x, weights, biases, full), params, probe
    )
    np.testing.assert_array_equal(bare, masked)
    for a, b in zip(g_bare, g_masked):
        np.testing.assert_array_equal(a, b)


def test_conv_branches_bucket_matches_each_sentence_alone():
    weights, biases = _conv_params((3, 5), 4, 3)
    lengths = [1, 2, 6, 4]
    n = max(lengths)
    pad = np.arange(n) < np.array(lengths)[:, None]
    xb = t(len(lengths), n, 4)  # padded rows hold noise that must not leak
    probe = RNG.normal(size=(len(lengths), n, 6)) * pad[..., None]
    out, grads = _value_and_grads(
        lambda: ad.conv_branches(xb, weights, biases, pad), [xb, *weights, *biases], probe
    )
    assert (grads[0][~pad] == 0).all()
    g_w = [np.zeros_like(g) for g in grads[1:]]
    for b, k in enumerate(lengths):
        x = Tensor(xb.data[b, :k])
        ref, g_ref = _value_and_grads(
            lambda: oracles.conv_branches_unfused(x, weights, biases),
            [x, *weights, *biases],
            probe[b, :k],
        )
        assert np.abs(out[b, :k] - ref).max() <= 1e-12
        assert np.abs(grads[0][b, :k] - g_ref[0]).max() <= 1e-12
        g_w = [acc + g for acc, g in zip(g_w, g_ref[1:])]
    for a, b in zip(grads[1:], g_w):
        assert np.abs(a - b).max() <= 1e-12


def test_conv_branches_is_bit_identical_to_unfused_oracle_on_exact_input():
    """Small integers keep every product and sum exact, so the fused op and
    the per-sentence composition must agree bit for bit, ReLU zeros
    included, whatever order either sums in."""
    rng = np.random.default_rng(7)

    def ints(*shape):
        return Tensor(rng.integers(-3, 4, size=shape).astype(np.float64))

    weights = [ints(w, 4, 3) for w in (3, 5)]
    biases = [ints(3) for _ in weights]
    lengths = [1, 2, 6, 4]
    n = max(lengths)
    pad = np.arange(n) < np.array(lengths)[:, None]
    xb = ints(len(lengths), n, 4)
    probe = rng.integers(-3, 4, size=(len(lengths), n, 6)) * pad[..., None]
    out, grads = _value_and_grads(
        lambda: ad.conv_branches(xb, weights, biases, pad), [xb, *weights, *biases], probe
    )
    assert (out == 0).any() and (out > 0).any()
    g_w = [np.zeros_like(g) for g in grads[1:]]
    for b, k in enumerate(lengths):
        x = Tensor(xb.data[b, :k])
        ref, g_ref = _value_and_grads(
            lambda: oracles.conv_branches_unfused(x, weights, biases),
            [x, *weights, *biases],
            probe[b, :k],
        )
        np.testing.assert_array_equal(out[b, :k], ref)
        np.testing.assert_array_equal(grads[0][b, :k], g_ref[0])
        g_w = [acc + g for acc, g in zip(g_w, g_ref[1:])]
    for a, b in zip(grads[1:], g_w):
        np.testing.assert_array_equal(a, b)


def test_conv_branches_passes_a_nan_pre_activation_on_like_relu():
    weights, biases = _conv_params((3, 5), 4, 3)
    biases[0].data[0] = np.nan  # column 0 of every row is NaN before the ReLU
    out = ad.conv_branches(t(2, 5, 4), weights, biases).data
    assert np.isnan(out[..., 0]).all()
    assert np.isfinite(out[..., 1:]).all()
    assert np.isnan(ad.relu(Tensor([np.nan])).data).all()


# ---------------------------------------------------------------------------
# with and without a tape


def _every_op(rng, lengths):
    """One call of each op of the module on inputs drawn from `rng`, by name:
    on one sentence of n tokens when `lengths` is None, else on a bucket
    padded to the longest of `lengths`, whose padded rows are zero."""
    n = 4 if lengths is None else max(lengths)
    lead = () if lengths is None else (len(lengths),)
    pad = None if lengths is None else np.arange(n) < np.array(lengths)[:, None]
    real = np.ones((n, 1)) if pad is None else pad[..., None]

    def draw(*shape):  # (..., n, width), zero on padded rows
        return Tensor(rng.normal(size=lead + shape) * real)

    d = 3
    x, y, h = draw(n, d), draw(n, 2), draw(n, d)
    w, w2, bias = (Tensor(rng.normal(size=shape)) for shape in ((5, d), (5, d + 2), (5,)))
    table, square = Tensor(rng.normal(size=(6, d))), Tensor(rng.normal(size=(d, d)))
    counts = rng.normal(size=lead + (n, 6))
    idx = rng.integers(0, 6, size=lead + (n,))
    probs = ad.softmax_rows(draw(n, 5))
    gold, weights = rng.integers(0, 5, size=lead + (n,)), rng.random(lead + (n,)) * real[..., 0]
    kernels = [Tensor(rng.normal(size=(k, d, 2))) for k in (1, 3)]
    kernel_biases = [Tensor(rng.normal(size=2)) for _ in kernels]
    col = Tensor(rng.random(lead + (n,)))
    return {
        "matmul": lambda: ad.matmul(x, square),
        "matmul_constant_left": lambda: ad.matmul(counts, table),
        "rebuilt_matmul": lambda: ad.rebuilt_matmul(lambda: counts, table),
        "linear": lambda: ad.linear(x, w, bias),
        "linear_parts": lambda: ad.linear((x, y), w2, bias),
        "concat": lambda: ad.concat(x, y, x),
        "add": lambda: ad.add(x, h),
        "mul": lambda: ad.mul(x, h.data),
        "relu": lambda: ad.relu(x),
        "sum_last": lambda: ad.sum_last(x, 1, 3),
        "rows": lambda: ad.rows(table, idx),
        "sum_all": lambda: ad.sum_all(x),
        "softmax_rows": lambda: ad.softmax_rows(x),
        "nll_rows": lambda: ad.nll_rows(probs, gold, weights),
        "conv_branches": lambda: ad.conv_branches(x, kernels, kernel_biases, pad),
        "bilinear_attention": lambda: ad.bilinear_attention(
            h, square, col, *attention_constants(n, pad)
        ),
    }


@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.lists(st.integers(1, 6), min_size=1, max_size=4)),
)
def test_every_op_gives_the_same_bytes_with_and_without_a_tape(seed, lengths):
    """Without a tape an op skips its backward state, not its value: one
    sentence and a padded bucket read bit for bit as under a tape."""
    free = {name: op() for name, op in _every_op(np.random.default_rng(seed), lengths).items()}
    for name, op in _every_op(np.random.default_rng(seed), lengths).items():
        with Tape() as tape:
            taped = op()
        assert len(tape.ops) == 1, name
        assert taped.data.shape == free[name].data.shape, name
        assert taped.data.tobytes() == free[name].data.tobytes(), name


def test_taped_attention_holds_its_output_alone():
    """A taped `bilinear_attention` over a padded (8, 48, 16) bucket retains,
    once it returns, at most its output's bytes plus 10 %: of the
    (8, 48, 48) arrays it forms, its closure keeps P, the output, and
    rebuilds the scores in the backward (twice the output while it kept
    them)."""
    rng = np.random.default_rng(0)
    lengths = np.append(rng.integers(31, 48, size=7), 48)
    pad = np.arange(48) < lengths[:, None]
    h = Tensor(rng.normal(size=(8, 48, 16)) * pad[..., None])
    w, col = Tensor(rng.normal(size=(16, 16))), Tensor(rng.random((8, 48)))
    constants = attention_constants(48, pad)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = ad.bilinear_attention(h, w, col, *constants)
        retained = tracemalloc.get_traced_memory()[0] - base
        assert len(tape.ops) == 1  # the tape, and so the closure, is alive
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * out.data.nbytes
