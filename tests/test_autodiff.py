import numpy as np
import pytest

from dregcn_absa import autodiff as ad
from dregcn_absa.autodiff import (
    DegenerateMaskError,
    DimensionError,
    Tape,
    Tensor,
    backward,
    finite_diff_gradcheck,
)

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
        out = ad.conv1d(x, w, b)
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
        s = ad.slice_last(c, 1, 5)
        return ad.sum_all(ad.mul(ad.reshape(s, (2, 6)), 1.5))

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


def test_grad_sum_axis():
    a = t(4, 3)
    check(lambda: ad.sum_all(ad.mul(ad.sum_axis(a, axis=1), np.arange(1.0, 5.0))), [a])


def test_grad_masked_softmax():
    scores = t(4, 4)
    mask = ~np.eye(4, dtype=bool)
    probe = RNG.normal(size=(4, 4))
    check(lambda: ad.sum_all(ad.mul(ad.masked_softmax(scores, mask), probe)), [scores])


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
    check(lambda: ad.sum_all(ad.mul(ad.conv1d(x, w, b), probe)), [x, w, b])


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
        out = ad.masked_softmax(scores, mask)
    sums = out.data.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert (out.data[~mask] == 0).all()


def test_masked_softmax_degenerate_row():
    scores = t(2, 2)
    mask = np.zeros((2, 2), dtype=bool)
    with pytest.raises(DegenerateMaskError):
        ad.masked_softmax(scores, mask)
    out = ad.masked_softmax(scores, mask, zero_fully_masked=True)
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


def test_reused_tensor_accumulates_both_paths():
    a = t(3, 3)
    with Tape() as tape:
        loss = ad.add_n([ad.sum_all(ad.mul(a, 2.0)), ad.sum_all(ad.mul(a, 3.0))])
    backward(tape, loss, params=[a])
    np.testing.assert_allclose(a.grad, np.full((3, 3), 5.0))
