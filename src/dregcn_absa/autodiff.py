"""Dense float64 tensors with taped reverse-mode differentiation.

Every learnable operation in the model is expressed through the ops in this
module. Forward evaluation works with or without an active tape; gradients
are produced by replaying a tape in reverse. Gradients accumulate additively,
so a tensor used several times (e.g. head weights shared across
message-passing rounds) collects the sum of all its contributions.

After `backward`, only leaves (tensors no op produced, such as parameters and
inputs) and the tensors passed as `params` keep a `.grad`, and only they and
the loss keep their `.data`: every other op output drops its value as the
backward starts and its gradient once its op's backward has consumed it.

A backward closure holds just what its gradient reads, and no array that
another closure or the caller already holds a copy of: `linear` keeps the
parts of a joined input rather than the join, `rebuilt_matmul` rebuilds its
constant operand, and `bilinear_attention` rebuilds h W and its scores, so
that its output P is the only (..., n, n) array it holds. A closure lives
as long as its tape, so what it holds stays until the step ends.

An op builds backward state only under a tape: with none recording, it
returns its output before it makes its closure or computes anything that
only the backward reads (such as `relu`'s mask), so an evaluating forward
pays for its outputs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int]

LOG_CLAMP = 1e-12
_F64 = np.dtype(np.float64)


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractViolation(ValueError):
    """An operation precondition was violated by the caller."""


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape.

    A float64 array is wrapped without a copy (every op builds a fresh one),
    so a caller that later mutates the array it passed in must copy it first.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={getattr(self.data, 'shape', None)})"


@dataclass
class TapeOp:
    inputs: tuple
    output: Tensor
    backward: Callable[[np.ndarray], None]


class Tape:
    """Ordered record of executed operations; inputs always precede use."""

    def __init__(self):
        self.ops: list[TapeOp] = []

    def record(self, output: Tensor, inputs: Sequence, backward) -> None:
        self.ops.append(TapeOp(tuple(inputs), output, backward))

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape] = []


def _record(output: Tensor, inputs: Sequence, backward) -> None:
    if _TAPE_STACK:
        _TAPE_STACK[-1].record(output, inputs, backward)


def _val(x: ArrayLike) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _accum(t, g: np.ndarray) -> None:
    if not isinstance(t, Tensor):
        return
    if t.grad is None:
        # a copy: g may be a view, or the same array another input receives,
        # and a later += must not write through it
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _softmax(sv: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Softmax over the last axis restricted to `mask` (broadcast against
    `sv`; None keeps every position). A row with no unmasked position comes
    out all-zero."""
    if mask is None:
        e = np.exp(sv - sv.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    e = np.where(mask, sv, -np.inf)
    mx = e.max(axis=-1, keepdims=True)
    empty = mx == -np.inf  # rows with no candidate
    any_empty = empty.any()
    if any_empty:
        mx[empty] = 0.0  # such a row exponentiates to all 0 ...
    e -= mx
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    if any_empty:
        z[empty] = 1.0  # ... and stays 0 after the division
    e /= z
    return e


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p * (g - rowsum(p * g)), as a new array."""
    gs = g - (p * g).sum(axis=-1, keepdims=True)
    gs *= p
    return gs


# ---------------------------------------------------------------------------
# core ops. Every op takes any number of leading (batch) axes: a length
# bucket of B sentences flows through as (B, n, ...) arrays, one sentence as
# (n, ...).


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """a @ b over the last two axes, broadcasting the leading ones."""
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    out = Tensor(av @ bv)
    if not _TAPE_STACK:
        return out
    # each side's gradient reads the other side's value
    a_shape, b_shape = av.shape, bv.shape
    a_val = av if isinstance(b, Tensor) else None
    b_val = bv if isinstance(a, Tensor) else None

    def bwd(g):
        if b_val is not None:
            _accum(a, _unbroadcast(g @ np.swapaxes(b_val, -1, -2), a_shape))
        if a_val is not None:
            _accum(b, _unbroadcast(np.swapaxes(a_val, -1, -2) @ g, b_shape))

    _record(out, (a, b), bwd)
    return out


def rebuilt_matmul(build: Callable[[], np.ndarray], b: Tensor) -> Tensor:
    """build() @ b over the last two axes, where build() makes a constant:
    the backward calls `build` again for the gradient of b rather than hold
    the constant, which pays when it is larger than what `build` reads."""
    av, bv = build(), _val(b)
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"rebuilt_matmul: incompatible shapes {av.shape} and {bv.shape}")
    out = Tensor(av @ bv)
    if not _TAPE_STACK:
        return out
    b_shape = bv.shape

    def bwd(g):
        _accum(b, _unbroadcast(np.swapaxes(build(), -1, -2) @ g, b_shape))

    _record(out, (b,), bwd)
    return out


def _join_checked(op: str, vals: Sequence[np.ndarray]) -> None:
    if not vals:
        raise DimensionError(f"{op}: no operands")
    if any(v.shape[:-1] != vals[0].shape[:-1] for v in vals):
        raise DimensionError(
            f"{op}: leading dimensions disagree: " + ", ".join(str(v.shape) for v in vals)
        )


def _split_accum(parts: Sequence, widths: Sequence[int], g: np.ndarray) -> None:
    """Hand each of the joined `parts`, in order, its slice of the joined
    gradient: the next `width` columns."""
    lo = 0
    for part, width in zip(parts, widths):
        _accum(part, g[..., lo : lo + width])
        lo += width


def linear(
    x: Union[ArrayLike, Tuple[ArrayLike, ...]], w: Tensor, b: Optional[Tensor] = None
) -> Tensor:
    """x @ w.T (+ b) over the last axis as one op; weights stored
    (out_dim, in_dim). Leading axes are flattened into one product.

    `x` may be a tuple of operands, joined on the last axis as `concat`
    joins them. The closure then holds the parts, which other closures
    mostly hold already, and not the joined copy: the backward joins them
    again for the weight gradient and hands each part its slice of the
    input gradient, as `concat`'s backward would.
    """
    if isinstance(x, tuple):
        parts, vals = x, [_val(p) for p in x]
        _join_checked("linear", vals)
        xv = vals[0] if len(vals) == 1 else np.concatenate(vals, axis=-1)
    else:
        parts, xv = None, _val(x)  # one operand: no list, no join
    wv = _val(w)
    bv = None if b is None else _val(b)
    if xv.ndim < 1 or wv.ndim != 2 or xv.shape[-1] != wv.shape[1]:
        raise DimensionError(f"linear: incompatible shapes {xv.shape} and {wv.shape}")
    y = xv.reshape(-1, xv.shape[-1]) @ wv.T
    if bv is not None:
        y += bv
    x_shape = xv.shape
    out = Tensor(y.reshape(x_shape[:-1] + (wv.shape[0],)))
    if not _TAPE_STACK:
        return out
    if parts is None:
        parts, vals = (x,), (xv,)

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        joined = vals[0] if len(vals) == 1 else np.concatenate(vals, axis=-1)
        _accum(w, g2.T @ joined.reshape(-1, x_shape[-1]))
        del joined
        if b is not None:
            _accum(b, g2.sum(axis=0))
        if any(isinstance(p, Tensor) for p in parts):
            _split_accum(parts, [v.shape[-1] for v in vals], (g2 @ wv).reshape(x_shape))

    _record(out, (*parts, w, b), bwd)
    return out


def concat(*parts: ArrayLike) -> Tensor:
    """Concatenation along the last axis."""
    vals = [_val(p) for p in parts]
    _join_checked("concat", vals)
    out = Tensor(np.concatenate(vals, axis=-1))
    if not _TAPE_STACK:
        return out
    widths = [v.shape[-1] for v in vals]

    def bwd(g):
        _split_accum(parts, widths, g)

    _record(out, parts, bwd)
    return out


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av + bv)
    if not _TAPE_STACK:
        return out
    a_shape, b_shape = av.shape, bv.shape

    def bwd(g):
        _accum(a, _unbroadcast(g, a_shape))
        _accum(b, _unbroadcast(g, b_shape))

    _record(out, (a, b), bwd)
    return out


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av * bv)
    if not _TAPE_STACK:
        return out
    # each side's gradient reads the other side's value
    a_shape, b_shape = av.shape, bv.shape
    a_val = av if isinstance(b, Tensor) else None
    b_val = bv if isinstance(a, Tensor) else None

    def bwd(g):
        if b_val is not None:
            _accum(a, _unbroadcast(g * b_val, a_shape))
        if a_val is not None:
            _accum(b, _unbroadcast(g * a_val, b_shape))

    _record(out, (a, b), bwd)
    return out


def relu(x: ArrayLike) -> Tensor:
    xv = _val(x)
    out = Tensor(np.maximum(0.0, xv))
    if not _TAPE_STACK:
        return out
    pos = xv > 0

    def bwd(g):
        _accum(x, g * pos)

    _record(out, (x,), bwd)
    return out


def sum_last(a: ArrayLike, start: int, stop: int) -> Tensor:
    """a[..., start:stop] summed over the last axis, as one op."""
    av = _val(a)
    out = Tensor(av[..., start:stop].sum(axis=-1))
    if not _TAPE_STACK:
        return out
    shape = av.shape

    def bwd(g):
        full = np.zeros(shape)
        full[..., start:stop] = g[..., None]
        _accum(a, full)

    _record(out, (a,), bwd)
    return out


def rows(table: Tensor, idx) -> Tensor:
    """Row gather (idx of any shape, entries >= 0); backward scatter-adds
    into the table with one `np.bincount`, which sums each cell's
    contributions in index order, as `np.add.at` does."""
    idx = np.asarray(idx, dtype=np.intp)
    tv = _val(table)
    out = Tensor(tv[idx])
    if not _TAPE_STACK:
        return out
    shape = tv.shape

    def bwd(g):
        width = math.prod(shape[1:])
        cells = (idx[..., None] * width + np.arange(width)).ravel()  # flat table cells
        full = np.bincount(cells, weights=g.ravel(), minlength=shape[0] * width)
        _accum(table, full.reshape(shape))

    _record(out, (table,), bwd)
    return out


def sum_all(a: ArrayLike) -> Tensor:
    av = _val(a)
    out = Tensor(av.sum())
    if not _TAPE_STACK:
        return out
    shape = av.shape

    def bwd(g):
        _accum(a, np.broadcast_to(g, shape))

    _record(out, (a,), bwd)
    return out


def add_n(tensors: Iterable[ArrayLike]) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("add_n: no operands")
    out = tensors[0]
    for t in tensors[1:]:
        out = add(out, t)
    return out


def softmax_rows(x: ArrayLike) -> Tensor:
    """Unmasked softmax along the last axis."""
    p = _softmax(_val(x), None)
    out = Tensor(p)
    if not _TAPE_STACK:
        return out

    def bwd(g):
        _accum(x, _softmax_grad(p, g))

    _record(out, (x,), bwd)
    return out


def nll_rows(probs: ArrayLike, gold_idx, weights) -> Tensor:
    """sum over rows of weights * -log(clamp(probs[..., gold_idx])) as one
    scalar op: probs (..., classes), gold_idx and weights (...)."""
    pv = _val(probs)
    idx = np.asarray(gold_idx, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if pv.ndim < 2 or idx.shape != pv.shape[:-1] or w.shape != idx.shape:
        raise DimensionError(
            f"nll_rows: probs {pv.shape}, gold {idx.shape}, weights {w.shape}"
        )
    picked = np.take_along_axis(pv, idx[..., None], axis=-1)[..., 0]
    clamped = np.maximum(picked, LOG_CLAMP)
    out = Tensor(float(-(w * np.log(clamped)).sum()))
    if not _TAPE_STACK:
        return out
    shape = pv.shape

    def bwd(g):
        coef = np.where(picked > LOG_CLAMP, -float(g) * w / clamped, 0.0)
        full = np.zeros(shape)
        np.put_along_axis(full, idx[..., None], coef[..., None], axis=-1)
        _accum(probs, full)

    _record(out, (probs,), bwd)
    return out


# ---------------------------------------------------------------------------
# fused layer ops


def _windows(xp: np.ndarray, n: int, span: int) -> np.ndarray:
    """(..., n, span * d): row i holds padded rows i .. i + span - 1."""
    return np.concatenate([xp[..., k : k + n, :] for k in range(span)], axis=-1)


def conv_branches(
    x: ArrayLike,
    weights: Sequence[ArrayLike],
    biases: Sequence[ArrayLike],
    pad_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """ReLU of parallel length-preserving 1-D convolutions over the token
    axis, concatenated on the last axis, as one op.

    x: (..., n, d_in); weights[k]: (width_k, d_in, c_k) with odd widths;
    biases[k]: (c_k,). The input is zero-padded by max(width)//2 on each side
    and a width-w kernel reads the centre w offsets of that window. Rows
    where `pad_mask` (..., n) is False are zeroed first, so a padded
    sentence convolves exactly as it would alone. The backward keeps only the
    padded input; the window matrix is rebuilt from it.
    """
    xv = _val(x)
    wvs = [_val(w) for w in weights]
    bvs = [_val(b) for b in biases]
    if xv.ndim < 2 or not wvs or any(
        w.ndim != 3 or w.shape[1] != xv.shape[-1] or w.shape[0] % 2 == 0 for w in wvs
    ):
        raise DimensionError(
            f"conv_branches: x {xv.shape}, kernels {[w.shape for w in wvs]} (odd widths)"
        )
    n, d = xv.shape[-2:]
    half = max(w.shape[0] for w in wvs) // 2
    span = 2 * half + 1
    real = None if pad_mask is None else np.asarray(pad_mask, dtype=bool)[..., None]
    xp = np.zeros(xv.shape[:-2] + (n + 2 * half, d))
    xp[..., half : half + n, :] = xv if real is None else np.where(real, xv, 0.0)
    # every branch as one (span * d_in, sum c_k) kernel, zero outside its offsets
    blocks = list(accumulate([0] + [w.shape[2] for w in wvs]))
    kernel = np.zeros((span, d, blocks[-1]))
    for w, lo, hi in zip(wvs, blocks[:-1], blocks[1:]):
        k0 = half - w.shape[0] // 2
        kernel[k0 : k0 + w.shape[0], :, lo:hi] = w
    kernel = kernel.reshape(span * d, -1)
    pre = _windows(xp, n, span).reshape(-1, span * d) @ kernel + np.concatenate(bvs)
    y = np.maximum(0.0, pre, out=pre)
    x_shape = xv.shape
    out = Tensor(y.reshape(x_shape[:-1] + (blocks[-1],)))
    if not _TAPE_STACK:
        return out

    def bwd(g):
        g2 = g.reshape(-1, blocks[-1]) * (y > 0)
        gk = (_windows(xp, n, span).reshape(-1, span * d).T @ g2).reshape(span, d, -1)
        gb = g2.sum(axis=0)
        for w, b, wv, lo, hi in zip(weights, biases, wvs, blocks[:-1], blocks[1:]):
            k0 = half - wv.shape[0] // 2
            _accum(w, gk[k0 : k0 + wv.shape[0], :, lo:hi])
            _accum(b, gb[lo:hi])
        gcols = (g2 @ kernel.T).reshape(x_shape[:-1] + (span, d))
        del g2, gk  # gone before the scatter below, this closure's peak
        gxp = np.zeros_like(xp)
        for k in range(span):
            gxp[..., k : k + n, :] += gcols[..., k, :]
        gx = gxp[..., half : half + n, :]
        _accum(x, gx if real is None else np.where(real, gx, 0.0))

    _record(out, (x, *weights, *biases), bwd)
    return out


def bilinear_attention(
    h: ArrayLike,
    w: ArrayLike,
    col_weight: ArrayLike,
    factors: np.ndarray,
    mask: np.ndarray,
) -> Tensor:
    """Row-stochastic attention P[..., i, :] = softmax over the unmasked j of
    (h_i W h_j) * factors[i, j] * col_weight[..., j], as one op.

    h: (..., n, d); w: (d, d); col_weight: (..., n); factors: constant
    (n, n); mask: broadcastable to (..., n, n). A row with no unmasked
    position comes out all-zero. The backward is in closed form. Of the
    (..., n, n) arrays its closure holds P alone: it keeps h and W and
    rebuilds h W and the scores S = (h W h^T) * factors from them.
    """
    hv, wv, cv = _val(h), _val(w), _val(col_weight)
    n = hv.shape[-2]
    if hv.ndim < 2 or wv.shape != (hv.shape[-1],) * 2 or cv.shape != hv.shape[:-1]:
        raise DimensionError(
            f"bilinear_attention: h {hv.shape}, w {wv.shape}, col_weight {cv.shape}"
        )
    if factors.shape != (n, n):
        raise DimensionError(f"bilinear_attention: factors {factors.shape} for n = {n}")
    scores = (hv @ wv) @ np.swapaxes(hv, -1, -2)
    scores *= factors
    cols = cv[..., None, :]
    scores *= cols
    p = _softmax(scores, mask)
    out = Tensor(p)
    if not _TAPE_STACK:
        return out

    def bwd(g):
        gs = _softmax_grad(p, g)
        hw = hv @ wv
        sg = hw @ np.swapaxes(hv, -1, -2)
        sg *= factors  # S, as the forward built it
        sg *= gs
        _accum(col_weight, sg.sum(axis=-2))
        gs *= cols
        gs *= factors  # the gradient of h W h^T
        ghw = gs @ hv
        gw = np.swapaxes(hv, -1, -2) @ ghw
        _accum(w, gw.reshape(-1, *wv.shape).sum(axis=0))
        _accum(h, np.swapaxes(gs, -1, -2) @ hw + ghw @ wv.T)

    _record(out, (h, w, col_weight), bwd)
    return out


# ---------------------------------------------------------------------------
# backward and verification


def backward(tape: Tape, loss: Tensor, params: Sequence[Tensor] = ()) -> None:
    """Populate gradients by reverse traversal of the tape.

    As it starts, every op output but the loss and the tensors in `params`
    drops its `.data` (each closure holds what it reads), and each tensor in
    `params` has its `.grad` zeroed in place, or allocated when it has none:
    a gradient that is a view of a model's gradient vector stays that view,
    and a parameter unreachable from the loss ends with zeros.

    Afterwards only leaves (tensors that no op on the tape produced) and the
    tensors in `params` hold a `.grad`. Every other op output's gradient is
    dropped as soon as its op's backward has run: the tape is in execution
    order, so by then every consumer of that output has added its share.
    The tape keeps its ops.
    """
    if loss.data.shape != ():
        raise ContractViolation(f"backward: loss has shape {loss.data.shape}, not scalar")
    keep = {id(p) for p in params}
    for op in tape.ops:
        out = op.output
        if id(out) not in keep:
            out.grad = None
            if out is not loss:
                out.data = None
        for t in op.inputs:
            if isinstance(t, Tensor) and id(t) not in keep:
                t.grad = None
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad.fill(0.0)
    loss.grad = np.ones((), dtype=np.float64)
    for op in reversed(tape.ops):
        out = op.output
        if out.grad is None:
            continue
        op.backward(out.grad)
        if id(out) not in keep:
            out.grad = None


def finite_diff_gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between taped gradients and central differences.

    `f` re-evaluates the scalar objective from the current parameter values;
    it is called once under a fresh tape for the analytic gradient and twice
    per coordinate for the finite differences.
    """
    if eps <= 0:
        raise ContractViolation("finite_diff_gradcheck: eps must be positive")

    def value() -> float:
        out = f()
        v = float(out.data if isinstance(out, Tensor) else out)
        if not np.isfinite(v):
            raise FloatingPointError(f"objective is non-finite: {v!r}")
        return v

    with Tape() as tape:
        loss = f()
    backward(tape, loss, params=params)
    analytic = [p.grad.copy() for p in params]

    max_err = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = value()
            flat[i] = orig - eps
            fm = value()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * eps)
            err = abs(gflat[i] - fd) / max(1e-8, abs(gflat[i]) + abs(fd))
            max_err = max(max_err, err)
    return max_err
