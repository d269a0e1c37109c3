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

A backward closure owns the gradient `backward` hands it and may work in
it, as a fused op works in the arrays it has just made: the attention masks
its scores in place, and `conv_branches` forms its input gradient's columns
in its rebuilt window matrix. A closure holds just what its gradient reads,
and no array that another closure or the caller already holds a copy of:
`linear` keeps the parts of a joined input rather than the join,
`rebuilt_matmul` rebuilds its constant operand, and `bilinear_attention`
rebuilds h W and its scores, so that its output P is the only (..., n, n)
array it holds. A closure lives as long as its tape, so what it holds stays
until the step ends.

An op builds backward state only under a tape: with none recording, it
returns its output before it makes its closure or computes anything that
only the backward reads (such as `relu`'s mask), so an evaluating forward
pays for its outputs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def recording() -> bool:
    """Whether a tape records the ops run now."""
    return bool(_TAPE_STACK)


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


def _adopt(t, g: np.ndarray) -> None:
    """`_accum` of a fresh array that nothing else holds: a first gradient
    takes it as it is."""
    if not isinstance(t, Tensor):
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _softmax(sv: np.ndarray, excluded: Optional[np.ndarray], empty=None) -> np.ndarray:
    """Softmax over the last axis that gives the positions `excluded`
    (broadcast against `sv`; None excludes none) no weight. `empty` marks
    the rows that exclude every position, with `sv`'s shape but the last
    axis (broadcast likewise; None when no row does): they come out
    all-zero. Both come from one mask, derived once by its caller
    (`heads.attention_constants`), so that no softmax inverts the mask or
    searches its rows; a row excluded whole but not marked empty would come
    out NaN. Under `excluded` it works in `sv`, which the caller hands over,
    and returns it."""
    if excluded is None:
        e = np.exp(sv - np.maximum.reduce(sv, axis=-1, keepdims=True))
        return e / np.add.reduce(e, axis=-1, keepdims=True)
    e = sv
    np.copyto(e, -np.inf, where=excluded)
    mx = np.maximum.reduce(e, axis=-1, keepdims=True)
    if empty is not None:
        empty = empty[..., None]
        np.copyto(mx, 0.0, where=empty)  # such a row exponentiates to all 0 ...
    e -= mx
    np.exp(e, out=e)
    z = np.add.reduce(e, axis=-1, keepdims=True)
    if empty is not None:
        np.copyto(z, 1.0, where=empty)  # ... and stays 0 after the division
    e /= z
    return e


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p * (g - rowsum(p * g)), worked in `g`, which the caller hands over."""
    g -= (p * g).sum(axis=-1, keepdims=True)
    g *= p
    return g


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


def _join(op: str, vals: Sequence[np.ndarray]) -> np.ndarray:
    """`vals` joined on the last axis. NumPy checks the shapes as it joins;
    only when it refuses is the cause looked for, to name it."""
    try:
        return np.concatenate(vals, axis=-1)
    except ValueError:
        if not vals:
            raise DimensionError(f"{op}: no operands") from None
        if any(v.shape[:-1] != vals[0].shape[:-1] for v in vals):
            raise DimensionError(
                f"{op}: leading dimensions disagree: " + ", ".join(str(v.shape) for v in vals)
            ) from None
        raise


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
        xv = vals[0] if len(vals) == 1 else _join("linear", vals)
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
    out = Tensor(_join("concat", vals))
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
    out = Tensor(np.add.reduce(av[..., start:stop], axis=-1))
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
    out = Tensor(np.add.reduce(av, axis=None))
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
    out = Tensor(float(-np.add.reduce(w * np.log(clamped), axis=None)))
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
    and every branch reads one shared window matrix of it: a width-w kernel
    multiplies the centre w offsets of each window, as its own product, into
    its columns of the output. Rows where `pad_mask` (..., n) is False are
    zeroed first, so a padded sentence convolves exactly as it would alone.
    The backward keeps only the padded input; the window matrix is rebuilt
    from it.
    """
    xv = _val(x)
    if xv.ndim < 2 or not weights:
        raise DimensionError(f"conv_branches: x {xv.shape}, {len(weights)} kernels")
    n, d = xv.shape[-2:]
    # each branch's kernel, half-width and output columns [lo, hi), the widest
    # half-width and the output width, in one plain loop that checks them
    branches, half, width = [], 0, 0
    for w in weights:
        wv = _val(w)
        if wv.ndim != 3 or wv.shape[1] != d or wv.shape[0] % 2 == 0:
            raise DimensionError(f"conv_branches: x {xv.shape}, kernel {wv.shape} (odd widths)")
        hw = wv.shape[0] // 2
        branches.append((wv, hw, width, width + wv.shape[2]))
        half, width = max(half, hw), width + wv.shape[2]
    span = 2 * half + 1
    real = None if pad_mask is None else np.asarray(pad_mask, dtype=bool)[..., None]
    xp = np.zeros(xv.shape[:-2] + (n + 2 * half, d))
    xp[..., half : half + n, :] = xv if real is None else np.where(real, xv, 0.0)
    cols = _windows(xp, n, span).reshape(-1, span * d)
    y = np.empty((cols.shape[0], width))
    for wv, hw, lo, hi in branches:  # offsets half - hw .. half + hw of each window
        np.matmul(
            cols[:, (half - hw) * d : (half + hw + 1) * d], wv.reshape(-1, hi - lo), out=y[:, lo:hi]
        )
    del cols  # before the bias, whose broadcast takes a ufunc buffer
    y += np.concatenate([_val(b) for b in biases])
    np.maximum(0.0, y, out=y)
    x_shape = xv.shape
    out = Tensor(y.reshape(x_shape[:-1] + (width,)))
    if not _TAPE_STACK:
        return out

    def bwd(g):
        g2 = g.reshape(-1, width)
        g2 *= y > 0
        cols = _windows(xp, n, span).reshape(-1, span * d)
        gk = (cols.T @ g2).reshape(span, d, -1)
        gb = g2.sum(axis=0)
        for w, b, (wv, hw, lo, hi) in zip(weights, biases, branches):
            _accum(w, gk[half - hw : half + hw + 1, :, lo:hi])
            _accum(b, gb[lo:hi])
        del gk
        # the input gradient's columns are one product against every branch
        # as one (span * d_in, sum c_k) kernel, zero outside the branch's
        # offsets: per-branch products would sum in another order
        kernel = np.zeros((span, d, width))
        for wv, hw, lo, hi in branches:
            kernel[half - hw : half + hw + 1, :, lo:hi] = wv
        gcols = np.matmul(g2, kernel.reshape(span * d, -1).T, out=cols)
        gcols = gcols.reshape(x_shape[:-1] + (span, d))
        del kernel  # before the scatter's array
        gx = np.zeros(x_shape)
        for k in range(span):  # offset k of window i reads unpadded row i + k - half
            lo, hi = max(0, k - half), min(n, n + k - half)
            if lo < hi:
                gx[..., lo:hi, :] += gcols[..., lo + half - k : hi + half - k, k, :]
        if real is not None:
            np.copyto(gx, 0.0, where=~real)
        _adopt(x, gx)

    _record(out, (x, *weights, *biases), bwd)
    return out


def bilinear_attention(
    h: ArrayLike,
    w: ArrayLike,
    col_weight: ArrayLike,
    constants: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
) -> Tensor:
    """Row-stochastic attention P[..., i, :] = softmax over the j not
    excluded for i of (h_i W h_j) * factors[i, j] * col_weight[..., j], as
    one op.

    h: (..., n, d); w: (d, d); col_weight: (..., n); constants: the
    forward's (factors, excluded, empty) as `heads.attention_constants`
    builds them, once per forward for every round: factors constant
    (n, n); excluded broadcastable to (..., n, n), True where j is no
    candidate for i; empty broadcastable to (..., n), True for a row that
    excludes every j (None when no row does), which comes out all-zero.
    The backward is in closed form. Of the (..., n, n) arrays its closure
    holds P alone: it keeps h and W and rebuilds h W and the scores
    S = (h W h^T) * factors from them.
    """
    factors, excluded, empty = constants
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
    p = _softmax(scores, excluded, empty)
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
    dropped as its op's backward runs: the tape is in execution order, so by
    then every consumer of that output has added its share.

    Each closure is handed its output's gradient to own: it may work in it,
    and so it gets a copy when that output is in `params`, whose gradient
    must stay as it was. The tape keeps its ops.
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
        g = out.grad
        if g is None:
            continue
        if id(out) in keep:
            g = g.copy()
        else:
            out.grad = None
        op.backward(g)


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
