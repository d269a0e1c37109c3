"""Dense float64 tensors with taped reverse-mode differentiation.

Every learnable operation in the model is expressed through the ops in this
module. Forward evaluation works with or without an active tape; gradients
are produced by replaying a tape in reverse. Gradients accumulate additively,
so a tensor used several times (e.g. head weights shared across
message-passing rounds) collects the sum of all its contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int]

LOG_CLAMP = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateMaskError(ValueError):
    """masked_softmax received a row with every position masked."""


class ContractViolation(ValueError):
    """An operation precondition was violated by the caller."""


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: Optional[str] = None):
        self.data = np.array(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{label})"


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
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# core ops


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    out = Tensor(av @ bv)

    def bwd(g):
        _accum(a, g @ bv.T)
        _accum(b, av.T @ g)

    _record(out, (a, b), bwd)
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(_val(a).T)

    def bwd(g):
        _accum(a, g.T)

    _record(out, (a,), bwd)
    return out


def linear(x: ArrayLike, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w.T (+ b) as one op; weights stored (out_dim, in_dim)."""
    xv, wv = _val(x), _val(w)
    bv = None if b is None else _val(b)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise DimensionError(f"linear: incompatible shapes {xv.shape} and {wv.shape}")
    out = Tensor(xv @ wv.T if bv is None else xv @ wv.T + bv)

    def bwd(g):
        _accum(x, g @ wv)
        _accum(w, g.T @ xv)
        if bv is not None:
            _accum(b, _unbroadcast(g, bv.shape))

    _record(out, (x, w, b), bwd)
    return out


def concat(*parts: ArrayLike, axis: int = -1) -> Tensor:
    if not parts:
        raise DimensionError("concat: no operands")
    vals = [_val(p) for p in parts]
    lead = [v.shape[:axis] if axis != -1 else v.shape[:-1] for v in vals]
    if any(s != lead[0] for s in lead):
        raise DimensionError(
            "concat: leading dimensions disagree: " + ", ".join(str(v.shape) for v in vals)
        )
    out = Tensor(np.concatenate(vals, axis=axis))
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        gm = np.moveaxis(g, axis, -1)
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(part, np.moveaxis(gm[..., lo:hi], -1, axis))

    _record(out, parts, bwd)
    return out


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av + bv)

    def bwd(g):
        _accum(a, _unbroadcast(g, av.shape))
        _accum(b, _unbroadcast(g, bv.shape))

    _record(out, (a, b), bwd)
    return out


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av * bv)

    def bwd(g):
        _accum(a, _unbroadcast(g * bv, av.shape))
        _accum(b, _unbroadcast(g * av, bv.shape))

    _record(out, (a, b), bwd)
    return out


def scale(a: ArrayLike, c: float) -> Tensor:
    av = _val(a)
    out = Tensor(av * c)

    def bwd(g):
        _accum(a, g * c)

    _record(out, (a,), bwd)
    return out


def relu(x: ArrayLike) -> Tensor:
    xv = _val(x)
    out = Tensor(np.maximum(0.0, xv))
    pos = xv > 0

    def bwd(g):
        _accum(x, g * pos)

    _record(out, (x,), bwd)
    return out


def reshape(a: ArrayLike, shape) -> Tensor:
    av = _val(a)
    out = Tensor(av.reshape(shape))

    def bwd(g):
        _accum(a, g.reshape(av.shape))

    _record(out, (a,), bwd)
    return out


def slice_last(a: ArrayLike, start: int, stop: int) -> Tensor:
    av = _val(a)
    out = Tensor(av[..., start:stop])

    def bwd(g):
        full = np.zeros_like(av)
        full[..., start:stop] = g
        _accum(a, full)

    _record(out, (a,), bwd)
    return out


def rows(table: Tensor, idx) -> Tensor:
    """Row gather; backward scatter-adds into the table."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(_val(table)[idx])

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)

    _record(out, (table,), bwd)
    return out


def sum_all(a: ArrayLike) -> Tensor:
    av = _val(a)
    out = Tensor(av.sum())

    def bwd(g):
        _accum(a, np.broadcast_to(g, av.shape))

    _record(out, (a,), bwd)
    return out


def sum_axis(a: ArrayLike, axis: int, keepdims: bool = False) -> Tensor:
    av = _val(a)
    out = Tensor(av.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, av.shape))

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


def masked_softmax(scores: ArrayLike, mask, zero_fully_masked: bool = False) -> Tensor:
    """Softmax along the last axis restricted to unmasked positions.

    Masked positions receive exact probability 0; unmasked rows sum to 1.
    A fully masked row raises unless zero_fully_masked is set, in which case
    the row comes out all-zero (the n=1 attention case).
    """
    sv = _val(scores)
    m = np.asarray(mask, dtype=bool)
    if m.shape != sv.shape:
        raise DimensionError(f"masked_softmax: mask shape {m.shape} != scores {sv.shape}")
    row_has = m.any(axis=-1)
    if not row_has.all() and not zero_fully_masked:
        raise DegenerateMaskError("masked_softmax: a row has every position masked")
    shifted = np.where(m, sv, -np.inf)
    mx = shifted.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(shifted - mx)
    z = e.sum(axis=-1, keepdims=True)
    p = np.divide(e, z, out=np.zeros_like(e), where=z > 0)
    out = Tensor(p)

    def bwd(g):
        inner = (p * g).sum(axis=-1, keepdims=True)
        _accum(scores, p * (g - inner))

    _record(out, (scores,), bwd)
    return out


def softmax_rows(x: ArrayLike) -> Tensor:
    return masked_softmax(x, np.ones(_val(x).shape, dtype=bool))


def nll_rows(probs: ArrayLike, gold_idx, weights) -> Tensor:
    """sum_j weights[j] * -log(clamp(probs[j, gold_idx[j]])) as one scalar op."""
    pv = _val(probs)
    idx = np.asarray(gold_idx, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if pv.ndim != 2 or idx.shape != (pv.shape[0],) or w.shape != idx.shape:
        raise DimensionError(
            f"nll_rows: probs {pv.shape}, gold {idx.shape}, weights {w.shape}"
        )
    picked = pv[np.arange(pv.shape[0]), idx]
    clamped = np.maximum(picked, LOG_CLAMP)
    out = Tensor(float(-(w * np.log(clamped)).sum()))

    def bwd(g):
        full = np.zeros_like(pv)
        live = picked > LOG_CLAMP
        rows_ = np.arange(pv.shape[0])[live]
        full[rows_, idx[live]] = -float(g) * w[live] / picked[live]
        _accum(probs, full)

    _record(out, (probs,), bwd)
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Length-preserving 1-D convolution over the token axis.

    x: (n, d_in); w: (width, d_in, c_out) with odd width; b: (c_out,).
    The input is zero-padded by width//2 on each side.
    """
    xv, wv, bv = _val(x), _val(w), _val(b)
    if xv.ndim != 2 or wv.ndim != 3 or wv.shape[1] != xv.shape[1]:
        raise DimensionError(f"conv1d: x {xv.shape}, w {wv.shape}")
    width = wv.shape[0]
    if width % 2 == 0:
        raise DimensionError(f"conv1d: kernel width {width} must be odd")
    n = xv.shape[0]
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
# backward and verification


def backward(tape: Tape, loss: Tensor, params: Sequence[Tensor] = ()) -> None:
    """Populate gradients for everything on the tape by reverse traversal.

    Parameters listed in `params` but unreachable from the loss receive an
    explicit zero gradient.
    """
    if loss.data.shape != ():
        raise ContractViolation(f"backward: loss has shape {loss.data.shape}, not scalar")
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
