"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors are immutable after construction and carry an optional reference
to the Tape that recorded them.  A Tape is an explicit, scoped object:
create one per training step, watch the leaves you want gradients for,
run the forward computation, call ``backward``, drop the tape.  Taped and
untaped evaluation run the same numpy kernels, so forward values are
bit-identical either way.

Every op is recorded one way: it computes its output data with numpy,
then calls ``_record(data, (operand, vjp), ...)`` with a vjp
(vector-Jacobian product) for each of its operands.  ``_record`` keeps
the pairs whose operand is taped, raises ``TapeError`` for operands on
two tapes, and records nothing when no operand is taped.

- Retention: a vjp captures only what its formula reads: a shape, a
  mask, an index, an axis, or the ``.data`` of an operand or of the
  output.  It never captures an operand ``Tensor``.  So a tape keeps an
  intermediate alive only while some gradient still needs its values.
- Gradients: a vjp returns a fresh array or a view of its incoming
  gradient ``g``, and never writes into ``g``.  ``g`` may be shared with
  another node's gradient, so ``Tape.backward`` hands it to the vjps
  read-only.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class IndexRangeError(ShapeError):
    """Raised for an integer index outside the extent it indexes."""


class TapeError(RuntimeError):
    """Raised on misuse of a Tape (wrong tape, non-scalar loss, ...)."""


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid, ``exp(-log(1 + exp(-x)))``: never overflows."""
    return np.exp(-np.logaddexp(0.0, -x))


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """Immutable dense float64 array, optionally recorded on a Tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "Tape | None" = None, node: int | None = None):
        self.data = _f64(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        taped = " taped" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{taped})\n{self.data!r}"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def as_array(x) -> np.ndarray:
    """The numbers of a payload: a Tensor's ``.data``, else ``np.asarray(x)``."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


class _Node:
    __slots__ = ("inputs", "shape")

    def __init__(self, inputs, shape: tuple[int, ...]):
        # inputs: list of (node index, vjp callable) pairs; shape: the
        # recorded output's shape, which every gradient into it must have
        self.inputs = inputs
        self.shape = shape


class Tape:
    """Append-only record of operations for one reverse-mode pass.

    A tape is confined to one logical thread of execution; concurrent
    training runs must each own a private tape.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._watched: list[Tensor] = []
        self._spent = False

    def __len__(self) -> int:
        return len(self._nodes)

    def watch(self, value) -> Tensor:
        """Register a trainable leaf and return its taped handle."""
        data = value.data if isinstance(value, Tensor) else _f64(value)
        leaf = Tensor(data, self, len(self._nodes))
        self._nodes.append(_Node([], leaf.shape))
        self._watched.append(leaf)
        return leaf

    def _emit(self, data: np.ndarray, partials) -> Tensor:
        out = Tensor(data, self, len(self._nodes))
        node = _Node([(t.node, fn) for t, fn in partials], out.shape)
        self._nodes.append(node)
        return out

    def backward(self, loss: Tensor) -> dict[Tensor, Tensor]:
        """Gradients of a scalar loss with respect to every watched leaf.

        Leaves not reachable from the loss get a zero gradient.  The pass
        releases the recorded vjps, and with them every intermediate they
        hold, as it goes: a tape is used for one pass.  (Tensors and the
        tape that recorded them form reference cycles, so without the
        release the intermediates would live until the cyclic collector
        runs.)  A vjp that returns a gradient of the wrong shape raises
        ``TapeError`` rather than giving a leaf a gradient of another shape.

        A node's first incoming gradient is kept as its vjp returned it,
        which may be a view of another node's gradient.  A second one is
        added with ``np.add`` into a buffer the pass owns, and later ones
        are added into that buffer in place.  Before a node's vjps run its
        gradient is made read-only, so a vjp that writes into ``g`` raises
        instead of corrupting a shared buffer.  Every returned gradient is
        a writeable float64 array that shares memory with nothing else:
        a leaf gradient the pass does not own is copied out.
        """
        if loss.tape is not self:
            raise TapeError("loss was not recorded on this tape")
        if loss.size != 1:
            raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
        if self._spent:
            raise TapeError("backward already ran on this tape; record a new one")
        self._spent = True
        leaves = {leaf.node for leaf in self._watched}
        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        owned = [False] * len(self._nodes)  # grads[j] is a buffer of this pass
        grads[loss.node] = np.ones_like(loss.data)
        owned[loss.node] = True
        for i in range(len(self._nodes) - 1, -1, -1):
            node = self._nodes[i]
            inputs, node.inputs = node.inputs, ()
            g = grads[i]
            if g is None:
                continue
            if inputs:
                g.flags.writeable = False
            for j, vjp in inputs:
                gj = vjp(g)
                if np.shape(gj) != self._nodes[j].shape:
                    raise TapeError(
                        f"vjp of node {i} returned shape {np.shape(gj)} for its input "
                        f"node {j}, which has shape {self._nodes[j].shape}")
                if grads[j] is None:
                    grads[j] = np.asarray(gj, dtype=np.float64)
                elif owned[j]:
                    grads[j] += gj
                else:
                    # asarray: a ufunc on 0-d operands returns a scalar
                    grads[j] = np.asarray(np.add(grads[j], gj))
                    owned[j] = True
            if i not in leaves:
                grads[i] = None
        out = {}
        for leaf in self._watched:
            g = grads[leaf.node]
            if g is None:
                g = np.zeros_like(leaf.data)
            elif not owned[leaf.node]:
                g = np.array(g, dtype=np.float64, copy=True)
            out[leaf] = Tensor(g)
        return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape``, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _sum_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.sum(x, axis)`` over one axis, bit for bit, without numpy's
    per-row reduction overhead on short axes.

    numpy starts a sum from +0.0 and adds along the axis in order, except
    along the innermost axis of the iteration (the last axis, or one
    followed only by length-1 axes) once it is 8 or longer, where it sums
    pairwise.  So for a C-contiguous ``x`` this adds the slices in order,
    from +0.0, and leaves the pairwise cases and other layouts to
    ``np.sum``.  This is the short-axis rule the reductions here share:
    below 8, a loop of whole-plane numpy calls in order; from 8 on the
    innermost axis, numpy's pairwise sum.
    """
    axis %= x.ndim
    n = x.shape[axis]
    innermost = math.prod(x.shape[axis + 1:]) == 1
    if n == 0 or (innermost and n >= 8) or not x.flags.c_contiguous:
        return np.sum(x, axis=axis)
    lead = (slice(None),) * axis
    out = np.add(x[lead + (0,)], 0.0)
    for i in range(1, n):
        out += x[lead + (i,)]
    return out


def _sum_planes(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, -1)`` bit for bit, for 8 <= d = ``x.shape[-1]`` < 16, as
    whole-plane adds of the strided views ``x[..., i]``.

    numpy sums an innermost axis of 8 to 15 with eight accumulators set to
    the first eight terms, adds them as ``((a0 + a1) + (a2 + a3)) + ((a4 +
    a5) + (a6 + a7))``, then adds the leftover terms in order, and finally
    adds that to its +0.0 start.  The start is left out here: it changes
    only a -0.0 total, which a sum of squares never is.
    """
    p = [x[..., i] for i in range(x.shape[-1])]
    total = np.add(p[0], p[1])
    total += np.add(p[2], p[3])
    right = np.add(p[4], p[5])
    right += np.add(p[6], p[7])
    total += right
    for term in p[8:]:
        total += term
    return total


def _max_axis(x: np.ndarray, axis: int, argmax: bool = False):
    """The max of ``x`` along one axis, read at the first index that
    attains it (``np.argmax``'s choice), and with ``argmax`` that index.

    Returns ``(max, index or None)`` without the axis.  The short-axis
    rule of ``_sum_axis``: below 8, a loop of whole-plane numpy calls in
    order, where ``np.maximum(x_i, m)`` keeps ``m`` on ties (so the first
    of ``-0.0`` and ``0.0``) and a nan propagates; from 8, ``np.argmax``
    and a flat take.  A nan max falls back to ``np.argmax`` for the
    index, which points at the first nan.
    """
    n = x.shape[axis]
    if n >= 8 or n == 0:
        index = x.argmax(axis=axis)
        kept = x.shape[:axis] + (1,) + x.shape[axis + 1:]
        top = x.take(_flat_index(index.reshape(kept), x.shape, axis)).reshape(index.shape)
        return top, index if argmax else None
    lead = (slice(None),) * axis
    m = x[lead + (0,)]
    index = np.zeros(m.shape, np.intp) if argmax else None
    for i in range(1, n):
        xi = x[lead + (i,)]
        if argmax:
            np.copyto(index, i, where=xi > m)
        m = np.maximum(xi, m)
    if n == 1:
        m = m.copy()
    elif argmax and np.isnan(m).any():
        index = x.argmax(axis=axis)
    return m, index


def _flat_index(idx: np.ndarray, shape: tuple[int, ...], axis: int) -> np.ndarray:
    """Flat C-order positions, in an array of ``shape``, of the indices
    ``idx`` along ``axis`` (``idx`` has ``shape`` off ``axis``)."""
    outer = math.prod(shape[:axis])
    inner = np.intp(math.prod(shape[axis + 1:]))
    flat = idx.reshape(outer, idx.shape[axis], inner).astype(np.intp, copy=False)
    flat = flat * inner if inner > 1 else flat
    flat = flat + (np.arange(outer) * (shape[axis] * inner))[:, None, None]
    if inner > 1:
        flat += np.arange(inner)
    return flat.reshape(idx.shape)


def _take_last(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, -1)`` as one flat take, for in-range
    ``idx``; ``a`` is broadcast to ``idx``'s leading shape."""
    a = np.broadcast_to(a, idx.shape[:-1] + a.shape[-1:])
    return a.take(_flat_index(idx, a.shape, a.ndim - 1))


def _layout(x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shape of ``x`` and the memory order of its axes, outermost first,
    that ``np.zeros_like(x)`` would give: C or F order for a contiguous
    ``x``, otherwise decreasing absolute stride, ties in axis order.

    A scatter vjp makes its zeros in this layout without holding ``x``.
    The layout decides the order in which later reductions add, so the
    gradient stays bit-identical to one scattered into ``zeros_like(x)``.
    """
    axes = tuple(range(x.ndim))
    if x.flags.c_contiguous:
        return x.shape, axes
    if x.flags.f_contiguous:
        return x.shape, axes[::-1]
    return x.shape, tuple(sorted(axes, key=lambda i: -abs(x.strides[i])))


def _zeros(layout: tuple[tuple[int, ...], tuple[int, ...]]) -> np.ndarray:
    """Zeros of the shape and memory order ``_layout`` recorded."""
    shape, order = layout
    if order == tuple(range(len(shape))):
        return np.zeros(shape)
    return np.zeros([shape[i] for i in order]).transpose(np.argsort(order))


def _per_pass(fn: Callable) -> Callable:
    """``fn(g)``, computed once per backward pass.

    For a gradient term that several vjps of one node share: the tape
    calls a node's vjps in turn with the same ``g``.
    """
    memo = [None, None]

    def cached(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, fn(g)
        return memo[1]

    return cached


def _record(data: np.ndarray, *pairs: tuple[Tensor, Callable]) -> Tensor:
    """An op's output ``data``, recorded with the vjp of each taped operand.

    ``pairs`` are ``(operand, vjp)``; an operand may appear in several.
    The pairs of untaped operands are dropped here, so neither their vjps
    nor what those capture outlive the call.
    """
    tape, taped = None, []
    for t, vjp in pairs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands recorded on different tapes")
        taped.append((t, vjp))
    if tape is None:
        return Tensor(data)
    return tape._emit(data, taped)


# ---------------------------------------------------------------------------
# elementwise and linear ops


def _broadcast_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """``np.broadcast_shapes(a, b)`` for two shapes, without building the
    arrays numpy's helper makes; raises ``ValueError`` if they conflict."""
    if a == b:
        return a
    n = max(len(a), len(b))
    out = []
    for x, y in zip((1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b):
        if x != y and x != 1 and y != 1:
            raise ValueError(f"shapes {a} and {b} do not broadcast")
        out.append(y if x == 1 else x)
    return tuple(out)


def _broadcast_guard(a: np.ndarray, b: np.ndarray, op: str) -> tuple[int, ...]:
    """The shape ``a`` and ``b`` broadcast to; raises ``ShapeError`` if none."""
    try:
        return _broadcast_shape(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "add")
    sa, sb = a.shape, b.shape
    return _record(np.add(a.data, b.data),
                   (a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "sub")
    sa, sb = a.shape, b.shape
    return _record(np.subtract(a.data, b.data),
                   (a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "mul")
    # each vjp reads only the other operand's data: with one operand
    # untaped, its vjp is never recorded and the taped operand's data is
    # not kept
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _record(np.multiply(ad, bd),
                   (a, lambda g: _unbroadcast(g * bd, sa)),
                   (b, lambda g: _unbroadcast(g * ad, sb)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "div")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _record(np.divide(ad, bd),
                   (a, lambda g: _unbroadcast(g / bd, sa)),
                   (b, lambda g: _unbroadcast(-g * ad / (bd * bd), sb)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _record(np.negative(a.data), (a, lambda g: -g))


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return _record(np.log(ad), (a, lambda g: g / ad))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _record(out, (a, lambda g: g * (1.0 - out * out)))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _record(np.maximum(a.data, 0.0), (a, lambda g: g * mask))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return _record(np.logaddexp(0.0, ad), (a, lambda g: g * _expit(ad)))


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "maximum")
    mask = a.data >= b.data
    sa, sb = a.shape, b.shape
    return _record(np.maximum(a.data, b.data),
                   (a, lambda g: _unbroadcast(g * mask, sa)),
                   (b, lambda g: _unbroadcast(g * ~mask, sb)))


def minimum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "minimum")
    mask = a.data <= b.data
    sa, sb = a.shape, b.shape
    return _record(np.minimum(a.data, b.data),
                   (a, lambda g: _unbroadcast(g * mask, sa)),
                   (b, lambda g: _unbroadcast(g * ~mask, sb)))


def clip(a, lo, hi) -> Tensor:
    return minimum(maximum(a, lo), hi)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape

    def vjp_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)

    def vjp_b(g):
        return _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb)

    return _record(np.matmul(ad, bd), (a, vjp_a), (b, vjp_b))


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    pairs = []
    hi = 0
    for t in ts:
        lo, hi = hi, hi + t.shape[axis]

        def vjp(g, lo=lo, hi=hi):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        pairs.append((t, vjp))
    return _record(np.concatenate([t.data for t in ts], axis=axis), *pairs)


def check_index(idx, extent: int, op: str) -> np.ndarray:
    """``idx`` as an integer array, each entry checked to lie in [0, extent)."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise ShapeError(f"{op}: indices must be integers, got dtype {idx.dtype}")
    if idx.size:
        lo, hi = idx.min(), idx.max()
        if lo < 0 or hi >= extent:
            bad = int(lo) if lo < 0 else int(hi)
            raise IndexRangeError(f"{op}: index {bad} out of range [0, {extent})")
    return idx


def take_along(a, indices, axis: int) -> Tensor:
    """Batched selection along ``axis`` (numpy ``take_along_axis`` semantics).

    The index must have the tensor's shape on every axis but ``axis``.
    Forward and backward address ``a`` by flat C-order position.  With one
    index per row the gradient is put there (``g + 0.0``, as a scatter-add
    into zeros gives ``+0.0`` for ``-0.0``); with several, repeated indices
    accumulate in index order.  The gradient has the operand's memory
    layout (``_layout``).
    """
    a = as_tensor(a)
    axis_ = axis % a.ndim
    idx = check_index(indices, a.shape[axis_], "take_along")
    if (idx.ndim != a.ndim or idx.shape[:axis_] != a.shape[:axis_]
            or idx.shape[axis_ + 1:] != a.shape[axis_ + 1:]):
        raise ShapeError(f"take_along: index shape {idx.shape} differs from tensor "
                         f"shape {a.shape} off axis {axis_}")
    flat = _flat_index(idx, a.shape, axis_)
    single = idx.shape[axis_] == 1
    layout = _layout(a.data)
    shape, order = layout

    def vjp(g):
        out = np.zeros(math.prod(shape))
        if single:
            out.put(flat, g + 0.0)
        else:
            np.add.at(out, flat.reshape(-1), g.reshape(-1))
        out = out.reshape(shape)
        if order == tuple(range(len(shape))):
            return out
        laid = _zeros(layout)
        laid[...] = out
        return laid

    return _record(a.data.take(flat), (a, vjp))


def take_rows(a, indices) -> Tensor:
    """Rows of ``a`` picked per leading index: ``a`` of shape ``(..., M, d)``
    and integer ``indices`` of shape ``(..., n)`` give ``(..., n, d)``.

    Equal to ``take_along`` along axis -2 with ``indices[..., None]``
    repeated ``d`` times on the last axis, but made by one flat ``np.take``
    over the ``(prod(lead) * M, d)`` row view.  The gradient
    scatter-adds the rows back, so repeated indices accumulate.
    """
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"take_rows: tensor must have ndim >= 2, got shape {a.shape}")
    lead, (m, d) = a.shape[:-2], a.shape[-2:]
    idx = check_index(indices, m, "take_rows")
    if idx.ndim == 0 or idx.shape[:-1] != lead:
        raise ShapeError(f"take_rows: index shape {idx.shape} does not match the "
                         f"leading shape {lead} of tensor shape {a.shape}")
    count = int(np.prod(lead, dtype=np.int64))
    rows = count * m
    offsets = (np.arange(count) * m).reshape(lead + (1,))
    flat = (idx + offsets).reshape(-1)
    out_shape, shape = idx.shape + (d,), a.shape

    def vjp(g):
        out = np.zeros((rows, d))
        np.add.at(out, flat, g.reshape(flat.size, d))
        return out.reshape(shape)

    return _record(np.take(a.data.reshape(rows, d), flat, axis=0).reshape(out_shape),
                   (a, vjp))


def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    expanded = list(g.shape)
    for a in sorted(axes):
        expanded.insert(a, 1)
    return np.broadcast_to(g.reshape(expanded), shape)


def reduce_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    return _record(np.sum(a.data, axis=axis), (a, lambda g: _restore_axes(g, shape, axis)))


def reduce_mean(a, axis: int) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    count = shape[axis]
    return _record(np.mean(a.data, axis=axis),
                   (a, lambda g: _restore_axes(g, shape, axis) / count))


def reduce_max(a, axis: int = -1) -> Tensor:
    """Max along one axis; the gradient flows to the first argmax."""
    a = as_tensor(a)
    axis_ = axis % a.ndim
    shape = a.shape
    kept = shape[:axis_] + (1,) + shape[axis_ + 1:]
    top, argmax = _max_axis(a.data, axis_, argmax=True)

    def vjp(g):
        grad = np.zeros(shape)
        # + 0.0 makes a -0.0 gradient +0.0, as a scatter-add into zeros does
        grad.put(_flat_index(argmax.reshape(kept), shape, axis_), g + 0.0)
        return grad

    return _record(top, (a, vjp))


def _d_last(x: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``x`` with its leading axis moved last."""
    return x.transpose(tuple(range(1, x.ndim)) + (0,)).copy()


def negative_euclidean(targets, items, scale: float | None = None) -> Tensor:
    """``-scale * sqrt(sum((items - targets[..., None, :])**2, -1))`` as one
    tape node: targets ``(..., d)`` and items ``(..., slate, d)`` broadcast
    to ``(..., slate)``.  Without ``scale`` the factor is left out.

    Forward and backward run the numpy kernels of the composition
    expand_dims, sub, mul(diff, diff), reduce_sum, sqrt, neg and mul(scale)
    in the same order, so values and gradients are bit-identical to it.
    The subgradient at a distance of exactly 0 is 0.

    The d axis sits where the short-axis rule of ``_sum_axis`` wants it.
    For 2 <= d < 8 it leads: ``diff``, its d-sum and both gradients run on
    whole ``(..., slate)`` planes, and the d-sum and a slate shorter than
    8 are summed by slice loops in order.  For d = 1 and d >= 8 it trails,
    and numpy sums d >= 16 pairwise; for 8 <= d < 16 ``_sum_planes`` does
    numpy's pairwise sum in plane adds.
    Each gradient comes back C-contiguous with d last, as the composition
    gave it, so that reductions further down the tape add in the same order.
    """
    targets, items = as_tensor(targets), as_tensor(items)
    if targets.ndim < 1 or items.ndim < 2 or targets.shape[-1] != items.shape[-1]:
        raise ShapeError(f"negative_euclidean: targets {targets.shape} and items "
                         f"{items.shape} are not (..., d) and (..., slate, d)")
    d = items.shape[-1]
    t = targets.data[..., None, :]
    full = _broadcast_guard(items.data, t, "negative_euclidean")
    ax = 0 if 2 <= d < 8 else -1
    if ax == 0:
        diff = np.empty((d,) + full[:-1])
        for k in range(d):
            np.subtract(items.data[..., k], t[..., k], out=diff[k])
    else:
        diff = items.data - t
    sq = diff * diff
    root = np.sqrt(_sum_planes(sq) if 8 <= d < 16 else _sum_axis(sq, ax))
    out = np.negative(root)
    if scale is not None:
        scale = float(scale)
        out *= scale
    tshape, ishape = t.shape, items.shape
    lead = len(full) - len(tshape)  # targets with fewer leading axes than the items
    axes = tuple(i for i, n in enumerate(tshape) if n == 1 and full[lead + i] != 1)
    slate_only = axes == (len(tshape) - 2,)

    @_per_pass
    def grad_diff(g):
        if scale is not None:
            g = g * scale
        g = -g
        positive = root > 0.0
        if positive.all():  # the masks below would change nothing
            g = 0.5 * g / root
        else:
            safe = np.where(positive, root, 1.0)
            g = np.where(positive, 0.5 * g / safe, 0.0)
        gd = (g[None] if ax == 0 else g[..., None]) * diff
        gd += gd  # how the tape summed the two inputs of mul(diff, diff)
        return gd

    def vjp_targets(g):
        grad = -grad_diff(g)
        if ax == 0:
            if lead == 0 and slate_only and full[-2] < 8:
                return _d_last(_sum_axis(grad, -1))
            grad = _d_last(grad)
        if lead > 0:
            grad = grad.sum(axis=tuple(range(lead)))
        if slate_only:
            return _sum_axis(grad, -2)
        if axes:
            grad = grad.sum(axis=axes, keepdims=True)
        return grad.reshape(tshape[:-2] + (d,))

    def vjp_items(g):
        grad = grad_diff(g)
        return _unbroadcast(_d_last(grad) if ax == 0 else grad, ishape)

    return _record(out, (targets, vjp_targets), (items, vjp_items))


_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))


def normal_log_density(value, loc, scale) -> Tensor:
    """Elementwise Normal log-density ``-0.5 * z**2 - (log(scale) +
    0.5 * log(2 pi))`` with ``z = (value - loc) / scale``, as one tape node.

    Forward and backward run the numpy kernels of the composition sub,
    div, mul(z, z), mul(-0.5), log, add and sub in the same order, so
    values and gradients are bit-identical to it.  A taped ``scale``
    receives the log term and then the div term, as it did from the two
    nodes.
    """
    value, loc, scale = as_tensor(value), as_tensor(loc), as_tensor(scale)
    _broadcast_guard(value.data, loc.data, "normal_log_density")
    diff = value.data - loc.data
    _broadcast_guard(diff, scale.data, "normal_log_density")
    sd = scale.data
    z = diff / sd
    out = z * z
    out *= -0.5
    out -= np.log(sd) + _HALF_LOG_2PI
    dshape, vshape, lshape, sshape = diff.shape, value.shape, loc.shape, scale.shape

    @_per_pass
    def grad_z(g):
        gz = g * -0.5 * z
        return gz + gz  # how the tape summed the two inputs of mul(z, z)

    @_per_pass
    def grad_diff(g):
        return _unbroadcast(grad_z(g) / sd, dshape)

    return _record(out,
                   (scale, lambda g: _unbroadcast(-g, sshape) / sd),
                   (scale, lambda g: _unbroadcast(-grad_z(g) * diff / (sd * sd), sshape)),
                   (value, lambda g: _unbroadcast(grad_diff(g), vshape)),
                   (loc, lambda g: _unbroadcast(-grad_diff(g), lshape)))


def log_softmax(a) -> Tensor:
    """Log-softmax along the last axis, shifted by the row max.

    The max comes from ``_max_axis``, so on a tie of ``-0.0`` and ``0.0``
    it may have the other sign than ``np.max``'s.  The output does not
    depend on that: every entry that is not a zero is shifted by the same
    amount, and a tie puts two ones into the exp-sum, so the zeros' output
    is ``-lse`` with ``lse > 0`` either way.
    """
    a = as_tensor(a)
    shifted = a.data - _max_axis(a.data, a.ndim - 1)[0][..., None]
    lse = np.log(_sum_axis(np.exp(shifted), -1))[..., None]
    out = shifted - lse

    def vjp(g):
        return g - np.exp(out) * _sum_axis(g, -1)[..., None]

    return _record(out, (a, vjp))


def logsumexp(a) -> Tensor:
    """Log-sum-exp along the last axis."""
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    ad = a.data
    out = m[..., 0] + np.log(np.sum(np.exp(ad - m), axis=-1))

    def vjp(g):
        soft = np.exp(ad - out[..., None])
        return g[..., None] * soft

    return _record(out, (a, vjp))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    sa = a.shape
    return _record(a.data.reshape(shape), (a, lambda g: g.reshape(sa)))


def broadcast_to(a, shape) -> Tensor:
    """Read-only broadcast view; the gradient sums over the broadcast axes."""
    a = as_tensor(a)
    shape, sa = tuple(shape), a.shape
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: shape {sa} does not broadcast to {shape}") from None
    return _record(out, (a, lambda g: _unbroadcast(g, sa)))


def index(a, key) -> Tensor:
    """Basic indexing (ints and slices, no index arrays): ``a[key]``."""
    a = as_tensor(a)
    layout = _layout(a.data)

    def vjp(g):
        out = _zeros(layout)
        out[key] = g
        return out

    return _record(a.data[key], (a, vjp))


def expand_dims(a, axis: int) -> Tensor:
    a = as_tensor(a)
    n = a.ndim + 1
    if not -n <= axis < n:
        raise ShapeError(f"expand_dims: axis {axis} out of range for {n} dimensions")
    axis %= n
    return reshape(a, a.shape[:axis] + (1,) + a.shape[axis:])


def squeeze(a, axis: int) -> Tensor:
    a = as_tensor(a)
    if not -a.ndim <= axis < a.ndim or a.shape[axis] != 1:
        raise ShapeError(f"squeeze: axis {axis} of shape {a.shape} is not of length 1")
    axis %= a.ndim
    return reshape(a, a.shape[:axis] + a.shape[axis + 1:])
