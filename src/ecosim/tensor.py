"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors are immutable after construction and carry an optional reference
to the Tape that recorded them.  A Tape is an explicit, scoped object:
create one per training step, watch the leaves you want gradients for,
run the forward computation, call ``backward``, drop the tape.  Taped and
untaped evaluation run the same numpy kernels, so forward values are
bit-identical either way.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import expit


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class TapeError(RuntimeError):
    """Raised on misuse of a Tape (wrong tape, non-scalar loss, ...)."""


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

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying buffer; treat it as read-only."""
        return self.data

    def __repr__(self) -> str:
        taped = " taped" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{taped})\n{self.data!r}"

    # Arithmetic sugar; everything routes through the module-level ops so
    # that tape recording lives in one place.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
        grads[loss.node] = np.ones_like(loss.data)
        for i in range(len(self._nodes) - 1, -1, -1):
            node = self._nodes[i]
            inputs, node.inputs = node.inputs, ()
            g = grads[i]
            if g is None:
                continue
            for j, vjp in inputs:
                gj = vjp(g)
                if np.shape(gj) != self._nodes[j].shape:
                    raise TapeError(
                        f"vjp of node {i} returned shape {np.shape(gj)} for its input "
                        f"node {j}, which has shape {self._nodes[j].shape}")
                if grads[j] is None:
                    grads[j] = np.array(gj, dtype=np.float64, copy=True)
                else:
                    grads[j] += gj
            if i not in leaves:
                grads[i] = None
        out = {}
        for leaf in self._watched:
            g = grads[leaf.node]
            out[leaf] = Tensor(np.zeros_like(leaf.data) if g is None else g)
        return out


def _common_tape(tensors: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands recorded on different tapes")
    return tape


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
    ``np.sum``.
    """
    axis %= x.ndim
    n = x.shape[axis]
    innermost = all(m == 1 for m in x.shape[axis + 1:])
    if n == 0 or (innermost and n >= 8) or not x.flags.c_contiguous:
        return np.sum(x, axis=axis)
    index = [slice(None)] * x.ndim
    index[axis] = 0
    out = np.add(x[tuple(index)], 0.0)
    for i in range(1, n):
        index[axis] = i
        out += x[tuple(index)]
    return out


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


def _apply(fwd: Callable, inputs: Sequence, vjps: Sequence[Callable | None]) -> Tensor:
    """Run ``fwd`` on raw buffers and record vjps for taped inputs."""
    ts = [as_tensor(x) for x in inputs]
    tape = _common_tape(ts)
    data = fwd(*[t.data for t in ts])
    if tape is None:
        return Tensor(data)
    partials = [(t, vjp) for t, vjp in zip(ts, vjps)
                if t.tape is not None and vjp is not None]
    return tape._emit(data, partials)


# ---------------------------------------------------------------------------
# elementwise and linear ops


def _broadcast_guard(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "add")
    return _apply(np.add, (a, b),
                  (lambda g: _unbroadcast(g, a.shape),
                   lambda g: _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "sub")
    return _apply(np.subtract, (a, b),
                  (lambda g: _unbroadcast(g, a.shape),
                   lambda g: _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "mul")
    return _apply(np.multiply, (a, b),
                  (lambda g: _unbroadcast(g * b.data, a.shape),
                   lambda g: _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "div")
    return _apply(np.divide, (a, b),
                  (lambda g: _unbroadcast(g / b.data, a.shape),
                   lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _apply(np.negative, (a,), (lambda g: -g,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _apply(np.log, (a,), (lambda g: g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _apply(lambda x: out, (a,), (lambda g: g * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _apply(lambda x: np.maximum(x, 0.0), (a,),
                  (lambda g: g * (a.data > 0.0),))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    return _apply(lambda x: np.logaddexp(0.0, x), (a,),
                  (lambda g: g * expit(a.data),))


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "maximum")
    mask = a.data >= b.data
    return _apply(np.maximum, (a, b),
                  (lambda g: _unbroadcast(g * mask, a.shape),
                   lambda g: _unbroadcast(g * ~mask, b.shape)))


def minimum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_guard(a.data, b.data, "minimum")
    mask = a.data <= b.data
    return _apply(np.minimum, (a, b),
                  (lambda g: _unbroadcast(g * mask, a.shape),
                   lambda g: _unbroadcast(g * ~mask, b.shape)))


def clip(a, lo, hi) -> Tensor:
    return minimum(maximum(a, lo), hi)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def vjp_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)

    def vjp_b(g):
        return _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)

    return _apply(np.matmul, (a, b), (vjp_a, vjp_b))


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    tape = _common_tape(ts)
    data = np.concatenate([t.data for t in ts], axis=axis)
    if tape is None:
        return Tensor(data)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)
    partials = []
    for i, t in enumerate(ts):
        if t.tape is None:
            continue
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g, lo=lo, hi=hi):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        partials.append((t, vjp))
    return tape._emit(data, partials)


def _check_index(idx: np.ndarray, extent: int, op: str) -> np.ndarray:
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{op}: indices must be integers, got dtype {idx.dtype}")
    if idx.size:
        lo, hi = idx.min(), idx.max()
        if lo < 0 or hi >= extent:
            bad = int(lo) if lo < 0 else int(hi)
            raise ShapeError(f"{op}: index {bad} out of range [0, {extent})")
    return idx


def _along_index(idx: np.ndarray, axis: int):
    grids = list(np.ogrid[tuple(slice(n) for n in idx.shape)])
    grids[axis] = idx
    return tuple(grids)


def take_along(a, indices, axis: int) -> Tensor:
    """Batched selection along ``axis`` (numpy ``take_along_axis`` semantics).

    The index must have the tensor's shape on every axis but ``axis``.
    """
    a = as_tensor(a)
    axis_ = axis % a.ndim
    idx = _check_index(indices, a.shape[axis_], "take_along")
    if (idx.ndim != a.ndim or idx.shape[:axis_] != a.shape[:axis_]
            or idx.shape[axis_ + 1:] != a.shape[axis_ + 1:]):
        raise ShapeError(f"take_along: index shape {idx.shape} differs from tensor "
                         f"shape {a.shape} off axis {axis_}")

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, _along_index(idx, axis_), g)
        return out

    return _apply(lambda x: np.take_along_axis(x, idx, axis=axis_), (a,), (vjp,))


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
    idx = _check_index(indices, m, "take_rows")
    if idx.ndim == 0 or idx.shape[:-1] != lead:
        raise ShapeError(f"take_rows: index shape {idx.shape} does not match the "
                         f"leading shape {lead} of tensor shape {a.shape}")
    count = int(np.prod(lead, dtype=np.int64))
    rows = count * m
    offsets = (np.arange(count) * m).reshape(lead + (1,))
    flat = (idx + offsets).reshape(-1)
    out_shape = idx.shape + (d,)

    def vjp(g):
        out = np.zeros((rows, d))
        np.add.at(out, flat, g.reshape(flat.size, d))
        return out.reshape(a.shape)

    return _apply(lambda x: np.take(x.reshape(rows, d), flat, axis=0).reshape(out_shape),
                  (a,), (vjp,))


def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None or keepdims:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    expanded = list(g.shape)
    for a in sorted(axes):
        expanded.insert(a, 1)
    return np.broadcast_to(g.reshape(expanded), shape)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return _apply(lambda x: np.sum(x, axis=axis, keepdims=keepdims), (a,),
                  (lambda g: _restore_axes(g, a.shape, axis, keepdims),))


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def vjp(g):
        return _restore_axes(g, a.shape, axis, keepdims) / count

    return _apply(lambda x: np.mean(x, axis=axis, keepdims=keepdims), (a,), (vjp,))


def reduce_max(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Max along one axis; the gradient flows to the first argmax."""
    a = as_tensor(a)
    axis_ = axis % a.ndim
    argmax = np.argmax(a.data, axis=axis_)
    idx = np.expand_dims(argmax, axis_)

    def fwd(x):
        out = np.take_along_axis(x, idx, axis=axis_)
        return out if keepdims else np.squeeze(out, axis=axis_)

    def vjp(g):
        gk = g if keepdims else np.expand_dims(g, axis_)
        positions = np.arange(a.shape[axis_]).reshape((-1,) + (1,) * (a.ndim - axis_ - 1))
        # + 0.0 makes a -0.0 gradient +0.0, as a scatter-add into zeros does
        return np.where(positions == idx, gk + 0.0, 0.0)

    return _apply(fwd, (a,), (vjp,))


def negative_euclidean(targets, items, scale: float | None = None) -> Tensor:
    """``-scale * sqrt(sum((items - targets[..., None, :])**2, -1))`` as one
    tape node: targets ``(..., d)`` and items ``(..., slate, d)`` broadcast
    to ``(..., slate)``.  Without ``scale`` the factor is left out.

    Forward and backward run the numpy kernels of the composition
    expand_dims, sub, mul(diff, diff), reduce_sum, sqrt, neg and mul(scale)
    in the same order, so values and gradients are bit-identical to it.
    The subgradient at a distance of exactly 0 is 0.
    """
    targets, items = as_tensor(targets), as_tensor(items)
    if targets.ndim < 1 or items.ndim < 2 or targets.shape[-1] != items.shape[-1]:
        raise ShapeError(f"negative_euclidean: targets {targets.shape} and items "
                         f"{items.shape} are not (..., d) and (..., slate, d)")
    t = targets.data[..., None, :]
    _broadcast_guard(items.data, t, "negative_euclidean")
    diff = items.data - t
    root = np.sqrt(_sum_axis(diff * diff, -1))
    out = np.negative(root)
    if scale is not None:
        scale = float(scale)
        out *= scale

    @_per_pass
    def grad_diff(g):
        if scale is not None:
            g = g * scale
        g = -g
        safe = np.where(root > 0.0, root, 1.0)
        g = np.where(root > 0.0, 0.5 * g / safe, 0.0)
        gd = g[..., None] * diff
        return gd + gd  # how the tape summed the two inputs of mul(diff, diff)

    def vjp_targets(g):
        grad = -grad_diff(g)
        lead = grad.ndim - t.ndim
        if lead > 0:  # targets with fewer leading axes than the items
            grad = grad.sum(axis=tuple(range(lead)))
        axes = tuple(i for i, n in enumerate(t.shape) if n == 1 and grad.shape[i] != 1)
        if axes == (t.ndim - 2,):
            return _sum_axis(grad, -2)
        if axes:
            grad = grad.sum(axis=axes, keepdims=True)
        return np.squeeze(grad, -2)

    return _apply(lambda *_: out, (targets, items),
                  (vjp_targets, lambda g: _unbroadcast(grad_diff(g), items.shape)))


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
    z = diff / scale.data
    out = z * z
    out *= -0.5
    out -= np.log(scale.data) + _HALF_LOG_2PI

    @_per_pass
    def grad_z(g):
        gz = g * -0.5 * z
        return gz + gz  # how the tape summed the two inputs of mul(z, z)

    @_per_pass
    def grad_diff(g):
        return _unbroadcast(grad_z(g) / scale.data, diff.shape)

    tape = _common_tape((value, loc, scale))
    if tape is None:
        return Tensor(out)
    partials = []
    if scale.tape is not None:
        partials += [
            (scale, lambda g: _unbroadcast(-g, scale.shape) / scale.data),
            (scale, lambda g: _unbroadcast(-grad_z(g) * diff / (scale.data * scale.data),
                                           scale.shape))]
    if value.tape is not None:
        partials.append((value, lambda g: _unbroadcast(grad_diff(g), value.shape)))
    if loc.tape is not None:
        partials.append((loc, lambda g: _unbroadcast(-grad_diff(g), loc.shape)))
    return tape._emit(out, partials)


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(_sum_axis(np.exp(shifted), -1))[..., None]
    out = shifted - lse

    def vjp(g):
        return g - np.exp(out) * _sum_axis(g, -1)[..., None]

    return _apply(lambda x: out, (a,), (vjp,))


def logsumexp(a) -> Tensor:
    """Log-sum-exp along the last axis."""
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.squeeze(m, -1) + np.log(np.sum(np.exp(a.data - m), axis=-1))

    def vjp(g):
        soft = np.exp(a.data - np.expand_dims(out, -1))
        return np.expand_dims(g, -1) * soft

    return _apply(lambda x: out, (a,), (vjp,))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _apply(lambda x: x.reshape(shape), (a,),
                  (lambda g: g.reshape(a.shape),))


def broadcast_to(a, shape) -> Tensor:
    """Read-only broadcast view; the gradient sums over the broadcast axes."""
    a = as_tensor(a)
    shape = tuple(shape)

    def fwd(x):
        try:
            return np.broadcast_to(x, shape)
        except ValueError:
            raise ShapeError(
                f"broadcast_to: shape {a.shape} does not broadcast to {shape}") from None

    return _apply(fwd, (a,), (lambda g: _unbroadcast(g, a.shape),))


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Join equally shaped tensors along a new axis, as one tape node."""
    ts = [as_tensor(t) for t in tensors]
    tape = _common_tape(ts)
    data = np.stack([t.data for t in ts], axis=axis)
    if tape is None:
        return Tensor(data)
    partials = [(t, lambda g, i=i: np.take(g, i, axis=axis))
                for i, t in enumerate(ts) if t.tape is not None]
    return tape._emit(data, partials)


def index(a, key) -> Tensor:
    """Basic indexing (ints and slices, no index arrays): ``a[key]``."""
    a = as_tensor(a)

    def vjp(g):
        out = np.zeros_like(a.data)
        out[key] = g
        return out

    return _apply(lambda x: x[key], (a,), (vjp,))


def expand_dims(a, axis: int) -> Tensor:
    a = as_tensor(a)
    return _apply(lambda x: np.expand_dims(x, axis), (a,),
                  (lambda g: np.squeeze(g, axis),))


def squeeze(a, axis: int) -> Tensor:
    a = as_tensor(a)
    return _apply(lambda x: np.squeeze(x, axis), (a,),
                  (lambda g: np.expand_dims(g, axis),))


def stop_gradient(a) -> Tensor:
    """Value-identical tensor detached from any tape."""
    a = as_tensor(a)
    return Tensor(a.data)
