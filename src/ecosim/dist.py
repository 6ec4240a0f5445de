"""Distribution families for stochastic fields.

A behavior emits a distribution descriptor instead of a raw sample; the
runtime either samples it (simulation) or scores an observed value
against it (trajectory log-probability).  Sampling consumes uniforms
from a keyed :class:`~ecosim.rng.RngStream` with a fixed per-row budget,
so draws are reproducible per batch row: one uniform per element for a
``Uniform`` (the stream's draws themselves, strictly inside (0, 1)),
one per draw for a ``Categorical`` (inverse CDF of the softmax) and one
Gumbel per item for a ``PlackettLuce`` (Gumbel-top-k through
:func:`top_k`).  ``log_prob`` is built from differentiable tensor ops
and returns the log-probability of each independent draw, without
reducing over batch or event axes: elementwise for ``Normal``,
``Uniform``, ``Bernoulli`` and ``Deterministic``, one value per index
for ``Categorical``, per d-vector for ``GaussianMixture`` and per ranked
selection for ``PlackettLuce``.  The value may carry extra leading axes
(a time axis, when a whole trajectory is scored at once) that broadcast
against the parameters; callers reduce the result to rows themselves.

Convention for impossible events: log-probabilities use the finite
sentinel ``NEG_INF = -1e30`` instead of ``-inf`` so downstream
arithmetic stays finite.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .rng import RngStream
from .tensor import Tensor, as_array, as_tensor

NEG_INF = -1e30
_DETERMINISTIC_ATOL = 1e-12


class DistributionError(ValueError):
    """Raised when distribution parameters violate an invariant."""


def _leading_shape(value: np.ndarray, params: tuple[int, ...], what: str) -> tuple[int, ...]:
    """Broadcast of a value's leading axes against the parameters' ones."""
    try:
        return T._broadcast_shape(value.shape, params)
    except ValueError:
        raise DistributionError(
            f"{what} value shape {value.shape} does not broadcast against "
            f"parameter shape {params}") from None


def _broadcast_logits(logits: Tensor, lead: tuple[int, ...]) -> Tensor:
    shape = lead + logits.shape[-1:]
    return logits if logits.shape == shape else T.broadcast_to(logits, shape)


class Distribution:
    """Base class; subclasses define a family with fixed event semantics."""

    def sample(self, stream: RngStream):
        raise NotImplementedError

    def log_prob(self, value) -> Tensor:
        raise NotImplementedError


class Deterministic(Distribution):
    """A point mass, which behaviors never emit: they emit a deterministic
    field as its payload, and the scorer wraps that here only to check it.

    ``log_prob`` is 0 per element that equals ``loc`` or matches it within
    1e-12 (exactly, for integer payloads) and ``NEG_INF`` otherwise, so an
    infinite value matches only itself and nan matches nothing.
    """

    def __init__(self, loc):
        arr = as_array(loc)
        self._integer = np.issubdtype(arr.dtype, np.integer)
        self.loc = arr.astype(np.int64) if self._integer else np.asarray(arr, np.float64)

    def sample(self, stream: RngStream):
        return self.loc.copy()

    def _matches(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, np.float64)
        loc = np.asarray(self.loc, np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf, where both are inf
            return (v == loc) | (np.abs(v - loc) <= _DETERMINISTIC_ATOL)

    def is_consistent(self, value) -> bool:
        v = as_array(value)
        if v.shape != self.loc.shape:
            return False
        if np.array_equal(v, self.loc):
            return True
        return not self._integer and bool(self._matches(v).all())

    def log_prob(self, value) -> Tensor:
        return Tensor(np.where(self._matches(as_array(value)), 0.0, NEG_INF))


class Normal(Distribution):
    def __init__(self, loc, scale):
        self.loc = as_tensor(loc)
        self.scale = as_tensor(scale)
        if not (self.scale.data > 0.0).all():
            raise DistributionError("Normal scale must be positive elementwise")
        self._shape = T._broadcast_shape(self.loc.shape, self.scale.shape)

    def sample(self, stream: RngStream) -> np.ndarray:
        z = stream.normals(self._shape)
        return np.broadcast_to(self.loc.data, self._shape) + \
            np.broadcast_to(self.scale.data, self._shape) * z

    def log_prob(self, value) -> Tensor:
        return T.normal_log_density(value, self.loc, self.scale)


class Uniform(Distribution):
    """Independent U(0, 1) draws of a fixed shape, one uniform per element."""

    def __init__(self, shape: tuple[int, ...]):
        self._shape = tuple(int(n) for n in shape)

    def sample(self, stream: RngStream) -> np.ndarray:
        return stream.uniform_field(self._shape)

    def log_prob(self, value) -> Tensor:
        v = as_array(value)
        return Tensor(np.where((v > 0.0) & (v < 1.0), 0.0, NEG_INF))


class Bernoulli(Distribution):
    """Coin flips parameterized by logits; samples are int64 zeros/ones."""

    def __init__(self, logits):
        self.logits = as_tensor(logits)
        if not np.all(np.isfinite(self.logits.data)):
            raise DistributionError("Bernoulli logits must be finite")

    def sample(self, stream: RngStream) -> np.ndarray:
        u = stream.uniform_field(self.logits.shape)
        return (u < T._expit(self.logits.data)).astype(np.int64)

    def log_prob(self, value) -> Tensor:
        return T.sub(T.mul(Tensor(as_array(value)), self.logits),
                     T.softplus(self.logits))


class Categorical(Distribution):
    """Index draw over the last axis of ``logits``; samples are int64.

    ``shape`` is the sample shape, which the logits' leading axes must
    broadcast to: ``(d,)`` logits with ``shape=(B, n)`` keep one CDF row.
    Sampling is by inverse CDF, one uniform per draw: the uniform, scaled
    by the row total of ``p = exp(logits - max)``, selects the first index
    whose running sum of ``p`` exceeds it.  A category whose ``p``
    underflows to 0 is never drawn.  The categories are copied to the
    leading axis, so the max, the running sum and the index are numpy
    reductions over whole planes: a short last axis would cost numpy a
    per-row overhead, and the values are the same.
    """

    def __init__(self, logits, shape: tuple[int, ...] | None = None):
        self.logits = as_tensor(logits)
        if self.logits.ndim < 1:
            raise DistributionError("Categorical logits need at least one axis")
        if not np.isfinite(self.logits.data).all():
            raise DistributionError("Categorical logits must be finite")
        lead = self.logits.shape[:-1]
        self._shape = lead if shape is None else tuple(int(n) for n in shape)
        if len(lead) > len(self._shape) or any(
                a not in (1, b) for a, b in zip(lead[::-1], self._shape[::-1])):
            raise DistributionError(f"Categorical logits shape {self.logits.shape} does "
                                    f"not broadcast to sample shape {self._shape}")

    def sample(self, stream: RngStream) -> np.ndarray:
        logits = self.logits.data
        u = stream.uniform_field(self._shape)
        n, lead = logits.shape[-1], logits.shape[:-1]
        cum = np.moveaxis(logits, -1, 0).copy()
        cum -= cum.max(axis=0)
        np.exp(cum, out=cum)
        np.cumsum(cum, axis=0, out=cum)  # in order, as along the last axis
        total = cum[-1]
        # Kept below the row total, so the first index past it has p > 0
        # even where u * total rounds up to the total.
        target = np.minimum(u * total, np.nextafter(total, 0.0))
        # cum never decreases, so the first index past the target is the
        # number of categories at or below it.
        below = cum[:-1].reshape((n - 1,) + (1,) * (u.ndim - len(lead)) + lead) <= target
        return below.sum(axis=0, dtype=np.int64)

    def log_prob(self, value) -> Tensor:
        idx = as_array(value).astype(np.int64, copy=False)
        lead = _leading_shape(idx, self._shape, "Categorical")
        lsm = _broadcast_logits(T.log_softmax(self.logits), lead)
        if idx.shape != lead:
            idx = np.broadcast_to(idx, lead)
        return T.squeeze(T.take_along(lsm, idx.reshape(lead + (1,)), -1), -1)


class GaussianMixture(Distribution):
    """Mixture of diagonal Gaussians.

    ``weights``: (..., m), ``locs``: (..., m, d), ``scales`` broadcastable
    to ``locs``.  One d-vector is drawn per batch row.
    """

    def __init__(self, weights, locs, scales):
        self.weights = as_tensor(weights)
        self.locs = as_tensor(locs)
        self.scales = as_tensor(scales)
        w = self.weights.data
        if np.any(w < 0.0):
            raise DistributionError("mixture weights must be nonnegative")
        if not np.allclose(w.sum(axis=-1), 1.0, atol=1e-9):
            raise DistributionError("mixture weights must sum to 1 per batch row")
        if self.locs.ndim < 2:
            raise DistributionError("mixture locs need shape (..., components, dim)")
        if not np.all(self.scales.data > 0.0):
            raise DistributionError("mixture scales must be positive")
        self._m = self.locs.shape[-2]
        self._d = self.locs.shape[-1]
        if self.weights.shape[-1] != self._m:
            raise DistributionError(
                f"weights have {self.weights.shape[-1]} components, locs have {self._m}")
        self._lead = np.broadcast_shapes(self.weights.shape[:-1], self.locs.shape[:-2])

    def sample(self, stream: RngStream) -> np.ndarray:
        u = stream.uniform_field(self._lead + (1,))
        cum = np.cumsum(np.broadcast_to(self.weights.data, self._lead + (self._m,)), axis=-1)
        comp = np.minimum((u > cum).sum(axis=-1), self._m - 1)
        locs = np.broadcast_to(self.locs.data, self._lead + (self._m, self._d))
        scales = np.broadcast_to(self.scales.data, self._lead + (self._m, self._d))
        sel = np.expand_dims(np.expand_dims(comp, -1), -1)
        loc = np.take_along_axis(locs, np.broadcast_to(sel, self._lead + (1, self._d)), -2)
        scale = np.take_along_axis(scales, np.broadcast_to(sel, self._lead + (1, self._d)), -2)
        z = stream.normals(self._lead + (self._d,))
        return np.squeeze(loc, -2) + np.squeeze(scale, -2) * z

    def log_prob(self, value) -> Tensor:
        v = as_tensor(value)
        x = T.expand_dims(v, -2)  # (..., 1, d)
        comp = T.reduce_sum(T.normal_log_density(x, self.locs, self.scales), axis=-1)
        logw = T.log(T.maximum(self.weights, 1e-300))
        return T.logsumexp(T.add(logw, comp))


class PlackettLuce(Distribution):
    """Ordered top-k selection without replacement by sequential softmax.

    Sampling uses Gumbel-top-k (Kool et al., ICML'19): the k best of
    ``logits + Gumbel noise`` by :func:`top_k`, which is equal in
    distribution and vectorizes cleanly.  ``log_prob`` uses the
    sequential-softmax product.
    """

    def __init__(self, logits, k: int):
        self.logits = as_tensor(logits)
        if self.logits.ndim < 1:
            raise DistributionError("PlackettLuce logits need at least one axis")
        n = self.logits.shape[-1]
        if not 1 <= k <= n:
            raise DistributionError(f"PlackettLuce k={k} out of range [1, {n}]")
        if not np.all(np.isfinite(self.logits.data)):
            raise DistributionError("PlackettLuce logits must be finite")
        self.k = int(k)

    def sample(self, stream: RngStream) -> np.ndarray:
        return top_k(self.logits.data + stream.gumbels(self.logits.shape), self.k)

    def log_prob(self, value) -> Tensor:
        idx = as_array(value).astype(np.int64)
        if idx.ndim < 1 or idx.shape[-1] != self.k:
            raise DistributionError(
                f"PlackettLuce value shape {idx.shape} does not end in k={self.k}")
        lead = _leading_shape(idx[..., 0], self.logits.shape[:-1], "PlackettLuce")
        logits = _broadcast_logits(self.logits, lead)
        idx = np.broadcast_to(idx, lead + (self.k,))
        total = None
        mask = np.zeros(logits.shape, dtype=np.float64)
        # Each selection's flat position in ``mask``, written after its term.
        flat = T._flat_index(idx, logits.shape, logits.ndim - 1)
        for j in range(self.k):
            sel = idx[..., j:j + 1]
            masked = T.add(logits, Tensor(mask * NEG_INF))
            term = T.sub(T.squeeze(T.take_along(logits, sel, -1), -1),
                         T.logsumexp(masked))
            total = term if total is None else T.add(total, term)
            mask.put(flat[..., j], 1.0)
        return total


def top_k(score: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores along the last axis, best first.

    Equal scores rank by lowest index, as ``np.argmax`` breaks ties, so
    the result equals ``np.argsort(-score, axis=-1, kind="stable")[..., :k]``
    (``-0.0`` ties ``0.0``).  Each of the k passes takes ``argmax`` (the
    first of equal maxima) and writes ``-inf`` over the winner, so callers
    must not reuse ``score``.  A nan or infinite score raises instead of
    ranking last.  The cost is O(k*M) per row against the sort's
    O(M log M): at M = 100 it is faster up to k of about 40, and about 2x
    slower at k = M.  ``argpartition`` is not used because it leaves the
    choice among ties at the k-th place unspecified.
    """
    if not np.isfinite(score).all():
        raise ValueError("top-k scores are non-finite (nan or inf)")
    m = score.shape[-1]
    rows = np.ascontiguousarray(score).reshape(-1, m)
    flat = rows.reshape(-1)  # a view, so winners are written by flat index
    starts = np.arange(0, flat.size, m)
    ranks = np.empty((rows.shape[0], k), np.int64)
    for j in range(k):
        best = rows.argmax(axis=-1)
        ranks[:, j] = best
        flat[starts + best] = -np.inf
    return ranks.reshape(score.shape[:-1] + (k,))
