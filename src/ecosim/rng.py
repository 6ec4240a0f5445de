"""Keyed, counter-based random streams.

Every stochastic draw in a simulation is addressed by (root seed, variable
name, field path, step index) plus the batch row, so any stream can be
regenerated in isolation.  Trajectories are therefore reproducible
regardless of variable evaluation order, batch size, or how runs are
split across workers.

The generator is Philox4x32-10 (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3"), vectorized over numpy uint64 lanes and validated
against the published known-answer vectors.  A stream's counter is
``(block, row, 0, 0)`` under a 64-bit key hashed from (seed, variable,
path, step), where the row word is the batch row or the row's own id;
each block's four 32-bit output words make two 64-bit words, so one
Philox lane serves two columns of a row.  Counter words are 32 bits
wide: an id outside [0, 2^32), or a draw that would reach block 2^32,
raises instead of wrapping.

A key is the first 8 bytes, little-endian, of the BLAKE2b digest of
``"seed|variable|path|step"``, and :func:`derive_seed` makes every
sub-seed a command needs from one (runs, iterations, porl's initial
policy weights, latent-sat's true sensitivities).  So every number a
command draws, parameter initialization and ground truth included, comes
from these streams, and none from ``numpy.random``, whose streams numpy
does not promise to keep across versions.  BLAKE2b comes from CPython's
built-in ``_blake2`` module, the same constructor as ``hashlib.blake2b``:
importing ``hashlib`` would also load OpenSSL's libcrypto, a few MB of
resident memory in every process.

Stream layout v3: a 64-bit word maps to the double
``((word >> 12) + 0.5) * 2^-52``, which is exact and lies in
[2^-53, 1 - 2^-53], so every uniform is strictly inside (0, 1).  A
normal is the inverse normal CDF of one uniform, evaluated by Wichura's
AS 241 (PPND16, *Applied Statistics* 37(3):477-484, 1988), so a normal
costs one column of the row like any other draw.

A run's row key is one :class:`Rows`, in one of two forms: no ids, where
batch row r is row word r, or an array of row ids checked once.  Ids may
repeat: the sweep keys every boost cap's copy of a run by the run's id.
A draw then runs Philox and its transform (the unit map, and the normal
or Gumbel map) on the distinct ids only, and gathers the rows back by
copying, so each row holds the same bits as a draw of its own id alone.

A counter-based generator computes any step's numbers out of order, so a
run may draw later steps early.  Every run of :mod:`ecosim.runtime` keys
its streams by ``Rows(row_ids, last_step)``: a field whose draw keeps
its shape from one step to the next draws the following steps in the
same pass, one Philox call over a key per step, and the ``Rows`` hold
their distinct rows, transformed and not yet gathered, until those steps
ask for them.  They hold at most one pass per field, of at most
``_LOOKAHEAD_LANES`` Philox lanes, and only for their own key.  Every
draw, held or not, is checked as it is made, and every first draw of a
stream takes the one path through :meth:`Rows.ahead`.  So ``simulate``,
the sweep, the records that ``fit-em`` and REINFORCE score, and HMC's
chain (``Rows(None, proposals - 1)``) all draw ahead.  A stream made
without ``Rows`` makes its own, with ``last_step`` 0: a run of one step,
whose pass is its own step alone.  No other mode remains.
"""

from __future__ import annotations

# hashlib.blake2b is this constructor; importing hashlib also loads OpenSSL.
from _blake2 import blake2b

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT12 = np.uint64(12)
_ROUNDS = 10
_COUNTER_LIMIT = 2**32  # rows and blocks are 32-bit counter words


def philox4x32(c0, c1, c2, c3, key0, key1):
    """One Philox4x32-10 block per counter lane.

    Counters are uint64 arrays holding 32-bit values, and the key words
    ints or uint64 arrays of 32-bit values; all six broadcast against each
    other, so a ``(W, 1, 1)`` key gives W keys' blocks of the same
    counters in one call.  The return is four uint64 arrays, each holding
    a 32-bit output word.  The rounds run in place on fresh C-ordered
    lanes, each filled by broadcast assignment, so the inputs are never
    modified.
    """
    k0 = np.asarray(key0, np.uint64) & _MASK32
    k1 = np.asarray(key1, np.uint64) & _MASK32
    shape = np.broadcast(c0, c1, c2, c3, k0, k1).shape
    lanes = [np.empty(shape, np.uint64) for _ in range(4)]
    for lane, word in zip(lanes, (c0, c1, c2, c3)):
        lane[...] = word
    c0, c1, c2, c3 = lanes
    p0 = np.empty(shape, np.uint64)
    p1 = np.empty(shape, np.uint64)
    for r in range(_ROUNDS):
        if r:
            k0 = (k0 + _W0) & _MASK32
            k1 = (k1 + _W1) & _MASK32
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)  # c0 = hi1 ^ c1 ^ k0
        c0 ^= c1
        c0 ^= k0
        np.right_shift(p0, _SHIFT32, out=c2)  # c2 = hi0 ^ c3 ^ k1
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p1, _MASK32, out=c1)   # c1 = lo1
        np.bitwise_and(p0, _MASK32, out=c3)   # c3 = lo0
    return c0, c1, c2, c3


def _unit(bits: np.ndarray) -> np.ndarray:
    """Doubles ``((bits >> 12) + 0.5) * 2^-52`` of uint64 words.

    The top 52 bits plus a half are exact in float64, so every value is
    one of 2^52 equally spaced points in [2^-53, 1 - 2^-53].  ``bits`` is
    shifted in place, which saves a pass over a fresh buffer.
    """
    bits >>= _SHIFT12
    out = bits.astype(np.float64)
    out += 0.5
    out *= 2.0**-52
    return out


# AS 241 (PPND16) coefficients, constant term first.  Central region
# |p - 0.5| <= 0.425, in r = 0.180625 - q^2:
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
# Tail, r = sqrt(-log(min(p, 1 - p))) <= 5, in r - 1.6:
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
# Far tail, r > 5, in r - 5:
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _ratio(x: np.ndarray, num, den, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``num(x) / den(x)`` by Horner, in ``out`` with ``work`` as scratch."""
    np.multiply(x, num[-1], out=out)
    np.multiply(x, den[-1], out=work)
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        out += a
        out *= x
        work += b
        work *= x
    out += num[0]
    work += den[0]
    out /= work
    return out


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile of ``p`` in the open interval (0, 1), AS 241.

    The central rational runs over the whole array in two buffers; only the
    tail elements (|p - 0.5| > 0.425, about 15% of uniform draws) are then
    recomputed from ``r = sqrt(-log(min(p, 0.5 - q)))``, and the sign is
    copied from ``q``, so ``_ndtri(1 - p) == -_ndtri(p)`` whenever
    ``p - 0.5`` is exact.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = np.atleast_1d(p).reshape(-1)
    q = flat - 0.5
    r = np.multiply(q, q)
    np.subtract(0.180625, r, out=r)
    z = _ratio(r, _A, _B, np.empty_like(r), np.empty_like(r))
    z *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt = q[tail]
        # 0.5 - q is 1 - p exactly whenever q = p - 0.5 is.
        rt = np.sqrt(-np.log(np.minimum(flat[tail], 0.5 - qt)))
        far = rt > 5.0
        zt = _ratio(rt - 1.6, _C, _D, np.empty_like(rt), np.empty_like(rt))
        if far.any():
            rf = rt[far] - 5.0
            zt[far] = _ratio(rf, _E, _F, np.empty_like(rf), np.empty_like(rf))
        z[tail] = np.copysign(zt, qt)
    return z.reshape(p.shape)


def _key64(root_seed: int, variable: str, path: str, step: int) -> int:
    msg = f"{root_seed}|{variable}|{path}|{step}".encode()
    return int.from_bytes(blake2b(msg, digest_size=8).digest(), "little")


def derive_seed(root_seed: int, tag: str, index: int = 0) -> int:
    """Stable 63-bit sub-seed for nested stochastic procedures: the key of
    ``(root_seed, tag, "", index)`` shifted right one bit.

    Commands seed each run, iteration and initialization with it (for
    example ``derive_seed(seed, "params")`` for porl's initial policy and
    ``derive_seed(seed, "alpha")`` for latent-sat's true sensitivities),
    so one root seed fixes every stream.
    """
    return _key64(root_seed, tag, "", index) >> 1


# Lanes (distinct rows times blocks, over all steps) one lookahead pass
# draws at most.  The draws of a 25-row default sweep task took 45 ms at
# 2^13 against 106 ms one step a pass; 2^14 and 2^15 saved under 5% more,
# 2^16 was slower, and each doubling doubles what a pass holds.
_LOOKAHEAD_LANES = 2**13


class Rows:
    """A run's row key, checked once, and its lookahead up to ``last_step``.

    With no ``ids``, batch row ``r`` is the row word ``r``.  A 1-D integer
    array of ids keys it by ``ids[r]``: ``words`` are the sorted distinct
    ids as uint64 row words, and ``inverse`` gathers them back
    (``words[inverse]`` is the ids).  A bad id raises before the cast, so
    no negative one can wrap.  Every stream of a run shares its ``Rows``,
    so the ids are checked and deduplicated once.

    The rows hold their run's draws of later steps, up to ``last_step``
    (:meth:`ahead`), at most one pass per field.  They are the draws of
    this key alone: a stream with another key has other ``Rows``.  The
    default ``last_step`` 0 is a run of one step, which draws no step
    ahead.
    """

    def __init__(self, ids: np.ndarray | None = None, last_step: int = 0):
        self.ids, self.last_step = None, last_step
        # (variable, path) -> (signature, the next step, its held rows)
        self._held: dict[tuple[str, str], tuple[tuple, int, list]] = {}
        if ids is None:
            return
        ids = np.asarray(ids)
        if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"row ids must be a 1-D integer array, got dtype "
                             f"{ids.dtype} and shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= _COUNTER_LIMIT):
            bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
            raise ValueError(f"row id {bad} is outside the 32-bit row word")
        self.ids = ids
        self.words, self.inverse = np.unique(ids.astype(np.uint64), return_inverse=True)

    def ahead(self, stream: "RngStream", signature: tuple, lanes: int) -> np.ndarray:
        """The stream's transformed distinct rows at its step, for a first
        draw of ``lanes`` Philox lanes.

        A field's first draw at step t (cursor 0) whose signature ``(batch,
        per_row, transform)`` matches the field's draw at step t - 1 draws
        steps t .. t + W - 1 in one pass: W keys' Philox blocks in one
        call, then the 64-bit assembly, the unit map and the transform
        once.  W is the most steps within ``_LOOKAHEAD_LANES`` Philox
        lanes, at least 1 and at most the steps left to ``last_step``.  The
        distinct rows of the later steps are held; a later step takes them
        if its draw has the signature, and otherwise they are dropped and
        it draws its own.  Each block depends only on its counter and key,
        so the numbers are those of the steps drawn one at a time.
        """
        variable, path, step = stream._name
        batch, per_row, transform = signature
        held_signature, at, held = self._held.get((variable, path), (None, -1, []))
        if held_signature != signature or at != step:  # a new shape, or a gap
            held, steps = [], 1
        else:
            steps = max(1, min(_LOOKAHEAD_LANES // lanes, self.last_step - step + 1))
        if not held:
            held = list(stream._draw(batch, 0, per_row, transform, steps))
        rows = held.pop(0)
        self._held[variable, path] = (signature, step + 1, held)
        return rows


class RngStream:
    """A stream of uniforms keyed by (seed, variable, path, step).

    Column ``c`` of batch row ``r`` comes from the Philox block with
    counter ``(c // 2, w[r], 0, 0)``, where ``w`` are the row words: output
    words 0 and 1 give the even column, words 2 and 3 the odd one.
    ``rows`` is the row key, a :class:`Rows` or the ids that make one.
    With no ids, ``w[r] = r``; a 1-D integer array of ids (say, the run
    each row simulates) gives ``w[r] = ids[r]``, and every draw must then
    have one row per id.  Row ``i`` of a batched draw is thus identical to
    row 0 of a batch-1 draw made with ``rows=np.array([w[i]])``: batch
    size and row order never change which numbers a row receives.
    Successive draws continue along the columns, so two draws of ``n``
    equal one draw of ``2n`` whatever the parity of ``n``.  Rows and
    blocks are 32-bit counter words: an id must lie in [0, 2^32), and a
    draw may not reach block 2^32 (column 2^33).

    The stream's first draw comes from, or makes, a pass over the steps
    up to its :class:`Rows`' ``last_step`` (:meth:`Rows.ahead`); the
    numbers are the same.
    """

    def __init__(self, root_seed: int, variable: str = "", path: str = "",
                 step: int = 0, rows: np.ndarray | Rows | None = None):
        self._root_seed = root_seed
        self._name = (variable, path, step)
        self._cursor = 0  # per-row uniforms already consumed
        try:
            self._rows = rows if isinstance(rows, Rows) else Rows(rows)
        except ValueError as e:
            raise self._error(str(e)) from None

    def _error(self, what: str) -> ValueError:
        variable, path, step = self._name
        return ValueError(f"Philox counter words in variable {variable!r}, "
                          f"path {path!r}, step {step}: {what}")

    def uniforms(self, batch: int, per_row: int, transform=None) -> np.ndarray:
        """A (batch, per_row) block of doubles in the open interval (0, 1).

        ``transform``, an elementwise map such as the normal quantile, is
        applied before repeated ids are gathered, so once per distinct id.
        """
        if batch < 1 or per_row < 0:
            raise ValueError(f"invalid draw shape ({batch}, {per_row})")
        if per_row == 0:
            return np.zeros((batch, 0))
        rows = self._rows
        if rows.ids is not None and rows.ids.size != batch:
            raise self._error(f"{rows.ids.size} row ids for a draw of {batch} rows")
        first, skip = divmod(self._cursor, 2)
        blocks = (skip + per_row + 1) // 2
        if first + blocks > _COUNTER_LIMIT:
            raise self._error(
                f"block {first + blocks - 1} passes the 32-bit block word")
        if self._cursor == 0:
            distinct = batch if rows.ids is None else rows.words.size
            out = rows.ahead(self, (batch, per_row, transform), distinct * blocks)
        else:
            out = self._draw(batch, self._cursor, per_row, transform, 1)[0]
        self._cursor += per_row
        if rows.ids is not None:
            out = out.take(rows.inverse, axis=0)
        return out

    def _draw(self, batch: int, cursor: int, per_row: int, transform,
              steps: int) -> np.ndarray:
        """Columns ``cursor .. cursor + per_row - 1`` of each distinct row
        word, transformed, at this stream's step and the ``steps - 1``
        after it: ``(steps, rows, per_row)``."""
        out = self._distinct_rows(batch, cursor, per_row, steps)
        return out if transform is None else transform(out)

    def _distinct_rows(self, batch: int, cursor: int, per_row: int,
                       steps: int) -> np.ndarray:
        """The uniforms of :meth:`_draw`, in the order of ``Rows.words``
        (of the rows, with no ids).  Its Philox buffers are freed when it
        returns, before any transform."""
        variable, path, step = self._name
        keys = [_key64(self._root_seed, variable, path, s) for s in range(step, step + steps)]
        k0 = np.array([k & 0xFFFFFFFF for k in keys], np.uint64)[:, None, None]
        k1 = np.array([k >> 32 for k in keys], np.uint64)[:, None, None]
        rows = (self._rows.words if self._rows.ids is not None
                else np.arange(batch, dtype=np.uint64))
        first, skip = divmod(cursor, 2)
        blocks = (skip + per_row + 1) // 2
        cols = np.arange(blocks, dtype=np.uint64) + np.uint64(first)
        zero = np.uint64(0)
        w0, w1, w2, w3 = philox4x32(cols, rows[:, None], zero, zero, k0, k1)
        bits = np.empty((steps, rows.size, blocks, 2), np.uint64)
        for hi, lo, half in ((w0, w1, bits[..., 0]), (w2, w3, bits[..., 1])):
            np.left_shift(hi, _SHIFT32, out=half)
            half |= lo
        # Strictly inside (0, 1), so inverse-CDF transforms stay finite.
        return _unit(bits.reshape(steps, rows.size, 2 * blocks)[..., skip:skip + per_row])

    def uniform_field(self, shape: tuple[int, ...], transform=None) -> np.ndarray:
        """Uniforms shaped ``shape``, with axis 0 as the keyed batch axis."""
        if len(shape) == 0:
            return self.uniforms(1, 1, transform).reshape(())
        batch = shape[0]
        per_row = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1
        return self.uniforms(batch, per_row, transform).reshape(shape)

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.uniform_field(shape, _ndtri)

    def gumbels(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.uniform_field(shape, _gumbel)


def _gumbel(u: np.ndarray) -> np.ndarray:
    """The standard Gumbel quantile of ``u``: a module-level function, so a
    lookahead signature compares it by identity."""
    return -np.log(-np.log(u))
