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
path, step); each block's four 32-bit output words make two 53-bit
doubles, so one Philox lane serves two columns of a row.  Counter words
are 32 bits wide: a draw whose row or block index would reach 2^32
raises instead of wrapping.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10
_COUNTER_LIMIT = 2**32  # rows and blocks are 32-bit counter words


def philox4x32(c0, c1, c2, c3, key0: int, key1: int):
    """One Philox4x32-10 block per counter lane.

    Counters are uint64 arrays holding 32-bit values (broadcast against
    each other); the return is four uint64 arrays, each holding a 32-bit
    output word.  The rounds run in place on C-ordered copies, so the
    inputs are never modified.
    """
    words = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(w.shape for w in words))
    c0, c1, c2, c3 = (np.array(np.broadcast_to(w, shape), order="C") for w in words)
    p0 = np.empty(shape, np.uint64)
    p1 = np.empty(shape, np.uint64)
    k0 = np.uint64(key0) & _MASK32
    k1 = np.uint64(key1) & _MASK32
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


def _key64(root_seed: int, variable: str, path: str, step: int) -> int:
    msg = f"{root_seed}|{variable}|{path}|{step}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def derive_seed(root_seed: int, tag: str, index: int = 0) -> int:
    """Stable 63-bit sub-seed for nested stochastic procedures."""
    return _key64(root_seed, tag, "", index) >> 1


class RngStream:
    """A stream of uniforms keyed by (seed, variable, path, step).

    Column ``c`` of batch row ``r`` comes from the Philox block with
    counter ``(c // 2, r + row_offset, 0, 0)``: output words 0 and 1 give
    the even column, words 2 and 3 the odd one.  Row ``i`` of a batched
    draw is thus identical to row 0 of a batch-1 draw made with
    ``row_offset=i``: batch size never changes which numbers a row
    receives.  Successive draws continue along the columns, so two draws
    of ``n`` equal one draw of ``2n`` whatever the parity of ``n``.  Rows
    and blocks are 32-bit counter words: ``row_offset + batch`` may not
    exceed 2^32 and a draw may not reach block 2^32 (column 2^33).
    """

    def __init__(self, root_seed: int, variable: str = "", path: str = "",
                 step: int = 0, row_offset: int = 0):
        key = _key64(root_seed, variable, path, step)
        self._k0 = key & 0xFFFFFFFF
        self._k1 = key >> 32
        self._name = (variable, path, step)
        self._row_offset = int(row_offset)
        self._cursor = 0  # per-row uniforms already consumed

    def _overflow(self, what: str) -> ValueError:
        variable, path, step = self._name
        return ValueError(f"Philox counter overflow in variable {variable!r}, "
                          f"path {path!r}, step {step}: {what}")

    def uniforms(self, batch: int, per_row: int) -> np.ndarray:
        """A (batch, per_row) block of doubles in the open interval (0, 1)."""
        if batch < 1 or per_row < 0:
            raise ValueError(f"invalid draw shape ({batch}, {per_row})")
        if per_row == 0:
            return np.zeros((batch, 0))
        if self._row_offset + batch > _COUNTER_LIMIT:
            raise self._overflow(
                f"rows {self._row_offset}..{self._row_offset + batch - 1} "
                f"pass the 32-bit row word")
        first, skip = divmod(self._cursor, 2)
        blocks = (skip + per_row + 1) // 2
        if first + blocks > _COUNTER_LIMIT:
            raise self._overflow(
                f"block {first + blocks - 1} passes the 32-bit block word")
        self._cursor += per_row
        rows = np.arange(batch, dtype=np.uint64) + np.uint64(self._row_offset)
        cols = np.arange(blocks, dtype=np.uint64) + np.uint64(first)
        zero = np.uint64(0)
        w0, w1, w2, w3 = philox4x32(cols, rows[:, None], zero, zero,
                                    self._k0, self._k1)
        bits = np.empty((batch, blocks, 2), np.uint64)
        for hi, lo, half in ((w0, w1, bits[..., 0]), (w2, w3, bits[..., 1])):
            np.left_shift(hi, _SHIFT32, out=half)
            half |= lo
        # 53 high bits, shifted into (0, 1) so inverse-CDF transforms stay finite.
        bits >>= np.uint64(11)
        out = bits.reshape(batch, 2 * blocks)[:, skip:skip + per_row].astype(np.float64)
        out += 0.5
        out *= 2.0**-53
        return out

    def uniform_field(self, shape: tuple[int, ...]) -> np.ndarray:
        """Uniforms shaped ``shape``, with axis 0 as the keyed batch axis."""
        if len(shape) == 0:
            return self.uniforms(1, 1).reshape(())
        batch = shape[0]
        per_row = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1
        return self.uniforms(batch, per_row).reshape(shape)

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        return ndtri(self.uniform_field(shape))

    def gumbels(self, shape: tuple[int, ...]) -> np.ndarray:
        u = self.uniform_field(shape)
        return -np.log(-np.log(u))
