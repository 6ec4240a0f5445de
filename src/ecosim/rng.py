"""Keyed, counter-based random streams.

Every stochastic draw in a simulation is addressed by (root seed, variable
name, field path, step index) plus the batch row, so any stream can be
regenerated in isolation.  Trajectories are therefore reproducible
regardless of variable evaluation order, batch size, or how runs are
split across workers.

The generator is Philox4x32-10 (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3"), vectorized over numpy uint64 lanes and validated
against the published known-answer vectors.
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

    Draws are laid out as one Philox counter per (batch row, column), with
    the row folded into the counter.  Row ``i`` of a batched draw is thus
    identical to row 0 of a batch-1 draw made with ``row_offset=i``: batch
    size never changes which numbers a row receives.
    """

    def __init__(self, root_seed: int, variable: str = "", path: str = "",
                 step: int = 0, row_offset: int = 0):
        key = _key64(root_seed, variable, path, step)
        self._k0 = key & 0xFFFFFFFF
        self._k1 = key >> 32
        self._row_offset = int(row_offset)
        self._cursor = 0  # per-row uniforms already consumed

    def uniforms(self, batch: int, per_row: int) -> np.ndarray:
        """A (batch, per_row) block of doubles in the open interval (0, 1)."""
        if batch < 1 or per_row < 0:
            raise ValueError(f"invalid draw shape ({batch}, {per_row})")
        if per_row == 0:
            return np.zeros((batch, 0))
        rows = np.arange(batch, dtype=np.uint64) + np.uint64(self._row_offset)
        cols = np.arange(per_row, dtype=np.uint64) + np.uint64(self._cursor)
        self._cursor += per_row
        zero = np.uint64(0)
        bits, w1, _, _ = philox4x32(cols, rows[:, None], zero, zero,
                                    self._k0, self._k1)
        bits <<= _SHIFT32
        bits |= w1
        # 53 high bits, shifted into (0, 1) so inverse-CDF transforms stay finite.
        bits >>= np.uint64(11)
        out = bits.astype(np.float64)
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
