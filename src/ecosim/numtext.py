"""Rows of numbers as comma-joined CSV text, a whole array at a time.

Each cell's text is exactly ``repr(float(v))`` for a float64 value and
``str(int(v))`` for an int64 one; the oracle tests hold the code to that.

Floats: the shortest decimal that reads back as the same double, and the
closest of those (ties to even), is found for a whole block with numpy
integer arithmetic, by the Schubfach algorithm (R. Giulietti, "The
Schubfach way to render doubles", 2020; the steps follow its reference
implementation).  The digits are then laid out as Python's ``repr`` lays
them out in fixed notation, which it uses for decimal exponents in
[-4, 16).  Any other value (a subnormal, a non-finite value, or one that
``repr`` writes in scientific notation) goes through ``repr`` and is put
into its row's text in place.

Integers: when a block's values span fewer integers than it holds, each
integer in the span is formatted once and the block is joined by lookup;
otherwise each value goes through ``str``.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per numpy pass.  A pass works on arrays of this length (text in
# 24-byte slots, three words of the 128-bit products per value), which
# stay cache-sized, and peak memory does not grow with the rows formatted.
CHUNK = 8192

_U1, _U2, _U10, _U10K = (np.uint64(v) for v in (1, 2, 10, 10_000))
_U32, _U52, _U63 = np.uint64(32), np.uint64(52), np.uint64(63)
_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_ZEROS8 = np.uint64(int.from_bytes(b"0" * 8, "little"))
_K_MIN, _K_MAX = -324, 292  # decimal exponents of Schubfach's g table
_D_MIN, _D_MAX = -3, 16  # repr's fixed notation: the value is 0.D 10^d
_COMMA, _MINUS = ord(","), np.uint8(ord("-"))


def _flog2pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1233 (ints or int64 arrays)."""
    return (e * 913124641741) >> 38


class _Tables:
    """The lookup tables, built on first use (:func:`_tables`), so that
    importing the module costs nothing."""

    def __init__(self):
        # g = floor(10^-k 2^(125 - r)) + 1 with r = floor(-k log2 10), for
        # each decimal exponent k, as the 32-bit halves of its 63-bit limbs
        # g1 = g >> 63 and g0 = g mod 2^63, and g1 itself.
        rows = []
        for k in range(_K_MIN, _K_MAX + 1):
            r = _flog2pow10(-k)
            if k > 0:
                g = (1 << 125 - r) // 10 ** k + 1
            else:
                g = (10 ** -k << 125 - r if r <= 125 else 10 ** -k >> r - 125) + 1
            g1, g0 = g >> 63, g & ((1 << 63) - 1)
            rows.append((g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF, g1))
        self.g = np.array(rows, dtype=np.uint64).T.copy()
        # The four ASCII digits of each 0..9999, first digit first.
        n = np.arange(10_000)
        self.quads = np.stack([n // 10 ** (3 - j) % 10 + ord("0") for j in range(4)],
                              axis=1).astype(np.uint8).view(np.uint32).ravel()
        # For each d: the 24-byte slot's bytes left of the dot at d + 5,
        # the bytes right of it, and the dot, as three words.
        cols = np.arange(24)
        dot = np.arange(_D_MIN, _D_MAX + 1)[:, None] + 5
        masks = [np.where(cols < dot, 0xFF, 0), np.where(cols > dot, 0xFF, 0),
                 np.where(cols == dot, ord("."), 0)]
        self.left, self.right, self.dot = (m.astype(np.uint8).view(np.uint64) for m in masks)
        # Row 24 a + b selects the bytes a..b of a slot.
        self.spans = ((cols >= cols[:, None, None]) & (cols <= cols[:, None])).reshape(-1, 24)
        for table in vars(self).values():
            table.flags.writeable = False  # one copy, shared by every call


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of a b, from the 32-bit halves of a < 2^63 and
    b < 2^60: the middle sum then stays below 2^64."""
    return ah * bh + (((al * bl) >> _U32) + al * bh + ah * bl >> _U32)


def _rop(g, cp):
    """r_o'(g cp 2^-127) for the 32-bit halves of g1 and g0 and g1 itself
    (rows of ``g``): the quotient, its last bit set when the division
    leaves a remainder."""
    g1h, g1l, g0h, g0l, g1 = g
    ch, cl = cp >> _U32, cp & _M32
    z = (g1 * cp >> _U1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> _U63)) | ((z << _U1) != 0)


def _shortest(bits):
    """Schubfach on float64 ``bits`` read as a normal double: the shortest
    round-trip significand f (16 or 17 digits, trailing zeros kept) and
    the exponent k of its value f 10^k.  Other bits give some f and k."""
    be = (bits >> _U52).astype(np.int64) & 0x7FF
    m = bits & _M52
    q = be - 1075
    irregular = (m == 0) & (be > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = _tables().g.take(k - _K_MIN, axis=1)
    # 4c and the rounding interval's lower and upper bounds, times 2^h.
    cb = (m | _HIDDEN) << _U2
    vb, vbl, vbr = (_rop(g, cp << h) for cp in (cb, cb - _U2 + irregular, cb + _U2))
    out = m & _U1  # a bound is in the interval when c is even
    vbl += out
    vbr -= out
    s = vb >> _U2
    # u' = 10 floor(s / 10) or w' = u' + 10, a digit shorter than s, if
    # one is in the interval (for a normal double s >= 100, and at most one
    # is).  Otherwise u = s or w = s + 1, whichever is in it; if both, the
    # closer, ties to even.
    sp10 = s // _U10 * _U10
    upin = vbl <= sp10 << _U2
    wpin = (sp10 + _U10) << _U2 <= vbr
    uin = vbl <= s << _U2
    win = (s + _U1) << _U2 <= vbr
    past_mid = vb.astype(np.int64) - ((s << _U2) + _U2).astype(np.int64)
    pick_w = win & (~uin | (past_mid > 0) | ((past_mid == 0) & ((s & _U1) == _U1)))
    return np.where(upin | wpin, sp10 + _U10 * wpin, s + pick_w), k


def _float_slots(x: np.ndarray):
    """Each value of the 1-D float64 ``x`` as ASCII in a 24-byte slot.

    Returns ``(slots, keep, fallback)``: ``keep`` selects each value's
    text and the comma after it; where ``fallback`` is set, the slot holds
    a placeholder."""
    tables = _tables()
    bits = x.view(np.uint64)
    f, k = _shortest(bits)
    # f as 17 digits D, the value being 0.D 10^d.
    short = f < np.uint64(10 ** 16)
    d = k + 17 - short
    zero = (bits << _U1) == 0
    fixed = (d - _D_MIN).astype(np.uint64) <= _D_MAX - _D_MIN
    fallback = ~(fixed | zero)
    # A zero and a fallback are laid out as 0.0.
    plain = fixed & ~zero
    D = f * (_U1 + np.uint64(9) * short) * plain
    d = np.where(plain, d, 1)

    # The record: seven '0's and D's 17 digits, as four-digit groups.
    groups = np.zeros((x.size, 6), dtype=np.intp)
    for col, unit in ((1, 10 ** 16), (2, 10 ** 12), (3, 10 ** 8), (4, 10 ** 4)):
        groups[:, col] = top = D // np.uint64(unit)
        D -= top * np.uint64(unit)
    groups[:, 5] = D
    record = tables.quads.take(groups).view(np.uint64)

    # n significant digits: c_1 .. c_16 are record bytes 8 .. 23, and the
    # binary exponent of their digit values read as one number counts the
    # bytes up to the last nonzero one.  A digit byte is at most 9, so the
    # rounding to float64 cannot carry into the next byte.
    tail = (record[:, 2] - _ZEROS8).astype(np.float64) * 2.0 ** 64 \
        + (record[:, 1] - _ZEROS8).astype(np.float64)
    n = 1 + ((np.frexp(tail)[1] + 7) >> 3)

    # Insert the dot before record byte 7 + d and drop two leading '0's:
    # slot byte j is record byte j + 2 left of the dot (at byte d + 5) and
    # record byte j + 1 right of it.
    flat = record.reshape(-1)
    below, above = flat >> np.uint64(16), flat >> np.uint64(8)
    below[:-1] |= flat[1:] << np.uint64(48)
    above[:-1] |= flat[1:] << np.uint64(56)
    at = d - _D_MIN
    slots = (below.reshape(-1, 3) & tables.left.take(at, axis=0)) \
        | (above.reshape(-1, 3) & tables.right.take(at, axis=0)) | tables.dot.take(at, axis=0)
    slots = slots.view(np.uint8)

    # '0.' and the zeros after it for d <= 0, digits then at least one
    # after the dot, the comma; the sign before it all.
    start = 5 + np.minimum(d - 1, 0)
    stop = 6 + np.maximum(n, d + 1)
    flat = slots.reshape(-1)
    row = np.arange(0, 24 * x.size, 24)
    flat[row + stop] = _COMMA
    neg = (bits >> _U63).astype(np.uint8)
    flat[row + start - 1] = _MINUS * neg
    return slots, tables.spans.take((start - neg) * 24 + stop, axis=0), fallback


def _joined(slots: np.ndarray, keep: np.ndarray, rows: int) -> list[str]:
    """The bytes of ``slots`` that ``keep`` selects (each value's text and
    its comma), as one string cut into ``rows`` rows of equally many values."""
    text = slots[keep].tobytes().decode("ascii")
    ends = np.cumsum(keep.reshape(rows, -1).sum(axis=1)).tolist()
    return [text[a:b - 1] for a, b in zip([0] + ends[:-1], ends)]


def _float_rows(block: np.ndarray) -> list[str]:
    slots, keep, fallback = _float_slots(block.reshape(-1))
    out = _joined(slots, keep, block.shape[0])
    fallback = fallback.reshape(block.shape)
    for r in np.flatnonzero(fallback.any(axis=1)).tolist():
        cells = out[r].split(",")
        for j in np.flatnonzero(fallback[r]).tolist():
            cells[j] = repr(block[r, j].item())
        out[r] = ",".join(cells)
    return out


def _int_rows(block: np.ndarray) -> list[str]:
    lo, hi = int(block.min()), int(block.max())
    if hi - lo >= block.size:
        return [",".join(map(str, row)) for row in block.tolist()]
    texts = [str(v) for v in range(lo, hi + 1)]
    width = max(map(len, texts))
    table = np.frombuffer("".join(t.rjust(width) + "," for t in texts).encode("ascii"),
                          dtype=np.uint8).reshape(len(texts), width + 1)
    at = (block.reshape(-1) - lo).astype(np.intp)
    return _joined(table.take(at, axis=0), (table != ord(" ")).take(at, axis=0),
                   block.shape[0])


def row_texts(arr: np.ndarray) -> list[str]:
    """Each row of the 2-D int64 or float64 ``arr`` as comma-joined text,
    ``CHUNK`` values at a time (at least one row)."""
    rows, size = arr.shape
    if rows == 0 or size == 0:
        return [""] * rows
    fmt = _int_rows if arr.dtype.kind == "i" else _float_rows
    step = max(1, CHUNK // size)
    out: list[str] = []
    for r in range(0, rows, step):
        out += fmt(np.ascontiguousarray(arr[r:r + step]))
    return out
