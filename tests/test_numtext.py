"""The array formatter against its oracle: ``repr(float)`` and ``str(int)``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ecosim.numtext import _float_slots, row_texts


def oracle(arr):
    fmt = str if arr.dtype.kind == "i" else repr
    return [",".join(map(fmt, row)) for row in arr.tolist()]


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def float_sweep():
    """About 1.1M doubles: powers of 2 and 10 and the range ends with both
    neighbours, integer and decimal grids, random bit patterns over
    [1e-5, 1e17), normals, both zeros and the non-finite values."""
    rng = np.random.default_rng(20)
    exponents = rng.integers(1023 - 17, 1023 + 57, 400_000).astype(np.uint64)
    patterns = (exponents << np.uint64(52) | rng.integers(0, 2**52, 400_000, np.uint64)
                | rng.integers(0, 2, 400_000, np.uint64) << np.uint64(63))
    parts = [
        with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        with_neighbours(10.0 ** np.arange(-323, 309)),
        with_neighbours([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                         1e16, 1e-4, 1e-5, 9007199254740992.0, 0.1, 0.5]),
        np.arange(-100_000, 100_000, dtype=np.float64),
        np.arange(-200_000, 200_000) / 1000,
        patterns.view(np.float64),
        rng.normal(size=100_000) * 10.0 ** rng.integers(-3, 12, 100_000),
        [0.0, -0.0, np.inf, -np.inf, np.nan],
    ]
    x = np.concatenate([np.ravel(p) for p in parts])
    rng.shuffle(x)
    return x


def test_a_million_floats_match_repr():
    x = float_sweep()
    assert x.size >= 1_000_000
    for width in (64, 1):
        block = x[:x.size // width * width].reshape(-1, width)
        if width == 1:
            block = block[:50_000]
        assert row_texts(block) == oracle(block)


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
              elements=st.floats() | st.floats(-1e16, 1e16)))
def test_float_rows_match_repr(block):
    assert row_texts(block) == oracle(block)


def test_repr_runs_only_outside_fixed_notation():
    x = with_neighbours([0.0, 1e-4, 1e-5, 1e16, 1e15, 5e-324, 1.0, np.inf, np.nan])
    _, _, fallback = _float_slots(x)
    with np.errstate(invalid="ignore"):
        fixed = (x == 0) | ((np.abs(x) >= 1e-4) & (np.abs(x) < 1e16))
    assert np.array_equal(fallback, ~fixed)
    assert all(("e" in text or "n" in text) == bad
               for text, bad in zip(map(repr, x.tolist()), fallback))


@pytest.mark.parametrize("block", [
    np.arange(-500, 500).reshape(10, 100),                    # negative, one table
    np.array([[0, 10**12, -5], [3, 4, 5]]),                    # span wider than the block
    np.array([[-2**63, 2**63 - 1, 0, -1]]),                    # int64 extremes
    np.array([[7]]),                                           # a single value
    np.full((3, 4), -12),                                      # one value repeated
    np.arange(20_000).reshape(2, 10_000) % 1000 - 500,         # rows wider than a pass
    np.zeros((0, 3), np.int64),                                # no rows
    np.zeros((4, 0), np.int64),                                # empty rows
], ids=["negative", "wide", "extremes", "single", "repeated", "wide-rows", "no-rows",
        "empty-rows"])
def test_int_rows_match_str(block):
    block = block.astype(np.int64)
    assert row_texts(block) == oracle(block)
