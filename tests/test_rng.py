import hashlib
import math

import numpy as np
import pytest

from ecosim.rng import RngStream, _ndtri, _unit, derive_seed, philox4x32


def _block(c, k0, k1):
    words = philox4x32(*(np.array([w], dtype=np.uint64) for w in c), k0, k1)
    return [int(w[0]) for w in words]


class TestPhiloxKnownAnswers:
    """Published Philox4x32-10 known-answer vectors (Random123)."""

    def test_zero_vector(self):
        assert _block((0, 0, 0, 0), 0, 0) == [
            0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]

    def test_ones_vector(self):
        f = 0xFFFFFFFF
        assert _block((f, f, f, f), f, f) == [
            0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]

    def test_pi_vector(self):
        assert _block((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                      0xA4093822, 0x299F31D0) == [
            0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1]


class TestPhiloxStreamPins:
    """Pinned under stream layout v3: the stream keeps these bytes."""

    def test_uniform_block_digest(self):
        u = RngStream(0, "v", "p", 3).uniforms(7, 1000)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "cf824aa4cdc08622ba98e4453daddcddf457cbb40aa4e2de286c8e448623a81f")

    def test_single_uniform_digest(self):
        u = RngStream(0, "v", "p", 3).uniforms(1, 1)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "111f19b56f921d7abd98726b70d207babf24cffd7acba1330b630e97fded98d7")

    def counters(self):
        rows = np.arange(5, dtype=np.uint64)[:, None] * np.uint64(0x9E3779B9)
        cols = np.arange(6, dtype=np.uint64) + np.uint64(0xFFFFFFF0)
        return (np.broadcast_to(cols, (5, 6)), np.broadcast_to(rows, (5, 6)),
                np.full((5, 6), 7, np.uint64), np.broadcast_to(np.uint64(3), (5, 6)))

    def test_counter_layout_does_not_change_words(self):
        broadcast = self.counters()
        assert broadcast[0].strides[0] == 0 and broadcast[1].strides[1] == 0
        fortran = tuple(np.asfortranarray(c) for c in broadcast)
        contiguous = tuple(np.ascontiguousarray(c) for c in broadcast)
        expected = philox4x32(*contiguous, 0x1234, 0xABCDEF01)
        for layout in (broadcast, fortran):
            for got, want in zip(philox4x32(*layout, 0x1234, 0xABCDEF01), expected):
                np.testing.assert_array_equal(got, want)
        # Each lane is the block its four counter words give on their own.
        for (i, j) in [(0, 0), (4, 5), (2, 3)]:
            assert [int(w[i, j]) for w in expected] == _block(
                [int(c[i, j]) for c in contiguous], 0x1234, 0xABCDEF01)

    def test_inputs_are_not_modified(self):
        counters = tuple(np.ascontiguousarray(c) for c in self.counters())
        before = [c.copy() for c in counters]
        philox4x32(*counters, 5, 6)
        for c, b in zip(counters, before):
            np.testing.assert_array_equal(c, b)


def test_identical_key_identical_draws():
    a = RngStream(7, "user", "interest", 3).uniforms(5, 4)
    b = RngStream(7, "user", "interest", 3).uniforms(5, 4)
    np.testing.assert_array_equal(a, b)


def test_draw_order_of_other_streams_is_irrelevant():
    a = RngStream(7, "user", "interest", 3)
    _ = RngStream(7, "noise", "x", 0).uniforms(100, 7)  # interleaved other stream
    b = RngStream(7, "user", "interest", 3)
    np.testing.assert_array_equal(a.uniforms(5, 4), b.uniforms(5, 4))


def test_distinct_keys_give_distinct_streams():
    base = RngStream(7, "user", "interest", 3).uniforms(8, 8)
    for other in (RngStream(8, "user", "interest", 3),
                  RngStream(7, "user2", "interest", 3),
                  RngStream(7, "user", "interest2", 3),
                  RngStream(7, "user", "interest", 4)):
        assert not np.array_equal(base, other.uniforms(8, 8))


def test_row_keying_is_batch_size_invariant():
    big = RngStream(11, "v", "x", 0).uniforms(10, 6)
    for row in range(10):
        solo = RngStream(11, "v", "x", 0, row_offset=row).uniforms(1, 6)
        np.testing.assert_array_equal(big[row], solo[0])


class TestRowIds:
    """An id array keys row r by ids[r]; a bad id fails loudly, naming the stream."""

    def test_rows_draw_what_batch_1_draws_at_their_id(self):
        ids = np.array([3, 0, 3])
        stacked = RngStream(11, "v", "x", 2, row_offset=ids).uniforms(3, 5)
        for row, i in enumerate(ids):
            solo = RngStream(11, "v", "x", 2, row_offset=int(i)).uniforms(1, 5)
            np.testing.assert_array_equal(stacked[row], solo[0])

    def test_contiguous_ids_equal_the_int_offset(self):
        ids = np.arange(4, 9, dtype=np.uint32)
        np.testing.assert_array_equal(
            RngStream(5, "v", "p", 0, row_offset=ids).normals((5, 3)),
            RngStream(5, "v", "p", 0, row_offset=4).normals((5, 3)))

    def test_last_id_is_accepted(self):
        RngStream(0, "v", "p", 0, row_offset=np.array([2**32 - 1, 0])).uniforms(2, 1)

    @pytest.mark.parametrize("ids, what", [
        (np.array([[0, 1]]), "1-D integer"),
        (np.array([0.0, 1.0]), "1-D integer"),
        (np.array([0, -1]), "row id -1 "),
        (np.array([2**32, 0]), "row id 4294967296 "),
        (np.array([0, 2**63], dtype=np.uint64), "row id 9223372036854775808 "),
    ], ids=["2-d", "float", "negative", "past-the-word", "uint64"])
    def test_bad_ids_raise(self, ids, what):
        with pytest.raises(ValueError, match=f"variable 'v', path 'p', step 7: .*{what}"):
            RngStream(0, "v", "p", 7, row_offset=ids)

    @pytest.mark.parametrize("batch", [2, 4])
    def test_wrong_length_raises(self, batch):
        s = RngStream(0, "v", "p", 7, row_offset=np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="variable 'v', path 'p', step 7: "
                                             f"3 row ids for a draw of {batch} rows"):
            s.uniforms(batch, 2)


class TestTwoDoublesPerBlock:
    """Block j's words (0, 1) give column 2j and words (2, 3) column 2j+1."""

    @staticmethod
    def double(hi, lo):
        return (float((int(hi) << 32 | int(lo)) >> 12) + 0.5) * 2.0**-52

    def test_columns_follow_the_four_words(self):
        stream = RngStream(5, "v", "p", 2, row_offset=9)
        u = stream.uniforms(3, 7)
        k0, k1 = stream._k0, stream._k1
        for row in range(3):
            for j in range(4):
                w = _block((j, 9 + row, 0, 0), k0, k1)
                assert u[row, 2 * j] == self.double(w[0], w[1])
                if 2 * j + 1 < 7:
                    assert u[row, 2 * j + 1] == self.double(w[2], w[3])

    # test_sequential_blocks_do_not_overlap covers 3 then 3.
    @pytest.mark.parametrize("splits", [(1, 2, 3), (1, 1, 1, 3), (5, 1)])
    def test_draws_continue_from_odd_columns(self, splits):
        s = RngStream(3, "v", "x", 0, row_offset=4)
        parts = [s.uniforms(2, n) for n in splits]
        fresh = RngStream(3, "v", "x", 0, row_offset=4).uniforms(2, sum(splits))
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), fresh)


class TestCounterLimits:
    """Rows and blocks are 32-bit counter words: the last of each is 2^32 - 1."""

    def test_last_row_is_accepted(self):
        RngStream(0, "v", "p", 0, row_offset=2**32 - 2).uniforms(2, 2)
        RngStream(0, "v", "p", 0, row_offset=2**32 - 1).uniforms(1, 2)

    @pytest.mark.parametrize("row_offset, batch", [(2**32, 1), (2**32 - 1, 2), (2**33, 1)])
    def test_row_past_the_word_raises(self, row_offset, batch):
        s = RngStream(0, "v", "p", 7, row_offset=row_offset)
        with pytest.raises(ValueError, match="variable 'v', path 'p', step 7"):
            s.uniforms(batch, 2)

    def test_last_block_is_accepted_and_the_next_raises(self):
        s = RngStream(0, "v", "p", 7)
        s._cursor = 2 * (2**32 - 1)
        last = s.uniforms(1, 2)  # block 2^32 - 1, both words
        assert last.shape == (1, 2)
        with pytest.raises(ValueError, match="variable 'v', path 'p', step 7: "
                                             "block 4294967296"):
            s.uniforms(1, 1)

    def test_draw_crossing_the_last_block_raises_and_keeps_the_cursor(self):
        s = RngStream(0, "v", "p", 7)
        s._cursor = 2 * (2**32 - 1) + 1  # odd: the last block's second double
        with pytest.raises(ValueError, match="block 4294967296"):
            s.uniforms(1, 2)
        assert s.uniforms(1, 1).shape == (1, 1)


def test_sequential_blocks_do_not_overlap():
    s = RngStream(3, "v", "x", 0)
    first = s.uniforms(4, 3)
    second = s.uniforms(4, 3)
    fresh = RngStream(3, "v", "x", 0).uniforms(4, 6)
    np.testing.assert_array_equal(np.concatenate([first, second], axis=1), fresh)


def test_uniforms_are_open_interval_and_uniform():
    u = RngStream(1, "m", "moments", 0).uniforms(1000, 100)
    assert u.min() > 0.0 and u.max() < 1.0
    # mean 0.5 +- 4 sigma, sigma = 1/sqrt(12 n)
    n = u.size
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * (1.0 / 12.0) / np.sqrt(n)


def test_normals_match_moments():
    z = RngStream(2, "m", "gauss", 0).normals((200, 500))
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


class TestUnitMap:
    """A 64-bit word w maps to ((w >> 12) + 0.5) * 2^-52, exactly."""

    def test_extreme_words_stay_strictly_inside(self):
        u = _unit(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert u[0] == 2.0**-53 and u[1] == 1.0 - 2.0**-53
        assert 0.0 < u[0] and u[1] < 1.0

    def test_neighbouring_words_are_one_step_apart(self):
        top = np.array([2**64 - 1 - 2**12, 2**64 - 1], dtype=np.uint64)
        assert np.diff(_unit(top))[0] == 2.0**-52


class TestNdtri:
    """AS 241 normal quantile."""

    def test_known_quantiles(self):
        assert abs(_ndtri(0.975) / 1.959963984540054 - 1.0) < 1e-15
        assert _ndtri(0.5) == 0.0

    def test_antisymmetry_is_exact(self):
        k = np.random.default_rng(0).integers(1, 2**52, size=100_000)
        k = np.concatenate([k, [1, 2**51 - 1, 2**51 + 1, 2**52 - 1]])
        p = k * 2.0**-52
        np.testing.assert_array_equal(_ndtri(1.0 - p), -_ndtri(p))

    def test_finite_at_the_stream_extremes(self):
        z = _ndtri(np.array([2.0**-53, 1.0 - 2.0**-53]))
        assert np.all(np.isfinite(z))
        assert z[0] == -z[1] and 8.2 < z[1] < 8.21

    @pytest.mark.parametrize("edge", [0.075, 0.925, math.exp(-25.0)])
    def test_continuous_across_branch_edges(self, edge):
        # |p - 0.5| = 0.425 ends the central branch; r = sqrt(-log p) = 5
        # ends the first tail branch.  Across an edge the quantile may step
        # by what the two rationals differ in, a few ulps, and no more.
        lo, hi = np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)
        z = _ndtri(np.array([lo, edge, hi]))
        ulp = abs(np.spacing(z[1]))
        slope = math.sqrt(2.0 * math.pi) * math.exp(z[1] ** 2 / 2.0)
        assert np.all(np.diff(z) >= -2.0 * ulp)
        assert abs(z[2] - z[0]) <= slope * (hi - lo) + 4.0 * ulp

    def test_shape_is_kept(self):
        assert _ndtri(np.float64(0.3)).shape == ()
        assert _ndtri(0.3) == _ndtri(np.array([0.3]))[0]
        u = RngStream(4, "q", "shape", 0).uniform_field((2, 3, 4))
        z = _ndtri(u)
        assert z.shape == (2, 3, 4)
        np.testing.assert_array_equal(z.reshape(-1), _ndtri(u.reshape(-1)))

    def test_matches_scipy_over_a_million_stream_draws(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        u = RngStream(0, "q", "oracle", 0).uniforms(1000, 1000)
        want = ndtri(u)
        assert np.max(np.abs(_ndtri(u) - want) / np.abs(want)) <= 2e-15


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)
