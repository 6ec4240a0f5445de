import hashlib

import numpy as np

from ecosim.rng import RngStream, derive_seed, philox4x32


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
    """Pinned before Philox ran its rounds in place: the stream keeps these bytes."""

    def test_uniform_block_digest(self):
        u = RngStream(0, "v", "p", 3).uniforms(7, 1000)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "3890a4ed6e9fb843ddcc52f6e54b5aa6f59c2daff0aef5a3a67292db51e8a6de")

    def test_single_uniform_digest(self):
        u = RngStream(0, "v", "p", 3).uniforms(1, 1)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "e77cb6e9c13ee2ae30bc9c948ce2675de22bc6eebf1c4aec3168e7f8f3967fcd")

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


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)
