"""``execute`` draws several steps of a field's numbers in one pass
(``rng.Lookahead``); the numbers are those ``trajectory`` draws a step at
a time."""

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim import rng
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import Distribution
from ecosim.rng import Lookahead, RngStream, philox4x32
from ecosim.runtime import execute, trajectory
from ecosim.scenarios import (CountConfig, EcosystemConfig, LatentSatConfig, PorlConfig,
                              build_count_story, build_ecosystem_story,
                              build_latent_sat_story, build_porl_story,
                              sample_true_alpha)


def payload_bytes(value: Value) -> dict[str, bytes]:
    return {path: np.asarray(T.as_array(payload)).tobytes() for path, payload in value.items()}


def assert_final_slice_matches(net: Network, horizon: int, seed: int, row_offset):
    final = execute(net, horizon - 1, seed, row_offset=row_offset)
    traj = trajectory(net, horizon, seed, row_offset=row_offset)
    for name, value in final.items():
        assert payload_bytes(value) == payload_bytes(traj.value(name, -1)), name


def count_story(batch):
    return build_count_story(CountConfig(horizon=12, population=batch)), 12


def porl_story(batch):
    cfg = PorlConfig(population=batch, interest_dim=4, corpus_size=8, horizon=12)
    return build_porl_story(cfg)[0], cfg.horizon


def latent_sat_story(batch):
    cfg = LatentSatConfig(population=batch, horizon=12)
    return build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 0))[0], cfg.horizon


def ecosystem_story(batch):
    cfg = EcosystemConfig(num_users=30, num_providers=6, num_items=18, horizon=12,
                          num_runs=batch, interest_dim=4, num_communities=2,
                          community_sizes=(2.0, 1.0))
    return build_ecosystem_story(cfg, boost_caps=np.linspace(0.0, 1.5, batch))[0], cfg.horizon


@pytest.mark.parametrize("story", [count_story, porl_story, latent_sat_story, ecosystem_story])
@pytest.mark.parametrize("row_offset", [3, np.array([2, 0, 2, 5, 0, 2])],
                         ids=["int-offset", "repeated-ids"])
def test_execute_final_slice_equals_trajectory_last_slice(story, row_offset):
    net, horizon = story(6)
    assert_final_slice_matches(net, horizon, 11, row_offset)


class Steps(Distribution):
    """Adds ``(batch, width)`` uniforms to ``prev``, drawn from one stream in
    ``splits`` columns at a time (extra columns are drawn and dropped), so
    every step's draws reach the final slice."""

    def __init__(self, prev: np.ndarray, splits, transform=None):
        self.prev, self.splits, self.transform = prev, splits, transform

    def sample(self, stream):
        batch, width = self.prev.shape
        parts = [stream.uniforms(batch, n, self.transform) for n in self.splits]
        return self.prev + np.concatenate(parts, axis=1)[:, :width]


def walk(batch: int, width: int, splits, transform=None):
    """A walk whose field ``x`` draws in ``splits(step)`` columns at each step."""
    x = Variable("x", ValueSpec(at=FieldSpec((), "integer"), x=FieldSpec((width,))))
    x.bind_initial(lambda: Value(at=np.zeros(batch, np.int64),
                                 x=Steps(np.zeros((batch, width)), splits(0), transform)))
    x.bind_kernel(lambda prev: Value(
        at=prev.get("at") + 1,
        x=Steps(prev.get("x").data, splits(int(prev.get("at")[0]) + 1), transform)),
        deps=(x.previous,))
    return Network([x])


@pytest.mark.parametrize("row_offset", [7, np.array([4, 1, 4])], ids=["int", "ids"])
@pytest.mark.parametrize("case, width, splits, transform", [
    ("shape-changes-mid-run", 6, lambda t: (6,) if t < 4 or t >= 8 else (9,), None),
    ("two-draws-per-step", 6, lambda t: (2, 4), rng._ndtri),
    ("odd-per-row", 5, lambda t: (5,), rng._gumbel),
    # 2 or 3 distinct rows x 3,000 blocks pass the 2^13-lane budget:
    # one step a pass
    ("lanes-exceed-the-budget", 6000, lambda t: (6000,), None),
    # 900 blocks: passes of 4 steps (2 rows) or 3 (3 rows) from step 1,
    # and the last pass is cut short by the horizon
    ("horizon-ends-inside-a-window", 1800, lambda t: (1800,), None),
], ids=lambda v: v if isinstance(v, str) else "")
def test_synthetic_draws_match_trajectory(case, width, splits, transform, row_offset):
    assert_final_slice_matches(walk(3, width, splits, transform), 12, 5, row_offset)


def step_draws(lookahead, steps, batch=3, per_row=5, transform=None, row_offset=2):
    return [RngStream(9, "v", "p", t, row_offset, lookahead).uniforms(batch, per_row, transform)
            for t in steps]


class TestLookahead:
    def test_served_draws_equal_fresh_draws(self):
        got = step_draws(Lookahead(9), range(10), transform=rng._ndtri)
        want = step_draws(None, range(10), transform=rng._ndtri)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("lanes, held", [
        # 3 rows x 3 blocks = 9 lanes a step; step 0 draws alone, step 1 a window
        (2**13, [0, 8, 7, 6, 5, 4, 3, 2, 1, 0]),  # capped by the 9 steps left
        (27, [0, 2, 1, 0, 2, 1, 0, 2, 1, 0]),     # three steps a pass
        (8, [0] * 10),                            # one step's lanes pass the budget
    ])
    def test_window_is_bounded_by_lanes_and_the_steps_left(self, lanes, held, monkeypatch):
        monkeypatch.setattr(rng, "_LOOKAHEAD_LANES", lanes)
        ahead, kept = Lookahead(9), []
        for t in range(10):
            step_draws(ahead, [t])
            kept.append(len(ahead._fields["v", "p"][2]))
        assert kept == held

    @pytest.mark.parametrize("change", [dict(per_row=4), dict(batch=4, row_offset=1),
                                        dict(transform=rng._ndtri)],
                             ids=["per-row", "batch", "transform"])
    def test_a_changed_signature_drops_the_held_rows(self, change):
        ahead = Lookahead(9)
        step_draws(ahead, [0, 1])
        assert len(ahead._fields["v", "p"][2]) == 8
        got = step_draws(ahead, [2], **change)[0]
        assert got.tobytes() == step_draws(None, [2], **change)[0].tobytes()
        assert ahead._fields["v", "p"][2] == []

    def test_a_skipped_step_draws_afresh(self):
        ahead = Lookahead(9)
        step_draws(ahead, [0, 1])
        got = step_draws(ahead, [5])[0]
        assert got.tobytes() == step_draws(None, [5])[0].tobytes()

    def test_a_second_draw_continues_the_stream(self):
        ahead = Lookahead(9)
        step_draws(ahead, [0])
        s = RngStream(9, "v", "p", 1, 2, ahead)
        both = np.concatenate([s.uniforms(3, 5), s.uniforms(3, 4)], axis=1)
        assert both.tobytes() == step_draws(None, [1], per_row=9)[0].tobytes()

    def test_gumbel_draws_share_a_pass(self):
        # The Gumbel transform is one function, so two steps' signatures match.
        ahead = Lookahead(9)
        for t in (0, 1):
            RngStream(9, "v", "p", t, 2, ahead).gumbels((3, 5))
        assert len(ahead._fields["v", "p"][2]) == 8


def growing_batch(sizes):
    """A Uniform draw of ``sizes(step)`` rows: a spec violation, but the
    draw fails first when the rows pass the row word or the ids."""
    v = Variable("v", ValueSpec(at=FieldSpec((), "integer"), u=FieldSpec((2,))))

    class Rows(Distribution):
        def __init__(self, step):
            self.step = step

        def sample(self, stream):
            return stream.uniforms(sizes(self.step), 2)

    v.bind_initial(lambda: Value(at=np.zeros(2, np.int64), u=Rows(0)))
    v.bind_kernel(lambda prev: Value(at=prev.get("at") + 1, u=Rows(int(prev.get("at")[0]) + 1)),
                  deps=(v.previous,))
    return Network([v])


class TestDrawErrorsNameTheStep:
    def test_row_word_at_a_later_step(self):
        net = growing_batch(lambda t: 2 if t < 3 else 3)
        with pytest.raises(ValueError, match="variable 'v', path 'u', step 3: rows "):
            execute(net, 6, 0, row_offset=2**32 - 2)

    def test_id_count_at_a_later_step(self):
        net = growing_batch(lambda t: 2 if t < 2 else 3)
        with pytest.raises(ValueError, match="variable 'v', path 'u', step 2: "
                                             "2 row ids for a draw of 3 rows"):
            execute(net, 6, 0, row_offset=np.array([1, 1]))


class TestKeyArrays:
    def test_key_array_equals_per_key_calls(self):
        keys = np.array([[0, 0], [0xFFFFFFFF, 1], [0xA4093822, 0x299F31D0],
                         [12345, 0xFFFFFFFF]], np.uint64)
        cols = np.arange(4, dtype=np.uint64) + np.uint64(2**32 - 3)
        rows = (np.arange(3, dtype=np.uint64) * np.uint64(0x9E3779B9))[:, None]
        zero = np.uint64(0)
        stacked = philox4x32(cols, rows, zero, np.uint64(7),
                             keys[:, 0, None, None], keys[:, 1, None, None])
        for w, (k0, k1) in enumerate(keys):
            for got, want in zip(stacked, philox4x32(cols, rows, zero, np.uint64(7),
                                                     int(k0), int(k1))):
                assert got.shape == (4, 3, 4)
                np.testing.assert_array_equal(got[w], want)

    def test_key_arrays_leave_their_inputs_unmodified(self):
        k0 = np.array([1, 2], np.uint64)[:, None]
        k1 = np.array([3, 4], np.uint64)[:, None]
        philox4x32(np.arange(3, dtype=np.uint64), np.uint64(0), np.uint64(0), np.uint64(0),
                   k0, k1)
        np.testing.assert_array_equal(k0[:, 0], [1, 2])
        np.testing.assert_array_equal(k1[:, 0], [3, 4])


def test_windowed_draws_hold_one_pass_per_field():
    # A field's held rows are views of its one pass, (W, rows, per_row).
    ahead = Lookahead(50)
    step_draws(ahead, [0, 1], per_row=100)
    held = ahead._fields["v", "p"][2]
    assert len(held) == 49 and all(h.base is held[0].base for h in held)
    assert held[0].base.nbytes <= 2 * rng._LOOKAHEAD_LANES * 8


def test_execute_rows_with_lookahead_are_batch_size_invariant():
    stacked = execute(walk(4, 3, lambda t: (3,), rng._ndtri), 9, 2,
                      row_offset=np.array([3, 0, 3, 1]))
    for row, i in enumerate([3, 0, 3, 1]):
        solo = execute(walk(1, 3, lambda t: (3,), rng._ndtri), 9, 2, row_offset=i)
        assert (stacked["x"].get("x").data[row].tobytes()
                == solo["x"].get("x").data[0].tobytes())

