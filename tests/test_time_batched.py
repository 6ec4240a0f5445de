"""The time-batched scorer against the per-step replay oracle.

``trajectory_log_prob_rows`` scores slices 1..num_steps with one kernel
call per Variable; ``stepwise_oracle`` replays them one step at a time.
Rows and gradients (trainable parameters and injected latents) must agree
to 1e-12 relative on every scored story and on the toy networks of
``test_logprob.py`` and ``test_inference.py``.  Rows scored a window of
slices at a time (``start``) must sum to the whole range's, to the same
tolerance.
"""

import dataclasses

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import Categorical, Normal
from ecosim.logprob import (LogProbError, log_probability_from_value_trajectory,
                            trajectory_log_prob_rows)
from ecosim.runtime import Trajectory, trajectory
from ecosim.scenarios import (EcosystemConfig, LatentSatConfig, PorlConfig,
                              build_ecosystem_story, build_latent_sat_story,
                              sample_true_alpha)
from ecosim.scenarios.latent_sat import HELD_OUT
from ecosim.tensor import Tape, Tensor

from porl_baselines import porl_story
from stepwise_oracle import stepwise_log_prob_rows
from test_inference import bandit_story, drift_walk_story, static_latent_story
from test_logprob import count_network, iid_normal_network

TOLERANCE = 1e-12


def relative(a, b) -> float:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    scale = np.max(np.abs(b)) if b.size else 0.0
    diff = np.max(np.abs(a - b)) if a.size else 0.0
    return diff / scale if scale > 0 else diff


def score(scorer, net, obs, num_steps, registry=None, latent=None, only=None):
    """Rows, and the gradients of a random row-weighted sum of them."""
    tape = Tape()
    if registry is not None:
        registry.bind(tape)
    try:
        target, z = obs, None
        if latent is not None:
            (var, path), value = latent
            z = tape.watch(value)
            target = obs.inject(var, path, [z] * obs.steps)
        rows = scorer(net, target, num_steps, only=only)
        grads = {}
        if rows.tape is not None:
            weights = np.random.default_rng(0).normal(size=rows.shape)
            by_leaf = tape.backward(T.reduce_sum(T.mul(rows, Tensor(weights))))
            if registry is not None:
                grads = {p.name: by_leaf[p.leaf].data for p in registry.parameters()}
            if z is not None:
                grads["latent"] = by_leaf[z].data
    finally:
        if registry is not None:
            registry.unbind()
    return rows.data, grads


def assert_matches_stepwise(net, obs, num_steps=None, **kw):
    num_steps = obs.steps - 1 if num_steps is None else num_steps
    rows, grads = score(trajectory_log_prob_rows, net, obs, num_steps, **kw)
    oracle_rows, oracle_grads = score(stepwise_log_prob_rows, net, obs, num_steps, **kw)
    assert rows.shape == oracle_rows.shape
    assert relative(rows, oracle_rows) <= TOLERANCE
    assert grads.keys() == oracle_grads.keys()
    for name in grads:
        assert relative(grads[name], oracle_grads[name]) <= TOLERANCE, name
    return rows, grads


def observe(net, horizon, seed, hold_out=()):
    return Trajectory.from_trajectory(net, trajectory(net, horizon, seed),
                                      hold_out=hold_out)


# ---------------------------------------------------------------------------
# toy networks


def discrete_dbn(batch):
    rng = np.random.default_rng(42)
    a_init, b_init = rng.normal(size=2), rng.normal(size=2)
    a_trans, b_trans = rng.normal(size=(2, 2)), rng.normal(size=(2, 2, 2))
    a = Variable("a", ValueSpec(s=FieldSpec((), "integer")))
    b = Variable("b", ValueSpec(s=FieldSpec((), "integer")))
    a.bind_initial(lambda: Value(s=Categorical(Tensor(np.tile(a_init, (batch, 1))))))
    a.bind_kernel(lambda pa: Value(s=Categorical(Tensor(a_trans[np.asarray(pa.get("s"))]))),
                  deps=(a.previous,))
    b.bind_initial(lambda: Value(s=Categorical(Tensor(np.tile(b_init, (batch, 1))))))
    b.bind_kernel(lambda ca, pb: Value(s=Categorical(Tensor(
        b_trans[np.asarray(ca.get("s")), np.asarray(pb.get("s"))]))),
        deps=(a, b.previous))
    return Network([a, b])


class TestToyNetworks:
    def test_count_all_deterministic(self):
        net = count_network()
        rows, _ = assert_matches_stepwise(net, observe(net, 4, 0))
        np.testing.assert_array_equal(rows, [0.0])

    def test_iid_normal(self):
        net = iid_normal_network(batch=5)
        assert_matches_stepwise(net, observe(net, 6, 1))

    def test_discrete_dbn(self):
        net = discrete_dbn(batch=7)
        obs = observe(net, 6, 2)
        for steps in range(6):
            assert_matches_stepwise(net, obs, steps)

    def test_drift_walk_gradient(self):
        truth, _ = drift_walk_story(9, drift_init=0.4)
        net, registry = drift_walk_story(9, drift_init=-0.2)
        _, grads = assert_matches_stepwise(net, observe(truth, 5, 3), registry=registry)
        assert np.all(grads["drift"] != 0.0)

    def test_static_latent_gradients(self):
        truth, _ = static_latent_story(6, bias_init=1.0)
        net, registry = static_latent_story(6, bias_init=0.3)
        obs = observe(truth, 5, 4, hold_out=[("latent", "z")])
        z = np.random.default_rng(5).normal(size=6)
        _, grads = assert_matches_stepwise(net, obs, registry=registry,
                                           latent=(("latent", "z"), z))
        assert set(grads) == {"bias", "latent"}

    def test_bandit_policy_field_only(self):
        net, registry = bandit_story(16)
        obs = observe(net, 4, 6)
        assert_matches_stepwise(net, obs, registry=registry)
        assert_matches_stepwise(net, obs, registry=registry, only=[("arm", "choice")])


# ---------------------------------------------------------------------------
# stories


SMALL_PORL = dict(population=12, horizon=5, corpus_size=10, slate_size=2,
                  interest_dim=6, history_length=4)
SMALL_ECO = dict(num_users=30, num_providers=6, num_items=18, horizon=8,
                 num_runs=3, interest_dim=4, num_communities=2,
                 community_sizes=(2.0, 1.0))


class TestStories:
    def test_latent_sat_value_and_gradients(self):
        cfg = LatentSatConfig(population=20, horizon=10)
        truth, _, _ = build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 1))
        obs = observe(truth, cfg.horizon, 2, hold_out=[HELD_OUT])
        net, registry, held = build_latent_sat_story(cfg)
        z = np.random.default_rng(3).normal(size=(cfg.population, cfg.interest_dim))
        _, grads = assert_matches_stepwise(net, obs, registry=registry, latent=(held, z))
        assert set(grads) == {"alpha", "latent"}

    @pytest.mark.parametrize("policy", ["learned", "random", "oracle"])
    def test_porl(self, policy):
        cfg = PorlConfig(**SMALL_PORL)
        net, registry, metrics = porl_story(cfg, policy)
        obs = observe(net, cfg.horizon, 7)
        _, grads = assert_matches_stepwise(net, obs, registry=registry)
        assert set(grads) == {p.name for p in registry.parameters()}
        if policy != "oracle":  # the oracle's slate is deterministic
            assert_matches_stepwise(net, obs, registry=registry,
                                    only=[metrics["policy_log_prob"]])

    @pytest.mark.parametrize("boost_cap", [pytest.param(0.0, id="myopic"),
                                           pytest.param(1.0, id="boosted")])
    def test_ecosystem_with_users_held_out(self, boost_cap):
        cfg = dataclasses.replace(EcosystemConfig(**SMALL_ECO), boost_cap=boost_cap)
        net, _ = build_ecosystem_story(cfg)
        traj = trajectory(net, cfg.horizon, 8)
        users = traj.value("users", 0).get("interest").data
        obs = Trajectory.from_trajectory(net, traj, hold_out=[("users", "interest")])
        full = Trajectory.from_trajectory(net, traj)
        assert_matches_stepwise(net, full)
        _, grads = assert_matches_stepwise(net, obs, latent=(("users", "interest"), users))
        assert np.any(grads["latent"] != 0.0)


# ---------------------------------------------------------------------------
# windows of slices (``start``)


def windowed(starts):
    """A scorer that sums the rows of the windows of slices 0 .. num_steps
    that begin at 0 and at each of ``starts``."""
    def scorer(net, obs, num_steps, only=None):
        edges = [0, *starts, num_steps + 1]
        total = None
        for lo, hi in zip(edges, edges[1:]):
            rows = trajectory_log_prob_rows(net, obs, hi - 1, only=only, start=lo)
            total = rows if total is None else T.add(total, rows)
        return total
    return scorer


WINDOW_STARTS = [(1,), (3,), (2, 4), (1, 2, 3, 4, 5)]


class TestWindows:
    @staticmethod
    def assert_windows_sum_to_the_whole(net, obs, **kw):
        whole_rows, whole_grads = score(trajectory_log_prob_rows, net, obs, obs.steps - 1, **kw)
        for starts in WINDOW_STARTS:
            rows, grads = score(windowed(starts), net, obs, obs.steps - 1, **kw)
            assert relative(rows, whole_rows) <= TOLERANCE, starts
            assert grads.keys() == whole_grads.keys()
            for name in grads:
                assert relative(grads[name], whole_grads[name]) <= TOLERANCE, (starts, name)

    def test_porl_policy_field(self):
        cfg = PorlConfig(**{**SMALL_PORL, "horizon": 6})
        net, registry, metrics = porl_story(cfg, "learned")
        obs = observe(net, cfg.horizon, 7)
        self.assert_windows_sum_to_the_whole(net, obs, registry=registry)
        self.assert_windows_sum_to_the_whole(net, obs, registry=registry,
                                             only=[metrics["policy_log_prob"]])

    def test_latent_sat_latent_gradient_sums_across_window_boundaries(self):
        cfg = LatentSatConfig(population=6, horizon=6)
        truth, _, _ = build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 1))
        obs = observe(truth, cfg.horizon, 2, hold_out=[HELD_OUT])
        net, registry, held = build_latent_sat_story(cfg)
        z = np.random.default_rng(3).normal(size=(cfg.population, cfg.interest_dim))
        self.assert_windows_sum_to_the_whole(net, obs, registry=registry, latent=(held, z))

    @pytest.mark.parametrize("start", [-1, 4])
    def test_start_outside_the_scored_range_raises(self, start):
        net = discrete_dbn(batch=3)
        with pytest.raises(LogProbError, match=f"start={start} out of range"):
            trajectory_log_prob_rows(net, observe(net, 6, 2), 3, start=start)


# ---------------------------------------------------------------------------
# structure and the builder contract


def test_default_latent_sat_log_prob_and_gradient_records_at_most_40_nodes():
    cfg = LatentSatConfig()
    truth, _, _ = build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 0))
    obs = observe(truth, cfg.horizon, 0, hold_out=[HELD_OUT])
    net, registry, held = build_latent_sat_story(cfg)
    tape = Tape()
    registry.bind(tape)
    try:
        z = tape.watch(np.zeros((cfg.population, cfg.interest_dim)))
        lp = log_probability_from_value_trajectory(
            net, obs.inject(*held, [z] * obs.steps), cfg.horizon - 1)
        tape.backward(lp)
    finally:
        registry.unbind()
    assert len(tape) <= 40


def test_observed_fields_are_stacked_once_and_shared_by_injected_copies():
    truth, _ = static_latent_story(4, bias_init=1.0)
    obs = observe(truth, 5, 1, hold_out=[("latent", "z")])
    first = obs.inject("latent", "z", [np.zeros(4)] * 5)
    second = obs.inject("latent", "z", [np.ones(4)] * 5)
    stacked = obs.fields["obs"]["x"]
    assert stacked.shape == (5, 4)
    assert first.fields["obs"]["x"] is stacked
    assert second.fields["obs"]["x"] is stacked
    assert "z" not in obs.fields["latent"]
    assert first.fields["latent"]["z"].shape == (5, 4)


BATCH = 4


def walk_with_kernel(kernel):
    walk = Variable("walk", ValueSpec(x=FieldSpec(())))
    walk.bind_initial(lambda: Value(x=Normal(Tensor(np.zeros(BATCH)), 1.0)))
    walk.bind_kernel(kernel, deps=(walk.previous,))
    return Network([walk])


def test_builder_that_reshapes_by_a_captured_batch_raises_naming_the_variable():
    net = walk_with_kernel(lambda prev: Value(x=Normal(
        Tensor(prev.get("x").data.reshape(BATCH, 1)[:, 0]), 1.0)))
    obs = observe(net, 3, 0)  # sampling sees (BATCH,) payloads and works
    with pytest.raises(LogProbError, match="variable 'walk'.*leading axes"):
        trajectory_log_prob_rows(net, obs, 2)


def test_deterministic_field_shaped_by_a_captured_batch_names_variable_and_field():
    counter = Variable("counter", ValueSpec(n=FieldSpec((), "integer")))
    counter.bind_initial(lambda: Value(n=np.zeros(BATCH, np.int64)))
    counter.bind_kernel(lambda prev: Value(n=np.full(BATCH, 7)), deps=(counter.previous,))
    net = Network([counter])
    obs = observe(net, 3, 0)
    with pytest.raises(LogProbError, match="variable 'counter'.*field 'n'.*leading axes"):
        trajectory_log_prob_rows(net, obs, 2)
