"""The time-batched scorer against the per-step replay oracle.

``trajectory_log_prob_rows`` scores slices 1..num_steps with one kernel
call per Variable; ``stepwise_oracle`` replays them one step at a time.
Rows and gradients (trainable parameters and injected latents) must agree
to 1e-12 relative on every scored story and on the toy networks of
``test_logprob.py`` and ``test_inference.py``.
"""

import dataclasses

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import Categorical, Normal
from ecosim.logprob import (LogProbError, ObservedTrajectory,
                            log_probability_from_value_trajectory,
                            trajectory_log_prob_rows)
from ecosim.runtime import trajectory
from ecosim.scenarios import (EcosystemConfig, LatentSatConfig, PorlConfig,
                              build_ecosystem_story, build_latent_sat_story,
                              build_porl_story, sample_true_alpha)
from ecosim.scenarios.latent_sat import HELD_OUT
from ecosim.tensor import Tape, Tensor

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
    return ObservedTrajectory.from_trajectory(net, trajectory(net, horizon, seed),
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

    def test_distinct_injected_value_per_step(self):
        # per-step payloads are stacked as one tape node; each step's
        # gradient lands on its own leaf
        net = iid_normal_network(batch=3)
        obs = observe(net, 4, 2, hold_out=[("x", "v")])
        values = np.random.default_rng(9).normal(size=(4, 3))
        results = []
        for scorer in (trajectory_log_prob_rows, stepwise_log_prob_rows):
            tape = Tape()
            leaves = [tape.watch(v) for v in values]
            rows = scorer(net, obs.inject("x", "v", leaves), 3)
            grads = tape.backward(T.reduce_sum(rows))
            results.append((rows.data, np.stack([grads[leaf].data for leaf in leaves])))
        (rows, grads), (oracle_rows, oracle_grads) = results
        assert relative(rows, oracle_rows) <= TOLERANCE
        assert relative(grads, oracle_grads) <= TOLERANCE
        np.testing.assert_allclose(grads, -values, atol=1e-12)  # d/dx log N(x; 0, 1)

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
        net, registry, metrics = build_porl_story(cfg, policy=policy)
        obs = observe(net, cfg.horizon, 7)
        _, grads = assert_matches_stepwise(net, obs, registry=registry)
        assert set(grads) == set(registry.names())
        policy_field = tuple(metrics["policy_log_prob"].split(".", 1))
        if policy != "oracle":  # the oracle's slate is deterministic
            assert_matches_stepwise(net, obs, registry=registry, only=[policy_field])

    @pytest.mark.parametrize("policy", ["myopic", "boosted"])
    def test_ecosystem_with_users_held_out(self, policy):
        cfg = dataclasses.replace(EcosystemConfig(**SMALL_ECO), boost_cap=1.0)
        net, _ = build_ecosystem_story(cfg, policy=policy)
        traj = trajectory(net, cfg.horizon, 8)
        users = traj.value("users", 0).get("interest").data
        obs = ObservedTrajectory.from_trajectory(net, traj,
                                                 hold_out=[("users", "interest")])
        full = ObservedTrajectory.from_trajectory(net, traj)
        assert_matches_stepwise(net, full)
        _, grads = assert_matches_stepwise(net, obs, latent=(("users", "interest"), users))
        assert np.any(grads["latent"] != 0.0)


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
    assert first.stacked("obs")["x"] is obs.stacked("obs")["x"]
    assert second.stacked("obs")["x"] is obs.stacked("obs")["x"]
    assert obs.stacked("obs")["x"].shape == (5, 4)


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
