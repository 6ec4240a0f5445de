import hashlib

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.behaviors import ParameterRegistry
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import Bernoulli, Categorical, Normal
from ecosim.inference import (Adam, HmcConfig, InferenceError, ReinforceConfig,
                              Sgd, _leapfrog, _momentum, _target_and_grad,
                              hmc_sample, mc_em_fit, mle_step, reinforce_step)
from ecosim.logprob import ObservedTrajectory, log_probability_from_value_trajectory
from ecosim.runtime import trajectory
from ecosim.tensor import Tape, Tensor


def std_gaussian(x):
    return T.mul(T.reduce_sum(T.mul(x, x)), -0.5)


class TestOptimizers:
    def _registry(self):
        registry = ParameterRegistry()
        registry.create("w", np.array([1.0, -2.0]))
        return registry

    def _grads(self, registry, grad_values):
        tape = Tape()
        registry.bind(tape)
        w = registry.get("w")
        loss = T.reduce_sum(T.mul(w, Tensor(grad_values)))  # d/dw = grad_values
        grads = tape.backward(loss)
        return grads

    def test_sgd_step_is_exactly_minus_lr_grad(self):
        registry = self._registry()
        grads = self._grads(registry, np.array([0.5, -1.5]))
        Sgd(0.1).apply(registry, grads)
        registry.unbind()
        np.testing.assert_allclose(registry.as_arrays()["w"],
                                   [1.0 - 0.05, -2.0 + 0.15], atol=1e-15)

    def test_adam_zero_gradients_leave_parameters_fixed(self):
        registry = self._registry()
        opt = Adam(0.1)
        for _ in range(3):
            grads = self._grads(registry, np.zeros(2))
            opt.apply(registry, grads)
            registry.unbind()
        np.testing.assert_array_equal(registry.as_arrays()["w"], [1.0, -2.0])

    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        registry = self._registry()
        grads = self._grads(registry, np.array([3.0, 4.0]))
        Adam(0.0).apply(registry, grads)
        registry.unbind()
        np.testing.assert_array_equal(registry.as_arrays()["w"], [1.0, -2.0])


class TestHmc:
    def test_vanishing_step_size_accepts_everything(self):
        cfg = HmcConfig(step_size=1e-4, num_leapfrog=1, num_samples=200, burn_in=0)
        _, acceptance = hmc_sample(std_gaussian, np.zeros(2), cfg, seed=0)
        assert acceptance >= 0.999

    def test_leapfrog_energy_error_is_second_order(self):
        # halving epsilon (doubling L to keep the path length) cuts |dH| ~4x
        def energy_error(init, step_size, num_leapfrog, seed):
            lp, grad = _target_and_grad(std_gaussian, init)
            p0 = _momentum(seed, 0, init.shape)
            _, p, lp_q, _ = _leapfrog(std_gaussian, init, p0, grad, step_size, num_leapfrog)
            return abs((-lp_q + 0.5 * np.sum(p * p)) - (-lp + 0.5 * np.sum(p0 * p0)))

        ratios = []
        for seed in range(5):
            init = np.random.default_rng(seed).normal(size=3)
            big = energy_error(init, 0.2, 10, seed)
            small = energy_error(init, 0.1, 20, seed)
            ratios.append(big / small)
        assert 2.5 < np.mean(ratios) < 6.0

    def test_gaussian_moments_at_defaults(self):
        cfg = HmcConfig(num_samples=4000, burn_in=400)
        samples, acceptance = hmc_sample(std_gaussian, np.zeros(1), cfg, seed=42)
        arr = np.stack(samples)
        assert 0.6 <= acceptance <= 0.95
        assert abs(arr.mean()) < 0.08
        assert 0.9 < arr.var() < 1.1

    def test_samples_pinned_at_fixed_seed(self):
        # sha256 of the samples of a 3-D Gaussian with unequal scales,
        # pinned under the two-doubles-per-block stream
        means, scales = np.array([1.0, -0.5, 0.25]), np.array([0.5, 1.0, 2.0])

        def target(x):
            z = T.div(T.sub(x, Tensor(means)), Tensor(scales))
            return T.mul(T.reduce_sum(T.mul(z, z)), -0.5)

        cfg = HmcConfig(step_size=0.9, num_leapfrog=7, num_samples=40, burn_in=10)
        samples, acceptance = hmc_sample(target, np.zeros(3), cfg, seed=2024)
        assert acceptance == 0.95
        assert hashlib.sha256(np.stack(samples).tobytes()).hexdigest() == \
            "bf366f7d899218854a45369e98169c1874d5f9bb641b9f9f38ffe40929e6bd22"

    def test_nonfinite_target_at_init_rejected(self):
        def bad(x):
            return T.reduce_sum(T.log(x))
        with pytest.raises(InferenceError, match="finite"), np.errstate(invalid="ignore"):
            hmc_sample(bad, np.array([-1.0]), HmcConfig(num_samples=2), seed=0)


# ---------------------------------------------------------------------------
# bandit story used by REINFORCE tests


REWARD_PROBS = np.array([0.9, 0.1])
REWARD_LOGITS = np.log(REWARD_PROBS / (1.0 - REWARD_PROBS))


def bandit_story(batch: int):
    """Two-arm bandit: softmax policy over arms, Bernoulli rewards."""
    registry = ParameterRegistry()
    registry.create("theta", np.zeros(2))

    arm = Variable("arm", ValueSpec(choice=FieldSpec((), "integer")))
    reward = Variable("reward", ValueSpec(value=FieldSpec((), "integer")))
    metrics = Variable("metrics", ValueSpec(cumulative_reward=FieldSpec(())))

    def pick_arm(*_):
        logits = T.add(Tensor(np.zeros((batch, 2))), registry.get("theta"))
        return Value(choice=Categorical(logits))

    def emit_reward(arm_v):
        idx = np.asarray(arm_v.get("choice"))
        return Value(value=Bernoulli(Tensor(REWARD_LOGITS[idx])))

    def init_metric(reward_v):
        return Value(cumulative_reward=Tensor(
            np.asarray(reward_v.get("value"), np.float64)))

    def add_metric(metrics_v, reward_v):
        return Value(cumulative_reward=T.add(
            metrics_v.get("cumulative_reward"),
            Tensor(np.asarray(reward_v.get("value"), np.float64))))

    arm.bind_initial(pick_arm)
    arm.bind_kernel(pick_arm)
    reward.bind_initial(emit_reward, deps=(arm,))
    reward.bind_kernel(emit_reward, deps=(arm,))
    metrics.bind_initial(init_metric, deps=(reward,))
    metrics.bind_kernel(add_metric, deps=(metrics.previous, reward))
    return Network([arm, reward, metrics]), registry


def bandit_analytic_gradient(theta: np.ndarray, horizon: int) -> np.ndarray:
    """d E[total reward] / d theta for the softmax bandit."""
    pi = np.exp(theta) / np.exp(theta).sum()
    p_bar = float(REWARD_PROBS @ pi)
    return horizon * pi * (REWARD_PROBS - p_bar)


def reinforce_gradient_estimate(batch, horizon, seed):
    """Recover the surrogate gradient from one exact SGD step."""
    net, registry = bandit_story(batch)
    cfg = ReinforceConfig(num_trajectories=batch, horizon=horizon,
                          reward_field="metrics.cumulative_reward",
                          policy_field="arm.choice")
    lr = 1e-3
    before = registry.as_arrays()["theta"]
    mean_reward = reinforce_step(net, registry, cfg, Sgd(lr), seed=seed)
    after = registry.as_arrays()["theta"]
    return (after - before) / lr, mean_reward, net, registry


class TestReinforce:
    def test_estimator_matches_manual_score_function_average(self):
        batch, horizon, seed = 4000, 2, 11
        # sample the identical trajectory first (the update shifts theta,
        # which would flip near-tie Gumbel draws on a resample)
        probe_net, _ = bandit_story(batch)
        traj = trajectory(probe_net, horizon, seed)
        grad_est, _, net, _ = reinforce_gradient_estimate(batch, horizon, seed)
        arms = np.stack([np.asarray(traj.value("arm", t).get("choice"))
                         for t in range(horizon)])
        rewards = traj.last_slice()["metrics"].get("cumulative_reward").data
        pi = np.array([0.5, 0.5])
        score = np.zeros((batch, 2))
        for t in range(horizon):
            onehot = np.eye(2)[arms[t]]
            score += onehot - pi
        manual = (rewards[:, None] * score).mean(axis=0)
        np.testing.assert_allclose(grad_est, manual, atol=1e-10)

    def test_estimator_mean_within_three_sigma_of_analytic(self):
        batch, horizon, seed = 20_000, 2, 3
        grad_est, _, net, _ = reinforce_gradient_estimate(batch, horizon, seed)
        analytic = bandit_analytic_gradient(np.zeros(2), horizon)
        traj = trajectory(net, horizon, seed)
        arms = np.stack([np.asarray(traj.value("arm", t).get("choice"))
                         for t in range(horizon)])
        rewards = traj.last_slice()["metrics"].get("cumulative_reward").data
        score = sum(np.eye(2)[arms[t]] - 0.5 for t in range(horizon))
        per_sample = rewards[:, None] * score
        sigma = per_sample.std(axis=0) / np.sqrt(batch)
        assert np.all(np.abs(grad_est - analytic) < 3 * sigma + 1e-12)

    def test_zero_reward_environment_leaves_params_unchanged(self):
        batch = 64
        registry = ParameterRegistry()
        registry.create("theta", np.zeros(2))
        arm = Variable("arm", ValueSpec(choice=FieldSpec((), "integer")))
        metrics = Variable("metrics", ValueSpec(cumulative_reward=FieldSpec(())))

        def pick(*_):
            return Value(choice=Categorical(
                T.add(Tensor(np.zeros((batch, 2))), registry.get("theta"))))

        arm.bind_initial(pick)
        arm.bind_kernel(pick)
        metrics.bind_initial(lambda: Value(cumulative_reward=Tensor(np.zeros(batch))))
        metrics.bind_kernel(lambda prev: Value(cumulative_reward=prev.get("cumulative_reward")),
                            deps=(metrics.previous,))
        net = Network([arm, metrics])
        cfg = ReinforceConfig(num_trajectories=batch, horizon=3,
                              reward_field="metrics.cumulative_reward",
                              policy_field="arm.choice")
        reinforce_step(net, registry, cfg, Sgd(0.5), seed=0)
        np.testing.assert_array_equal(registry.as_arrays()["theta"], [0.0, 0.0])

    def test_missing_field_is_an_error(self):
        net, registry = bandit_story(8)
        cfg = ReinforceConfig(num_trajectories=8, horizon=2,
                              reward_field="metrics.nope",
                              policy_field="arm.choice")
        with pytest.raises(InferenceError, match="reward field"):
            reinforce_step(net, registry, cfg, Sgd(0.1), seed=0)


# ---------------------------------------------------------------------------
# MLE and MC-EM


def drift_walk_story(batch, drift_init=0.0, scale=1.0):
    registry = ParameterRegistry()
    registry.create("drift", np.array(drift_init))
    walk = Variable("walk", ValueSpec(x=FieldSpec(())))
    walk.bind_initial(lambda: Value(x=Normal(Tensor(np.zeros(batch)), scale)))
    walk.bind_kernel(
        lambda prev: Value(x=Normal(T.add(prev.get("x"), registry.get("drift")), scale)),
        deps=(walk.previous,))
    return Network([walk]), registry


class TestMle:
    def test_drift_recovery_matches_sample_mean_oracle(self):
        true_drift, batch, horizon = 0.7, 1000, 6
        truth_net, truth_reg = drift_walk_story(batch, drift_init=true_drift)
        traj = trajectory(truth_net, horizon, seed=22)
        obs = ObservedTrajectory.from_trajectory(truth_net, traj)
        xs = np.stack([traj.value("walk", t).get("x").data for t in range(horizon)])
        increments = np.diff(xs, axis=0)
        oracle = increments.mean()  # closed-form MLE
        se = increments.std() / np.sqrt(increments.size)
        net, registry = drift_walk_story(batch, drift_init=0.0)
        opt = Adam(0.05)
        for _ in range(200):
            mle_step(net, obs, registry, opt)
        fitted = float(registry.as_arrays()["drift"])
        assert abs(fitted - oracle) < 0.01  # converged to the MLE
        assert abs(fitted - true_drift) < 2.0 * se  # MLE near the truth

    def test_zero_learning_rate_keeps_params(self):
        net, registry = drift_walk_story(16, drift_init=0.2)
        obs = ObservedTrajectory.from_trajectory(net, trajectory(net, 4, seed=2))
        mle_step(net, obs, registry, Sgd(0.0))
        assert float(registry.as_arrays()["drift"]) == 0.2

    def test_loss_decreases_over_training(self):
        truth_net, _ = drift_walk_story(200, drift_init=-0.5)
        obs = ObservedTrajectory.from_trajectory(truth_net, trajectory(truth_net, 5, seed=8))
        net, registry = drift_walk_story(200, drift_init=0.5)
        opt = Adam(0.05)
        losses = [mle_step(net, obs, registry, opt) for _ in range(100)]
        assert losses[-1] < losses[0]


def static_latent_story(batch, bias_init, scale=0.7, registry=None):
    """z ~ N(0,1) static; x_t ~ N(z + bias, scale); bias trainable."""
    registry = registry or ParameterRegistry()
    if "bias" not in registry:
        registry.create("bias", np.array(bias_init))
    latent = Variable("latent", ValueSpec(z=FieldSpec(())))
    obs = Variable("obs", ValueSpec(x=FieldSpec(())))
    latent.bind_initial(lambda: Value(z=Normal(Tensor(np.zeros(batch)), 1.0)))
    latent.bind_kernel(lambda prev: Value(z=prev.get("z")), deps=(latent.previous,))
    emit = lambda z_v: Value(x=Normal(T.add(z_v.get("z"), registry.get("bias")), scale))
    obs.bind_initial(emit, deps=(latent,))
    obs.bind_kernel(emit, deps=(latent,))
    return Network([latent, obs]), registry


def closed_form_em_fixed_point(xs: np.ndarray, scale: float, bias0: float) -> float:
    """Exact EM on the linear-Gaussian toy, iterated to convergence."""
    steps, _ = xs.shape
    precision = 1.0 + steps / scale**2
    bias = bias0
    for _ in range(10_000):
        post_mean = (xs - bias).sum(axis=0) / scale**2 / precision
        new_bias = (xs.mean() - post_mean.mean())
        if abs(new_bias - bias) < 1e-13:
            return new_bias
        bias = new_bias
    return bias


class TestMcEm:
    def test_linear_gaussian_toy_matches_closed_form_em(self):
        batch, horizon, scale, true_bias = 30, 8, 0.7, 1.5
        truth_net, _ = static_latent_story(batch, bias_init=true_bias, scale=scale)
        traj = trajectory(truth_net, horizon, seed=5)
        data = ObservedTrajectory.from_trajectory(truth_net, traj,
                                                  hold_out=[("latent", "z")])
        xs = np.stack([traj.value("obs", t).get("x").data for t in range(horizon)])
        oracle = closed_form_em_fixed_point(xs, scale, bias0=0.0)
        net, registry = static_latent_story(batch, bias_init=0.0, scale=scale)
        hmc = HmcConfig(step_size=0.12, num_leapfrog=5, num_samples=6, burn_in=3)
        trace = mc_em_fit(net, data, ("latent", "z"), hmc, Adam(0.05), 100,
                          seed=13, registry=registry)
        fitted = float(registry.as_arrays()["bias"])
        assert abs(fitted - oracle) / abs(oracle) < 0.05
        assert all(t.acceptance > 0.2 for t in trace)

    def test_fully_observed_reduces_to_mle_ascent(self):
        truth_net, _ = drift_walk_story(50, drift_init=0.4)
        obs = ObservedTrajectory.from_trajectory(truth_net, trajectory(truth_net, 5, seed=3))
        net_a, reg_a = drift_walk_story(50, drift_init=0.0)
        trace = mc_em_fit(net_a, obs, None, HmcConfig(), Adam(0.05), 10,
                          seed=0, registry=reg_a)
        net_b, reg_b = drift_walk_story(50, drift_init=0.0)
        opt = Adam(0.05)
        direct = [-mle_step(net_b, obs, reg_b, opt) for _ in range(10)]
        np.testing.assert_array_equal([t.objective for t in trace], direct)

    def test_trace_is_reproducible_bit_exactly(self):
        batch, horizon = 10, 4
        truth_net, _ = static_latent_story(batch, bias_init=1.0)
        data = ObservedTrajectory.from_trajectory(
            truth_net, trajectory(truth_net, horizon, seed=2),
            hold_out=[("latent", "z")])
        hmc = HmcConfig(step_size=0.12, num_leapfrog=5, num_samples=4, burn_in=2)
        traces = []
        for _ in range(2):
            net, registry = static_latent_story(batch, bias_init=0.0)
            trace = mc_em_fit(net, data, ("latent", "z"), hmc, Adam(0.05), 5,
                              seed=7, registry=registry)
            traces.append([t.objective for t in trace])
        assert traces[0] == traces[1]

    def test_low_acceptance_raises_with_retuning_advice(self):
        batch, horizon = 10, 6
        truth_net, _ = static_latent_story(batch, bias_init=1.0, scale=0.01)
        data = ObservedTrajectory.from_trajectory(
            truth_net, trajectory(truth_net, horizon, seed=2),
            hold_out=[("latent", "z")])
        net, registry = static_latent_story(batch, bias_init=0.0, scale=0.01)
        hmc = HmcConfig(step_size=5.0, num_leapfrog=10, num_samples=5, burn_in=0)
        with pytest.raises(InferenceError, match="retune"):
            mc_em_fit(net, data, ("latent", "z"), hmc, Adam(0.05), 5,
                      seed=1, registry=registry)
