import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim import inference
from ecosim.behaviors import ParameterRegistry
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import Bernoulli, Categorical, Normal
from ecosim.inference import (Adam, HmcConfig, InferenceError, ReinforceConfig,
                              Sgd, _latent_target, _leapfrog, _momentum,
                              _target_and_grad, hmc_sample, mc_em_fit,
                              reinforce_step)
from ecosim.logprob import (log_probability_from_value_trajectory, observe,
                            trajectory_log_prob_rows)
from ecosim.rng import RngStream, Rows
from ecosim.runtime import Trajectory, trajectory
from ecosim.scenarios import (LatentSatConfig, PorlConfig, build_latent_sat_story,
                              build_porl_story, sample_true_alpha)
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
            p0 = _momentum(seed, 0, init.shape, Rows())
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
        # pinned under stream layout v3
        means, scales = np.array([1.0, -0.5, 0.25]), np.array([0.5, 1.0, 2.0])

        def target(x):
            z = T.div(T.sub(x, Tensor(means)), Tensor(scales))
            return T.mul(T.reduce_sum(T.mul(z, z)), -0.5)

        cfg = HmcConfig(step_size=0.9, num_leapfrog=7, num_samples=40, burn_in=10)
        samples, acceptance = hmc_sample(target, np.zeros(3), cfg, seed=2024)
        assert acceptance == 0.95
        assert hashlib.sha256(np.stack(samples).tobytes()).hexdigest() == \
            "cf9da3e5899646bb0f1cabcf961a3da142577e91cb100465999c7d3ccc5d3a55"

    def test_chain_keyed_draws_equal_standalone_draws(self, monkeypatch):
        # The chain's one Rows draws later proposals' momenta and uniforms
        # ahead; each must hold the bits of its proposal's stream alone.
        drawn, passes = [], []

        class Recorded(RngStream):
            def uniforms(self, batch, per_row, transform=None):
                out = super().uniforms(batch, per_row, transform)
                drawn.append((self._name, batch, per_row, transform, out))
                return out

            def _distinct_rows(self, batch, cursor, per_row, steps):
                passes.append((self._name[1], steps))
                return super()._distinct_rows(batch, cursor, per_row, steps)

        monkeypatch.setattr(inference, "RngStream", Recorded)
        cfg = HmcConfig(step_size=0.5, num_leapfrog=2, num_samples=6, burn_in=3)
        hmc_sample(std_gaussian, np.zeros((2, 5)), cfg, seed=11)
        assert sorted(name for name, *_ in drawn) == sorted(
            ("hmc", path, i) for path in ("momentum", "accept") for i in range(9))
        # proposal 0 alone, then proposals 1 .. 8 in one pass per field
        assert sorted(passes) == [("accept", 1), ("accept", 8),
                                  ("momentum", 1), ("momentum", 8)]
        for (variable, path, step), batch, per_row, transform, out in drawn:
            alone = RngStream(11, variable, path, step).uniforms(batch, per_row, transform)
            assert out.tobytes() == alone.tobytes(), (path, step)

    def test_nonfinite_target_at_init_rejected(self):
        def bad(x):
            return T.reduce_sum(T.log(x))
        with pytest.raises(InferenceError, match="finite"), np.errstate(invalid="ignore"):
            hmc_sample(bad, np.array([-1.0]), HmcConfig(num_samples=2), seed=0)

    @pytest.mark.parametrize("step_size", [0.0, -1.0, float("nan")])
    def test_non_positive_step_size_rejected(self, step_size):
        with pytest.raises(InferenceError, match="step_size must be positive"):
            HmcConfig(step_size=step_size)


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
    cfg = ReinforceConfig(horizon=horizon, reward_field=("metrics", "cumulative_reward"),
                          policy_field=("arm", "choice"))
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
        rewards = traj.value("metrics", -1).get("cumulative_reward").data
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
        rewards = traj.value("metrics", -1).get("cumulative_reward").data
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
        cfg = ReinforceConfig(horizon=3, reward_field=("metrics", "cumulative_reward"),
                              policy_field=("arm", "choice"))
        reinforce_step(net, registry, cfg, Sgd(0.5), seed=0)
        np.testing.assert_array_equal(registry.as_arrays()["theta"], [0.0, 0.0])

    @staticmethod
    def _forbid_sampling(monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("the fields are checked before sampling")

        monkeypatch.setattr("ecosim.inference.trajectory", sample)

    def test_missing_field_is_an_error(self, monkeypatch):
        net, registry = bandit_story(8)
        cfg = ReinforceConfig(horizon=2, reward_field=("metrics", "nope"),
                              policy_field=("arm", "choice"))
        self._forbid_sampling(monkeypatch)
        with pytest.raises(InferenceError,
                           match=re.escape("reward field ('metrics', 'nope') not found")):
            reinforce_step(net, registry, cfg, Sgd(0.1), seed=0)

    def test_forbidden_sampler_is_the_one_the_step_calls(self, monkeypatch):
        # Without this, the two tests around it would pass whatever sampler
        # the step called.
        net, registry = bandit_story(8)
        cfg = ReinforceConfig(horizon=2, reward_field=("metrics", "cumulative_reward"),
                              policy_field=("arm", "choice"))
        self._forbid_sampling(monkeypatch)
        with pytest.raises(AssertionError, match="checked before sampling"):
            reinforce_step(net, registry, cfg, Sgd(0.1), seed=0)

    def test_missing_policy_field_is_an_error(self, monkeypatch):
        net, registry = bandit_story(8)
        cfg = ReinforceConfig(horizon=2, reward_field=("metrics", "cumulative_reward"),
                              policy_field=("arm", "nope"))
        self._forbid_sampling(monkeypatch)
        with pytest.raises(InferenceError,
                           match=re.escape("policy field ('arm', 'nope') not found")):
            reinforce_step(net, registry, cfg, Sgd(0.1), seed=0)


# ---------------------------------------------------------------------------
# REINFORCE a window of slices at a time


def porl_reinforce(**config):
    """A porl story, its registry and a baselined REINFORCE config."""
    cfg = PorlConfig(**config)
    net, registry, metrics = build_porl_story(cfg, param_seed=1)
    rc = ReinforceConfig(horizon=cfg.horizon, reward_field=metrics["reward"],
                         policy_field=metrics["policy_log_prob"], baseline=True)
    return net, registry, rc


def slice_elements(traj):
    """The batch times the event sizes of every field of a whole record
    (one ``trajectory`` made without ``keep``): the slice the sampler
    builds, whatever REINFORCE records of it."""
    return sum(math.prod(stack.shape[1:])
               for fields in traj.fields.values() for stack in fields.values())


class GradientRecorder:
    """An optimizer that keeps the gradients it is given and moves nothing."""

    def __init__(self):
        self.grads = []

    def apply(self, registry, grad_map):
        self.grads.append({p.name: grad_map[p.leaf].data.copy()
                           for p in registry.parameters()})


class TestReinforceWindows:
    HORIZON, SEED = 6, 4
    STORY = dict(population=8, horizon=HORIZON)

    def _per_slice(self):
        net, _, _ = porl_reinforce(**self.STORY)
        return slice_elements(trajectory(net, self.HORIZON, self.SEED))

    def _step(self, monkeypatch, budget):
        """One step's gradients at window budget ``budget``, and the
        ``(lo, hi)`` windows of slices it scored."""
        net, registry, rc = porl_reinforce(**self.STORY)
        windows = []

        def scored(net, traj, num_steps, only=None, *, start=0):
            windows.append((start, num_steps + 1))
            return trajectory_log_prob_rows(net, traj, num_steps, only, start=start)

        monkeypatch.setattr(inference, "trajectory_log_prob_rows", scored)
        monkeypatch.setattr(inference, "_WINDOW_ELEMENTS", budget)
        opt = GradientRecorder()
        reinforce_step(net, registry, rc, opt, self.SEED)
        [grads] = opt.grads
        return grads, windows

    def _whole_horizon(self):
        """The surrogate's gradients, scored on one tape over every slice."""
        net, registry, rc = porl_reinforce(**self.STORY)
        traj = trajectory(net, self.HORIZON, self.SEED)
        var, path = rc.reward_field
        reward = traj.value(var, -1).get(path).data
        tape = Tape()
        registry.bind(tape)
        try:
            log_prob = trajectory_log_prob_rows(net, traj, self.HORIZON - 1,
                                                only=[rc.policy_field])
            loss = T.div(T.neg(T.reduce_sum(T.mul(reward - reward.mean(), log_prob))),
                         float(traj.batch))
            grads = tape.backward(loss)
            return {p.name: grads[p.leaf].data for p in registry.parameters()}
        finally:
            registry.unbind()

    @pytest.mark.parametrize("slices", [HORIZON, None], ids=["six-slice-budget", "default"])
    def test_one_window_is_the_whole_horizon_tape_exactly(self, monkeypatch, slices):
        budget = inference._WINDOW_ELEMENTS if slices is None else slices * self._per_slice()
        got, windows = self._step(monkeypatch, budget)
        assert windows == [(0, self.HORIZON)]
        want = self._whole_horizon()
        assert got.keys() == want.keys()
        for name, grad in want.items():
            np.testing.assert_array_equal(got[name], grad, err_msg=name)

    @pytest.mark.parametrize("slices,windows", [
        (3, [(0, 3), (3, 6)]),
        (2, [(0, 2), (2, 4), (4, 6)]),
        (1, [(t, t + 1) for t in range(HORIZON)]),
    ])
    def test_windowed_gradients_match_one_window(self, monkeypatch, slices, windows):
        per_slice = self._per_slice()
        one, _ = self._step(monkeypatch, self.HORIZON * per_slice)
        got, scored = self._step(monkeypatch, slices * per_slice)
        assert scored == windows
        for name, grad in one.items():
            np.testing.assert_allclose(got[name], grad, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("steps", [1, 2, 5, 7, 20, 100])
    @pytest.mark.parametrize("per_slice", [1, 1376, 17_200, 2**17, 2**17 + 1, 172_000])
    def test_windows_cover_the_slices_in_the_fewest_balanced_windows(self, steps,
                                                                    per_slice):
        windows = inference._windows(steps, per_slice)
        assert windows[0][0] == 0 and windows[-1][1] == steps
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
        sizes = [hi - lo for lo, hi in windows]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        limit = max(1, inference._WINDOW_ELEMENTS // per_slice)  # one slice if it is over
        assert max(sizes) <= limit
        assert len(windows) == math.ceil(steps / limit)

    def test_default_porl_scores_in_three_windows(self):
        net, _, _ = porl_reinforce()
        per_slice = slice_elements(trajectory(net, 20, 0))
        assert per_slice == 17_200
        assert inference._windows(20, per_slice) == [(0, 7), (7, 14), (14, 20)]

    def test_scoring_memory_does_not_grow_with_the_horizon(self, monkeypatch):
        # The step's traced peak over the record it samples, at population
        # 200: 2.55 MB at horizon 20 and 2.56 MB at 60, a window of three
        # slices at a time.  On one whole-horizon tape it was 16.1 and
        # 48.9 MB (3.0x).
        over = {horizon: traced_step(monkeypatch, population=200, horizon=horizon)[1]
                for horizon in (20, 60)}
        assert over[20] > 0
        assert over[60] <= 1.25 * over[20]


def traced_step(monkeypatch, **story):
    """One REINFORCE step on a porl story, traced by ``tracemalloc``: the
    bytes of the record it samples, and its peak over that record."""
    net, registry, rc = porl_reinforce(**story)
    records = []

    def sampled(*args, **kwargs):
        traj = trajectory(*args, **kwargs)
        records.append(tracemalloc.get_traced_memory()[0] - before)
        return traj

    monkeypatch.setattr(inference, "trajectory", sampled)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reinforce_step(net, registry, rc, Sgd(0.0), seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    [record] = records
    return record, peak - record


class TestReinforceCone:
    """REINFORCE records the policy's cone and the reward, and its scoring
    runs the policy's builder alone."""

    HORIZON, SEED = 6, 4
    STORY = dict(population=8, interest_dim=4, corpus_size=8, horizon=HORIZON)
    CONE = {"slate", "history", "corpus_topics", "metrics"}

    def test_step_records_the_policy_cone_and_the_reward(self, monkeypatch):
        net, registry, rc = porl_reinforce(**self.STORY)
        kept = []

        def sampled(*args, keep=None):
            kept.append(keep)
            return trajectory(*args, keep=keep)

        monkeypatch.setattr(inference, "trajectory", sampled)
        reinforce_step(net, registry, rc, Sgd(0.1), self.SEED)
        assert kept == [self.CONE]

    def test_scoring_runs_only_the_policy_builder(self, monkeypatch):
        net, registry, rc = porl_reinforce(**self.STORY)
        phase, calls = ["sample"], {"sample": set(), "score": set()}
        for var in net.variables:
            for kind in ("initial_fn", "kernel_fn"):
                def spy(*args, builder=getattr(var, kind)):
                    calls[phase[0]].add(builder.__name__)
                    return builder(*args)

                setattr(var, kind, spy)
        descend = inference._descend

        def scoring(*args):
            phase[0] = "score"
            try:
                return descend(*args)
            finally:
                phase[0] = "sample"

        monkeypatch.setattr(inference, "_descend", scoring)
        reinforce_step(net, registry, rc, Sgd(0.1), self.SEED)
        assert calls["score"] == {"learned_slate"}
        assert {"engage", "next_interest", "consume", "push"} <= calls["sample"]

    def test_kept_stacks_equal_the_whole_record_bit_for_bit(self):
        net, _, _ = porl_reinforce(**self.STORY)
        whole = trajectory(net, self.HORIZON, self.SEED)
        cone = trajectory(net, self.HORIZON, self.SEED, keep=self.CONE)
        assert set(cone.specs) == set(cone.fields) == self.CONE
        assert cone.batch == whole.batch
        for name in self.CONE:
            assert cone.fields[name].keys() == whole.fields[name].keys()
            for path, stack in whole.fields[name].items():
                got, want = T.as_array(cone.fields[name][path]), T.as_array(stack)
                assert got.dtype == want.dtype and got.shape == want.shape, (name, path)
                assert got.tobytes() == want.tobytes(), (name, path)
                assert (T.as_array(cone.value(name, 0).get(path)).tobytes()
                        == T.as_array(whole.value(name, 0).get(path)).tobytes())

    def test_step_record_stays_under_its_bound(self, monkeypatch):
        # porl at population 200, horizon 40: the cone and the reward
        # trace 6.16 MiB; a step that records every variable traces 10.79.
        record, _ = traced_step(monkeypatch, population=200, horizon=40)
        assert record <= 8 * 2**20


# ---------------------------------------------------------------------------
# MC-EM


def drift_walk_story(batch, drift_init=0.0, scale=1.0):
    registry = ParameterRegistry()
    registry.create("drift", np.array(drift_init))
    walk = Variable("walk", ValueSpec(x=FieldSpec(())))
    walk.bind_initial(lambda: Value(x=Normal(Tensor(np.zeros(batch)), scale)))
    walk.bind_kernel(
        lambda prev: Value(x=Normal(T.add(prev.get("x"), registry.get("drift")), scale)),
        deps=(walk.previous,))
    return Network([walk]), registry


def static_latent_story(batch, bias_init, scale=0.7):
    """z ~ N(0,1) static; x_t ~ N(z + bias, scale); bias trainable."""
    registry = ParameterRegistry()
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
        data = Trajectory.from_trajectory(truth_net, traj, hold_out=[("latent", "z")])
        xs = np.stack([traj.value("obs", t).get("x").data for t in range(horizon)])
        oracle = closed_form_em_fixed_point(xs, scale, bias0=0.0)
        net, registry = static_latent_story(batch, bias_init=0.0, scale=scale)
        hmc = HmcConfig(step_size=0.12, num_leapfrog=5, num_samples=6, burn_in=3)
        trace = mc_em_fit(net, data, ("latent", "z"), hmc, Adam(0.05), 100,
                          seed=13, registry=registry)
        fitted = float(registry.as_arrays()["bias"])
        assert abs(fitted - oracle) / abs(oracle) < 0.05
        assert all(t.acceptance > 0.2 for t in trace)

    def test_trace_is_reproducible_bit_exactly(self):
        batch, horizon = 10, 4
        truth_net, _ = static_latent_story(batch, bias_init=1.0)
        data = Trajectory.from_trajectory(
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
        data = Trajectory.from_trajectory(
            truth_net, trajectory(truth_net, horizon, seed=2),
            hold_out=[("latent", "z")])
        net, registry = static_latent_story(batch, bias_init=0.0, scale=0.01)
        hmc = HmcConfig(step_size=5.0, num_leapfrog=10, num_samples=5, burn_in=0)
        with pytest.raises(InferenceError, match="retune"):
            mc_em_fit(net, data, ("latent", "z"), hmc, Adam(0.05), 5,
                      seed=1, registry=registry)


class TestLatentTarget:
    """The E-step's target scores only the factors that read the latent."""

    def _latent_sat(self):
        cfg = LatentSatConfig(population=6, horizon=5, interest_dim=2)
        truth_net, _, held = build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 1))
        data = Trajectory.from_trajectory(
            truth_net, trajectory(truth_net, cfg.horizon, seed=3), hold_out=[held])
        net, _, _ = build_latent_sat_story(cfg)
        return net, data, held

    def test_gradient_matches_full_target_bit_for_bit(self):
        net, data, held = self._latent_sat()
        var, path = held

        def full(zt):
            return log_probability_from_value_trajectory(
                net, data.inject(var, path, [zt] * data.steps), data.steps - 1)

        restricted = _latent_target(net, data, held)
        rng = np.random.default_rng(4)
        offsets = []
        for z in (np.zeros((6, 2)), rng.normal(size=(6, 2))):
            lp_full, g_full = _target_and_grad(full, z)
            lp_restricted, g_restricted = _target_and_grad(restricted, z)
            assert np.array_equal(g_full, g_restricted)
            offsets.append(lp_full - lp_restricted)
        # the slate's factor is left out, and it is constant in the latent
        assert offsets[0] < 0.0
        assert abs(offsets[0] - offsets[1]) < 1e-9

    def test_value_and_gradient_bytes_at_the_default_sizes(self):
        # B=50, d=3, slate 4, 40 steps: the shapes fit-em's E-step runs at
        # (the small fits here use d=2), pinned so a kernel change that
        # moves one bit of the chain's input shows
        cfg = LatentSatConfig()
        truth_net, _, held = build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 1))
        data = Trajectory.from_trajectory(
            truth_net, trajectory(truth_net, cfg.horizon, seed=0), hold_out=[held])
        net, _, _ = build_latent_sat_story(cfg)
        z = np.random.default_rng(5).normal(size=(cfg.population, cfg.interest_dim))
        lp, grad = _target_and_grad(_latent_target(net, data, held), z)
        assert repr(lp) == "-10532.569167512094"
        assert grad.shape == (50, 3)
        assert hashlib.sha256(grad.tobytes()).hexdigest() == \
            "00be8e90227927717773450a3ae8f9c1d077572dba72db32d964e4ca417dbbe2"

    def test_nonfinite_factor_outside_the_target_still_raises(self):
        # "noise" reads nothing, so the E-step's target leaves it out; its
        # observed inf scores -inf only in the full log-probability
        batch, horizon = 4, 3
        truth_net, _ = static_latent_story(batch, bias_init=1.0)
        traj = trajectory(truth_net, horizon, seed=2)
        net, registry = static_latent_story(batch, bias_init=0.0)
        noise = Variable("noise", ValueSpec(x=FieldSpec(())))
        emit = lambda: Value(x=Normal(Tensor(np.zeros(batch)), 1.0))
        noise.bind_initial(emit)
        noise.bind_kernel(emit)
        net = Network(list(net.variables) + [noise])
        slices = [{"latent": Value(), "obs": traj.value("obs", t),
                   "noise": Value(x=np.full(batch, np.inf if t == 1 else 0.0))}
                  for t in range(horizon)]
        data = observe(net, slices)
        assert np.isfinite(_latent_target(net, data, ("latent", "z"))(
            Tensor(np.zeros(batch))).data)
        hmc = HmcConfig(step_size=0.12, num_leapfrog=2, num_samples=2, burn_in=0)
        with pytest.raises(InferenceError, match="not finite"):
            mc_em_fit(net, data, ("latent", "z"), hmc, Adam(0.05), 1,
                      seed=0, registry=registry)

    def test_held_out_variable_missing_from_the_network_is_an_error(self):
        batch, horizon = 4, 3
        truth_net, _ = static_latent_story(batch, bias_init=1.0)
        data = Trajectory.from_trajectory(
            truth_net, trajectory(truth_net, horizon, seed=2), hold_out=[("latent", "z")])
        registry = ParameterRegistry()
        registry.create("bias", np.array(0.0))
        obs = Variable("obs", ValueSpec(x=FieldSpec(())))
        emit = lambda: Value(x=Normal(T.add(Tensor(np.zeros(batch)), registry.get("bias")),
                                      1.0))
        obs.bind_initial(emit)
        obs.bind_kernel(emit)
        hmc = HmcConfig(step_size=0.12, num_leapfrog=2, num_samples=2, burn_in=0)
        with pytest.raises(InferenceError, match="not in the network"):
            mc_em_fit(Network([obs]), data, ("latent", "z"), hmc, Adam(0.05), 1,
                      seed=0, registry=registry)
