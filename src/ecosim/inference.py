"""Training and inference drivers.

Covers first-order optimizers (SGD, Adam), a native Hamiltonian Monte
Carlo sampler (leapfrog + Metropolis correction, identity mass matrix),
REINFORCE policy-gradient steps over story-defined slate policies,
maximum-likelihood fitting, and Monte-Carlo EM with an HMC E-step.
Every driver owns its tape, RNG streams, and optimizer state; runs with
different seeds are fully isolated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .behaviors import ParameterRegistry
from .core import Network
from .logprob import (ObservedTrajectory, log_probability_from_value_trajectory,
                      trajectory_log_prob_rows)
from .rng import RngStream, derive_seed
from .runtime import trajectory
from .tensor import Tape, Tensor


class InferenceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# optimizers


class Sgd:
    """Plain gradient descent: p <- p - lr * grad."""

    def __init__(self, learning_rate: float = 1e-2):
        self.learning_rate = float(learning_rate)

    def apply(self, registry: ParameterRegistry, grad_map: dict[Tensor, Tensor]) -> None:
        for p in registry.parameters():
            if p.leaf is None or p.leaf not in grad_map:
                continue
            p.assign(p.value - self.learning_rate * grad_map[p.leaf].data)


class Adam:
    """Adam with bias correction; moments keyed by parameter name."""

    def __init__(self, learning_rate: float = 1e-2, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def apply(self, registry: ParameterRegistry, grad_map: dict[Tensor, Tensor]) -> None:
        self._t += 1
        for p in registry.parameters():
            if p.leaf is None or p.leaf not in grad_map:
                continue
            g = grad_map[p.leaf].data
            m = self._m.setdefault(p.name, np.zeros_like(p.value))
            v = self._v.setdefault(p.name, np.zeros_like(p.value))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            m_hat = m / (1.0 - self.beta1 ** self._t)
            v_hat = v / (1.0 - self.beta2 ** self._t)
            p.assign(p.value - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon))


def make_optimizer(kind: str = "adam", learning_rate: float = 1e-2):
    if kind == "adam":
        return Adam(learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate)
    raise InferenceError(f"unknown optimizer kind {kind!r}")


# ---------------------------------------------------------------------------
# Hamiltonian Monte Carlo


@dataclass(frozen=True)
class HmcConfig:
    """Fixed-step HMC with an identity mass matrix.

    The default step size was calibrated so that acceptance on standard
    1-D and 5-D Gaussian targets lands in the 0.6 .. 0.95 band.
    """

    step_size: float = 1.0
    num_leapfrog: int = 10
    num_samples: int = 1000
    burn_in: int = 100

    def __post_init__(self):
        if self.step_size <= 0:
            raise InferenceError("step_size must be positive")
        if self.num_leapfrog < 1:
            raise InferenceError("num_leapfrog must be >= 1")
        if self.num_samples < 1:
            raise InferenceError("num_samples must be >= 1")
        if self.burn_in < 0:
            raise InferenceError("burn_in must be >= 0")


def _target_and_grad(target_log_prob: Callable[[Tensor], Tensor], x: np.ndarray):
    tape = Tape()
    xt = tape.watch(x)
    lp = target_log_prob(xt)
    if lp.size != 1:
        raise InferenceError(f"target log-prob must be scalar, got shape {lp.shape}")
    return float(lp.data), tape.backward(lp)[xt].data


def _momentum(seed: int, proposal: int, shape: tuple[int, ...]) -> np.ndarray:
    return RngStream(seed, "hmc", "momentum", proposal).normals((1,) + shape).reshape(shape)


def _leapfrog(target_log_prob, q: np.ndarray, p: np.ndarray, grad: np.ndarray,
              step_size: float, num_leapfrog: int):
    """``num_leapfrog`` leapfrog steps from position ``q`` and momentum ``p``
    (``grad`` is the target's gradient at ``q``); returns the end position,
    momentum, target log-prob and gradient."""
    p = p + 0.5 * step_size * grad
    for step in range(num_leapfrog):
        q = q + step_size * p
        lp_q, grad = _target_and_grad(target_log_prob, q)
        if step < num_leapfrog - 1:
            p = p + step_size * grad
    p = p + 0.5 * step_size * grad
    return q, p, lp_q, grad


def hmc_sample(target_log_prob: Callable[[Tensor], Tensor], init,
               cfg: HmcConfig, seed: int) -> tuple[list[np.ndarray], float]:
    """Leapfrog HMC; returns post-burn-in samples and the acceptance rate.

    Momentum is resampled per proposal from a unit Gaussian; a proposal
    with non-finite energy is rejected outright.
    """
    x = np.array(init, dtype=np.float64)
    lp, grad = _target_and_grad(target_log_prob, x)
    if not np.isfinite(lp):
        raise InferenceError(f"target log-prob is not finite at init ({lp})")
    samples: list[np.ndarray] = []
    accepted = 0
    total = cfg.burn_in + cfg.num_samples
    for i in range(total):
        p0 = _momentum(seed, i, x.shape)
        q, p, lp_q, g = _leapfrog(target_log_prob, x, p0, grad, cfg.step_size,
                                  cfg.num_leapfrog)
        h0 = -lp + 0.5 * float(np.sum(p0 * p0))
        h1 = -lp_q + 0.5 * float(np.sum(p * p))
        u = RngStream(seed, "hmc", "accept", i).uniforms(1, 1)[0, 0]
        if np.isfinite(h1) and np.log(u) < h0 - h1:
            x, lp, grad = q, lp_q, g
            took = True
        else:
            took = False
        if i >= cfg.burn_in:
            accepted += took
            samples.append(x.copy())
    return samples, accepted / cfg.num_samples


# ---------------------------------------------------------------------------
# REINFORCE


@dataclass(frozen=True)
class ReinforceConfig:
    """Policy-gradient setup for a story with a stochastic action field.

    Field paths use "variable.path" form: the first dot separates the
    variable name from the field path inside it.
    """

    num_trajectories: int
    horizon: int
    reward_field: str
    policy_field: str
    baseline: bool = False  # subtract the batch-mean reward (variance reduction)

    def __post_init__(self):
        if self.num_trajectories < 1:
            raise InferenceError("num_trajectories must be >= 1")
        if self.horizon < 2:
            raise InferenceError("horizon must be >= 2")

    def split(self, which: str) -> tuple[str, str]:
        spec = self.reward_field if which == "reward" else self.policy_field
        if "." not in spec:
            raise InferenceError(f"field path {spec!r} must be 'variable.path'")
        var, path = spec.split(".", 1)
        return var, path


def reinforce_step(net: Network | Callable[[], Network], registry: ParameterRegistry,
                   cfg: ReinforceConfig, opt, seed: int) -> float:
    """One REINFORCE update; returns the batch-mean cumulative reward.

    Samples a batch of trajectories, then replays the policy's action
    field on a tape to get per-row accumulated log-probabilities; the
    surrogate is -<detached reward, log-prob> / B.  The replay scores an
    observed copy of the sampled values; the sampled trajectory itself is
    released before it.
    """
    network = net() if callable(net) else net
    traj = trajectory(network, cfg.horizon, seed)
    if traj.batch != cfg.num_trajectories:
        raise InferenceError(
            f"story batch {traj.batch} != cfg.num_trajectories {cfg.num_trajectories}")
    obs = ObservedTrajectory.from_trajectory(network, traj)
    del traj
    rvar, rpath = cfg.split("reward")
    if rvar not in obs.specs or rpath not in obs.specs[rvar].paths:
        raise InferenceError(f"reward field {cfg.reward_field!r} not found in story")
    pvar, ppath = cfg.split("policy")
    if pvar not in obs.specs or ppath not in obs.specs[pvar].paths:
        raise InferenceError(f"policy field {cfg.policy_field!r} not found in story")
    reward = obs.value(rvar, cfg.horizon - 1).get(rpath).data
    centered = reward - reward.mean() if cfg.baseline else reward

    tape = Tape()
    registry.bind(tape)
    try:
        log_prob = trajectory_log_prob_rows(network, obs, cfg.horizon - 1,
                                            only=[(pvar, ppath)])
        objective = T.div(T.neg(T.reduce_sum(T.mul(T.stop_gradient(Tensor(centered)),
                                                   log_prob))),
                          float(cfg.num_trajectories))
        grads = tape.backward(objective)
        opt.apply(registry, grads)
    finally:
        registry.unbind()
    return float(reward.mean())


def reinforce_training(net, registry: ParameterRegistry, cfg: ReinforceConfig,
                       opt, num_iterations: int, seed: int) -> list[float]:
    """Run ``num_iterations`` REINFORCE steps with derived per-step seeds;
    returns the mean cumulative reward before each update."""
    rewards = []
    for i in range(num_iterations):
        rewards.append(reinforce_step(net, registry, cfg, opt,
                                      derive_seed(seed, "reinforce", i)))
    return rewards


# ---------------------------------------------------------------------------
# maximum likelihood and Monte-Carlo EM


def mle_step(net: Network, trajectories: Sequence[ObservedTrajectory],
             registry: ParameterRegistry, opt, num_steps: int | None = None) -> float:
    """One gradient step on the summed negative log-probability; returns
    the loss value before the update."""
    if isinstance(trajectories, ObservedTrajectory):
        trajectories = [trajectories]
    tape = Tape()
    registry.bind(tape)
    try:
        total = None
        for traj in trajectories:
            steps = traj.steps - 1 if num_steps is None else num_steps
            lp = log_probability_from_value_trajectory(net, traj, steps)
            total = lp if total is None else T.add(total, lp)
        loss = T.neg(total)
        grads = tape.backward(loss)
        opt.apply(registry, grads)
    finally:
        registry.unbind()
    return float(loss.data)


@dataclass
class EmIteration:
    iteration: int
    objective: float
    acceptance: float | None
    wall_clock_ms: float


def mc_em_fit(net: Network, observed: ObservedTrajectory,
              held_out: tuple[str, str] | None, hmc_cfg: HmcConfig, opt,
              num_iterations: int, seed: int, *,
              registry: ParameterRegistry,
              init_latent=None, m_steps: int = 1) -> list[EmIteration]:
    """Monte-Carlo EM: HMC over the held-out field (E-step), gradient
    ascent on the Monte-Carlo average log-probability (M-step).

    The held-out field is treated as a static latent: one tensor is
    injected at every step of the trajectory.  With nothing held out the
    E-step degenerates and this is plain MLE gradient ascent.  The chain
    is persistent across EM iterations.  Raises after three consecutive
    E-steps with acceptance below 0.01.  Zero iterations give one row: the
    objective at the initial parameters and latent, with no update.
    """
    num_steps = observed.steps - 1
    trace: list[EmIteration] = []
    if held_out is not None:
        var, path = held_out
        if (var, path) not in observed.held_out():
            raise InferenceError(f"field {var!r}.{path!r} is not held out in the data")
        spec = observed.specs[var].field(path)
        if init_latent is None:
            init_latent = np.zeros((observed.batch,) + spec.shape)
        z = np.array(init_latent, dtype=np.float64)

    if num_iterations == 0:
        scored = observed if held_out is None else \
            observed.inject(var, path, [Tensor(z)] * observed.steps)
        lp = log_probability_from_value_trajectory(net, scored, num_steps)
        return [EmIteration(0, float(lp.data), None, 0.0)]

    if held_out is None:
        for i in range(num_iterations):
            t0 = time.perf_counter()
            objective = -mle_step(net, observed, registry, opt, num_steps)
            trace.append(EmIteration(i, objective, None,
                                     (time.perf_counter() - t0) * 1e3))
        return trace

    def target(zt: Tensor) -> Tensor:
        injected = observed.inject(var, path, [zt] * observed.steps)
        return log_probability_from_value_trajectory(net, injected, num_steps)

    low_acceptance_streak = 0
    for i in range(num_iterations):
        t0 = time.perf_counter()
        samples, acceptance = hmc_sample(target, z, hmc_cfg,
                                         derive_seed(seed, "em", i))
        z = samples[-1]
        if acceptance < 0.01:
            low_acceptance_streak += 1
            if low_acceptance_streak >= 3:
                raise InferenceError(
                    f"HMC acceptance below 0.01 for {low_acceptance_streak} consecutive "
                    f"EM iterations; retune hmc step_size (currently {hmc_cfg.step_size})")
        else:
            low_acceptance_streak = 0
        objective = None
        for _ in range(m_steps):
            tape = Tape()
            registry.bind(tape)
            try:
                total = None
                for s in samples:
                    injected = observed.inject(var, path, [Tensor(s)] * observed.steps)
                    lp = log_probability_from_value_trajectory(net, injected, num_steps)
                    total = lp if total is None else T.add(total, lp)
                mean_lp = T.div(total, float(len(samples)))
                if objective is None:
                    objective = float(mean_lp.data)
                grads = tape.backward(T.neg(mean_lp))
                opt.apply(registry, grads)
            finally:
                registry.unbind()
        trace.append(EmIteration(i, objective, acceptance,
                                 (time.perf_counter() - t0) * 1e3))
    return trace
