"""Training and inference drivers.

Covers first-order optimizers (SGD, Adam), a native Hamiltonian Monte
Carlo sampler (leapfrog + Metropolis correction, identity mass matrix),
REINFORCE policy-gradient steps over story-defined slate policies, and
Monte-Carlo EM with an HMC E-step.
Every driver owns its tape, RNG streams, and optimizer state; runs with
different seeds are fully isolated.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .behaviors import ParameterRegistry
from .core import Network
from .logprob import log_probability_from_value_trajectory, trajectory_log_prob_rows
from .rng import RngStream, Rows, derive_seed
from .runtime import Trajectory, trajectory
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


_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and the usual fixed moment decays
    (``_BETA1``, ``_BETA2``) and denominator guard (``_EPSILON``); moments
    keyed by parameter name."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
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
            m += (1.0 - _BETA1) * (g - m)
            v += (1.0 - _BETA2) * (g * g - v)
            m_hat = m / (1.0 - _BETA1 ** self._t)
            v_hat = v / (1.0 - _BETA2 ** self._t)
            p.assign(p.value - self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON))


def _descend(registry: ParameterRegistry, opt,
             losses: Sequence[Callable[[], Tensor]]) -> float:
    """One optimizer step on the sum of the scalar losses the thunks
    ``losses`` build; returns that sum before the update.

    Each thunk builds its loss on a fresh tape with the registry's
    parameters bound, and its backward pass runs before the next thunk is
    called, so one loss's tape is alive at a time.  The gradients are
    summed per parameter in the thunks' order and ``opt`` applies the sum
    once.  One thunk is one tape, one backward pass and its gradients as
    they are.
    """
    total: float | None = None
    grads: dict[str, np.ndarray] = {}
    try:
        for loss_fn in losses:
            tape = Tape()
            registry.bind(tape)
            loss = loss_fn()
            grad_map = tape.backward(loss)
            for p in registry.parameters():
                g = grad_map[p.leaf].data  # owned by this pass, so += is safe
                if p.name in grads:
                    grads[p.name] += g
                else:
                    grads[p.name] = g
            value = float(loss.data)
            total = value if total is None else total + value
        opt.apply(registry, {p.leaf: Tensor(grads[p.name]) for p in registry.parameters()})
    finally:
        registry.unbind()
    return total


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
        if not self.step_size > 0:  # NaN fails too
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


def _momentum(seed: int, proposal: int, shape: tuple[int, ...], rows: Rows) -> np.ndarray:
    return RngStream(seed, "hmc", "momentum", proposal, rows).normals((1,) + shape).reshape(shape)


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
    with non-finite energy is rejected outright.  Proposal i draws its
    momentum and its acceptance uniform at step i of the chain's streams,
    whose one ``Rows`` draws later proposals' numbers ahead, as a run does.
    """
    x = np.array(init, dtype=np.float64)
    lp, grad = _target_and_grad(target_log_prob, x)
    if not np.isfinite(lp):
        raise InferenceError(f"target log-prob is not finite at init ({lp})")
    samples: list[np.ndarray] = []
    accepted = 0
    total = cfg.burn_in + cfg.num_samples
    rows = Rows(None, total - 1)
    for i in range(total):
        p0 = _momentum(seed, i, x.shape, rows)
        q, p, lp_q, g = _leapfrog(target_log_prob, x, p0, grad, cfg.step_size,
                                  cfg.num_leapfrog)
        h0 = -lp + 0.5 * float(np.sum(p0 * p0))
        h1 = -lp_q + 0.5 * float(np.sum(p * p))
        u = RngStream(seed, "hmc", "accept", i, rows).uniforms(1, 1)[0, 0]
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

    Each field is a (variable, path) pair.  The number of trajectories a
    step samples is the story's batch, read from the sampled trajectory.
    """

    horizon: int
    reward_field: tuple[str, str]
    policy_field: tuple[str, str]
    baseline: bool = False  # subtract the batch-mean reward (variance reduction)

    def __post_init__(self):
        if self.horizon < 2:
            raise InferenceError("horizon must be >= 2")


# Elements of the slices that REINFORCE scores on one tape: a window of
# whole slices, a slice being the batch times the event sizes of every
# field the network samples, recorded or not.  The scoring tape's peak
# grows with its window, so the budget bounds it whatever the horizon.
# Default porl (17,200 elements a slice over 20 slices) scores in three
# windows; at population 1000 each window is one slice.  Half this budget
# took default porl's peak RSS from 44.7 to 43.0 MB but cost about 15%
# more wall time.
_WINDOW_ELEMENTS = 2**17


def _windows(steps: int, per_slice: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` windows of slices 0 .. steps-1.

    The fewest windows of at most ``_WINDOW_ELEMENTS`` elements each, or
    of one slice where a slice alone holds more, with sizes differing by
    at most one slice, the larger first.
    """
    limit = max(1, _WINDOW_ELEMENTS // per_slice)
    count = -(-steps // limit)
    size, extra = divmod(steps, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def reinforce_step(net: Network, registry: ParameterRegistry,
                   cfg: ReinforceConfig, opt, seed: int) -> float:
    """One REINFORCE update; returns the batch-mean cumulative reward.

    Samples a batch of trajectories, then replays the policy's action
    field on a tape to get per-row accumulated log-probabilities; the
    surrogate is -<detached reward, log-prob> / B, B the sampled batch.
    The sampler records only what the loss reads: the policy field's
    variable, every variable its initial and kernel builders read, and
    the reward field's variable.  Every variable is still sampled, on the
    same streams.  Scoring that partial record runs the policy's builder
    alone (:mod:`ecosim.logprob`), on the sampler's own values.

    The replay scores the record a window of slices at a time
    (``_windows``): the surrogate is linear in the per-row
    log-probabilities, whose weights are known before scoring, and no
    tape path joins two windows (:mod:`ecosim.logprob`).  So each window's
    share is scored and backpropagated on a tape of its own, which is
    dropped before the next, the gradients are summed and the optimizer
    steps once.  Only the summation order differs from one whole-horizon
    tape.
    """
    for kind, (var, path) in (("reward", cfg.reward_field), ("policy", cfg.policy_field)):
        if var not in net.by_name or path not in net.by_name[var].spec.paths:
            raise InferenceError(f"{kind} field {(var, path)!r} not found in story")
    policy = net.by_name[cfg.policy_field[0]]
    keep = {policy.name, cfg.reward_field[0]}
    keep.update(dep.variable.name for dep in policy.initial_deps + policy.kernel_deps)
    traj = trajectory(net, cfg.horizon, seed, keep=keep)
    rvar, rpath = cfg.reward_field
    reward = traj.value(rvar, cfg.horizon - 1).get(rpath).data
    centered = reward - reward.mean() if cfg.baseline else reward

    def surrogate(lo: int, hi: int) -> Tensor:
        log_prob = trajectory_log_prob_rows(net, traj, hi - 1, only=[cfg.policy_field],
                                            start=lo)
        return T.div(T.neg(T.reduce_sum(T.mul(centered, log_prob))), float(traj.batch))

    per_slice = traj.batch * sum(math.prod(field.shape) for var in net.variables
                                 for _, field in var.spec.items())
    _descend(registry, opt, [functools.partial(surrogate, lo, hi)
                             for lo, hi in _windows(cfg.horizon, per_slice)])
    return float(reward.mean())


# ---------------------------------------------------------------------------
# Monte-Carlo EM


@dataclass
class EmIteration:
    iteration: int
    objective: float
    acceptance: float | None
    wall_clock_ms: float


def _latent_target(net: Network, observed: Trajectory,
                   held_out: tuple[str, str]) -> Callable[[Tensor], Tensor]:
    """The E-step's HMC target: the log-probability, as a function of the
    held-out field's one static value, of the factors that depend on it.

    Those are the held-out variable's own fields and every field of each
    variable that reads it (``Network.readers``).  Replay feeds every other
    builder observed values, so each factor left out is constant in the
    latent: its gradient is exactly zero and it cancels in the Metropolis
    test.
    """
    var, path = held_out
    factors = {(v.name, p) for v in (net.by_name[var],) + net.readers(var)
               for p in v.spec.paths}
    num_steps = observed.steps - 1

    def target(zt: Tensor) -> Tensor:
        injected = observed.inject(var, path, [zt] * observed.steps)
        return T.reduce_sum(trajectory_log_prob_rows(net, injected, num_steps,
                                                     only=factors))

    return target


def mc_em_fit(net: Network, observed: Trajectory,
              held_out: tuple[str, str], hmc_cfg: HmcConfig, opt,
              num_iterations: int, seed: int, *,
              registry: ParameterRegistry) -> list[EmIteration]:
    """Monte-Carlo EM: HMC over the held-out field (E-step), one gradient
    ascent step on the Monte-Carlo average log-probability (M-step).

    The held-out field is treated as a static latent: one tensor is
    injected at every step of the trajectory.  The chain is persistent
    across EM iterations.  Raises after three consecutive E-steps with
    acceptance below 0.01.  Zero iterations give one row: the objective at
    the initial parameters and latent, with no update.

    The HMC target scores only the factors that depend on the latent: the
    held-out variable's fields and those of every variable that reads it
    (see ``_latent_target``).  The other factors are constant in the
    latent, so the chain is the one the full log-probability would drive.
    The full log-probability is scored once at the initial latent, and a
    non-finite value raises; the objective each iteration reports is the
    M-step's full Monte-Carlo average.
    """
    num_steps = observed.steps - 1
    var, path = held_out
    if (var, path) not in observed.held_out():
        raise InferenceError(f"field {var!r}.{path!r} is not held out in the data")
    if var not in net.by_name:
        raise InferenceError(f"held-out variable {var!r} is not in the network")
    z = np.zeros((observed.batch,) + observed.specs[var].field(path).shape)
    scored = observed.inject(var, path, [Tensor(z)] * observed.steps)
    lp = float(log_probability_from_value_trajectory(net, scored, num_steps).data)
    if num_iterations == 0:
        return [EmIteration(0, lp, None, 0.0)]

    # The E-step's target leaves out the factors constant in the latent, so
    # only the full log-probability shows that one of those is not finite.
    if not np.isfinite(lp):
        raise InferenceError(f"log-probability is not finite at the initial latent ({lp})")
    target = _latent_target(net, observed, held_out)
    trace: list[EmIteration] = []
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

        def loss() -> Tensor:
            total = None
            for s in samples:
                injected = observed.inject(var, path, [Tensor(s)] * observed.steps)
                lp = log_probability_from_value_trajectory(net, injected, num_steps)
                total = lp if total is None else T.add(total, lp)
            return T.neg(T.div(total, float(len(samples))))

        objective = -_descend(registry, opt, [loss])
        trace.append(EmIteration(i, objective, acceptance,
                                 (time.perf_counter() - t0) * 1e3))
    return trace
