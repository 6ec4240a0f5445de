"""Layer probes at fixed shapes, independent of the workload.

Each probe times one layer on its own, untraced, and reports the median of
a few repetitions under a ``probe.`` name that mirrors the traced metric it
complements (``probe.rng.ns_per_uniform`` next to ``rng.ns_per_uniform``).
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from ecosim import dist
from ecosim.inference import HmcConfig, hmc_sample
from ecosim.logprob import ObservedTrajectory, log_probability_from_value_trajectory
from ecosim.rng import RngStream, derive_seed
from ecosim.runtime import export_trajectory, trajectory
from ecosim.scenarios import (EcosystemConfig, LatentSatConfig, build_ecosystem_story,
                              build_latent_sat_story, sample_true_alpha)
from ecosim.scenarios.latent_sat import HELD_OUT
from ecosim.tensor import Tape

REPEATS = 5
PHILOX_LANES = (1000, 1000)   # 1M counters, one double each
DIST_ROWS, DIST_EVENT, DIST_CLASSES = 1000, 20, 50
HMC_LEAPFROG = 4
EXPORT_CONFIG = dict(num_runs=2, horizon=20)   # about 2.8 MB of CSV


def _median_time(fn, repeats: int = REPEATS) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _families(rng: np.random.Generator) -> dict[str, dist.Distribution]:
    shape = (DIST_ROWS, DIST_EVENT)
    logits = rng.normal(size=(DIST_ROWS, DIST_CLASSES))
    return {
        "Bernoulli": dist.Bernoulli(rng.normal(size=shape)),
        "Categorical": dist.Categorical(logits),
        "Deterministic": dist.Deterministic(rng.normal(size=shape)),
        "GaussianMixture": dist.GaussianMixture(
            np.full((DIST_ROWS, 4), 0.25), rng.normal(size=(4, DIST_EVENT)), 0.5),
        "Normal": dist.Normal(rng.normal(size=shape), 1.0),
        "PlackettLuce": dist.PlackettLuce(logits, 2),
    }


def _latent_sat_target():
    """The fit-em E-step target at default sizes, and its starting point."""
    cfg = LatentSatConfig()
    alpha = sample_true_alpha(cfg, derive_seed(0, "alpha"))
    truth, _, _ = build_latent_sat_story(cfg, true_alpha=alpha)
    data = ObservedTrajectory.from_trajectory(
        truth, trajectory(truth, cfg.horizon, 0), hold_out=[HELD_OUT])
    net, registry, held = build_latent_sat_story(cfg)

    def target(z):
        return log_probability_from_value_trajectory(
            net, data.inject(*held, [z] * data.steps), cfg.horizon - 1)

    return target, np.zeros((cfg.population, cfg.interest_dim)), registry


def run_probes(scratch: Path) -> dict[str, float]:
    m: dict[str, float] = {}

    stream = RngStream(0, "probe", "uniforms", 0)
    secs, _ = _median_time(lambda: stream.uniforms(*PHILOX_LANES))
    m["probe.rng.ns_per_uniform"] = secs * 1e9 / (PHILOX_LANES[0] * PHILOX_LANES[1])

    for name, d in _families(np.random.default_rng(0)).items():
        draws = RngStream(0, "probe", name, 0)
        secs, value = _median_time(lambda: d.sample(draws))
        m[f"probe.dist.{name}.sample_s"] = secs
        m[f"probe.dist.{name}.log_prob_s"], _ = _median_time(lambda: d.log_prob(value))

    target, z0, registry = _latent_sat_target()

    def log_prob_and_grad() -> int:
        tape = Tape()
        registry.bind(tape)
        try:
            tape.backward(target(tape.watch(z0)))
        finally:
            registry.unbind()
        return len(tape)

    secs, nodes = _median_time(log_prob_and_grad)
    m["probe.tensor.tape_nodes"] = nodes
    m["probe.tensor.us_per_node"] = secs * 1e6 / nodes

    hmc = HmcConfig(step_size=0.02, num_leapfrog=HMC_LEAPFROG, num_samples=1, burn_in=0)
    secs, _ = _median_time(lambda: hmc_sample(target, z0, hmc, 0), repeats=3)
    m["probe.inference.hmc_leapfrog_s"] = secs / (HMC_LEAPFROG + 1)  # + initial gradient

    net, _ = build_ecosystem_story(EcosystemConfig(**EXPORT_CONFIG))
    traj = trajectory(net, EXPORT_CONFIG["horizon"], 0)
    dest = scratch / "probe_export"

    def export() -> int:
        shutil.rmtree(dest, ignore_errors=True)
        return sum(p.stat().st_size for p in export_trajectory(traj, dest))

    secs, size = _median_time(export, repeats=3)
    shutil.rmtree(dest, ignore_errors=True)
    m["probe.runtime.export_mb_per_s"] = size / 1e6 / secs
    return m
