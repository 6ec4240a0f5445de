"""Contracts that hold for every story, whatever runs them.

- A batch row's draws do not depend on the batch: row i of a run on a
  batch of B equals a batch-1 run keyed by the row id i, at every step and
  in every field.  Checked here for count, porl and latent-sat; the
  ecosystem story's check is in ``test_scenarios.py``.
- The number of BLAS threads moves no byte of a command's artifacts.
- A trained story's gradient matches central differences: porl's REINFORCE
  surrogate, scored a window of slices at a time on one fixed record, and
  latent-sat's E-step target in the latent and M-step loss in ``alpha``,
  each scored on a whole record.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecosim import inference
from ecosim.inference import HmcConfig, mc_em_fit, reinforce_step
from ecosim.runtime import Trajectory, execute, trajectory
from ecosim.scenarios import (CountConfig, LatentSatConfig, PorlConfig, build_count_story,
                              build_latent_sat_story, build_porl_story, sample_true_alpha)
from ecosim.tensor import Tensor, as_array

from test_inference import GradientRecorder, porl_reinforce, slice_elements

HORIZON = 6


def count_runs(batch):
    """The count story on ``batch`` rows, and each row's story on its own."""
    story = lambda b: build_count_story(CountConfig(horizon=HORIZON, population=b))
    return story(batch), lambda row: story(1)


def porl_runs(batch):
    story = lambda b: build_porl_story(
        PorlConfig(population=b, interest_dim=4, corpus_size=8, horizon=HORIZON))[0]
    return story(batch), lambda row: story(1)


def latent_sat_runs(batch):
    cfg = LatentSatConfig(population=batch, horizon=HORIZON)
    alpha = sample_true_alpha(cfg, 0)

    def alone(row):
        solo = LatentSatConfig(population=1, horizon=HORIZON)
        return build_latent_sat_story(solo, true_alpha=alpha[row:row + 1])[0]

    return build_latent_sat_story(cfg, true_alpha=alpha)[0], alone


def slice_rows(net, seed, row_ids=None):
    """Every slice's fields as arrays, step by step."""
    slices = []
    execute(net, HORIZON - 1, seed, row_ids=row_ids, on_slice=lambda values, batch: slices.append(
        {(name, path): np.array(as_array(payload)) for name, value in values.items()
         for path, payload in value.items()}))
    return slices


@pytest.mark.parametrize("runs", [count_runs, porl_runs, latent_sat_runs],
                         ids=["count", "porl", "latent-sat"])
def test_batch_row_equals_a_batch_1_run_at_its_id(runs):
    batch = 4
    net, alone = runs(batch)
    stacked = slice_rows(net, 5)
    for row in range(batch):
        solo = slice_rows(alone(row), 5, row_ids=np.array([row]))
        for t, (got, want) in enumerate(zip(stacked, solo)):
            assert got.keys() == want.keys()
            for field, arr in want.items():
                assert got[field][row:row + 1].tobytes() == arr.tobytes(), (row, t, field)


# Sizes at which the largest matmuls take two OpenBLAS threads when they
# may (on a 2-vCPU machine each took about twice its wall time in CPU):
# the policy's weight gradients, such as (21, 3000) @ (3000, 32), and
# the slate's distances, (1000, 10) @ (10, 500) a run.  At population
# 1000 the policy's products stayed on one thread.
BLAS_RUNS = {
    "train-reinforce": ["train-reinforce", "--set", "population=3000", "--set", "horizon=3",
                        "--set", "train.iterations=1"],
    "ecosystem-simulate": ["simulate", "--scenario", "ecosystem", "--set", "horizon=3",
                           "--set", "num_runs=1", "--set", "num_users=1000",
                           "--set", "num_items=500"],
}


@pytest.mark.parametrize("command", sorted(BLAS_RUNS))
def test_blas_threads_move_no_byte(command, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "ecosim.cli", *BLAS_RUNS[command],
                               "--seed", "3", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files[threads] = {str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}
    assert files["1"] and files["1"] == files["2"]


def test_porl_windowed_surrogate_gradient_matches_central_differences(monkeypatch):
    net, registry, rc = porl_reinforce(population=8, interest_dim=4, corpus_size=8,
                                       horizon=HORIZON)
    record = trajectory(net, HORIZON, 5)
    # The step asks for its cone (``keep``); it scores the whole record.
    monkeypatch.setattr(inference, "trajectory", lambda *args, **kwargs: record)
    monkeypatch.setattr(inference, "_WINDOW_ELEMENTS", 2 * slice_elements(record))
    descend, steps = inference._descend, []
    monkeypatch.setattr(inference, "_descend", lambda registry, opt, losses: steps.append(
        (len(losses), descend(registry, opt, losses))))
    [b2] = [p for p in registry.parameters() if p.name == "policy_b2"]

    def surrogate(value):
        """The surrogate at ``policy_b2 = value``, and its gradient there."""
        b2.assign(value)
        opt = GradientRecorder()
        reinforce_step(net, registry, rc, opt, seed=5)
        windows, loss = steps[-1]
        assert windows == 3
        return loss, opt.grads[-1]["policy_b2"]

    center = np.random.default_rng(0).normal(scale=0.5, size=b2.value.shape)
    _, grad = surrogate(center)
    step, central = 1e-5, np.zeros_like(center)
    for i in range(center.size):
        shift = np.zeros_like(center)
        shift.flat[i] = step
        up, down = surrogate(center + shift)[0], surrogate(center - shift)[0]
        central.flat[i] = (up - down) / (2 * step)
    assert np.any(grad != 0.0)
    np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-9)


def central_differences(f, center, step=1e-5):
    """The central-difference gradient of the scalar ``f`` at ``center``."""
    grad = np.zeros_like(center)
    for i in range(center.size):
        shift = np.zeros_like(center)
        shift.flat[i] = step
        grad.flat[i] = (f(center + shift) - f(center - shift)) / (2 * step)
    return grad


def latent_sat_data():
    """A small latent-sat record with the interest held out, and the
    learning story that fits it."""
    cfg = LatentSatConfig(population=4, horizon=5, interest_dim=2)
    truth, _, held = build_latent_sat_story(cfg, true_alpha=sample_true_alpha(cfg, 0))
    data = Trajectory.from_trajectory(truth, trajectory(truth, cfg.horizon, 7),
                                      hold_out=[held])
    net, registry, _ = build_latent_sat_story(cfg)
    z = np.random.default_rng(1).normal(size=(cfg.population, cfg.interest_dim))
    return net, registry, data, held, z


def test_latent_sat_e_step_target_gradient_matches_central_differences():
    net, _, data, held, z = latent_sat_data()
    target = inference._latent_target(net, data, held)
    _, grad = inference._target_and_grad(target, z)
    central = central_differences(lambda x: float(target(Tensor(x)).data), z)
    assert np.any(grad != 0.0)
    np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-8)


def test_latent_sat_m_step_loss_gradient_matches_central_differences(monkeypatch):
    net, registry, data, held, z = latent_sat_data()
    descend, losses = inference._descend, []

    def kept(registry, opt, thunks):
        losses.extend(thunks)
        return descend(registry, opt, thunks)

    monkeypatch.setattr(inference, "_descend", kept)
    opt = GradientRecorder()
    hmc = HmcConfig(step_size=0.05, num_leapfrog=2, num_samples=2, burn_in=0)
    mc_em_fit(net, data, held, hmc, opt, 1, seed=2, registry=registry)
    [loss], [grads] = losses, opt.grads
    [alpha] = registry.parameters()
    center = alpha.value.copy()

    def at(value):
        alpha.assign(value)
        return float(loss().data)

    central = central_differences(at, center)
    assert np.any(grads["alpha"] != 0.0)
    np.testing.assert_allclose(grads["alpha"], central, rtol=1e-6, atol=1e-8)
