"""Differentiable, batch-vectorized simulation of multi-agent recommender
ecosystems: author factored stochastic processes from reusable behavioral
building blocks, sample trajectories at population scale, score observed
trajectories under the model, and train against them."""

from . import behaviors, core, dist, inference, logprob, rng, runtime, scenarios, tensor
from .core import FieldSpec, Network, Value, ValueSpec, Variable
from .dist import (Bernoulli, Categorical, Deterministic, GaussianMixture,
                   Normal, PlackettLuce)
from .logprob import log_probability_from_value_trajectory
from .rng import RngStream
from .runtime import Trajectory, execute, trajectory
from .tensor import Tape, Tensor, as_tensor

__all__ = [
    "behaviors", "core", "dist", "inference", "logprob", "rng",
    "runtime", "scenarios", "tensor",
    "FieldSpec", "Network", "Value", "ValueSpec", "Variable",
    "Bernoulli", "Categorical", "Deterministic", "GaussianMixture",
    "Normal", "PlackettLuce",
    "log_probability_from_value_trajectory",
    "RngStream", "Trajectory", "execute", "trajectory",
    "Tape", "Tensor", "as_tensor",
]

__version__ = "0.1.0"
