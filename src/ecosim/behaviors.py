"""Reusable behavioral building blocks.

Affinity models score slates of items against per-agent target vectors;
choice models turn scores into selection distributions; state models
cover dynamic (controlled linear-Gaussian) and estimator (finite history
buffer) state.  An "entity" is a convention, not a framework type: any
object exposing behavior functions that a story binds into Variables.

Trainable parameters are captured through a ParameterRegistry handle the
story builder receives; during a training step the registry is bound to
a Tape so every ``get`` hands builders a watched leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .core import CoreError, Value, Variable
from .dist import Categorical, Deterministic, Distribution, Normal
from .tensor import Tape, Tensor, as_tensor


@dataclass(frozen=True)
class AffinityModel:
    """Scores items by negative Euclidean distance to a target vector, one
    score per slate item, times ``scale`` when it is set."""

    scale: float | None = None

    def affinities(self, targets, item_features) -> Tensor:
        """targets: (..., d); item_features: (..., slate, d) -> (..., slate)."""
        targets = as_tensor(targets)
        items = as_tensor(item_features)
        if targets.shape[-1] != items.shape[-1]:
            raise CoreError(
                f"affinity dims differ: targets {targets.shape} vs items {items.shape}")
        return T.negative_euclidean(targets, items, self.scale)


@dataclass(frozen=True)
class ChoiceModel:
    """Turns affinities into a multinomial-logit (Categorical) choice.

    With ``no_choice_logit`` set, a constant abstention option is appended
    after the slate, so the index one past the last item means "no
    choice".  A boost is applied to item logits only, never to the
    abstention logit.
    """

    no_choice_logit: float | None = None

    def choice(self, affinities, extra_logit_boost=None) -> Distribution:
        logits = as_tensor(affinities)
        if extra_logit_boost is not None:
            logits = T.add(logits, T.expand_dims(as_tensor(extra_logit_boost), -1))
        if self.no_choice_logit is not None:
            const = Tensor(np.full(logits.shape[:-1] + (1,), float(self.no_choice_logit)))
            logits = T.concat([logits, const], axis=-1)
        return Categorical(logits)


class ControlledLinearGaussianStateModel:
    """S' ~ Normal(S + sensitivity * u, sigma), which realizes interest
    dynamics with control input u = q * (F - S).  Zero noise degrades to a
    Deterministic field.
    """

    def __init__(self, dim: int, sensitivity: float = 1.0, noise_scale: float = 0.0):
        self.dim = int(dim)
        self.sensitivity = float(sensitivity)
        self.noise_scale = float(noise_scale)

    def next_state(self, state, control_input) -> Distribution:
        state = as_tensor(state)
        control_input = as_tensor(control_input)
        if state.shape != control_input.shape:
            raise CoreError(
                f"state {state.shape} and control input {control_input.shape} differ")
        loc = T.add(state, T.mul(control_input, self.sensitivity))
        if self.noise_scale == 0.0:
            return Deterministic(loc)
        return Normal(loc, Tensor(np.full(self.dim, self.noise_scale)))


class FiniteHistoryEstimator:
    """Ring buffer of the last ``capacity`` records per agent, FIFO with a
    validity mask (1 = slot filled).  Bookkeeping only: not differentiable."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise CoreError(f"history capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)

    def initial_state(self, batch: int, record_dim: int) -> Value:
        return Value(
            records=Tensor(np.zeros((batch, self.capacity, record_dim))),
            mask=Tensor(np.zeros((batch, self.capacity))))

    def push(self, state: Value, record) -> Value:
        """Append one record per agent; any leading axes, records (..., dim)."""
        records = state.get("records").data
        mask = state.get("mask").data
        rec = record.data if isinstance(record, Tensor) else np.asarray(record, np.float64)
        want = records.shape[:-2] + records.shape[-1:]
        if rec.shape != want:
            raise CoreError(f"record shape {rec.shape} != (..., dim) = {want}")
        new_records = np.concatenate([records[..., 1:, :], rec[..., None, :]], axis=-2)
        new_mask = np.concatenate([mask[..., 1:], np.ones(mask.shape[:-1] + (1,))], axis=-1)
        return Value(records=Tensor(new_records), mask=Tensor(new_mask))


class Parameter:
    """A named, mutable slot holding a trainable array.

    ``tensor()`` returns the tape-watched leaf while the owning registry
    is bound to a tape, otherwise a plain constant tensor.
    """

    __slots__ = ("name", "value", "leaf")

    def __init__(self, name: str, init):
        self.name = name
        self.value = np.array(init, dtype=np.float64)
        self.leaf: Tensor | None = None

    def tensor(self) -> Tensor:
        return self.leaf if self.leaf is not None else Tensor(self.value)

    def assign(self, value) -> None:
        self.value = np.array(value, dtype=np.float64)


class ParameterRegistry:
    """Collects the trainable parameters created while building a story."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, init) -> Parameter:
        if name in self._params:
            raise CoreError(f"duplicate parameter name {name!r}")
        p = Parameter(name, init)
        self._params[name] = p
        return p

    def get(self, name: str) -> Tensor:
        return self._params[name].tensor()

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def parameters(self) -> tuple[Parameter, ...]:
        return tuple(self._params.values())

    def bind(self, tape: Tape) -> None:
        """Watch every parameter on ``tape``; builders then see taped leaves."""
        for p in self._params.values():
            p.leaf = tape.watch(p.value)

    def unbind(self) -> None:
        for p in self._params.values():
            p.leaf = None

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}


def story_with_trainable_variables(story_builder) -> tuple[list[Variable], ParameterRegistry]:
    """Run a story builder with a fresh registry; returns the Variables it
    creates plus every trainable parameter it registered."""
    registry = ParameterRegistry()
    variables = story_builder(registry)
    return list(variables), registry
