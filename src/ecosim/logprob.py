"""Scoring observed trajectories under a model.

Scoring replays every builder with observed values substituted for its
dependencies; each stochastic field then contributes the exact log
density of its observed value, and each deterministic field is checked
for consistency (a mismatch means corrupted data, not low likelihood,
and raises).  Builders must therefore be pure functions of their
declared dependencies and registered trainable parameters; violated
purity yields wrong densities, not crashes.

The replay is batched over time.  In an observed trajectory slice t
depends only on the observed slices t and t-1, so the transitions need
not be replayed one step at a time.  Slice 0 is scored once with the
initial builders, on payloads shaped ``(batch,) + event``.  Slices
1 .. num_steps are scored with one call of each kernel builder, on
payloads with a leading time axis, ``(num_steps, batch) + event``:
current-slice dependencies are the observed slices 1 .. num_steps and
``.previous`` ones the slices 0 .. num_steps-1.  Each field's
log-probability is summed over every axis after the leading (time,
batch) axes, then over time, to one value per batch row.  Every
observed field is stacked on the time axis once per
:class:`ObservedTrajectory`, and a field injected with the same payload
at every step is broadcast to the time axis, not copied.

The builder contract that follows: a kernel builder accepts any number
of leading axes in front of a field's event axes.  It indexes and
reduces with negative axes and ``...``, and takes no shape from a batch
size captured in a closure; a constant of shape ``(batch,) + event``
that broadcasts against its inputs is fine.  A builder that breaks the
contract fails with a LogProbError naming the variable (and the field,
once the builder has returned).

Step counting follows the ``horizon - 1`` convention: ``num_steps`` is
the number of kernel applications, and slices 0 .. num_steps (the
initial slice plus ``num_steps`` transitions) are scored.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from . import tensor as T
from .core import CoreError, Network, Value, ValueSpec
from .dist import Deterministic, Distribution
from .runtime import Trajectory, _resolve_deps
from .tensor import Tensor


class LogProbError(ValueError):
    """Raised for malformed observations or deterministic mismatches."""


def _stack(payloads: Sequence):
    """One field's per-step payloads on a leading time axis.

    The same payload at every step (a carried field, a static latent) is
    broadcast, which is one tape node for a taped tensor and no copy.
    """
    first = payloads[0]
    same = all(p is first for p in payloads)
    steps = len(payloads)
    if isinstance(first, Tensor):
        return T.broadcast_to(first, (steps,) + first.shape) if same else T.stack(payloads)
    return np.broadcast_to(first, (steps,) + first.shape) if same else np.stack(payloads)


def _window(payload, key):
    return T.index(payload, key) if isinstance(payload, Tensor) else payload[key]


class _InjectedSlices(Sequence):
    """A variable's per-step Values with one field injected.

    Step t's Value is built when it is first read; scoring reads only
    step 0 and the stacked fields.
    """

    def __init__(self, base: Sequence[Value], path: str, payloads: Sequence):
        self._base, self._path, self._payloads = base, path, payloads
        self._built: dict[int, Value] = {}

    def __len__(self) -> int:
        return len(self._payloads)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        value = self._built.get(t)
        if value is None:
            value = self._base[t].union(Value.of({self._path: self._payloads[t]}))
            self._built[t] = value
        return value


class ObservedTrajectory:
    """Per-variable, per-step observed Values; whole fields may be held out.

    A field is either observed at every step or held out at every step;
    per-step partial observation is rejected.
    """

    def __init__(self, specs: dict[str, ValueSpec], steps: int,
                 data: dict[str, list[Value]]):
        if steps < 1:
            raise LogProbError(f"need at least one step, got {steps}")
        if set(data) != set(specs):
            raise LogProbError(f"observed variables {sorted(data)} != "
                               f"network variables {sorted(specs)}")
        self.specs = specs
        self.steps = steps
        self.data = data
        self._stacked: dict[str, dict[str, object]] = {}
        self._validate()

    def _validate(self) -> None:
        batch = None
        for name, spec in self.specs.items():
            slices = self.data[name]
            if len(slices) != self.steps:
                raise LogProbError(
                    f"variable {name!r} has {len(slices)} slices, expected {self.steps}")
            for path in spec.paths:
                present = [v.has(path) for v in slices]
                if any(present) and not all(present):
                    raise LogProbError(
                        f"field {path!r} of variable {name!r} is partially observed; "
                        f"fields must be fully observed or fully held out")
                if all(present):
                    for t, v in enumerate(slices):
                        batch = spec.check_payload(
                            path, v.get(path), batch,
                            f"observed variable {name!r} at step {t}")
        self.batch = batch

    @classmethod
    def from_trajectory(cls, net: Network, traj: Trajectory,
                        hold_out: Iterable[tuple[str, str]] = ()) -> "ObservedTrajectory":
        """Observe every field of a sampled trajectory; optionally drop
        (variable, path) fields to mark them held out."""
        dropped = set(hold_out)
        specs = {v.name: v.spec for v in net.variables}
        data: dict[str, list[Value]] = {}
        for v in net.variables:
            slices = []
            for t in range(traj.horizon):
                kept = {path: traj.values[v.name][t].get(path)
                        for path in v.spec.paths if (v.name, path) not in dropped}
                slices.append(Value.of(kept))
            data[v.name] = slices
        return cls(specs, traj.horizon, data)

    def held_out(self) -> set[tuple[str, str]]:
        out = set()
        for name, spec in self.specs.items():
            for path in spec.paths:
                if not self.data[name][0].has(path):
                    out.add((name, path))
        return out

    def value(self, variable: str, step: int) -> Value:
        return self.data[variable][step]

    def stacked(self, variable: str) -> dict[str, object]:
        """Every observed field of ``variable``, shaped ``(steps, batch) + event``.

        Stacked on first use and kept, so repeated scoring of one
        trajectory (or of copies made by :meth:`inject`) stacks it once.
        """
        fields = self._stacked.get(variable)
        if fields is None:
            slices = self.data[variable]
            fields = {path: _stack([v.get(path) for v in slices])
                      for path in self.specs[variable].paths if slices[0].has(path)}
            self._stacked[variable] = fields
        return fields

    def window(self, variable: str, steps: slice) -> Value:
        """The observed slices ``steps`` of ``variable`` as one time-batched Value."""
        return Value.of({path: _window(payload, steps)
                         for path, payload in self.stacked(variable).items()})

    def inject(self, variable: str, path: str, values: Sequence) -> "ObservedTrajectory":
        """A new trajectory with the held-out field filled per step.

        ``values`` has one payload per step.  A static latent passes the
        same (possibly taped) tensor for every step; it is checked once and
        broadcast to the time axis with one tape node, and its gradient
        accumulates across steps.  The original trajectory is unmodified;
        the copy shares its stacked fields.
        """
        if variable not in self.specs:
            raise LogProbError(f"unknown variable {variable!r}")
        spec = self.specs[variable]
        if path not in spec.paths:
            raise LogProbError(f"variable {variable!r} has no field {path!r}")
        if self.data[variable][0].has(path):
            raise LogProbError(f"field already observed: {variable!r}.{path!r}")
        if len(values) != self.steps:
            raise LogProbError(
                f"need one value per step ({self.steps}), got {len(values)}")
        if all(v is values[0] for v in values):
            payloads = [Value.of({path: values[0]}).get(path)] * self.steps
        else:
            payloads = [Value.of({path: v}).get(path) for v in values]
        batch = self.batch
        for t, payload in enumerate(payloads):
            if t == 0 or payload is not payloads[t - 1]:
                batch = spec.check_payload(path, payload, batch,
                                           f"injected field {path!r} at step {t}")
        for name in self.specs:
            self.stacked(name)
        out = object.__new__(ObservedTrajectory)
        out.specs, out.steps, out.batch = self.specs, self.steps, batch
        out.data = {**self.data,
                    variable: _InjectedSlices(self.data[variable], path, payloads)}
        out._stacked = {**self._stacked,
                        variable: {**self._stacked[variable], path: _stack(payloads)}}
        return out


def _score_variable(var, out: Value, observed: Value, where: str, only,
                    lead: tuple[int, ...]) -> Tensor | None:
    """Rows (shape ``lead``) of one variable's stochastic fields; checks
    its deterministic fields against the observation."""
    where = f"variable {var.name!r} at {where}"
    total: Tensor | None = None
    for path in var.spec.paths:
        try:
            emitted = out.get(path)
        except CoreError as e:
            raise LogProbError(f"{where}: builder did not emit field {path!r}") from e
        if not observed.has(path):
            raise LogProbError(
                f"{where}: field {path!r} is held out; inject a value before scoring")
        obs = observed.get(path)
        if isinstance(emitted, Distribution):
            if only is not None and (var.name, path) not in only:
                continue
            try:
                lp = emitted.log_prob(obs)
            except ValueError as e:
                raise LogProbError(f"{where}: field {path!r} cannot be scored: {e}") from e
            if lp.shape[:len(lead)] != lead:
                raise LogProbError(
                    f"{where}: field {path!r} scores to shape {lp.shape}, expected "
                    f"leading axes {lead}; builders must broadcast over leading axes")
            if lp.ndim > len(lead):
                lp = T.reduce_sum(lp, axis=tuple(range(len(lead), lp.ndim)))
        else:
            det = Deterministic(emitted)
            shape = np.shape(obs.data if isinstance(obs, Tensor) else obs)
            if det.loc.shape != shape:
                raise LogProbError(
                    f"{where}: deterministic field {path!r} has shape {det.loc.shape}, "
                    f"observed {shape}; builders must broadcast over leading axes")
            if not det.is_consistent(obs):
                raise LogProbError(
                    f"{where}: deterministic field {path!r} does not match the "
                    f"observed value (replayed from observed dependencies)")
            continue  # consistent deterministic fields contribute 0
        total = lp if total is None else T.add(total, lp)
    return total


def _score_slices(net: Network, current: dict[str, Value],
                  previous: dict[str, Value] | None, only, lead: tuple[int, ...],
                  where: str) -> Tensor:
    """One call of every builder on (possibly time-batched) observed slices."""
    total: Tensor = T.zeros(lead)
    for var in (net.initial_order if previous is None else net.order):
        if previous is None:
            fn, args = var.initial_fn, _resolve_deps(var.initial_deps, current, None)
        else:
            fn, args = var.kernel_fn, _resolve_deps(var.kernel_deps, current, previous)
        try:
            out = fn(*args)
        except (ValueError, IndexError) as e:
            raise LogProbError(
                f"variable {var.name!r} at {where}: builder failed on payloads with "
                f"leading axes {lead}; builders must broadcast over leading axes "
                f"({type(e).__name__}: {e})") from e
        lp = _score_variable(var, out, current[var.name], where, only, lead)
        if lp is not None:
            total = T.add(total, lp)
    return total


def trajectory_log_prob_rows(net: Network, traj: ObservedTrajectory,
                             num_steps: int,
                             only: Iterable[tuple[str, str]] | None = None) -> Tensor:
    """Per-batch-row log-probability over slices 0 .. num_steps.

    Slice 0 is one call of each initial builder; slices 1 .. num_steps
    are one time-batched call of each kernel builder.  ``only`` restricts
    the sum to the given (variable, path) stochastic fields (deterministic
    replay checks still run); used e.g. to isolate a policy's action
    log-probability.
    """
    if not 0 <= num_steps <= traj.steps - 1:
        raise LogProbError(
            f"num_steps={num_steps} out of range [0, {traj.steps - 1}] "
            f"(trajectory has {traj.steps} slices)")
    only = set(only) if only is not None else None
    batch = traj.batch if traj.batch is not None else 1
    first = {name: traj.value(name, 0) for name in traj.specs}
    total = _score_slices(net, first, None, only, (batch,), "step 0")
    if num_steps > 0:
        current = {name: traj.window(name, slice(1, num_steps + 1)) for name in traj.specs}
        previous = {name: traj.window(name, slice(0, num_steps)) for name in traj.specs}
        steps = _score_slices(net, current, previous, only, (num_steps, batch),
                              f"steps 1..{num_steps}")
        total = T.add(total, T.reduce_sum(steps, axis=0))
    return total


def log_probability_from_value_trajectory(net: Network, traj: ObservedTrajectory,
                                          num_steps: int) -> Tensor:
    """Scalar log-probability of an observed trajectory under the model.

    Differentiable with respect to trainable parameters referenced by
    builders and with respect to injected field values.
    """
    return T.reduce_sum(trajectory_log_prob_rows(net, traj, num_steps))
