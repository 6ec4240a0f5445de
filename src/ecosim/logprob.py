"""Scoring observed trajectories under a model.

Scoring replays every builder of a whole record with observed values
substituted for its dependencies; each stochastic field then contributes
the exact log density of its observed value, and each deterministic
field is checked for consistency (a mismatch means corrupted data, not
low likelihood, and raises).  Builders must therefore be pure functions
of their declared dependencies and registered trainable parameters;
violated purity yields wrong densities, not crashes.

A partial record, one that holds only some of the network's variables
(``runtime.trajectory(..., keep=...)``), is scored on the fields
``only`` names: only their variables' builders run, on the recorded
values of their dependencies, and their deterministic fields alone are
checked.  REINFORCE scores its sampler's own record this way.  A whole
record replays every builder even with ``only``, so data from outside
the sampler keeps every check.

What is scored is the record the sampler writes, a
:class:`ecosim.runtime.Trajectory`; ``from_trajectory`` holds fields out
of it and ``inject`` fills them.  Data from outside the sampler enters
through :func:`observe`, which checks it and appends it slice by slice.

The replay is batched over time.  In an observed trajectory slice t
depends only on the observed slices t and t-1, so the transitions need
not be replayed one step at a time.  Slice 0 is scored once with the
initial builders, on step 0's payloads as given, shaped ``(batch,) +
event``.  Slices 1 .. num_steps are scored with one call of each kernel
builder, on payloads with a leading time axis, ``(num_steps, batch) +
event``: current-slice dependencies are the observed slices 1 ..
num_steps and ``.previous`` ones the slices 0 .. num_steps-1, both views
of the record's stacks.  Each field's log-probability is summed over
every axis after the leading (time, batch) axes, then over time, to one
value per batch row.

Builders follow the contract :mod:`ecosim.runtime` states, and the
batching adds to it: a kernel builder accepts any number
of leading axes in front of a field's event axes.  It indexes and
reduces with negative axes and ``...``, and takes no shape from a batch
size captured in a closure; a constant of shape ``(batch,) + event``
that broadcasts against its inputs is fine.  A builder that breaks the
contract fails with a LogProbError naming the variable (and the field,
once the builder has returned); an index a builder finds out of range
(``tensor.IndexRangeError``) is reported as out-of-range observed data.

Step counting follows the ``horizon - 1`` convention: ``num_steps`` is
the number of kernel applications, and slices 0 .. num_steps (the
initial slice plus ``num_steps`` transitions) are scored.  A ``start``
scores only the window of slices start .. num_steps: the initial slice
if the window holds it, and the kernel factors of the rest, each reading
its own observed slice and the one before.  No factor reads two windows'
slices on the tape, so per-row log-probabilities over contiguous windows
that cover 0 .. num_steps sum to those of the whole range, and each
window can be scored, and differentiated, on a tape of its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from . import tensor as T
from .core import Network, Value
from .dist import Deterministic, Distribution
from .runtime import LogProbError, Trajectory, builder_calls, check_output
from .tensor import Tensor, as_array

# The scorer's name for the record; perfbench imports it.  ROADMAP item
# 9's perfbench part removes it.
ObservedTrajectory = Trajectory


def observe(net: Network, slices: Sequence[Mapping[str, Value]]) -> Trajectory:
    """A record of observations made outside the sampler, one slice per step.

    Each slice maps every variable of ``net`` to a Value holding its
    observed fields; a field is observed at every step or held out at every
    step.  No sampler checked these payloads, so each is checked against its
    spec (kind, shape, batch) before its slice is appended.
    """
    specs = {v.name: v.spec for v in net.variables}
    traj = Trajectory(specs, len(slices))
    batch = None
    for t, values in enumerate(slices):
        if set(values) != set(specs):
            raise LogProbError(f"step {t} observes variables {sorted(values)}, not the "
                               f"network's {sorted(specs)}")
        for name, value in values.items():
            paths = set(value.paths)
            observed = paths if t == 0 else set(traj.fields[name])
            if paths != observed:
                raise LogProbError(
                    f"fields {sorted(paths ^ observed)} of variable {name!r} are partially "
                    f"observed; fields must be fully observed or fully held out")
            if not paths <= set(specs[name].paths):
                raise LogProbError(f"variable {name!r} has no fields "
                                   f"{sorted(paths - set(specs[name].paths))}")
            for path in value.paths:
                batch = specs[name].check_payload(path, value.get(path), batch,
                                                  f"observed variable {name!r} at step {t}")
        traj.append(values)
    traj.batch = batch
    return traj


def _score_variable(var, out: Value, observed: Value, where: str, only,
                    lead: tuple[int, ...]) -> Tensor | None:
    """Rows (shape ``lead``) of one variable's stochastic fields; checks
    its deterministic fields against the observation."""
    where = f"variable {var.name!r} at {where}"
    total: Tensor | None = None
    for path in var.spec.paths:
        emitted = out.get(path)
        if not observed.has(path):
            raise LogProbError(
                f"{where}: field {path!r} is held out; inject a value before scoring")
        obs = observed.get(path)
        if isinstance(emitted, Distribution):
            if only is not None and (var.name, path) not in only:
                continue
            try:
                lp = emitted.log_prob(obs)
            except T.IndexRangeError as e:
                raise LogProbError(f"{where}: field {path!r}: observed data out of "
                                   f"range ({e})") from e
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
            shape = as_array(obs).shape
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
                  where: str, names: set[str] | None) -> Tensor:
    """One call of every builder, or of those of ``names``, on (possibly
    time-batched) observed slices."""
    total: Tensor = T.zeros(lead)
    for var, fn, args in builder_calls(net, current, previous, names):
        try:
            out = fn(*args)
        except T.IndexRangeError as e:
            raise LogProbError(f"variable {var.name!r} at {where}: observed data out of "
                               f"range ({e})") from e
        except (ValueError, IndexError) as e:
            raise LogProbError(
                f"variable {var.name!r} at {where}: builder failed on payloads with "
                f"leading axes {lead}; builders must broadcast over leading axes "
                f"({type(e).__name__}: {e})") from e
        check_output(var, out, where, LogProbError)
        lp = _score_variable(var, out, current[var.name], where, only, lead)
        if lp is not None:
            total = T.add(total, lp)
    return total


def _replayed(net: Network, traj: Trajectory,
              only: set[tuple[str, str]] | None) -> set[str] | None:
    """The variables whose builders score ``traj``: every one (None) for a
    whole record; for a partial one, the owners of ``only``'s fields,
    each checked to be recorded and to read only recorded variables."""
    missing = [v.name for v in net.variables if v.name not in traj.specs]
    if not missing:
        return None
    if only is None:
        raise LogProbError(f"the record does not hold variables {missing}; a partial "
                           f"record is scored only on the fields only= names")
    names = {name for name, _ in only}
    for name in sorted(names):
        if name not in traj.specs:
            raise LogProbError(f"variable {name!r} of an only= field is not recorded")
    for var in net.variables:
        if var.name in names:
            for dep in var.initial_deps + var.kernel_deps:
                if dep.variable.name not in traj.specs:
                    raise LogProbError(
                        f"variable {var.name!r} reads variable {dep.variable.name!r}, "
                        f"which the record does not hold")
    return names


def trajectory_log_prob_rows(net: Network, traj: Trajectory,
                             num_steps: int,
                             only: Iterable[tuple[str, str]] | None = None, *,
                             start: int = 0) -> Tensor:
    """Per-batch-row log-probability over slices ``start`` .. num_steps.

    Slice 0, if ``start`` is 0, is one call of each initial builder;
    slices max(start, 1) .. num_steps are one time-batched call of each
    kernel builder, their ``.previous`` dependencies the same window
    shifted back one slice.  ``only`` restricts the sum to the given
    (variable, path) stochastic fields; used e.g. to isolate a policy's
    action log-probability.

    On a whole record every builder runs and every deterministic field is
    checked, with ``only`` or without.  A partial record needs ``only``:
    only the builders of its fields' variables run, and each of those
    variables, and every variable their initial and kernel builders read,
    must be recorded.  Otherwise a LogProbError names what is missing.
    """
    if not 0 <= num_steps <= traj.steps - 1:
        raise LogProbError(
            f"num_steps={num_steps} out of range [0, {traj.steps - 1}] "
            f"(trajectory has {traj.steps} slices)")
    if not 0 <= start <= num_steps:
        raise LogProbError(f"start={start} out of range [0, num_steps={num_steps}]")
    only = set(only) if only is not None else None
    names = _replayed(net, traj, only)
    batch = traj.batch if traj.batch is not None else 1
    total: Tensor | None = None
    if start == 0:
        first = {name: traj.value(name, 0) for name in traj.specs}
        total = _score_slices(net, first, None, only, (batch,), "step 0", names)
    lo = max(start, 1)
    if num_steps >= lo:
        current = {name: traj.window(name, slice(lo, num_steps + 1)) for name in traj.specs}
        previous = {name: traj.window(name, slice(lo - 1, num_steps)) for name in traj.specs}
        steps = _score_slices(net, current, previous, only, (num_steps + 1 - lo, batch),
                              f"steps {lo}..{num_steps}", names)
        rows = T.reduce_sum(steps, axis=0)
        total = rows if total is None else T.add(total, rows)
    return total


def log_probability_from_value_trajectory(net: Network, traj: Trajectory,
                                          num_steps: int) -> Tensor:
    """Scalar log-probability of an observed trajectory under the model.

    Differentiable with respect to trainable parameters referenced by
    builders and with respect to injected field values.
    """
    return T.reduce_sum(trajectory_log_prob_rows(net, traj, num_steps))
