"""Ancestral sampling of a Network over a horizon, and the trajectory record.

Slices are evaluated sequentially; within a slice, variables run in
topological order and every stochastic field is sampled through an
RngStream keyed by (seed, variable, path, step) and the batch row.  A
sampled field keeps only its realized value: the distribution a builder
emitted is dropped once sampled, and log-probabilities come from replaying
the builders on the values (:mod:`ecosim.logprob`).

A :class:`Trajectory` is the one record of a trajectory, sampled or
observed: each field stacked on a leading time axis.  ``trajectory``
writes each slice into it and builds the next from its rows; the scorer
windows its stacks and the CSV export reads their rows.  ``execute``
keeps only the slice being built and the previous one.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import tensor as T
from .core import CoreError, Network, Value, ValueSpec, Variable
from .dist import Distribution
from .rng import RngStream
from .tensor import Tensor


class SimulationError(RuntimeError):
    """Raised when a builder output violates its spec during simulation."""


class LogProbError(ValueError):
    """Raised for malformed observations or deterministic mismatches."""


def _array(payload) -> np.ndarray:
    return payload.data if isinstance(payload, Tensor) else payload


def _broadcast(payload, steps: int):
    """``payload`` at each of ``steps`` rows: a read-only view with time
    stride 0, and one tape node for a taped tensor."""
    shape = (steps,) + payload.shape
    if isinstance(payload, Tensor):
        return T.broadcast_to(payload, shape)
    return np.broadcast_to(payload, shape)


def _window(payload, key):
    return T.index(payload, key) if isinstance(payload, Tensor) else payload[key]


class Trajectory:
    """Every variable's fields over ``steps`` slices, stacked on the time axis.

    ``fields[variable][path]`` is shaped ``(steps, batch) + event``: an
    int64 array for an integer field, a Tensor for a continuous one.  A
    field missing from it is held out, at every step.  Step 0's Values are
    also kept as given: the initial builders score them without a time
    axis, and an injected latent reaches step 0 as itself.

    :meth:`append` writes the slices in step order.  A field's stack is a
    read-only broadcast of step 0's payload, time stride 0, while each
    step's payload is that same object (a carried field).  At its first
    other payload it becomes a C-contiguous buffer, as ``np.stack`` gives,
    and from then on each payload is written into its own row.
    """

    def __init__(self, specs: dict[str, ValueSpec], steps: int, row_offset: int = 0):
        if steps < 1:
            raise ValueError(f"need at least one step (horizon >= 1), got {steps}")
        self.specs, self.steps, self.row_offset = specs, steps, row_offset
        self.batch: int | None = None
        self.fields: dict[str, dict[str, object]] = {name: {} for name in specs}
        self._first: dict[str, Value] = {}
        self._appended = 0

    def append(self, values: Mapping[str, Value]) -> None:
        """Write the next slice, one Value per variable, into the stacks.

        Checks nothing against the specs: the sampler checks each slice it
        realizes, and :func:`ecosim.logprob.observe` checks outside data.
        """
        t = self._appended
        if t == self.steps:
            raise ValueError(f"trajectory already holds its {self.steps} slices")
        for name, value in values.items():
            if t == 0:
                self._first[name] = value
                self.fields[name] = {path: _broadcast(payload, self.steps)
                                     for path, payload in value.items()}
                continue
            fields, first = self.fields[name], self._first[name]
            for path, stack in fields.items():
                payload, rows = value.get(path), _array(stack)
                if not rows.flags.writeable:  # still the broadcast of step 0
                    if payload is first.get(path):
                        continue
                    rows = np.empty(rows.shape, rows.dtype)
                    rows[:t] = _array(first.get(path))
                    fields[path] = Tensor(rows) if isinstance(stack, Tensor) else rows
                rows[t] = _array(payload)
        self._appended += 1

    @classmethod
    def from_trajectory(cls, net: Network, traj: "Trajectory",
                        hold_out: Iterable[tuple[str, str]] = ()) -> "Trajectory":
        """``traj`` with the (variable, path) fields in ``hold_out`` held
        out.  It shares every other array with ``traj`` and copies none."""
        if {v.name for v in net.variables} != set(traj.specs):
            raise LogProbError(f"trajectory variables {sorted(traj.specs)} are not "
                               f"the network's")
        dropped = set(hold_out)

        def kept(name, items):
            return {path: payload for path, payload in items if (name, path) not in dropped}

        return traj._sharing(
            fields={name: kept(name, f.items()) for name, f in traj.fields.items()},
            _first={name: Value.of(kept(name, v.items())) for name, v in traj._first.items()})

    def _sharing(self, **changes) -> "Trajectory":
        """A record holding this one's attributes, with ``changes`` applied."""
        out = object.__new__(Trajectory)
        out.__dict__.update(vars(self), **changes)
        return out

    def held_out(self) -> set[tuple[str, str]]:
        return {(name, path) for name, spec in self.specs.items()
                for path in spec.paths if path not in self.fields[name]}

    def value(self, variable: str, step: int) -> Value:
        """Slice ``step`` of ``variable`` (negative counts from the end),
        shaped ``(batch,) + event``; a carried field is step 0's payload."""
        step, first = range(self.steps)[step], self._first[variable]
        return first if step == 0 else Value.of({
            path: _window(stack, step) if _array(stack).flags.writeable else first.get(path)
            for path, stack in self.fields[variable].items()})

    def window(self, variable: str, steps: int | slice) -> Value:
        """The slices ``steps`` of ``variable`` as one Value of views."""
        return Value.of({path: _window(stack, steps)
                         for path, stack in self.fields[variable].items()})

    def inject(self, variable: str, path: str, values: Sequence) -> "Trajectory":
        """A new trajectory with the held-out field filled at every step.

        ``values`` has one entry per step, each the same payload: a static
        latent, possibly a taped tensor.  It is checked once and broadcast
        to the time axis with one tape node, and its gradient accumulates
        across steps.  The original trajectory is unmodified; the new one
        shares its stacks.
        """
        if variable not in self.specs:
            raise LogProbError(f"unknown variable {variable!r}")
        spec = self.specs[variable]
        if path not in spec.paths:
            raise LogProbError(f"variable {variable!r} has no field {path!r}")
        if path in self.fields[variable]:
            raise LogProbError(f"field already observed: {variable!r}.{path!r}")
        if len(values) != self.steps:
            raise LogProbError(
                f"need one value per step ({self.steps}), got {len(values)}")
        if any(v is not values[0] for v in values):
            raise LogProbError(f"inject needs one payload for every step of {path!r}")
        payload = Value.of({path: values[0]}).get(path)
        batch = spec.check_payload(path, payload, self.batch, f"injected field {path!r}")
        stack = _broadcast(payload, self.steps)
        return self._sharing(
            batch=batch,
            fields={**self.fields, variable: {**self.fields[variable], path: stack}},
            _first={**self._first, variable: self._first[variable].union(
                Value.of({path: payload}))})


def _resolve_deps(deps, current: dict[str, Value], previous: dict[str, Value] | None):
    args = []
    for dep in deps:
        if dep.previous:
            assert previous is not None
            args.append(previous[dep.variable.name])
        else:
            args.append(current[dep.variable.name])
    return args


def _realize(var: Variable, out: Value, step: int, seed: int,
             row_offset: int | np.ndarray, batch: int | None):
    """Sample stochastic fields, spec-check, and return (value, batch)."""
    where = f"variable {var.name!r} at step {step}"
    realized: dict[str, object] = {}
    for path in var.spec.paths:
        try:
            payload = out.get(path)
        except CoreError as e:
            raise SimulationError(f"{where}: builder did not emit field {path!r}") from e
        if isinstance(payload, Distribution):
            payload = payload.sample(RngStream(seed, var.name, path, step, row_offset))
        realized[path] = payload
    value = Value.of(realized)
    extra = set(out.paths) - set(var.spec.paths)
    if extra:
        raise SimulationError(f"{where}: builder emitted fields not in spec: {sorted(extra)}")
    try:
        batch = var.spec.check_value(value, batch, where)
    except CoreError as e:
        raise SimulationError(str(e)) from e
    return value, batch


def _eval_slice(net: Network, step: int, previous: dict[str, Value] | None,
                seed: int, row_offset: int | np.ndarray, batch: int | None):
    current: dict[str, Value] = {}
    order = net.initial_order if step == 0 else net.order
    for var in order:
        if step == 0:
            args = _resolve_deps(var.initial_deps, current, None)
            out = var.initial_fn(*args)
        else:
            args = _resolve_deps(var.kernel_deps, current, previous)
            out = var.kernel_fn(*args)
        if not isinstance(out, Value):
            raise SimulationError(
                f"variable {var.name!r} at step {step}: builder returned "
                f"{type(out).__name__}, expected Value")
        current[var.name], batch = _realize(var, out, step, seed, row_offset, batch)
    return current, batch


def trajectory(net: Network, horizon: int, seed: int, *, row_offset: int = 0) -> Trajectory:
    """Sample slices 0 .. horizon-1 into the record; each is built from the
    record's rows of the one before, and dropped once written."""
    traj = Trajectory({v.name: v.spec for v in net.variables}, horizon, row_offset)
    previous, batch = None, None
    for t in range(horizon):
        current, batch = _eval_slice(net, t, previous, seed, row_offset, batch)
        traj.append(current)
        del current
        previous = {name: traj.value(name, t) for name in traj.specs}
    traj.batch = batch
    return traj


def execute(net: Network, num_steps: int, seed: int, *,
            row_offset: int | np.ndarray = 0) -> dict[str, Value]:
    """Run ``num_steps`` kernel applications after the initial slice and
    return only the final slice.  Memory-light: besides the slice being
    built, only the previous one is kept.

    ``row_offset`` gives the rows' counter words (:class:`RngStream`): an
    int keys batch row ``r`` as ``row_offset + r``, a 1-D integer array of
    run ids keys it as ``row_offset[r]``, so rows that share an id draw
    the same numbers.  ``num_steps=0`` returns the initial slice.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    current, batch = None, None
    for t in range(num_steps + 1):
        current, batch = _eval_slice(net, t, current, seed, row_offset, batch)
    return current


# ---------------------------------------------------------------------------
# CSV artifacts


def write_csv(path: str | Path, schema: str, header: Sequence[str],
              lines: Iterable[str]) -> Path:
    """Write one CSV artifact: a ``# schema=<schema>`` line, the header
    through ``csv.writer`` (so a field name that needs quoting is quoted),
    then ``lines``, body text already comma-joined and newline-terminated.
    Makes the parent directory; returns ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(lines)
    return path


def _flat_columns(path: str, stack) -> list[str]:
    event = stack.shape[2:]
    if not event:
        return [path]
    return [f"{path}[{'.'.join(map(str, idx))}]" for idx in np.ndindex(*event)]


def _row_texts(arr: np.ndarray, batch: int) -> list[str]:
    """Each batch row of ``arr`` as comma-joined text: ``str`` of the Python
    int for int64 payloads, ``repr`` of the Python float for float64 ones
    (``Value`` normalizes every payload to one of the two)."""
    fmt = str if arr.dtype.kind == "i" else repr
    # The explicit event size keeps the reshape defined at batch 0.
    rows = arr.reshape(batch, math.prod(arr.shape[1:])).tolist()
    return [",".join(map(fmt, row)) for row in rows]


def _step_blocks(traj: Trajectory, variable: str) -> Iterator[str]:
    """A variable's CSV body, one text block per step, read from the rows
    of its stacks.  A carried field's rows are one payload, formatted once."""
    batch_ids = [str(b + traj.row_offset) for b in range(traj.batch)]
    rows = {path: _array(stack) for path, stack in traj.fields[variable].items()}
    carried = {path: _row_texts(arr[0], traj.batch)
               for path, arr in rows.items() if not arr.flags.writeable}
    for t in range(traj.steps):
        columns = [[str(t)] * traj.batch, batch_ids]
        columns += [carried[path] if path in carried else _row_texts(arr[t], traj.batch)
                    for path, arr in rows.items()]
        yield "".join([",".join(cells) + "\n" for cells in zip(*columns)])


def export_trajectory(traj: Trajectory, outdir: str | Path) -> list[Path]:
    """One ``trajectory/1`` CSV per variable, ``<outdir>/<variable>.csv``:
    step, batch, then the flattened field paths."""
    written = []
    for name, fields in traj.fields.items():
        header = ["step", "batch"]
        for path, stack in fields.items():
            header.extend(_flat_columns(path, stack))
        written.append(write_csv(Path(outdir) / f"{name}.csv", "trajectory/1", header,
                                 _step_blocks(traj, name)))
    return written
