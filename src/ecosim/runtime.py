"""Ancestral sampling of a Network over a horizon, and the trajectory record.

Slices are evaluated sequentially; within a slice, variables run in
topological order and every stochastic field is sampled through an
RngStream keyed by (seed, variable, path, step) and the batch row.  A
sampled field keeps only its realized value: the distribution a builder
emitted is dropped once sampled, and log-probabilities come from replaying
the builders on the values (:mod:`ecosim.logprob`).

``trajectory`` and ``execute`` share one slice loop, which builds each
slice from the sampled slice before it and keeps only that one.
A :class:`Trajectory` is the one record of a trajectory, sampled or
observed: each field stacked on a leading time axis.  ``trajectory``
writes each slice into it; the scorer windows its stacks and the CSV
export reads their rows.  ``execute`` keeps only the last slice.

The CSV export (:func:`export_trajectory`) writes each value's cell as
exactly ``repr(float(v))`` or ``str(int(v))``.  It formats whole blocks of
values with numpy (:mod:`ecosim.numtext`), a bounded group of steps at a
time, and the oracle tests hold that formatter to ``repr`` and ``str``.

The builder contract, which the sampler and the scorer share: a slice's
builders are called in the order :func:`builder_calls` walks them, each
on the Values of its declared dependencies, and each returns a Value
whose paths are exactly its Variable's spec's (:func:`check_output`).  A
field is a Distribution other than ``Deterministic``, which the sampler
samples and the scorer scores, or the payload itself, which is
deterministic: the scorer checks it against the observed value.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import tensor as T
from .core import CoreError, Network, Value, ValueSpec, Variable
from .dist import Deterministic, Distribution
from .numtext import CHUNK, row_texts
from .rng import RngStream, Rows
from .tensor import Tensor, as_array


class SimulationError(RuntimeError):
    """Raised when a builder output violates its spec during simulation."""


class LogProbError(ValueError):
    """Raised for malformed observations or deterministic mismatches."""


def _broadcast(payload, steps: int):
    """``payload`` at each of ``steps`` rows: a read-only view with time
    stride 0, and one tape node for a taped tensor."""
    shape = (steps,) + payload.shape
    if isinstance(payload, Tensor):
        return T.broadcast_to(payload, shape)
    return np.broadcast_to(payload, shape)


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

    def __init__(self, specs: dict[str, ValueSpec], steps: int, rows: Rows | None = None):
        if steps < 1:
            raise ValueError(f"need at least one step (horizon >= 1), got {steps}")
        self.specs, self.steps = specs, steps
        self.rows = Rows() if rows is None else rows
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
                payload, rows = value.get(path), as_array(stack)
                if not rows.flags.writeable:  # still the broadcast of step 0
                    if payload is first.get(path):
                        continue
                    rows = np.empty(rows.shape, rows.dtype)
                    rows[:t] = as_array(first.get(path))
                    fields[path] = Tensor(rows) if isinstance(stack, Tensor) else rows
                rows[t] = as_array(payload)
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
        shaped ``(batch,) + event``: step 0's Value as given, and a Value
        of views into the stacks at any later step."""
        step = range(self.steps)[step]
        return self._first[variable] if step == 0 else self.window(variable, step)

    def window(self, variable: str, steps: int | slice) -> Value:
        """The slices ``steps`` of ``variable`` as one Value of views."""
        return Value.of({path: T.index(stack, steps) if isinstance(stack, Tensor)
                         else stack[steps] for path, stack in self.fields[variable].items()})

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


def builder_calls(net: Network, current: Mapping[str, Value],
                  previous: Mapping[str, Value] | None
                  ) -> Iterator[tuple[Variable, Callable, list[Value]]]:
    """Each Variable of a slice with its builder and the Values to call it
    on, in evaluation order: the initial builders when there is no
    ``previous`` slice, the kernel builders otherwise.

    A Variable's arguments are read from ``current`` and ``previous`` when
    its turn comes, so a caller that writes each Variable's Value into
    ``current`` before it advances feeds it to the Variables after it.
    """
    initial = previous is None
    for var in net.initial_order if initial else net.order:
        fn, deps = ((var.initial_fn, var.initial_deps) if initial
                    else (var.kernel_fn, var.kernel_deps))
        yield var, fn, [(previous if dep.previous else current)[dep.variable.name]
                        for dep in deps]


def check_output(var: Variable, out, where: str, error: type[Exception]) -> Value:
    """``out``, if it is a Value whose paths are exactly ``var``'s spec's
    and none of whose fields is a ``Deterministic``; otherwise raises
    ``error`` naming the variable and ``where``, its step or steps."""
    if not isinstance(out, Value):
        raise error(f"variable {var.name!r} at {where}: builder returned "
                    f"{type(out).__name__}, expected Value")
    got, want = set(out.paths), set(var.spec.paths)
    if got != want:
        raise error(f"variable {var.name!r} at {where}: builder fields do not match "
                    f"the spec (missing {sorted(want - got)}, "
                    f"unexpected {sorted(got - want)})")
    for path in var.spec.paths:
        if isinstance(out.get(path), Deterministic):
            raise error(f"variable {var.name!r} at {where}: field {path!r} is a "
                        f"Deterministic; emit the payload itself")
    return out


def _realize(var: Variable, out: Value, step: int, seed: int, rows: Rows,
             batch: int | None):
    """Sample the stochastic fields of a checked builder output, spec-check
    the result, and return (value, batch)."""
    realized: dict[str, object] = {}
    for path in var.spec.paths:
        payload = out.get(path)
        if isinstance(payload, Distribution):
            payload = payload.sample(RngStream(seed, var.name, path, step, rows))
        realized[path] = payload
    value = Value.of(realized)
    try:
        batch = var.spec.check_value(value, batch, f"variable {var.name!r} at step {step}")
    except CoreError as e:
        raise SimulationError(str(e)) from e
    return value, batch


def _slices(net: Network, num_steps: int, seed: int, rows: Rows
            ) -> Iterator[tuple[dict[str, Value], int | None]]:
    """Sample slices 0 .. num_steps and yield each with the batch; each is
    built from the slice yielded before it, the only one kept.  Every
    stream draws under the run's row key ``rows``."""
    previous, batch = None, None
    for step in range(num_steps + 1):
        current: dict[str, Value] = {}
        for var, fn, args in builder_calls(net, current, previous):
            out = check_output(var, fn(*args), f"step {step}", SimulationError)
            current[var.name], batch = _realize(var, out, step, seed, rows, batch)
        yield current, batch
        previous = current


def _run_rows(command: str, row_offset, last_step: int | None = None) -> Rows:
    """A run's row key, with ``command`` naming the run in a bad id's error."""
    try:
        return Rows(row_offset, last_step)
    except ValueError as e:
        raise ValueError(f"{command} row_offset: {e}") from None


def trajectory(net: Network, horizon: int, seed: int, *,
               row_offset: int | np.ndarray = 0) -> Trajectory:
    """Sample slices 0 .. horizon-1 and write each into the record.

    ``row_offset`` is the rows' key, as for :func:`execute`; the record
    keeps it as its ``rows``, and the export writes each row's key, so ids
    must number the rows even where no field draws.  Each field draws one
    step a pass.
    """
    rows = _run_rows("trajectory", row_offset)
    traj = Trajectory({v.name: v.spec for v in net.variables}, horizon, rows)
    for current, batch in _slices(net, horizon - 1, seed, rows):
        traj.append(current)
    if rows.ids is not None and rows.ids.size != batch:
        raise ValueError(f"trajectory row_offset: {rows.ids.size} row ids for {batch} rows")
    traj.batch = batch
    return traj


def execute(net: Network, num_steps: int, seed: int, *,
            row_offset: int | np.ndarray = 0) -> dict[str, Value]:
    """Run ``num_steps`` kernel applications after the initial slice and
    return only the final slice.  Memory-light: besides the slice being
    built and the previous one, it holds at most one lookahead pass per
    stochastic field, of at most ``rng._LOOKAHEAD_LANES`` Philox lanes.

    ``row_offset`` gives the rows' counter words (:class:`RngStream`): an
    int keys batch row ``r`` as ``row_offset + r``, a 1-D integer array of
    run ids keys it as ``row_offset[r]``, so rows that share an id draw
    the same numbers.  It becomes the run's one :class:`ecosim.rng.Rows`,
    so the ids are checked and deduplicated once, and every stream of the
    run draws each distinct id once.  A field whose draws keep their shape
    draws several steps' numbers in one pass (:meth:`ecosim.rng.Rows.ahead`),
    the same numbers ``trajectory`` draws a step at a time.
    ``num_steps=0`` returns the initial slice.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    for final, _ in _slices(net, num_steps, seed, _run_rows("execute", row_offset, num_steps)):
        pass
    return final


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


def _row_texts(arr: np.ndarray, rows: int) -> list[str]:
    """Each of the ``rows`` leading rows of ``arr`` (one step's batch rows,
    or a group of steps') as comma-joined text.  A cell is exactly ``repr``
    of the Python float for a float64 payload and ``str`` of the Python int
    for an int64 one (``Value`` normalizes every payload to one of the
    two), formatted a block at a time by :func:`numtext.row_texts`."""
    # The explicit row size keeps the reshape defined at batch 0.
    return row_texts(arr.reshape(rows, arr.size // rows if rows else 0))


def _step_blocks(traj: Trajectory, variable: str) -> Iterator[str]:
    """A variable's CSV body, one text block per step, read from the rows
    of its stacks.  A carried field's rows are one payload, formatted once;
    the others are formatted a group of steps at a time, about
    ``numtext.CHUNK`` values of the widest field, so the text held at once
    does not grow with the horizon."""
    batch = traj.batch
    batch_ids = [str(key) for key in traj.rows.keys(batch).tolist()]
    rows = {path: as_array(stack) for path, stack in traj.fields[variable].items()}
    carried = {path: _row_texts(arr[0], batch)
               for path, arr in rows.items() if not arr.flags.writeable}
    stepped = {path: arr for path, arr in rows.items() if path not in carried}
    group = max(1, CHUNK // max([1] + [arr[0].size for arr in stepped.values()]))
    for t0 in range(0, traj.steps, group):
        t1 = min(t0 + group, traj.steps)
        texts = {path: _row_texts(arr[t0:t1], (t1 - t0) * batch)
                 for path, arr in stepped.items()}
        for t in range(t0, t1):
            at = (t - t0) * batch
            columns = [[str(t)] * batch, batch_ids]
            columns += [carried[path] if path in carried else texts[path][at:at + batch]
                        for path in rows]
            yield "".join([",".join(cells) + "\n" for cells in zip(*columns)])


def export_trajectory(traj: Trajectory, outdir: str | Path) -> list[Path]:
    """One ``trajectory/1`` CSV per variable, ``<outdir>/<variable>.csv``:
    step, batch, then the flattened field paths.  Each value's cell is
    ``repr(float(v))`` or ``str(int(v))`` exactly (:func:`_row_texts`)."""
    written = []
    for name, fields in traj.fields.items():
        header = ["step", "batch"]
        for path, stack in fields.items():
            header.extend(_flat_columns(path, stack))
        written.append(write_csv(Path(outdir) / f"{name}.csv", "trajectory/1", header,
                                 _step_blocks(traj, name)))
    return written
