"""Ancestral sampling of a Network over a horizon, and the trajectory record.

Slices are evaluated sequentially; within a slice, variables run in
topological order and every stochastic field is sampled through an
RngStream keyed by (seed, variable, path, step) and the batch row.  A
sampled field keeps only its realized value: the distribution a builder
emitted is dropped once sampled, and log-probabilities come from replaying
the builders on the values (:mod:`ecosim.logprob`).

``trajectory`` and ``execute`` share one slice loop, which builds each
slice from the sampled slice before it and keeps only that one, and
draws several steps of a field's numbers in one pass (:mod:`ecosim.rng`).
A :class:`Trajectory` is the one record of a trajectory, sampled or
observed: each field stacked on a leading time axis.  ``trajectory``
writes each slice into it, or the variables its ``keep`` names; the
scorer windows its stacks.  ``execute``
keeps only the last slice, and hands each slice to an optional callback
as it is sampled.

The CSV export (:func:`export_trajectory`) is one writer that takes
slices in step order and never needs the whole record.  It replays a
:class:`Trajectory`, or it samples a :class:`Run` through ``execute`` and
writes each slice as it comes, so the run's memory does not grow with its
horizon.  It writes each value's cell as exactly ``repr(float(v))`` or
``str(int(v))``, formatting whole blocks of values with numpy
(:mod:`ecosim.numtext`) a bounded group of steps at a time; the oracle
tests hold that formatter to ``repr`` and ``str``.  Each file is written
under a temporary name and renamed into place after the last step, so a
run that fails leaves no truncated file.

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
import os
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

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
    """Its variables' fields over ``steps`` slices, stacked on the time axis.

    ``specs`` names the recorded variables: every variable of the network
    for a whole record, some of them for a partial one.
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

    The record grows with the horizon.  EM scores it whole, on one tape.
    REINFORCE records only the variables its loss reads, the policy's
    cone and the reward, and scores them a window of slices at a time,
    each on a tape of its own (``inference.reinforce_step``), so only that
    partial record, not its scoring, grows with the horizon.  The CSV
    export needs no record: ``simulate`` writes its CSVs from a
    :class:`Run`, and :func:`export_trajectory` replays a record a slice
    at a time.
    """

    def __init__(self, specs: dict[str, ValueSpec], steps: int):
        if steps < 1:
            raise ValueError(f"need at least one step (horizon >= 1), got {steps}")
        self.specs, self.steps = specs, steps
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
            _first={name: Value(**kept(name, v.items())) for name, v in traj._first.items()})

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
        return Value(**{path: T.index(stack, steps) if isinstance(stack, Tensor)
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
        payload = Value(**{path: values[0]}).get(path)
        batch = spec.check_payload(path, payload, self.batch, f"injected field {path!r}")
        stack = _broadcast(payload, self.steps)
        return self._sharing(
            batch=batch,
            fields={**self.fields, variable: {**self.fields[variable], path: stack}},
            _first={**self._first,
                    variable: Value(**dict(self._first[variable].items()), **{path: payload})})


def builder_calls(net: Network, current: Mapping[str, Value],
                  previous: Mapping[str, Value] | None,
                  names: Container[str] | None = None
                  ) -> Iterator[tuple[Variable, Callable, list[Value]]]:
    """Each Variable of a slice with its builder and the Values to call it
    on, in evaluation order: the initial builders when there is no
    ``previous`` slice, the kernel builders otherwise.  With ``names``,
    only the Variables it names, whose arguments alone are read.

    A Variable's arguments are read from ``current`` and ``previous`` when
    its turn comes, so a caller that writes each Variable's Value into
    ``current`` before it advances feeds it to the Variables after it.
    """
    initial = previous is None
    for var in net.initial_order if initial else net.order:
        if names is not None and var.name not in names:
            continue
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
    value = Value(**realized)
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


def trajectory(net: Network, horizon: int, seed: int, *,
               keep: Container[str] | None = None) -> Trajectory:
    """Sample slices 0 .. horizon-1 and write each into the record.

    The run samples through the slice loop ``execute`` runs, with batch
    row ``r`` keyed as row word ``r``, and draws ahead as it does, so the
    record holds the numbers ``execute`` draws with no ``row_ids``.

    ``keep`` names the variables to record, all of them by default.  Every
    variable is sampled either way, on the same streams, so a kept field's
    stack is the one a whole record holds; a record without some of the
    network's variables is a partial one (:mod:`ecosim.logprob`).
    """
    traj = Trajectory({v.name: v.spec for v in net.variables
                       if keep is None or v.name in keep}, horizon)
    for current, traj.batch in _slices(net, horizon - 1, seed, Rows(None, horizon - 1)):
        traj.append({name: current[name] for name in traj.specs})
    return traj


def execute(net: Network, num_steps: int, seed: int, *, row_ids: np.ndarray | None = None,
            on_slice: Callable[[dict[str, Value], int | None], None] | None = None
            ) -> dict[str, Value]:
    """Run ``num_steps`` kernel applications after the initial slice and
    return only the final slice.  Memory-light: besides the slice being
    built and the previous one, it holds at most one lookahead pass per
    stochastic field, of at most ``rng._LOOKAHEAD_LANES`` Philox lanes.

    ``on_slice(values, batch)``, if given, is called with each slice in
    step order, 0 .. ``num_steps``, as soon as it is sampled; it may keep
    what it needs of the slice, which ``execute`` drops when the next one
    is built.  The CSV writer samples a :class:`Run` this way.

    Batch row ``r`` draws at row word ``r`` (:class:`RngStream`), or, with
    ``row_ids``, a 1-D integer array of run ids, at ``row_ids[r]``, so rows
    that share an id draw the same numbers.  The ids become the run's one
    :class:`ecosim.rng.Rows`, so they are checked and deduplicated once,
    and every stream of the run draws each distinct id once.  They must
    number the rows, which the initial slice checks even where no field
    draws.  A field whose draws keep their shape draws several steps'
    numbers in one pass (:meth:`ecosim.rng.Rows.ahead`), the numbers a
    stream of that step alone draws.  ``num_steps=0`` returns the initial
    slice.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    try:
        rows = Rows(row_ids, num_steps)
    except ValueError as e:
        raise ValueError(f"execute row_ids: {e}") from None
    for final, batch in _slices(net, num_steps, seed, rows):
        if rows.ids is not None and rows.ids.size != batch:  # one batch at every step
            raise ValueError(f"execute row_ids: {rows.ids.size} row ids for {batch} rows")
        if on_slice is not None:
            on_slice(final, batch)
    return final


# ---------------------------------------------------------------------------
# CSV artifacts


def _open_csv(path: Path, schema: str, header: Sequence[str]):
    """``path`` opened for writing, with the ``# schema=<schema>`` line and
    the header (through ``csv.writer``, so a field name that needs quoting
    is quoted) written."""
    fh = path.open("w", encoding="utf-8", newline="")
    fh.write(f"# schema={schema}\n")
    csv.writer(fh, lineterminator="\n").writerow(header)
    return fh


def write_csv(path: str | Path, schema: str, header: Sequence[str],
              lines: Iterable[str]) -> Path:
    """Write one CSV artifact: a ``# schema=<schema>`` line, the header,
    then ``lines``, body text already comma-joined and newline-terminated.
    Makes the parent directory; returns ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _open_csv(path, schema, header) as fh:
        fh.writelines(lines)
    return path


def _flat_columns(path: str, event: tuple[int, ...]) -> list[str]:
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


class _VariableCsv:
    """One variable's ``trajectory/1`` CSV, fed its payloads (a Value, or a
    dict from path to payload) a step at a time, and written under a
    temporary name beside ``path``.

    Steps are written a group at a time: as many as hold about
    ``numtext.CHUNK`` values of the widest field, and at least one.  A
    payload that is the previous step's own object (a carried field)
    reuses that step's text, so a field carried through the run is
    formatted once.  The others are copied into a buffer per field, made
    with the file, and formatted as one block per group.  What is held
    at once does not grow with the horizon.
    """

    def __init__(self, path: Path, first: Mapping, keys: list[str]):
        self.path, self.part, self.keys = path, path.with_name(f".{path.name}.part"), keys
        self.paths = [name for name, _ in first.items()]
        arrays = [as_array(first.get(name)) for name in self.paths]
        self._steps = max(1, CHUNK // max([1] + [arr.size for arr in arrays]))  # a group's
        self._buffers = [np.empty((self._steps,) + arr.shape, arr.dtype) for arr in arrays]
        header = ["step", "batch"]
        for name, arr in zip(self.paths, arrays):
            header += _flat_columns(name, arr.shape[1:])
        self._fh = _open_csv(self.part, "trajectory/1", header)
        self._last = [None] * len(self.paths)  # the previous step's payloads
        self._texts: list[list[str]] = [[] for _ in self.paths]  # and their text
        self._group: list[tuple[int, list[bool]]] = []  # (step, which payloads are new)
        self._held = [0] * len(self.paths)  # new payloads in the group, per field

    def add(self, step: int, value: Mapping) -> None:
        payloads = [value.get(path) for path in self.paths]
        new = [payload is not last for payload, last in zip(payloads, self._last)]
        for i, payload in enumerate(payloads):
            if new[i]:
                self._buffers[i][self._held[i]] = as_array(payload)
                self._held[i] += 1
        self._group.append((step, new))
        self._last = payloads
        if len(self._group) == self._steps:
            self.flush()

    def flush(self) -> None:
        """Format the group's new payloads, one block per field, and write
        its steps' rows."""
        batch = len(self.keys)
        fresh = []
        for buffer, held in zip(self._buffers, self._held):
            texts = _row_texts(buffer[:held], held * batch)
            fresh.append(iter([texts[j * batch:(j + 1) * batch] for j in range(held)]))
        for step, new in self._group:
            for i in range(len(self.paths)):
                if new[i]:
                    self._texts[i] = next(fresh[i])
            columns = [[str(step)] * batch, self.keys, *self._texts]
            self._fh.write("".join([",".join(cells) + "\n" for cells in zip(*columns)]))
        self._group, self._held = [], [0] * len(self.paths)

    def close(self) -> None:
        """Write the rest of the group and close the temporary file."""
        self.flush()
        self._fh.close()

    def discard(self) -> None:
        self._fh.close()
        self.part.unlink(missing_ok=True)


class _CsvWriter:
    """The CSVs of the slices it is called with in step order, an
    ``execute`` callback: one :class:`_VariableCsv` per variable of
    ``names``, made when step 0 comes.  The batch column numbers the rows
    from 0."""

    def __init__(self, outdir: Path, names: list[str]):
        self.outdir, self.names = outdir, names
        self.files: list[_VariableCsv] = []
        self.step = 0

    def __call__(self, values: Mapping[str, Mapping], batch: int | None) -> None:
        if self.step == 0:
            self.outdir.mkdir(parents=True, exist_ok=True)
            keys = [str(row) for row in range(batch)]
            for name in self.names:
                self.files.append(
                    _VariableCsv(self.outdir / f"{name}.csv", values[name], keys))
        for name, file in zip(self.names, self.files):
            file.add(self.step, values[name])
        self.step += 1

    def finish(self) -> list[Path]:
        """Write what is held, then rename every file into place."""
        for file in self.files:
            file.close()
        for file in self.files:
            os.replace(file.part, file.path)
        return [file.path for file in self.files]

    def discard(self) -> None:
        """Remove every file written so far, leaving ``outdir`` as it was."""
        for file in self.files:
            file.discard()


class Run:
    """A run that :func:`export_trajectory` samples as it writes:
    ``execute(net, horizon - 1, seed)``, each slice written and dropped.
    After the export, ``final`` is the run's last slice."""

    def __init__(self, net: Network, horizon: int, seed: int):
        if horizon < 1:
            raise ValueError(f"need at least one step (horizon >= 1), got {horizon}")
        self.net, self.horizon, self.seed = net, horizon, seed
        self.final: dict[str, Value] | None = None


def _replay(traj: Trajectory, writer: _CsvWriter) -> None:
    """Feed ``writer`` the record's slices in step order.  A stack of time
    stride 0, a broadcast, gives one payload object at every step."""
    stacks = {name: {path: as_array(stack) for path, stack in fields.items()}
              for name, fields in traj.fields.items()}
    carried = {(name, path): arr[0] for name, fields in stacks.items()
               for path, arr in fields.items() if arr.strides[0] == 0}
    for t in range(traj.steps):
        writer({name: {path: carried[name, path] if (name, path) in carried else arr[t]
                       for path, arr in fields.items()}
                for name, fields in stacks.items()}, traj.batch)


def export_trajectory(traj: Trajectory | Run, outdir: str | Path) -> list[Path]:
    """One ``trajectory/1`` CSV per variable, ``<outdir>/<variable>.csv``:
    step, batch (the row, from 0), then the flattened field paths.  Each
    value's cell is ``repr(float(v))`` or ``str(int(v))`` exactly
    (:func:`_row_texts`).  Returns the paths, in the variables' order.

    ``traj`` is a record, replayed a slice at a time, or a :class:`Run`,
    sampled through :func:`execute` with the writer as its per-slice
    callback, so only a group of steps is held at once.  Each file is
    written as ``.<variable>.csv.part`` and renamed into place after the
    last step; if sampling or writing raises, every such file is removed
    and no file in ``outdir`` has changed.
    """
    writer = _CsvWriter(Path(outdir), [v.name for v in traj.net.variables]
                        if isinstance(traj, Run) else list(traj.fields))
    try:
        if isinstance(traj, Run):
            traj.final = execute(traj.net, traj.horizon - 1, traj.seed, on_slice=writer)
        else:
            _replay(traj, writer)
        return writer.finish()
    except BaseException:
        writer.discard()
        raise
