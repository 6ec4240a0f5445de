"""Ancestral sampling of a Network over a horizon.

Slices are evaluated sequentially; within a slice, variables run in
topological order and every stochastic field is sampled through an
RngStream keyed by (seed, variable, path, step) and the batch row.  A
sampled field keeps only its realized value: the distribution a builder
emitted is dropped once sampled, and log-probabilities come from replaying
the builders on the values (:mod:`ecosim.logprob`).  ``trajectory``
retains every slice; ``execute`` keeps only the slice being built and the
previous one, and returns the final slice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import CoreError, Network, Value, Variable
from .dist import Distribution
from .rng import RngStream
from .tensor import Tensor


class SimulationError(RuntimeError):
    """Raised when a builder output violates its spec during simulation."""


@dataclass
class Trajectory:
    """Per-variable, per-step record of the sampled Values for a fixed
    horizon; values only (score it through :mod:`ecosim.logprob`)."""

    horizon: int
    batch: int
    row_offset: int
    values: dict[str, list[Value]]

    def value(self, variable: str, step: int) -> Value:
        return self.values[variable][step]

    def last_slice(self) -> dict[str, Value]:
        return {name: steps[-1] for name, steps in self.values.items()}


def _resolve_deps(deps, current: dict[str, Value], previous: dict[str, Value] | None):
    args = []
    for dep in deps:
        if dep.previous:
            assert previous is not None
            args.append(previous[dep.variable.name])
        else:
            args.append(current[dep.variable.name])
    return args


def _realize(var: Variable, out: Value, step: int, seed: int, row_offset: int,
             batch: int | None):
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
                seed: int, row_offset: int, batch: int | None):
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


def _slices(net: Network, count: int, seed: int, row_offset: int):
    """Yield (slice, batch) for slices 0 .. count-1; each slice is built
    from the one before it, and the generator holds no other."""
    current = None
    batch = None
    for t in range(count):
        current, batch = _eval_slice(net, t, current, seed, row_offset, batch)
        yield current, batch


def trajectory(net: Network, horizon: int, seed: int, *, row_offset: int = 0) -> Trajectory:
    """Sample all slices 0 .. horizon-1 and retain their values."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values: dict[str, list[Value]] = {v.name: [] for v in net.variables}
    for current, batch in _slices(net, horizon, seed, row_offset):
        for name, steps in values.items():
            steps.append(current[name])
    return Trajectory(horizon=horizon, batch=int(batch), row_offset=row_offset,
                      values=values)


def execute(net: Network, num_steps: int, seed: int, *, row_offset: int = 0) -> dict[str, Value]:
    """Run ``num_steps`` kernel applications after the initial slice and
    return only the final slice.  Memory-light: besides the slice being
    built, only the previous one is kept.

    ``num_steps=0`` returns the initial slice.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    for current, _ in _slices(net, num_steps + 1, seed, row_offset):
        pass
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


def _flat_columns(path: str, payload) -> list[str]:
    arr = payload.data if isinstance(payload, Tensor) else payload
    event = arr.shape[1:]
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
    """A variable's CSV body, one text block per step.

    A field whose payload has the same dtype and raw bytes as at the
    previous step (a carried field) reuses that step's text; equality of
    values is not enough, since ``-0.0 == 0.0`` and ``nan != nan`` print
    differently.
    """
    batch_ids = [str(b + traj.row_offset) for b in range(traj.batch)]
    previous: dict[str, tuple[np.dtype, bytes, list[str]]] = {}
    for t, value in enumerate(traj.values[variable]):
        columns = [[str(t)] * traj.batch, batch_ids]
        for path in value.paths:
            payload = value.get(path)
            arr = payload.data if isinstance(payload, Tensor) else payload
            raw = arr.tobytes()
            kept = previous.get(path)
            if kept is not None and kept[0] == arr.dtype and kept[1] == raw:
                rows = kept[2]
            else:
                rows = _row_texts(arr, traj.batch)
                previous[path] = (arr.dtype, raw, rows)
            columns.append(rows)
        yield "".join([",".join(cells) + "\n" for cells in zip(*columns)])


def export_trajectory(traj: Trajectory, outdir: str | Path) -> list[Path]:
    """One ``trajectory/1`` CSV per variable, ``<outdir>/<variable>.csv``:
    step, batch, then the flattened field paths."""
    written = []
    for name, steps in traj.values.items():
        header = ["step", "batch"]
        for path in steps[0].paths:
            header.extend(_flat_columns(path, steps[0].get(path)))
        written.append(write_csv(Path(outdir) / f"{name}.csv", "trajectory/1", header,
                                 _step_blocks(traj, name)))
    return written
