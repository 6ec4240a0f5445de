"""Ancestral sampling of a Network over a horizon.

Slices are evaluated sequentially; within a slice, variables run in
topological order and every stochastic field is sampled through an
RngStream keyed by (seed, variable, path, step) and the batch row.
``trajectory`` retains every slice together with the distribution each
realization came from; ``execute`` keeps a two-slice ring buffer and
returns only the final slice.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CoreError, Network, Value, Variable
from .dist import Distribution
from .rng import RngStream
from .tensor import Tensor


class SimulationError(RuntimeError):
    """Raised when a builder output violates its spec during simulation."""


@dataclass
class Trajectory:
    """Per-variable, per-step record of sampled Values for a fixed horizon.

    ``dists`` retains, for each field and step, the distribution the
    realization was drawn from (None for deterministic fields).
    """

    horizon: int
    seed: int
    batch: int
    row_offset: int
    values: dict[str, list[Value]]
    dists: dict[str, list[dict[str, Distribution | None]]] = field(repr=False)

    def value(self, variable: str, step: int) -> Value:
        return self.values[variable][step]

    def last_slice(self) -> dict[str, Value]:
        return {name: steps[-1] for name, steps in self.values.items()}

    def field_distribution(self, variable: str, path: str, step: int) -> Distribution | None:
        return self.dists[variable][step][path]

    def field_log_prob(self, variable: str, path: str) -> np.ndarray:
        """Per-step, per-row log-probability of the realized field under
        the distribution it was sampled from (zero for deterministic)."""
        rows = []
        for t in range(self.horizon):
            d = self.dists[variable][t][path]
            if d is None:
                rows.append(np.zeros(self.batch))
            else:
                lp = d.log_prob(self.values[variable][t].get(path)).data
                rows.append(lp.sum(axis=tuple(range(1, lp.ndim))))
        return np.stack(rows)


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
    """Sample stochastic fields, spec-check, and return (value, dists, batch)."""
    where = f"variable {var.name!r} at step {step}"
    realized: dict[str, object] = {}
    dists: dict[str, Distribution | None] = {}
    for path in var.spec.paths:
        try:
            payload = out.get(path)
        except CoreError as e:
            raise SimulationError(f"{where}: builder did not emit field {path!r}") from e
        if isinstance(payload, Distribution):
            stream = RngStream(seed, var.name, path, step, row_offset)
            sample = payload.sample(stream)
            dists[path] = payload
        else:
            sample = payload
            dists[path] = None
        realized[path] = sample
    value = Value.of(realized)
    extra = set(out.paths) - set(var.spec.paths)
    if extra:
        raise SimulationError(f"{where}: builder emitted fields not in spec: {sorted(extra)}")
    try:
        batch = var.spec.check_value(value, batch, where)
    except CoreError as e:
        raise SimulationError(str(e)) from e
    return value, dists, batch


def _eval_slice(net: Network, step: int, previous: dict[str, Value] | None,
                seed: int, row_offset: int, batch: int | None):
    current: dict[str, Value] = {}
    dists: dict[str, dict[str, Distribution | None]] = {}
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
        current[var.name], dists[var.name], batch = _realize(
            var, out, step, seed, row_offset, batch)
    return current, dists, batch


def trajectory(net: Network, horizon: int, seed: int, *, row_offset: int = 0) -> Trajectory:
    """Sample all slices 0 .. horizon-1 and retain them."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values: dict[str, list[Value]] = {v.name: [] for v in net.variables}
    dists: dict[str, list[dict[str, Distribution | None]]] = {v.name: [] for v in net.variables}
    slice_vals = None
    batch = None
    for t in range(horizon):
        slice_vals, slice_dists, batch = _eval_slice(net, t, slice_vals, seed, row_offset, batch)
        for name in values:
            values[name].append(slice_vals[name])
            dists[name].append(slice_dists[name])
    return Trajectory(horizon=horizon, seed=seed, batch=int(batch),
                      row_offset=row_offset, values=values, dists=dists)


def execute(net: Network, num_steps: int, seed: int, *, row_offset: int = 0) -> dict[str, Value]:
    """Run ``num_steps`` kernel applications after the initial slice and
    return only the final slice (two-slice ring buffer; memory-light).

    ``num_steps=0`` returns the initial slice.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    slice_vals = None
    batch = None
    for t in range(num_steps + 1):
        slice_vals, _, batch = _eval_slice(net, t, slice_vals, seed, row_offset, batch)
    return slice_vals


# ---------------------------------------------------------------------------
# trajectory CSV export

_SCHEMA = "# schema=trajectory/1"


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


def write_variable_csv(traj: Trajectory, variable: str, out: io.TextIOBase) -> None:
    """One CSV per variable: step, batch, then flattened field paths.

    Rows are formatted whole and each step is written with one call.  A
    field whose payload has the same dtype and raw bytes as at the previous
    step (a carried field) reuses that step's text; equality of values is
    not enough, since ``-0.0 == 0.0`` and ``nan != nan`` print differently.
    """
    first = traj.values[variable][0]
    header = ["step", "batch"]
    for path in first.paths:
        header.extend(_flat_columns(path, first.get(path)))
    out.write(_SCHEMA + "\n")
    csv.writer(out, lineterminator="\n").writerow(header)
    batch_ids = [str(b + traj.row_offset) for b in range(traj.batch)]
    previous: dict[str, tuple[np.dtype, bytes, list[str]]] = {}
    for t in range(traj.horizon):
        value = traj.values[variable][t]
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
        out.write("".join([",".join(cells) + "\n" for cells in zip(*columns)]))


def export_trajectory(traj: Trajectory, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in traj.values:
        dest = outdir / f"{name}.csv"
        with dest.open("w", encoding="utf-8", newline="") as fh:
            write_variable_csv(traj, name, fh)
        written.append(dest)
    return written
