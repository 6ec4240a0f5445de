"""The network description layer: Values, specs, Variables, Networks.

A Value is a dot-path-keyed map of fields and is the unit of state
exchanged between behaviors.  A Variable names one component random
variable of the factored process: its field specs, an initial-slice
builder, a transition-kernel builder, and declared dependencies on other
Variables (same slice or previous slice).  A Network validates a set of
Variables and fixes a deterministic evaluation order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dist import Distribution
from .tensor import Tensor


class CoreError(ValueError):
    """Raised for malformed Values, specs, or networks."""


def _normalize(payload):
    if isinstance(payload, (Distribution, Tensor)):
        return payload
    arr = np.asarray(payload)
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        return arr.astype(np.int64, copy=False)
    return Tensor(arr)


class Value:
    """An ordered map from dot-separated path to payload.

    Payloads are Tensors (continuous), int64 arrays (integer), or
    Distributions (stochastic fields awaiting sampling or scoring).
    Nested Values passed as payloads are flattened into dotted paths.
    """

    __slots__ = ("_fields",)

    def __init__(self, **fields):
        self._fields: dict[str, object] = {}
        for key, payload in fields.items():
            self._insert(key, payload)

    @classmethod
    def of(cls, mapping: Mapping[str, object]) -> "Value":
        v = cls()
        for key, payload in mapping.items():
            v._insert(key, payload)
        return v

    def _insert(self, key: str, payload) -> None:
        if isinstance(payload, Value):
            for sub, p in payload.items():
                self._insert(f"{key}.{sub}", p)
            return
        if key in self._fields:
            raise CoreError(f"duplicate path {key!r}")
        self._fields[key] = _normalize(payload)

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(self._fields)

    def items(self):
        return self._fields.items()

    def has(self, path: str) -> bool:
        prefix = path + "."
        return path in self._fields or any(k.startswith(prefix) for k in self._fields)

    def get(self, path: str):
        """Exact payload at ``path``, or the sub-Value under that prefix."""
        if path in self._fields:
            return self._fields[path]
        prefix = path + "."
        sub = {k[len(prefix):]: p for k, p in self._fields.items() if k.startswith(prefix)}
        if sub:
            return Value.of(sub)
        close = difflib.get_close_matches(path, self._fields, n=5, cutoff=0.0)
        raise CoreError(f"path {path!r} not found; nearest available: {close}")

    def union(self, other: "Value") -> "Value":
        merged = Value()
        merged._fields = dict(self._fields)
        for k, p in other.items():
            if k in merged._fields:
                raise CoreError(f"duplicate path {k!r}")
            merged._fields[k] = p
        return merged

    def __repr__(self) -> str:
        return f"Value({', '.join(self._fields)})"


CONTINUOUS = "continuous"
INTEGER = "integer"


@dataclass(frozen=True)
class FieldSpec:
    """Declared event shape and kind of one field.

    ``shape`` covers the trailing event axes only.  A realized payload
    has one leading axis, the population batch, uniform across a Network.
    When a trajectory is scored, builders also see payloads with a time
    axis in front of the batch, ``(steps, batch) + shape``; see
    :mod:`ecosim.logprob`.
    """

    shape: tuple[int, ...] = ()
    kind: str = CONTINUOUS

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, INTEGER):
            raise CoreError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))


class ValueSpec:
    """A map of FieldSpecs describing every field a Variable emits.

    A field name may not contain ``|``, which separates the parts of a
    random stream's key (see :mod:`ecosim.rng`).
    """

    def __init__(self, **fields: FieldSpec):
        for path in fields:
            if "|" in path:
                raise CoreError(f"field name {path!r} contains the stream-key separator '|'")
        self._fields: dict[str, FieldSpec] = dict(fields)

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(self._fields)

    def field(self, path: str) -> FieldSpec:
        return self._fields[path]

    def items(self):
        return self._fields.items()

    def check_payload(self, path: str, payload, batch: int | None, where: str) -> int:
        """Validate one realized payload; returns the batch extent."""
        spec = self._fields[path]
        if isinstance(payload, Distribution):
            raise CoreError(f"{where}: field {path!r} was not sampled")
        if spec.kind == INTEGER:
            if isinstance(payload, Tensor):
                raise CoreError(f"{where}: field {path!r} must be integer, got float tensor")
            shape = payload.shape
        else:
            if not isinstance(payload, Tensor):
                raise CoreError(f"{where}: field {path!r} must be continuous, got {type(payload).__name__}")
            shape = payload.shape
        if len(shape) != 1 + len(spec.shape) or shape[1:] != spec.shape:
            raise CoreError(
                f"{where}: field {path!r} has shape {shape}, expected (batch,) + {spec.shape}")
        if batch is not None and shape[0] != batch:
            raise CoreError(
                f"{where}: field {path!r} batch {shape[0]} != network batch {batch}")
        return shape[0]

    def check_value(self, value: Value, batch: int | None, where: str) -> int:
        got = set(value.paths)
        want = set(self._fields)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            raise CoreError(f"{where}: fields do not match spec "
                            f"(missing {missing}, unexpected {extra})")
        for path in self._fields:
            batch = self.check_payload(path, value.get(path), batch, where)
        return batch  # type: ignore[return-value]


class Dep(NamedTuple):
    """A dependency edge: the referenced Variable and its slice mode."""

    variable: "Variable"
    previous: bool


class Variable:
    """A named component random variable of the factored process.

    The name may not contain ``|``, which separates the parts of a random
    stream's key, nor ``.``, which separates a variable from a field path
    in ``"variable.path"`` references.
    """

    def __init__(self, name: str, spec: ValueSpec):
        for sep in "|.":
            if sep in name:
                raise CoreError(f"variable name {name!r} contains the separator {sep!r}")
        self.name = name
        self.spec = spec
        self.initial_fn: Callable | None = None
        self.initial_deps: tuple[Dep, ...] = ()
        self.kernel_fn: Callable | None = None
        self.kernel_deps: tuple[Dep, ...] = ()

    @property
    def previous(self) -> Dep:
        return Dep(self, True)

    @staticmethod
    def _as_deps(deps: Sequence) -> tuple[Dep, ...]:
        out = []
        for d in deps:
            if isinstance(d, Dep):
                out.append(d)
            elif isinstance(d, Variable):
                out.append(Dep(d, False))
            else:
                raise CoreError(f"dependency must be a Variable or Variable.previous, got {d!r}")
        return tuple(out)

    def bind_initial(self, fn: Callable, deps: Sequence = ()) -> "Variable":
        """Builder for slice 0; dependencies must be current-mode."""
        self.initial_fn = fn
        self.initial_deps = self._as_deps(deps)
        return self

    def bind_kernel(self, fn: Callable, deps: Sequence = ()) -> "Variable":
        """Transition builder for slices t >= 1."""
        self.kernel_fn = fn
        self.kernel_deps = self._as_deps(deps)
        return self

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


def _topo_order(variables: Sequence[Variable],
                current_deps: Callable[[Variable], Iterable[Variable]],
                what: str) -> tuple[Variable, ...]:
    """Kahn's algorithm, stable by declaration order among ready nodes."""
    index = {v: i for i, v in enumerate(variables)}
    pending = {v: {d for d in current_deps(v)} for v in variables}
    order: list[Variable] = []
    done: set[Variable] = set()
    while len(order) < len(variables):
        ready = [v for v in variables if v not in done and pending[v] <= done]
        if not ready:
            cycle = _find_cycle([v for v in variables if v not in done], current_deps)
            names = " -> ".join(v.name for v in cycle)
            raise CoreError(f"{what} dependency cycle: {names}")
        nxt = min(ready, key=index.__getitem__)
        order.append(nxt)
        done.add(nxt)
    return tuple(order)


def _find_cycle(remaining: Sequence[Variable], current_deps) -> list[Variable]:
    remaining_set = set(remaining)
    seen: dict[Variable, int] = {}
    walk: list[Variable] = []
    v = remaining[0]
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v = next(d for d in current_deps(v) if d in remaining_set)
    return walk[seen[v]:] + [v]


class Network:
    """A validated set of Variables with fixed evaluation orders.

    Intra-slice (current-mode) dependencies must form a DAG; inter-slice
    dependencies impose no ordering constraint.  The initial slice may
    use a different intra-slice graph than the transition kernel.
    """

    def __init__(self, variables: Sequence[Variable]):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise CoreError(f"duplicate variable names: {dup}")
        members = set(variables)
        for v in variables:
            if v.initial_fn is None:
                raise CoreError(f"variable {v.name!r} has no initial builder")
            if v.kernel_fn is None:
                raise CoreError(f"variable {v.name!r} has no kernel builder")
            for dep in v.initial_deps:
                if dep.previous:
                    raise CoreError(
                        f"variable {v.name!r}: initial builder cannot depend on "
                        f"{dep.variable.name!r}.previous (slice 0 has no predecessor)")
            for dep in v.initial_deps + v.kernel_deps:
                if dep.variable not in members:
                    raise CoreError(
                        f"variable {v.name!r} depends on {dep.variable.name!r}, "
                        f"which is not in the network")
        self.variables = variables
        self.by_name = {v.name: v for v in variables}
        self.order = _topo_order(
            variables,
            lambda v: (d.variable for d in v.kernel_deps if not d.previous),
            "intra-slice")
        self.initial_order = _topo_order(
            variables,
            lambda v: (d.variable for d in v.initial_deps),
            "initial-slice")

    def __repr__(self) -> str:
        return f"Network([{', '.join(v.name for v in self.variables)}])"
