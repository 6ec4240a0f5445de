"""Per-step sampling and replay scoring, kept only as test oracles.

:func:`stepwise_slices` samples a run one step a pass: every stream of
step t draws step t's numbers alone, under a ``Rows`` with no lookahead.
``ecosim.runtime`` draws several steps of a field in one pass; the two
must give the same slices.

Slice t is scored by one call of every builder on the observed slices t
and t-1, for t = 0 .. num_steps, and each field's log-probability is
summed to rows step by step.  ``ecosim.logprob`` scores the same slices
with one time-batched kernel call per Variable; the two must agree.
"""

import ecosim.tensor as T
from ecosim.core import Value
from ecosim.dist import Deterministic, Distribution
from ecosim.rng import RngStream, Rows
from ecosim.runtime import builder_calls


def stepwise_slices(net, horizon, seed, row_ids=None):
    """Slices 0 .. horizon-1 of ``net``, each a dict from variable name to
    Value, every stochastic field drawn one step a pass."""
    rows, slices, previous = Rows(row_ids), [], None
    for step in range(horizon):
        current = {}
        for var, fn, args in builder_calls(net, current, previous):
            current[var.name] = Value(**{
                path: payload.sample(RngStream(seed, var.name, path, step, rows))
                if isinstance(payload, Distribution) else payload
                for path, payload in fn(*args).items()})
        slices.append(current)
        previous = current
    return slices


def replay_slice(net, obs, t):
    """What each builder emits at step t on the observed slices t and t-1,
    keyed by variable name in evaluation order."""
    emitted = {}
    for var in (net.initial_order if t == 0 else net.order):
        if t == 0:
            fn, deps = var.initial_fn, var.initial_deps
        else:
            fn, deps = var.kernel_fn, var.kernel_deps
        emitted[var.name] = fn(*(obs.value(dep.variable.name, t - 1 if dep.previous else t)
                                 for dep in deps))
    return emitted


def stepwise_log_prob_rows(net, traj, num_steps, only=None):
    only = set(only) if only is not None else None
    total = T.zeros((traj.batch,))
    for t in range(num_steps + 1):
        for name, out in replay_slice(net, traj, t).items():
            for path in net.by_name[name].spec.paths:
                emitted = out.get(path)
                observed = traj.value(name, t).get(path)
                if not isinstance(emitted, Distribution):
                    assert Deterministic(emitted).is_consistent(observed), (name, path, t)
                    continue
                if only is not None and (name, path) not in only:
                    continue
                lp = emitted.log_prob(observed)
                if lp.ndim > 1:
                    lp = T.reduce_sum(lp, axis=tuple(range(1, lp.ndim)))
                total = T.add(total, lp)
    return total
