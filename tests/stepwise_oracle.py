"""Per-step replay scoring, kept only as a test oracle.

Slice t is scored by one call of every builder on the observed slices t
and t-1, for t = 0 .. num_steps, and each field's log-probability is
summed to rows step by step.  ``ecosim.logprob`` scores the same slices
with one time-batched kernel call per Variable; the two must agree.
"""

import ecosim.tensor as T
from ecosim.dist import Deterministic, Distribution
from ecosim.runtime import _resolve_deps


def stepwise_log_prob_rows(net, traj, num_steps, only=None):
    only = set(only) if only is not None else None
    total = T.zeros((traj.batch,))
    for t in range(num_steps + 1):
        current = {name: traj.value(name, t) for name in traj.specs}
        previous = ({name: traj.value(name, t - 1) for name in traj.specs}
                    if t > 0 else None)
        for var in (net.initial_order if t == 0 else net.order):
            if t == 0:
                out = var.initial_fn(*_resolve_deps(var.initial_deps, current, None))
            else:
                out = var.kernel_fn(*_resolve_deps(var.kernel_deps, current, previous))
            for path in var.spec.paths:
                emitted = out.get(path)
                observed = current[var.name].get(path)
                if not isinstance(emitted, Distribution):
                    assert Deterministic(emitted).is_consistent(observed), (var.name, path, t)
                    continue
                if only is not None and (var.name, path) not in only:
                    continue
                lp = emitted.log_prob(observed)
                if lp.ndim > 1:
                    lp = T.reduce_sum(lp, axis=tuple(range(1, lp.ndim)))
                total = T.add(total, lp)
    return total
