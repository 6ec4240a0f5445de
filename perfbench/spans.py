"""Outside-in tracing of ecosim's layers.

A ``Tracer`` wraps public callables of each layer from outside the
program: every call becomes a span (name, start, end, parent, attrs) kept
in memory.  ``install`` patches each wrapper in wherever a caller looks the
name up (class attributes, and every ``ecosim`` module namespace that binds
a traced function), and ``Patches.restore`` puts every original back.
``layer_metrics`` turns a span list into the per-layer metrics.

Spans are named ``<module>.<callable>``; story builders are named
``scenarios.<story>.<variable>.build``.
"""

from __future__ import annotations

import functools
import os
import sys
import time

DIST_FAMILIES = ("Bernoulli", "Categorical", "Deterministic", "GaussianMixture",
                 "Normal", "PlackettLuce")
STORY_BUILDERS = {"build_porl_story": "porl",
                  "build_latent_sat_story": "latent_sat",
                  "build_ecosystem_story": "ecosystem"}


class Tracer:
    """Records one span per wrapped call; single-threaded, parent = caller span."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, attrs=None):
        """``attrs(args, kwargs, result)`` returns a dict stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self._clock()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner, name: str, value) -> None:
        namespace = vars(owner)
        self._undo.append((owner, name, name in namespace, namespace.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, existed, old = self._undo.pop()
            if existed:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __len__(self) -> int:
        return len(self._undo)


def _ecosim_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ecosim" or n.startswith("ecosim."))]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _uniform_count(args, kwargs, result):
    return {"n": int(result.size)}


def _tape_nodes(args, kwargs, result):
    return {"n": len(args[0])}


def _trajectory_slices(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 1, "horizon"))}


def _execute_slices(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 1, "num_steps")) + 1}


def _export_bytes(args, kwargs, result):
    return {"n": sum(os.path.getsize(p) for p in result)}


def _hmc_acceptance(args, kwargs, result):
    proposed = _arg(args, kwargs, 2, "cfg").num_samples
    return {"accepted": result[1] * proposed, "proposed": proposed}


def _network_of(built):
    return built[0] if isinstance(built, tuple) else built


def install(tracer: Tracer) -> tuple[Patches, list[str]]:
    """Wrap every traced callable; returns the patches and the targets not found.

    ecosim must already be imported.  A target missing from the program is
    skipped (its metrics read 0) and named in the returned list.
    """
    modules = {m.__name__: m for m in _ecosim_modules()}
    patches = Patches()
    missing: list[str] = []

    def method(module: str, cls: str, name: str, span: str, attrs=None):
        owner = getattr(modules.get(f"ecosim.{module}"), cls, None)
        if owner is None or name not in vars(owner):
            missing.append(f"ecosim.{module}.{cls}.{name}")
            return
        patches.set(owner, name, tracer.wrap(span, vars(owner)[name], attrs))

    def function(module: str, name: str, span: str, attrs=None, wrapper=None):
        original = getattr(modules.get(f"ecosim.{module}"), name, None)
        if original is None:
            missing.append(f"ecosim.{module}.{name}")
            return
        traced = tracer.wrap(span, wrapper(original) if wrapper else original, attrs)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.set(mod, key, traced)

    def story_builder(story: str):
        def wrap_builder(build):
            @functools.wraps(build)
            def build_traced(*args, **kwargs):
                built = build(*args, **kwargs)
                for var in _network_of(built).variables:
                    prefix = f"scenarios.{story}.{var.name}.build"
                    for slot in ("initial_fn", "kernel_fn"):
                        fn = getattr(var, slot)
                        if fn is not None:
                            patches.set(var, slot, tracer.wrap(prefix, fn))
                return built
            return build_traced
        return wrap_builder

    method("rng", "RngStream", "uniforms", "rng.RngStream.uniforms", _uniform_count)
    for family in DIST_FAMILIES:
        method("dist", family, "sample", f"dist.{family}.sample")
        method("dist", family, "log_prob", f"dist.{family}.log_prob")
    method("tensor", "Tape", "backward", "tensor.Tape.backward", _tape_nodes)
    method("core", "ValueSpec", "check_value", "core.ValueSpec.check_value")
    method("behaviors", "AffinityModel", "affinities", "behaviors.AffinityModel.affinities")
    method("behaviors", "ChoiceModel", "choice", "behaviors.ChoiceModel.choice")
    for builder, story in STORY_BUILDERS.items():
        function(f"scenarios.{story}", builder, f"scenarios.{builder}",
                 wrapper=story_builder(story))
    function("runtime", "trajectory", "runtime.trajectory", _trajectory_slices)
    function("runtime", "execute", "runtime.execute", _execute_slices)
    function("runtime", "export_trajectory", "runtime.export_trajectory", _export_bytes)
    function("logprob", "trajectory_log_prob_rows", "logprob.trajectory_log_prob_rows")
    function("inference", "hmc_sample", "inference.hmc_sample", _hmc_acceptance)
    function("inference", "reinforce_step", "inference.reinforce_step")
    method("inference", "Adam", "apply", "inference.Adam.apply")
    method("inference", "Sgd", "apply", "inference.Sgd.apply")
    function("cli", "_train_one", "cli._train_one")
    function("cli", "_sweep_one", "cli._sweep_one")
    return patches, missing


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _inside(spans, predicate) -> list[bool]:
    """Whether some strict ancestor of each span satisfies ``predicate``."""
    flags: list[bool] = []
    for name, _, _, parent, _ in spans:
        flags.append(parent >= 0 and (flags[parent] or predicate(spans[parent][0])))
    return flags


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    counted: dict[str, float] = {}
    for name, start, end, _, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        if attrs and "n" in attrs:
            counted[name] = counted.get(name, 0) + attrs["n"]

    m: dict[str, float] = {}
    uniforms = "rng.RngStream.uniforms"
    m["rng.uniform_calls"] = calls.get(uniforms, 0)
    m["rng.uniforms"] = counted.get(uniforms, 0)
    m["rng.busy_s"] = total.get(uniforms, 0.0)
    m["rng.ns_per_uniform"] = _ratio(m["rng.busy_s"] * 1e9, m["rng.uniforms"])

    for family in DIST_FAMILIES:
        for op in ("sample", "log_prob"):
            span = f"dist.{family}.{op}"
            m[f"dist.{family}.{op}_calls"] = calls.get(span, 0)
            m[f"dist.{family}.{op}_s"] = total.get(span, 0.0)

    backward = "tensor.Tape.backward"
    m["tensor.tapes"] = calls.get(backward, 0)
    m["tensor.tape_nodes"] = counted.get(backward, 0)
    m["tensor.backward_s"] = total.get(backward, 0.0)
    m["tensor.us_per_node"] = _ratio(m["tensor.backward_s"] * 1e6, m["tensor.tape_nodes"])

    m["core.spec_check_calls"] = calls.get("core.ValueSpec.check_value", 0)
    m["core.spec_check_s"] = total.get("core.ValueSpec.check_value", 0.0)

    for name in calls:
        if name.startswith("scenarios.") and name.endswith(".build"):
            stem = name[: -len(".build")]
            m[f"{stem}.build_s"] = total[name]
            m[f"{stem}.build_calls"] = calls[name]

    m["behaviors.AffinityModel.affinities_s"] = total.get(
        "behaviors.AffinityModel.affinities", 0.0)
    m["behaviors.ChoiceModel.choice_s"] = total.get("behaviors.ChoiceModel.choice", 0.0)

    loops = ("runtime.trajectory", "runtime.execute")
    selfs = self_times(spans)
    m["runtime.trajectory_s"] = total.get("runtime.trajectory", 0.0)
    m["runtime.execute_s"] = total.get("runtime.execute", 0.0)
    m["runtime.slices"] = sum(counted.get(name, 0) for name in loops)
    m["runtime.self_s"] = sum(s for span, s in zip(spans, selfs) if span[0] in loops)
    m["runtime.export_s"] = total.get("runtime.export_trajectory", 0.0)
    m["runtime.export_bytes"] = counted.get("runtime.export_trajectory", 0)
    m["runtime.export_mb_per_s"] = _ratio(m["runtime.export_bytes"] / 1e6, m["runtime.export_s"])

    score = "logprob.trajectory_log_prob_rows"
    in_score = _inside(spans, lambda parent: parent == score)
    m["logprob.score_calls"] = calls.get(score, 0)
    m["logprob.score_s"] = total.get(score, 0.0)
    m["logprob.builder_replays"] = sum(
        1 for span, inside in zip(spans, in_score)
        if inside and span[0].startswith("scenarios.") and span[0].endswith(".build"))

    hmc = "inference.hmc_sample"
    in_hmc = _inside(spans, lambda parent: parent == hmc)
    accepted = sum(s[4]["accepted"] for s in spans if s[0] == hmc)
    proposed = sum(s[4]["proposed"] for s in spans if s[0] == hmc)
    m["inference.hmc_grad_evals"] = sum(
        1 for span, inside in zip(spans, in_hmc) if inside and span[0] == backward)
    m["inference.hmc_leapfrog_s"] = _ratio(total.get(hmc, 0.0), m["inference.hmc_grad_evals"])
    m["inference.hmc_acceptance"] = _ratio(accepted, proposed)
    m["inference.reinforce_step_s"] = _ratio(total.get("inference.reinforce_step", 0.0),
                                             calls.get("inference.reinforce_step", 0))
    m["inference.optimizer_apply_s"] = (total.get("inference.Adam.apply", 0.0)
                                        + total.get("inference.Sgd.apply", 0.0))

    m["cli.pool_tasks"] = calls.get("cli._train_one", 0) + calls.get("cli._sweep_one", 0)
    return m
