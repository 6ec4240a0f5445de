import inspect
import sys

import pytest

import ecosim.cli
from perfbench.spans import Tracer, install, layer_metrics, self_times


def span(name, start, end, parent):
    return [name, start, end, parent, None]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [span("root", 0.0, 10.0, -1),
                 span("a", 1.0, 4.0, 0),
                 span("a.inner", 2.0, 3.0, 1),
                 span("b", 5.0, 6.0, 0)]
        assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("root", 0.0, 10.0, -1),
                 span("a", 2.0, 6.0, 0),
                 span("b", 4.0, 8.0, 0),
                 span("c", 9.0, 12.0, 0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_tracer_records_parents_and_durations(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        assert outer(1) == 3
        names = [(s[0], s[3]) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
        assert self_times(tracer.spans) == [5.0 - 2.0, 1.0, 1.0]


def _namespace_snapshot():
    """Every attribute of every ecosim module and of every class they define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ecosim" or name.startswith("ecosim.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


TINY_RUNS = [
    ["simulate", "--scenario", "ecosystem", "--horizon", "3",
     "--set", "num_runs=1", "--set", "num_users=6"],
    ["train-reinforce", "--horizon", "3", "--set", "population=4",
     "--set", "train.iterations=1"],
    ["fit-em", "--horizon", "3", "--set", "population=3", "--set", "em.iterations=1",
     "--set", "em.hmc_num_samples=1", "--set", "em.hmc_burn_in=0",
     "--set", "em.hmc_num_leapfrog=2"],
    ["ecosystem-sweep", "--horizon", "3", "--runs", "2", "--set", "num_users=6",
     "--set", "sweep.boost_caps=0,1"],
]


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setenv("ECOSIM_THREADS", "1")
    before = _namespace_snapshot()
    tracer = Tracer()
    patches, missing = install(tracer)
    try:
        out = tmp_path_factory.mktemp("traced")
        codes = [ecosim.cli.main(argv + ["--out", str(out / str(i))])
                 for i, argv in enumerate(TINY_RUNS)]
        patched = len(patches)
    finally:
        patches.restore()
        mp.undo()
    return dict(before=before, after=_namespace_snapshot(), tracer=tracer,
                missing=missing, codes=codes, patched=patched)


class TestTracedRun:
    def test_every_wrapped_callable_is_restored(self, traced_run):
        assert traced_run["patched"] > 0
        before, after = traced_run["before"], traced_run["after"]
        assert before.keys() == after.keys()
        changed = [k for k in before if before[k] is not after[k]]
        assert changed == []

    def test_all_targets_exist_and_commands_succeed(self, traced_run):
        assert traced_run["missing"] == []
        assert traced_run["codes"] == [0, 0, 0, 0]

    def test_every_layer_is_seen(self, traced_run):
        names = {s[0].split(".")[0] for s in traced_run["tracer"].spans}
        assert names >= {"rng", "dist", "tensor", "core", "scenarios", "behaviors",
                         "runtime", "logprob", "inference", "cli"}

    def test_layer_metrics_count_what_the_commands_did(self, traced_run):
        m = layer_metrics(traced_run["tracer"].spans)
        # hmc_sample: one gradient at the start, then num_leapfrog per proposal
        assert m["inference.hmc_grad_evals"] == 1 + 2
        assert m["cli.pool_tasks"] == 1 + 2  # one porl run, two sweep caps
        assert m["runtime.slices"] == 3 + 3 + 3 + 2 * 3  # simulate, porl, fit-em truth, sweep
        assert m["logprob.builder_replays"] > 0
        assert m["runtime.export_bytes"] > 0
        assert 0.0 <= m["inference.hmc_acceptance"] <= 1.0
        assert m["scenarios.ecosystem.slate.build_calls"] == 3 + 2 * 3
