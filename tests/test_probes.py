"""The benchmark's layer probes call ecosim's API directly; this runs them
once so that an API change they depend on fails here, not only in a traced
benchmark run."""

import math

from perfbench.probes import run_probes


def test_every_probe_runs_and_reports_a_finite_metric(tmp_path):
    metrics = run_probes(tmp_path)
    assert len(metrics) == 17
    assert all(name.startswith("probe.") for name in metrics)
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []
