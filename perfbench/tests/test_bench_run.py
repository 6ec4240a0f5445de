import time

from perfbench.run import Bench


def test_non_zero_exit_counts_as_a_failed_run(tmp_path):
    bench = Bench(seed=0, work=tmp_path, deadline=time.monotonic() + 120)
    run = bench.run_cli(["simulate", "--scenario", "no-such-scenario"], 1, ())
    assert run.result["exit_code"] == 2
    assert run.output.problems == ["exit code 2"]
    assert not run.timed
    assert (bench.failed, len(bench.runs)) == (1, 1)


def test_successful_run_is_timed_and_checked(tmp_path):
    bench = Bench(seed=3, work=tmp_path, deadline=time.monotonic() + 120)
    run = bench.run_cli(["simulate", "--scenario", "count", "--horizon", "4"], 1,
                        ("count.csv", "summary.csv"))
    assert run.output.ok, run.output.problems
    assert run.timed
    assert run.result["wall_s"] > 0 and run.result["setup_s"] > 0
    assert bench.failed == 0
