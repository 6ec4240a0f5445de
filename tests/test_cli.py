import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ecosim.cli import _sweep_chunk, main


def run_cli(*argv):
    return main(list(argv))


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*.csv"))}


ECOSYSTEM_GOLDEN = {
    "centers.csv": "795f88146ae69e7bbd5bfc9c0eeaa0f2f14467c5929a17f5b90dee19994f6bb6",
    "choice.csv": "898cbb3d11f6b8312581d27d920dd502f2970d425a4e52b8316b21125603760d",
    "engagement.csv": "e023aa8d930902674e25a3b77c75d93bff15bce81d637c1f4a5b41f4189db330",
    "items.csv": "cfbacac6cb309daf7cdaaf397ba5af55a6e03eb706a9f9c53713999dfd7c1568",
    "jitter.csv": "1f5876f7c55342be977e1d1f5a53ddf2cc6a426ea7aaa93dc25ae1f595a844dc",
    "metrics.csv": "f819671be34b95129d7bf5ca031365e9f8846f9355c96ee58ae45831d019b0ca",
    "providers.csv": "19287dd95b031b5ebfa2ab2664df6bf8d3399e345399f1b29bc7ed6d9ef78c9f",
    "slate.csv": "711d9fbe445ddc50364cdb72dc2eaa8ce8eeb13b2bc0e95a25b104fd2395bbcb",
    "summary.csv": "971b9a86edf94cbeffcee1168598e4d84342eb117cb0f46aa507f30ed4257f46",
    "users.csv": "8c3f60660e3349ded96d3ea15c2f48f88086b5c45685c2fe7aea3c562b56a4d9",
    "utility.csv": "6ccbbf5516990cbe3f85a44980d1781d7b69e34b3fa45641ee62641e0e9a1ba8",
}


class TestSimulate:
    def test_count_scenario_produces_expected_column(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "count", "--horizon", "5",
                       "--out", str(out)) == 0
        lines = read(out / "count.csv").splitlines()
        assert lines[0] == "# schema=trajectory/1"
        assert lines[1] == "step,batch,n"
        assert [line.split(",")[2] for line in lines[2:]] == ["0", "1", "2", "3", "4"]

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        args = ("simulate", "--scenario", "latent-sat", "--seed", "9",
                "--set", "population=6", "--set", "horizon=4",
                "--set", "interest_dim=2")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_ecosystem_export_matches_golden_digests(self, tmp_path):
        # Pinned under the two-doubles-per-block stream; the CSV writer's
        # row formatting must keep writing these exact bytes.
        out = tmp_path / "eco"
        assert run_cli("simulate", "--scenario", "ecosystem",
                       "--set", "num_users=20", "--set", "num_providers=4",
                       "--set", "num_items=10", "--set", "horizon=5",
                       "--set", "num_runs=3", "--set", "slate_size=3",
                       "--out", str(out)) == 0
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in tree_bytes(out).items()}
        assert digests == ECOSYSTEM_GOLDEN

    def test_ecosystem_choice_and_utility_at_default_population(self, tmp_path):
        # 200 users, 100 items, k=8, 10 runs: the sizes at which the choice
        # and utility builders gather slate rows, pinned before they moved
        # to one row gather and a chosen-item utility.
        out = tmp_path / "eco"
        assert run_cli("simulate", "--scenario", "ecosystem", "--set", "horizon=3",
                       "--out", str(out)) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("choice.csv", "utility.csv")}
        assert digests == {
            "choice.csv": "b4dfbd38579290e86e0e14cea87a33d4c8f147ef2aa4821c44fbbd238c7a35c4",
            "utility.csv": "b5621cddb42e100df0e9930acdc28fccefeee1007f7104f82a9eb7b4bff9775e",
        }

    def test_invalid_horizon_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "count",
                       "--set", "horizon=0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_unknown_override_key_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "count",
                       "--set", "bogus=1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, tmp_path):
        assert run_cli("simulate", "--scenario", "nope",
                       "--out", str(tmp_path / "x")) == 2

    def test_dump_config_prints_resolved_values(self, capsys, tmp_path):
        code = run_cli("simulate", "--scenario", "count", "--horizon", "7",
                       "--dump-config", "--out", str(tmp_path / "x"))
        assert code == 0
        text = capsys.readouterr().out
        assert "scenario.horizon=7" in text
        assert "run.seed=0" in text

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scenario]\nhorizon = 3\n\n[run]\nseed = 5\n")
        code = run_cli("simulate", "--scenario", "count", "--config", str(cfg),
                       "--dump-config", "--set", "run.seed=8",
                       "--out", str(tmp_path / "x"))
        assert code == 0
        text = capsys.readouterr().out
        assert "scenario.horizon=3" in text
        assert "run.seed=8" in text

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("simulate", "--scenario", "count",
                       "--config", str(tmp_path / "none.ini"),
                       "--out", str(tmp_path / "x")) == 2


SMALL_TRAIN = ("--set", "population=20", "--set", "horizon=4",
               "--set", "corpus_size=8", "--set", "interest_dim=4",
               "--set", "train.iterations=3")


class TestTrainReinforce:
    def test_curve_has_exactly_iters_rows_per_column(self, tmp_path):
        out = tmp_path / "t"
        assert run_cli("train-reinforce", *SMALL_TRAIN, "--runs", "2",
                       "--set", "train.history_lengths=1,2",
                       "--out", str(out)) == 0
        lines = read(out / "reinforce_curve.csv").splitlines()
        assert lines[0] == "# schema=reinforce_curve/1"
        header = lines[1].split(",")
        assert header[0] == "iteration"
        # 2 histories x (2 seeds + avg)
        assert len(header) == 1 + 2 * 3
        assert len(lines) - 2 == 3

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("train-reinforce", *SMALL_TRAIN, "--out", str(out)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_rejects_other_scenarios(self, tmp_path):
        assert run_cli("train-reinforce", "--scenario", "count",
                       "--out", str(tmp_path / "x")) == 2


SMALL_EM = ("--set", "population=6", "--set", "horizon=4",
            "--set", "interest_dim=2", "--set", "em.iterations=2",
            "--set", "em.hmc_num_samples=3", "--set", "em.hmc_burn_in=1")


class TestFitEm:
    def test_outputs_trace_and_alpha_recovery(self, tmp_path):
        out = tmp_path / "em"
        assert run_cli("fit-em", *SMALL_EM, "--out", str(out)) == 0
        trace = read(out / "em_trace.csv").splitlines()
        assert trace[0] == "# schema=em_trace/1"
        assert trace[1] == "iteration,objective,acceptance_rate,wall_clock_ms"
        assert len(trace) - 2 == 2
        alpha = read(out / "alpha_recovery.csv").splitlines()
        assert alpha[1] == "user,true_alpha,estimated_alpha"
        assert len(alpha) - 2 == 6
        assert "alpha_pearson_r" in read(out / "summary.csv")

    def test_em_trace_keeps_wall_clock_ms_column(self, tmp_path):
        # the one timing field kept in a deterministic artifact, by design
        out = tmp_path / "em"
        assert run_cli("fit-em", *SMALL_EM, "--out", str(out)) == 0
        header, *rows = read(out / "em_trace.csv").splitlines()[1:]
        column = header.split(",").index("wall_clock_ms")
        assert column == 3
        assert len(rows) == 2
        assert all(float(row.split(",")[column]) > 0.0 for row in rows)

    def test_zero_iterations_emits_single_initial_row(self, tmp_path):
        out = tmp_path / "em0"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("fit-em", "--set", "population=4", "--set", "horizon=3",
                           "--set", "interest_dim=2", "--set", "em.iterations=0",
                           "--out", str(out)) == 0
        trace = read(out / "em_trace.csv").splitlines()
        assert len(trace) - 2 == 1
        # unfitted estimates are constant, so Pearson's r is undefined
        assert "0,alpha_pearson_r," in read(out / "summary.csv").splitlines()


SMALL_SWEEP = ("--set", "num_users=20", "--set", "num_providers=4",
               "--set", "num_items=12", "--set", "horizon=5",
               "--set", "num_runs=3", "--set", "interest_dim=3",
               "--set", "num_communities=2", "--set", "community_sizes=1,1",
               "--set", "slate_size=4")

SWEEP_GOLDEN = {
    "welfare.csv": "fbe705ea728d4678bd9f78d655a475504285c12e2249e47290499585b757a773",
    "welfare_summary.csv": "ad08ed432787ce33158fb354abb7cf37e72f3f35440192d99c5ffe7808f30adb",
}


class TestEcosystemSweep:
    def test_welfare_rows_and_summary(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("ecosystem-sweep", *SMALL_SWEEP,
                       "--set", "sweep.boost_caps=0,1.2",
                       "--out", str(out)) == 0
        lines = read(out / "welfare.csv").splitlines()
        assert lines[0] == "# schema=ecosystem_welfare/1"
        assert lines[1] == "boost_cap,run,cumulative_utility"
        assert len(lines) - 2 == 2 * 3
        summary = read(out / "welfare_summary.csv").splitlines()
        assert summary[1] == "boost_cap,mean,standard_error"
        assert len(summary) - 2 == 2

    def test_single_run_leaves_standard_error_empty(self, tmp_path):
        out = tmp_path / "sweep1"
        assert run_cli("ecosystem-sweep", *SMALL_SWEEP, "--runs", "1",
                       "--set", "num_runs=1",
                       "--set", "sweep.boost_caps=0.6",
                       "--out", str(out)) == 0
        row = read(out / "welfare_summary.csv").splitlines()[2]
        assert row.endswith(",")

    def test_deterministic_across_worker_counts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        env = os.environ.copy()
        try:
            os.environ["ECOSIM_THREADS"] = "1"
            assert run_cli("ecosystem-sweep", *SMALL_SWEEP,
                           "--set", "sweep.boost_caps=0,0.6",
                           "--out", str(a)) == 0
            # 4 workers split each cap's 3 rows into chunks of 2 and 1, so
            # the second run exercises row_offset keying.
            os.environ["ECOSIM_THREADS"] = "4"
            assert run_cli("ecosystem-sweep", *SMALL_SWEEP,
                           "--set", "sweep.boost_caps=0,0.6",
                           "--out", str(b)) == 0
        finally:
            os.environ.clear()
            os.environ.update(env)
        assert tree_bytes(a) == tree_bytes(b)

    def test_boosted_sweep_matches_golden_digests(self, tmp_path):
        # Pinned under the two-doubles-per-block stream; caps 0.6 and 1.2
        # run the boosted (adjust != 0) slate path, once in a two-worker
        # pool and once serially.
        digests = {}
        env = os.environ.copy()
        try:
            for threads in ("2", "1"):
                os.environ["ECOSIM_THREADS"] = threads
                out = tmp_path / threads
                assert run_cli("ecosystem-sweep", *SMALL_SWEEP,
                               "--set", "sweep.boost_caps=0,0.6,1.2",
                               "--out", str(out)) == 0
                digests[threads] = {
                    name: hashlib.sha256(data).hexdigest()
                    for name, data in tree_bytes(out).items()
                    if name.startswith("welfare")}
        finally:
            os.environ.clear()
            os.environ.update(env)
        assert digests["2"] == SWEEP_GOLDEN
        assert digests["1"] == SWEEP_GOLDEN


SCHEMA_HEAD = re.compile(rb"# schema=[a-z_]+/1\n[^\n]+\n")


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "count", "--horizon", "3"),
    ("simulate", "--scenario", "porl", *SMALL_TRAIN[:8]),
    ("simulate", "--scenario", "latent-sat", *SMALL_EM[:6]),
    ("simulate", "--scenario", "ecosystem", *SMALL_SWEEP),
    ("train-reinforce", *SMALL_TRAIN),
    ("fit-em", *SMALL_EM, "--set", "em.iterations=0"),
    ("fit-em", *SMALL_EM, "--set", "em.iterations=1"),
    ("ecosystem-sweep", *SMALL_SWEEP, "--set", "sweep.boost_caps=0,0.6"),
], ids=["simulate-count", "simulate-porl", "simulate-latent-sat", "simulate-ecosystem",
        "train-reinforce", "fit-em-0", "fit-em-1", "ecosystem-sweep"])
def test_every_artifact_opens_with_schema_and_header(argv, tmp_path):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert files
    for path in files:
        assert SCHEMA_HEAD.match(path.read_bytes()), path.name


@pytest.mark.parametrize("workers, chunk", [
    (1, 10), (2, 5), (3, 10), (4, 5), (5, 10), (6, 10), (8, 10), (10, 5),
    (16, 4)])
def test_sweep_chunk_at_the_default_sweep_size(workers, chunk):
    # 5 caps x 10 runs.  Halving the caps pays at 2 and 4 workers, where
    # whole caps would leave workers idle in the last wave; where whole
    # caps already fit in one wave (5 to 9 workers) they are not split.
    assert _sweep_chunk(10, 5, workers) == chunk


def test_module_entry_point_runs_without_runtime_warning():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ecosim.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
