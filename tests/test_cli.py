import ctypes
import hashlib
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ecosim.cli import _build_scenario, _resolve, _sweep_slices, _workers, build_parser, main
from ecosim.runtime import export_trajectory, trajectory, write_csv
from ecosim.scenarios import EcosystemConfig
from ecosim.tensor import as_array


def run_cli(*argv):
    return main(list(argv))


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*.csv"))}


ECOSYSTEM_GOLDEN = {
    "centers.csv": "824b1002562c98975d088b47e06c6ebd818100ee3294f3ba38b4c4e17724fa12",
    "choice.csv": "898cbb3d11f6b8312581d27d920dd502f2970d425a4e52b8316b21125603760d",
    "engagement.csv": "e023aa8d930902674e25a3b77c75d93bff15bce81d637c1f4a5b41f4189db330",
    "items.csv": "acf0016d114717423336e2f96ee466be9e31e880194f75cf8914bd864cf164aa",
    "jitter.csv": "a28e3df325eb1046031f6c15b4b628489256b82b584b2852199900459bfb0328",
    "metrics.csv": "5633ff97d6103738791422da7fe79c9e46da1f01254a5a0cb834906690e354aa",
    "providers.csv": "e3719aede8fde031a9d7ae68ca613aa55d2c91fcaf88e07ab4f6a1f75d57b6b2",
    "slate.csv": "711d9fbe445ddc50364cdb72dc2eaa8ce8eeb13b2bc0e95a25b104fd2395bbcb",
    "summary.csv": "f0180207cbdbcfadfecebe745ecf58154b5521146deea5233bbce777cc0a6bf2",
    "users.csv": "69ec84c93684ffede0c3ff838f6f47d7b03f0254334cd7300075921d85736040",
    "utility.csv": "5e76759fccd2862d81a03f8a797d18019bd53067d3980e9d26acc6fa8e4df2a8",
}

PORL_GOLDEN = {
    "choice.csv": "9aa29b329d9dbbe3c820853fc2e421a73ca1653fbc1eba7320d1e9403089e58d",
    "consumed.csv": "8bf81ffc9b4846b9e2346be2d9b35bb52bb2a37a6471c64237ac0842311614e3",
    "corpus.csv": "c84141be572b5f735326fa961b7f08f695a266e384ed00cf3c826f95bc6c04f2",
    "corpus_topics.csv": "d8266253de49b159716bd5b8a6a5bcfae4410668d41a96ee4adb5bc14058aa7b",
    "engagement.csv": "1b1eb324a311aa57188bcf9db2a7723994205dee8287cefed518d58e1955fb09",
    "history.csv": "612ef5983310d44628206546cd10301b60116058f4dce70f426570001b04c26c",
    "metrics.csv": "9925bf055fa87ceb8865bf5df23ad7fad8cede71fa1a90672e46a39b6aad2e84",
    "slate.csv": "cf608f74c795b59026889d54c42df92f56cb243438fa7bd8406f0f509d2c9b0b",
    "summary.csv": "46f6292910fa699e3b3fd48957a6f4682a982d1ca8dcbb5e7ae899dc64e11812",
    "user_state.csv": "15fdce7c12708d0eb31345fb4e528c7b9d7036cf44d224672eea4bb41447758e",
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
        # Pinned under stream layout v3; the CSV writer's
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

    def test_porl_export_matches_golden_digests(self, tmp_path):
        # Every porl CSV at SMALL_TRAIN sizes, history.csv (each window's
        # topics, engagement and mask) and consumed.csv included.
        out = tmp_path / "porl"
        assert run_cli("simulate", "--scenario", "porl", *SMALL_TRAIN[:8],
                       "--out", str(out)) == 0
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in tree_bytes(out).items()}
        assert digests == PORL_GOLDEN

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
            "utility.csv": "de618040c1f42652af70c81fcaa3284434884cc7258fa87ef883735cf4ecd221",
        }

    def test_invalid_horizon_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "count",
                       "--set", "horizon=0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, field", [
        ("population=0", "population"),
        ("embed_dim=0", "embed_dim"),
        ("hidden_width=4", "hidden_width"),
        ("embed_dim=40", "hidden_width"),
    ])
    def test_bad_porl_setting_exits_2_naming_the_field(self, setting, field, tmp_path,
                                                       capsys):
        code = run_cli("simulate", "--scenario", "porl", "--set", setting,
                       "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("lengths", ["a", "2,0"])
    def test_bad_history_lengths_is_a_configuration_error(self, lengths, tmp_path,
                                                           capsys):
        assert run_cli("train-reinforce", *SMALL_TRAIN,
                       "--set", f"train.history_lengths={lengths}",
                       "--out", str(tmp_path / "x")) == 2
        assert "history_lengths" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_ecosim_threads_is_a_configuration_error(self, threads, tmp_path,
                                                          capsys, monkeypatch):
        monkeypatch.setenv("ECOSIM_THREADS", threads)
        assert run_cli("train-reinforce", *SMALL_TRAIN,
                       "--out", str(tmp_path / "x")) == 2
        assert "ECOSIM_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [None, ""])
    def test_unset_or_empty_ecosim_threads_means_the_cpu_count(self, threads,
                                                               monkeypatch):
        if threads is None:
            monkeypatch.delenv("ECOSIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("ECOSIM_THREADS", threads)
        assert _workers(10**6) == (len(os.sched_getaffinity(0))
                                   if hasattr(os, "sched_getaffinity")
                                   else os.cpu_count() or 1)

    def test_default_worker_count_follows_the_cpu_affinity(self, monkeypatch):
        # Under taskset or a cpuset the process may use fewer CPUs than
        # the machine has; the default must not oversubscribe them.
        monkeypatch.delenv("ECOSIM_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert _workers(10**6) == 3
        assert _workers(2) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _workers(10**6) == 64

    def test_artifacts_match_golden_digests(self, tmp_path):
        # Pinned so that a change to sampling, replay scoring or the
        # optimizer step shows as moved bytes.
        out = tmp_path / "t"
        assert run_cli("train-reinforce", *SMALL_TRAIN, "--out", str(out)) == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(out).items()} == {
            "reinforce_curve.csv":
                "0016d51fa2be373d5dbe44bc7f6f401eb6e44023e70b96bc6e6834c8b443c74f",
            "reinforce_summary.csv":
                "80b0c71440375629ba375868b52a69a72a158146df133366cde021707fa2912c",
        }


SMALL_EM = ("--set", "population=6", "--set", "horizon=4",
            "--set", "interest_dim=2", "--set", "em.iterations=2",
            "--set", "em.hmc_num_samples=3", "--set", "em.hmc_burn_in=1")


def em_trace_without_timing(path: Path) -> bytes:
    """em_trace.csv without its last column, ``wall_clock_ms``."""
    return "".join(",".join(line.split(",")[:3]) + "\n"
                   for line in read(path).splitlines()).encode()


class TestFitEm:
    def test_artifacts_match_golden_digests(self, tmp_path):
        # Pinned so that a change to the E-step, the M-step or how an
        # injected latent's gradient is summed shows as moved bytes.
        out = tmp_path / "em"
        assert run_cli("fit-em", *SMALL_EM, "--out", str(out)) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("alpha_recovery.csv", "summary.csv")}
        digests["em_trace.csv"] = hashlib.sha256(
            em_trace_without_timing(out / "em_trace.csv")).hexdigest()
        assert digests == {
            "alpha_recovery.csv":
                "3667192bde1531e38c170278ef285885453890d375cde75af3f2d5875f2fdca8",
            "summary.csv":
                "2e2ac7737c07fb4adcbb6f629bdec1eca4e12e855d890c96889ef0bad2ccdf20",
            "em_trace.csv":
                "e7188f055a3e341a3d8eab5b1942f299714712822576ae26c3dc076e63f8fe07",
        }

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

    @pytest.mark.parametrize("setting", [
        "hmc_num_samples=0", "hmc_step_size=0", "hmc_step_size=-0.1", "hmc_step_size=nan",
        "hmc_num_leapfrog=0", "hmc_burn_in=-1"])
    def test_out_of_range_hmc_setting_is_a_configuration_error(self, setting, tmp_path,
                                                                capsys):
        assert run_cli("fit-em", *SMALL_EM, "--set", "em." + setting,
                       "--out", str(tmp_path / "x")) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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
    "welfare.csv": "2e5cf5c73961461f56ca2740e7f5a1ab5d5957a6cd92421d260d3865b08c33c4",
    "welfare_summary.csv": "85bfe0eec13da8a2ed2c118dfb322ab140dc9273071aa17542eefd8cbeea297b",
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

    @pytest.mark.parametrize("runs, rows", [(("--runs", "1"), 1), (("--runs", "3"), 3),
                                            ((), 2)], ids=["runs-1", "runs-3", "no-flag"])
    def test_explicit_run_count_wins_over_num_runs(self, runs, rows, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("ecosystem-sweep", *SMALL_SWEEP, "--set", "num_runs=2", *runs,
                       "--set", "sweep.boost_caps=0,0.6", "--out", str(out)) == 0
        lines = read(out / "welfare.csv").splitlines()[2:]
        assert [line.split(",")[:2] for line in lines] == [
            [cap, str(r)] for cap in ("0.0", "0.6") for r in range(rows)]

    @pytest.mark.parametrize("caps", ["0,x", "0.6,-1"])
    def test_bad_boost_caps_is_a_configuration_error(self, caps, tmp_path, capsys):
        assert run_cli("ecosystem-sweep", *SMALL_SWEEP,
                       "--set", f"sweep.boost_caps={caps}",
                       "--out", str(tmp_path / "x")) == 2
        assert "boost_caps" in capsys.readouterr().err

    def test_deterministic_across_worker_counts(self, tmp_path):
        # 3 runs x 3 caps = 9 (run, cap) rows, run-major: 2 workers split
        # them 5 + 4, 3 workers 3 + 3 + 3 and 4 workers 3 + 2 + 2 + 2, so
        # tasks start mid-run, stack rows of one or two runs, and hold
        # repeated run ids, which each draw computes once and gathers.
        # A task's lookahead windows depend on its distinct runs, so they
        # differ between the tasks and the splits.
        trees = {}
        env = os.environ.copy()
        try:
            for threads in ("1", "2", "3", "4"):
                os.environ["ECOSIM_THREADS"] = threads
                out = tmp_path / threads
                assert run_cli("ecosystem-sweep", *SMALL_SWEEP,
                               "--set", "sweep.boost_caps=0,0.6,1.2",
                               "--out", str(out)) == 0
                trees[threads] = tree_bytes(out)
        finally:
            os.environ.clear()
            os.environ.update(env)
        for threads in ("2", "3", "4"):
            assert trees[threads] == trees["1"], threads

    def test_boosted_sweep_matches_golden_digests(self, tmp_path):
        # Pinned under stream layout v3; caps 0.6 and 1.2
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


@pytest.mark.parametrize("argv, setting, message", [
    (("fit-em", *SMALL_EM), "em.learning_rate=nan", "bad value 'nan' for em.learning_rate"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "items_engagement_rate=nan",
     "bad value 'nan' for scenario.items_engagement_rate"),
    (("simulate", "--scenario", "porl", *SMALL_TRAIN[:8]), "sensitivity=-inf",
     "bad value '-inf' for scenario.sensitivity"),
    (("ecosystem-sweep", *SMALL_SWEEP), "sweep.boost_caps=nan",
     "bad value 'nan' for sweep.boost_caps"),
    (("ecosystem-sweep", *SMALL_SWEEP), "sweep.boost_caps=0.6,inf",
     "bad value '0.6,inf' for sweep.boost_caps"),
    (("ecosystem-sweep", *SMALL_SWEEP), "sweep.boost_caps=",
     "sweep.boost_caps must name at least one cap"),
    (("fit-em", *SMALL_EM), "em.learning_rate=-1", "learning_rate must be positive"),
    (("train-reinforce", *SMALL_TRAIN), "train.learning_rate=0",
     "learning_rate must be positive"),
    (("train-reinforce", *SMALL_TRAIN), "train.history_lengths=3,3",
     "train.history_lengths lists 3 more than once"),
    (("ecosystem-sweep", *SMALL_SWEEP), "sweep.boost_caps=1,1",
     "sweep.boost_caps lists 1.0 more than once"),
], ids=["em-scalar", "optional-scalar", "negative-infinity", "cap", "cap-list-item",
        "no-caps", "em-negative-rate", "train-zero-rate", "repeated-history",
        "repeated-cap"])
def test_non_finite_setting_or_empty_cap_list_exits_2(argv, setting, message, tmp_path,
                                                      capsys):
    out = tmp_path / "x"
    assert run_cli(*argv, "--set", setting, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (("train-reinforce", *SMALL_TRAIN, "--set", "param_seed=7"), "param_seed"),
    (("train-reinforce", *SMALL_TRAIN, "--set", "train.optimizer=sgd"), "optimizer"),
    (("fit-em", *SMALL_EM, "--set", "em.m_steps=2"), "m_steps"),
], ids=["param_seed=7", "train.optimizer=sgd", "em.m_steps=2"])
def test_removed_setting_is_an_unknown_key(argv, key, tmp_path, capsys):
    # Each run's policy parameters come from its own seed, the optimizer is
    # Adam and the EM does one M-step per iteration: none is a setting.
    out = tmp_path / "x"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "count", "--runs", "5"),
    ("fit-em", *SMALL_EM, "--runs", "3"),
], ids=["simulate", "fit-em"])
def test_single_run_command_rejects_runs(argv, tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "run.runs must be 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, setting", [
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "utility_noise=0"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "num_users=0"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "interest_dim=0"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "community_sizes=1,0"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "community_sizes=-1,2"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "jitter_scale=-1"),
    (("simulate", "--scenario", "ecosystem", *SMALL_SWEEP), "items_engagement_rate=-1"),
    (("simulate", "--scenario", "porl", *SMALL_TRAIN[:8]), "reward_noise=0"),
    (("simulate", "--scenario", "porl", *SMALL_TRAIN[:8]), "quality_scale=-1"),
    (("simulate", "--scenario", "porl", *SMALL_TRAIN[:8]), "noise_scale=-0.1"),
    (("simulate", "--scenario", "latent-sat", *SMALL_EM[:6]), "item_scale=0"),
], ids=lambda x: x if isinstance(x, str) else x[2])
def test_bad_scenario_setting_exits_2_naming_it(argv, setting, tmp_path, capsys):
    # Caught when the configuration resolves, before any work, instead of
    # failing mid-run in a distribution or an arithmetic error.
    out = tmp_path / "x"
    assert run_cli(*argv, "--set", setting, "--out", str(out)) == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def simulate_from_the_record(argv, out: Path) -> dict[str, bytes]:
    """``simulate`` as a reference: sample the whole trajectory() record,
    export it, and write summary.csv from its last slice."""
    args = build_parser().parse_args([*argv, "--out", str(out)])
    sections = _resolve(args, args.section)
    run, cfg = sections["run"], sections["scenario"]
    net, metrics = _build_scenario(args.scenario, cfg, run.seed)
    traj = trajectory(net, cfg.horizon, run.seed)
    export_trajectory(traj, out)
    lines = []
    for metric, (var, path) in metrics.items():
        final = as_array(traj.value(var, -1).get(path))
        values = enumerate(final) if args.scenario == "ecosystem" else [(0, final.mean())]
        lines += [f"{r},{metric},{float(v)!r}\n" for r, v in values]
    write_csv(out / "summary.csv", "summary/1", ["run", "metric", "value"], lines)
    return tree_bytes(out)


STORY_ARGS = {
    "count": ("--set", "population=3", "--set", "horizon=4"),
    "porl": SMALL_TRAIN[:8],
    "latent-sat": SMALL_EM[:6],
    "ecosystem": SMALL_SWEEP,
}


@pytest.mark.parametrize("story, horizon", [(story, None) for story in STORY_ARGS]
                         + [("count", 1), ("ecosystem", 1)])  # porl, latent-sat need 2
@pytest.mark.parametrize("seed", [0, 3])
def test_simulate_writes_what_the_record_exports(story, seed, horizon, tmp_path):
    # simulate samples as it writes and keeps no record; every artifact,
    # summary.csv included, is the record's.
    argv = ["simulate", "--scenario", story, "--seed", str(seed), *STORY_ARGS[story]]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    out = tmp_path / "streamed"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(tree_bytes(out))
    assert tree_bytes(out) == simulate_from_the_record(argv, tmp_path / "record")


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


def sizes(slices):
    return [hi - lo for lo, hi in slices]


class TestSweepSlices:
    """The sweep's (cap, run) rows split into contiguous task slices."""

    def test_default_sweep_at_two_workers(self):
        # 5 caps x 10 runs; the limit at the defaults is 26 rows, so one
        # task per worker.
        slices = _sweep_slices(50, EcosystemConfig(), 2)
        assert slices == [(0, 25), (25, 50)]

    @pytest.mark.parametrize("rows, tasks", [(52, 2), (53, 3), (78, 3), (79, 4)])
    def test_limit_at_the_defaults_is_26_rows(self, rows, tasks):
        got = sizes(_sweep_slices(rows, EcosystemConfig(), 1))
        assert len(got) == tasks and max(got) <= 26

    # The fewest tasks within the limit is 2; more workers round it up.
    @pytest.mark.parametrize("workers, tasks", [
        (1, 2), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (8, 8), (10, 10), (16, 16)])
    def test_tasks_are_a_multiple_of_the_workers(self, workers, tasks):
        got = sizes(_sweep_slices(50, EcosystemConfig(), workers))
        assert len(got) == tasks
        assert sum(got) == 50 and max(got) - min(got) <= 1 and max(got) <= 26

    # One task's worth of rows (the limit at 20 users is 262), split
    # between the workers, into at least two tasks, at most one per row.
    @pytest.mark.parametrize("rows, workers, tasks", [
        (9, 2, 2), (9, 4, 4), (3, 4, 3), (50, 7, 7), (9, 1, 2), (2, 1, 2), (1, 1, 1)])
    def test_slices_tile_the_rows_within_one_row(self, rows, workers, tasks):
        slices = _sweep_slices(rows, EcosystemConfig(num_users=20), workers)
        assert [lo for lo, _ in slices] == [0] + [hi for _, hi in slices[:-1]]
        assert slices[-1][1] == rows
        got = sizes(slices)
        assert min(got) >= 1 and max(got) - min(got) <= 1
        assert len(got) == tasks

    def test_wide_population_forces_one_row_tasks(self):
        cfg = EcosystemConfig(num_users=2**19 // 100 + 1)
        assert sizes(_sweep_slices(50, cfg, 2)) == [1] * 50


@pytest.mark.parametrize("module", ["ecosim", "ecosim.cli"])
def test_import_loads_no_scipy(module):
    # scipy's import is most of a command's start-up; ecosim needs only numpy.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # the pool's modules load only when a command starts a pool
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, ecosim.cli; "
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_module_entry_point_runs_without_runtime_warning():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ecosim.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _has_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return True


# Each case runs in a fresh interpreter, so the pytest process keeps
# glibc's default thresholds, and counts the minor page faults the
# measured call takes.
PIN_CASES = {
    # main pins the thresholds itself; unpinned it takes about 80,000
    "fit-em": ("",
               "cli.main(['fit-em', '--scenario', 'latent-sat', '--set', "
               "'em.iterations=1', '--out', OUT])"),
    # the first task of the default sweep at two workers, run-major: 25
    # rows, runs 0 to 4 at all 5 caps
    "sweep-task": ("cli._pin_allocator()\n"
                   "task = (EcosystemConfig(), (0.0, 0.6, 1.2, 2.4, 4.8) * 5, "
                   "[r for r in range(5) for _ in range(5)], 0)",
                   "cli._sweep_one(task)"),
}


@pytest.mark.skipif(not _has_mallopt(), reason="glibc mallopt is not available")
@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_pinned_allocator_reuses_heap_pages(case, tmp_path):
    setup, call = PIN_CASES[case]
    code = "\n".join([
        "import resource, sys",
        "import ecosim.cli as cli",
        "from ecosim.scenarios import EcosystemConfig",
        f"OUT = {str(tmp_path / 'out')!r}",
        setup,
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        call,
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "ECOSIM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 10_000
