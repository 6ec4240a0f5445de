from collections import Counter

from perfbench.checks import (EXCLUSIONS, RunOutput, artifact_problems,
                              compare_digests, inspect_run, normalized)

SWEEP_SUMMARY = "# schema=summary/1\nrun,metric,value\n0,wall_clock_s,{}\n"
EM_TRACE = ("# schema=em_trace/1\niteration,objective,acceptance_rate,wall_clock_ms\n"
            "0,{},0.6,{}\n")


def write_run(root, files: dict[str, str]):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def digests_of(tmp_path, label, files):
    out = write_run(tmp_path / label, files)
    return inspect_run(label, 0, out, tuple(files), Counter())


class TestExclusions:
    def test_exactly_two_timing_fields_are_excluded(self):
        assert [(e.file, e.key) for e in EXCLUSIONS] == [
            ("summary.csv", "wall_clock_s"), ("em_trace.csv", "wall_clock_ms")]
        assert "test_deterministic_across_worker_counts" in EXCLUSIONS[0].note

    def test_sweep_wall_clock_row_does_not_change_the_digest(self, tmp_path):
        a = digests_of(tmp_path, "a", {"summary.csv": SWEEP_SUMMARY.format("5.81")})
        b = digests_of(tmp_path, "b", {"summary.csv": SWEEP_SUMMARY.format("6.02")})
        assert a.digests == b.digests

    def test_em_wall_clock_column_does_not_change_the_digest(self, tmp_path):
        a = digests_of(tmp_path, "a", {"em_trace.csv": EM_TRACE.format("-12.5", "8123.4")})
        b = digests_of(tmp_path, "b", {"em_trace.csv": EM_TRACE.format("-12.5", "9001.0")})
        assert a.digests == b.digests

    def test_other_fields_of_the_same_files_still_count(self, tmp_path):
        a = digests_of(tmp_path, "a", {"em_trace.csv": EM_TRACE.format("-12.5", "1.0")})
        b = digests_of(tmp_path, "b", {"em_trace.csv": EM_TRACE.format("-12.6", "1.0")})
        assert a.digests != b.digests

    def test_exclusions_apply_only_to_their_own_file(self, tmp_path):
        text = "# schema=x/1\nrun,metric,value\n0,wall_clock_s,{}\n"
        a = digests_of(tmp_path, "a", {"welfare.csv": text.format("1.0")})
        b = digests_of(tmp_path, "b", {"welfare.csv": text.format("2.0")})
        assert a.digests != b.digests

    def test_hits_count_the_rows_each_exclusion_changed(self):
        hits = Counter()
        normalized("summary.csv", SWEEP_SUMMARY.format("1.0").encode(), hits)
        normalized("em_trace.csv", EM_TRACE.format("1.0", "2.0").encode(), hits)
        assert hits == {"wall_clock_s": 1, "wall_clock_ms": 1}


class TestArtifactProblems:
    def test_schema_line_is_required(self):
        assert artifact_problems("a.csv", b"run,value\n0,1.0\n") == [
            "a.csv: no '# schema=' line"]

    def test_non_finite_values_are_found(self):
        for bad in (b"nan", b"inf", b"-inf"):
            data = b"# schema=s/1\nrun,value\n0,1.0\n1," + bad + b"\n"
            assert artifact_problems("a.csv", data) == ["a.csv: non-finite number"]

    def test_finite_file_with_inf_like_header_passes(self):
        data = b"# schema=s/1\ninfo,nancy\n1.5,-2e-300\n"
        assert artifact_problems("a.csv", data) == []

    def test_missing_artifact_and_exit_code_are_problems(self, tmp_path):
        out = write_run(tmp_path / "run", {"a.csv": "# schema=s/1\nx\n1\n"})
        run = inspect_run("run0", 3, out, ("a.csv", "b.csv"))
        assert run.problems == ["exit code 3", "missing artifact b.csv"]


class TestCompareDigests:
    @staticmethod
    def runs(*digests):
        return [RunOutput(f"run{i}", 0, {"a.csv": d}, []) for i, d in enumerate(digests)]

    def test_identical_runs_pass(self):
        runs = self.runs("x", "x", "x")
        compare_digests(runs)
        assert all(r.ok for r in runs)

    def test_the_odd_run_out_fails(self):
        runs = self.runs("x", "y", "x")
        compare_digests(runs)
        assert [r.ok for r in runs] == [True, False, True]
        assert "differ" in runs[1].problems[0]

    def test_two_runs_that_differ_both_fail(self):
        runs = self.runs("x", "y")
        compare_digests(runs)
        assert not any(r.ok for r in runs)

    def test_comparison_can_be_restricted_to_named_files(self):
        runs = [RunOutput("a", 0, {"welfare.csv": "w", "summary.csv": "1"}, []),
                RunOutput("b", 0, {"welfare.csv": "w", "summary.csv": "2"}, [])]
        compare_digests(runs, files=("welfare.csv",))
        assert all(r.ok for r in runs)
