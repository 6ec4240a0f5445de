"""ecosim benchmark: four CLI workloads, driven from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src``.  Every CLI run happens in a fresh child process
(``perfbench/child.py``) that calls ``ecosim.cli.main(argv)``.

``--trace 0`` repeats the workload for about ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` makes one untraced
and one traced run, plus the layer probes, and reports the per-layer
metrics.  Either way the runs' artifacts are checked (``checks.py``), a
worker-count determinism check runs once, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.checks import EXCLUSIONS, RunOutput, compare_digests  # noqa: E402
from perfbench.spans import layer_metrics  # noqa: E402

DEADLINE_S = 170.0      # one invocation must end within 180 s
SETUP_SPAWNS = 3        # import-only spawns per untraced run; every CLI run adds a sample too
MIN_RUNS = 2            # runs needed to compare artifacts across runs
BLAS_THREADS = "1"
PER_CALL = ("inference.reinforce_step_s", "inference.hmc_leapfrog_s")  # means, not totals
WELFARE_FILES = ("welfare.csv", "welfare_summary.csv")
WORKER_CHECK_ARGV = ("ecosystem-sweep", "--scenario", "ecosystem", "--runs", "4",
                     "--horizon", "10")


class BenchError(RuntimeError):
    """The benchmark cannot run: no program, or a child that cannot start."""


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    threads: int
    artifacts: tuple[str, ...]


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def workloads(nproc: int) -> dict[str, Workload]:
    """Sizes are the CLI defaults; only the number of training or EM iterations is set here."""
    ecosystem_files = tuple(f"{v}.csv" for v in (
        "centers", "providers", "users", "engagement", "items", "jitter", "slate",
        "choice", "utility", "metrics", "summary"))
    return {
        "porl-reinforce": Workload(
            ("train-reinforce", "--scenario", "porl", "--set", "train.iterations=5"), 1,
            ("reinforce_curve.csv", "reinforce_summary.csv")),
        "latent-sat-em": Workload(
            ("fit-em", "--scenario", "latent-sat", "--set", "em.iterations=1"), 1,
            ("em_trace.csv", "alpha_recovery.csv", "summary.csv")),
        "ecosystem-simulate": Workload(
            ("simulate", "--scenario", "ecosystem"), 1, ecosystem_files),
        "ecosystem-sweep": Workload(
            ("ecosystem-sweep", "--scenario", "ecosystem"), min(2, nproc),
            WELFARE_FILES + ("summary.csv",)),
    }


@dataclass
class CliRun:
    """One CLI run in a child: its timings (if the child finished) and its checks."""

    output: RunOutput
    purpose: str
    threads: int
    duration_s: float
    result: dict | None
    spans_path: Path

    @property
    def timed(self) -> bool:
        return self.result is not None and self.result.get("exit_code") == 0


class Bench:
    """Spawns children inside one work directory and keeps the tallies."""

    def __init__(self, seed: int, work: Path, deadline: float):
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.runs: list[CliRun] = []
        self.exclusion_hits: Counter = Counter()
        self.versions: dict | None = None
        self._ids = itertools.count()

    def spawn(self, *, argv=None, artifacts=(), threads: int = 1, trace=False, probes=False):
        """Run one child; returns (its directory, spawn-to-exit seconds, result or None)."""
        base = self.work / f"child{next(self._ids)}"
        base.mkdir()
        request = {"argv": None if argv is None else [*argv, "--out", str(base / "out")],
                   "out": str(base / "out"), "artifacts": list(artifacts),
                   "trace": trace, "probes": probes, "result": str(base / "result.json"),
                   "spans": str(base / "spans.json"), "scratch": str(base)}
        (base / "request.json").write_text(json.dumps(request), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.work),
                   OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                   ECOSIM_THREADS=str(threads))
        with open(base / "stdout", "wb") as out, open(base / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.child", str(base / "request.json")],
                cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(proc)
        duration = time.monotonic() - spawned
        if code != 0:
            if argv is None:
                tail = (base / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
                raise BenchError(f"child could not import ecosim (exit {code}):\n{tail}")
            return base, duration, None
        result = json.loads((base / "result.json").read_text(encoding="utf-8"))
        if not Path(result["ecosim_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"child imported ecosim from {result['ecosim_file']}, "
                             f"not from {ROOT / 'src'}")
        result["setup_s"] = result["imported_at"] - spawned
        self.versions = self.versions or result["versions"]
        return base, duration, result

    def run_cli(self, argv, threads: int, artifacts, trace=False,
                purpose="workload") -> CliRun:
        base, duration, result = self.spawn(argv=[*argv, "--seed", str(self.seed)],
                                            artifacts=artifacts, threads=threads, trace=trace)
        label = f"run{len(self.runs)}"
        if result is None:
            tail = (base / "stderr").read_text(encoding="utf-8", errors="replace")[-300:]
            output = RunOutput(label, -1, {}, [f"child process failed: {tail.strip()}"])
        else:
            output = RunOutput(label, result["exit_code"], result["digests"],
                               result["problems"])
            self.exclusion_hits.update(result["exclusion_hits"])
        shutil.rmtree(base / "out", ignore_errors=True)
        run = CliRun(output, purpose, threads, duration, result, base / "spans.json")
        self.runs.append(run)
        return run

    def check_worker_counts(self) -> None:
        """welfare.csv and welfare_summary.csv must not depend on ECOSIM_THREADS."""
        pair = [self.run_cli(WORKER_CHECK_ARGV, t, WELFARE_FILES, purpose="worker-check")
                for t in (1, 2)]
        compare_digests([r.output for r in pair], files=WELFARE_FILES)

    @property
    def failed(self) -> int:
        return sum(1 for run in self.runs if not run.output.ok)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group (the child, stray pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("no run finished, so nothing was measured")
    return statistics.median(values)


def measure_end_to_end(bench: Bench, wl: Workload, seconds: float) -> dict[str, float]:
    bench.spawn()  # warm-up: bytecode compilation and page cache, paid once per install
    setups = [bench.spawn()[2]["setup_s"] for _ in range(SETUP_SPAWNS)]
    started = time.monotonic()
    runs: list[CliRun] = []
    while True:
        run = bench.run_cli(wl.argv, wl.threads, wl.artifacts)
        runs.append(run)
        now = time.monotonic()
        if len(runs) >= MIN_RUNS and (now - started >= seconds
                                      or now + 2 * run.duration_s > bench.deadline):
            break
    compare_digests([r.output for r in runs])
    bench.check_worker_counts()
    timed = [r.result for r in runs if r.timed]
    setups += [run.result["setup_s"] for run in bench.runs if run.result]
    return {
        "wall_s": _median(r["wall_s"] for r in timed),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in timed),
    }


def measure_layers(bench: Bench, wl: Workload) -> tuple[dict[str, float], list[str]]:
    """Untraced and traced runs (both at ECOSIM_THREADS=1), plus the probes."""
    notes = []
    baseline = bench.run_cli(wl.argv, 1, wl.artifacts)
    pooled = baseline
    if wl.threads > 1:
        pooled = bench.run_cli(wl.argv, wl.threads, wl.artifacts)
        notes.append(f"traced with ECOSIM_THREADS=1 because pool workers do not carry "
                     f"spans back; cli.* CPU metrics come from an untraced run with "
                     f"ECOSIM_THREADS={wl.threads}")
    traced = bench.run_cli(wl.argv, 1, wl.artifacts, trace=True, purpose="traced")
    compare_digests([r.output for r in bench.runs])
    bench.check_worker_counts()
    if not (baseline.timed and pooled.timed and traced.timed):
        raise BenchError("a run needed for the per-layer metrics did not finish")
    spans = json.loads(traced.spans_path.read_text(encoding="utf-8"))
    metrics = layer_metrics(spans)
    if traced.result.get("trace_missing"):
        notes.append("not traced (absent from the program): "
                     + ", ".join(traced.result["trace_missing"]))
    p = pooled.result
    metrics["cli.worker_cpu_s"] = p["worker_cpu_s"]
    metrics["cli.parallel_efficiency"] = (p["cpu_s"] + p["worker_cpu_s"]) / (p["wall_s"] * pooled.threads)
    overhead = traced.result["wall_s"] - baseline.result["wall_s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / baseline.result["wall_s"]
    metrics["trace.wall_s"] = traced.result["wall_s"]
    metrics.update(bench.spawn(probes=True)[2]["probes"])
    return metrics, notes


def _report(name: str, bench: Bench, metrics, units, notes, env,
            traced_wall: float | None) -> None:
    print(f"== {name} (seed {bench.seed}, {'untraced' if traced_wall is None else 'traced'})")
    print("env: " + json.dumps(env, sort_keys=True))
    for run in bench.runs:
        r = run.result or {}
        status = "ok" if run.output.ok else "FAILED: " + "; ".join(run.output.problems)
        print(f"  {run.output.label}: {run.purpose} ECOSIM_THREADS={run.threads} "
              f"wall_s={r.get('wall_s', float('nan')):.4f} "
              f"setup_s={r.get('setup_s', float('nan')):.4f} "
              f"peak_rss_mb={r.get('peak_rss_mb', float('nan')):.1f} {status}")
    for rule in EXCLUSIONS:
        print(f"  excluded from digests: {rule.file} {rule.kind} {rule.key!r} "
              f"({bench.exclusion_hits[rule.key]} rows here): {rule.note}")
    for note in notes:
        print("  note: " + note)
    print(f"  fail_rate = {bench.failed}/{len(bench.runs)} = "
          f"{bench.failed / len(bench.runs):.4f} (failed/attempted CLI runs)")
    for key in units:
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    if traced_wall is not None:
        wall = traced_wall
        shares = sorted(((metrics[k] / wall, k) for k, unit in units.items()
                         if unit == "s" and k not in PER_CALL and metrics[k] > 0
                         and not k.startswith(("probe.", "trace.", "cli."))), reverse=True)
        print(f"  share of traced wall ({wall:.3f} s; spans nest, so shares overlap):")
        for share, key in shares[:12]:
            print(f"    {share:7.1%}  {key}")


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict, nproc: int) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    env = {"workload": name, "nproc": nproc, "loadavg_start": os.getloadavg(),
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
           "ECOSIM_THREADS": 1 if trace else wl.threads, "seconds": seconds}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        bench = Bench(seed, work, time.monotonic() + DEADLINE_S)
        if trace:
            metrics, notes = measure_layers(bench, wl)
        else:
            metrics, notes = measure_end_to_end(bench, wl, seconds), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass
    env.update(bench.versions or {})
    traced_wall = metrics.pop("trace.wall_s", None)
    extra = sorted(set(metrics) - set(units))
    if extra:
        notes.append("measured but not listed in BENCHMARK.json: " + ", ".join(extra))
    metrics = {key: metrics.get(key, 0.0) for key in units}
    _report(name, bench, metrics, units, notes, env, traced_wall)
    return {"correct": bench.failed == 0, "attempted": len(bench.runs),
            "failed": bench.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    nproc = _nproc()
    names = list(workloads(nproc))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ecosim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no ecosim source under {ROOT / 'src'} (or no BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, workloads(nproc)[name], args.seed, seconds,
                                      bool(args.trace), spec, nproc)
                   for name in chosen}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
