"""Command-line harness: run scenarios, train, fit, and emit reproducible
CSV curve and summary data.

Commands: ``simulate``, ``train-reinforce``, ``fit-em``, ``ecosystem-sweep``.
Configuration comes from an INI-style file (``--config``) overridden by
repeatable ``--set key=value`` flags; ``--dump-config`` prints the fully
resolved configuration and exits.  Every command reads the sections
``[run]`` and ``[scenario]``; ``train-reinforce`` also reads ``[train]``,
``fit-em`` ``[em]`` and ``ecosystem-sweep`` ``[sweep]``.  An unknown key,
or a key or INI section the command does not read, is rejected at parse
time.  Exit codes: 0 success, 1 runtime failure, 2 configuration error.

Multi-run commands parallelize across runs (``ECOSIM_THREADS`` caps the
worker count); per-row stream keying makes every split bit-identical to
a serial run, and a single collector writes all output files.

Every file a command writes under ``--out`` is a deterministic artifact:
a function of the resolved configuration and the seed alone, never of
the time, the host or the worker count.  The one timing field kept by
design is the ``wall_clock_ms`` column of ``fit-em``'s ``em_trace.csv``.

``main`` pins glibc's heap thresholds before it runs a command: blocks up
to 16 MiB come from the heap, not a fresh mapping, and the heap is trimmed
only past 64 MiB free.  Commands allocate and free the same step- and
gradient-sized temporaries (hundreds of kB to a few MB) over and over.
Under glibc's defaults each is mapped fresh or carved from a heap top that
is trimmed on free, so its pages fault in again on every call (about
80,000 minor faults in a 1-iteration ``fit-em``), and their number
depended on which arrays a builder happened to free, since freeing a
mapped block raises glibc's dynamic threshold.  Pool workers pin the
thresholds too.  Without glibc's ``mallopt`` the pin does nothing; it
changes no result.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inference import (Adam, HmcConfig, InferenceError, ReinforceConfig, mc_em_fit,
                        reinforce_step)
from .rng import derive_seed
from .runtime import Run, Trajectory, execute, export_trajectory, trajectory, write_csv
from .scenarios import (CountConfig, EcosystemConfig, LatentSatConfig,
                        PorlConfig, build_count_story, build_ecosystem_story,
                        build_latent_sat_story, build_porl_story,
                        sample_true_alpha)
from .scenarios.latent_sat import HELD_OUT
from .tensor import as_array


class ConfigError(ValueError):
    pass


def _distinct(name: str, values: tuple) -> None:
    """Each entry of a swept list labels its own columns or rows, so an
    entry listed twice would write them twice under one label."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} lists {value!r} more than once")


@dataclass(frozen=True)
class RunSettings:
    seed: int = 0
    runs: int | None = None  # None: one run, or scenario.num_runs for ecosystem-sweep
    out: str = "out"

    def __post_init__(self):
        if self.runs is not None and self.runs < 1:
            raise ConfigError("runs must be >= 1")


@dataclass(frozen=True)
class TrainSettings:
    iterations: int = 50
    learning_rate: float = 0.02
    # The batch-mean baseline is the variance-reduction heuristic that makes
    # desk-scale policy-gradient runs learn reliably; reinforce_step itself
    # defaults to no baseline.
    baseline: bool = True
    history_lengths: tuple[int, ...] = ()  # swept; empty = the scenario's default

    def __post_init__(self):
        _distinct("train.history_lengths", self.history_lengths)
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")


@dataclass(frozen=True)
class EmSettings:
    iterations: int = 30
    learning_rate: float = 0.05
    hmc_step_size: float = 0.02
    hmc_num_leapfrog: int = 10
    hmc_num_samples: int = 10
    hmc_burn_in: int = 5

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        try:
            self.hmc()
        except InferenceError as e:
            raise ConfigError(f"em.hmc_{e}") from None

    def hmc(self) -> HmcConfig:
        """The sampler's settings; ``HmcConfig`` decides which are valid."""
        return HmcConfig(step_size=self.hmc_step_size, num_leapfrog=self.hmc_num_leapfrog,
                         num_samples=self.hmc_num_samples, burn_in=self.hmc_burn_in)


@dataclass(frozen=True)
class SweepSettings:
    boost_caps: tuple[float, ...] = (0.0, 0.6, 1.2, 2.4, 4.8)

    def __post_init__(self):
        _distinct("sweep.boost_caps", self.boost_caps)


_SCENARIO_CONFIGS = {
    "count": CountConfig,
    "porl": PorlConfig,
    "latent-sat": LatentSatConfig,
    "ecosystem": EcosystemConfig,
}


def _finite(raw: str) -> float:
    """``float(raw)``; nan and the infinities are no setting's value."""
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"non-finite {raw!r}")
    return value


def _convert(raw: str, annotation) -> object:
    text = str(annotation)
    raw = raw.strip()
    if "tuple" in text:
        item = int if "int" in text else _finite
        return tuple(item(x) for x in raw.split(",")) if raw else ()
    if "bool" in text:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r}")
    if "None" in text and raw.lower() in ("none", ""):
        return None
    if "int" in text:
        return int(raw)
    if "float" in text:
        return _finite(raw)
    return raw


def _stage(staged: dict[str, dict[str, object]], defaults: dict[str, object],
           section: str, key: str, raw: str, command: str):
    """Validate and convert one override; applied later in a single pass so
    cross-field invariants are only checked on the final configuration."""
    if section not in defaults:
        raise ConfigError(f"{command} reads only config sections "
                          f"{', '.join(f'[{s}]' for s in defaults)}, not [{section}]")
    fields = {f.name: f for f in dataclasses.fields(defaults[section])}
    if key not in fields:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        staged[section][key] = _convert(raw, fields[key].type)
    except (ValueError, TypeError):
        raise ConfigError(f"bad value {raw!r} for {section}.{key}") from None


def _bare_section(defaults, key: str, search: tuple[str, ...]) -> str:
    hits = [s for s in search if key in {f.name for f in dataclasses.fields(defaults[s])}]
    if not hits:
        raise ConfigError(f"unknown config key {key!r} (searched sections {list(search)})")
    if len(hits) > 1:
        raise ConfigError(f"ambiguous key {key!r}; qualify as one of "
                          f"{[h + '.' + key for h in hits]}")
    return hits[0]


def _resolve(args, own: dict[str, type]) -> dict[str, object]:
    """The sections the command reads: run, scenario and its ``own``."""
    scenario_cls = _SCENARIO_CONFIGS.get(args.scenario)
    if scenario_cls is None:
        raise ConfigError(f"unknown scenario {args.scenario!r}; "
                          f"known: {sorted(_SCENARIO_CONFIGS)}")
    defaults = {"run": RunSettings(), "scenario": scenario_cls(),
                **{name: cls() for name, cls in own.items()}}
    staged: dict[str, dict[str, object]] = {name: {} for name in defaults}
    command = args.command
    if args.config:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _stage(staged, defaults, section, key, raw, command)
    search = ("scenario", *own, "run")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if "." in key:
            section, key = key.split(".", 1)
        else:
            section = _bare_section(defaults, key, search)
        _stage(staged, defaults, section, key, raw, command)
    if args.seed is not None:
        _stage(staged, defaults, "run", "seed", str(args.seed), command)
    if args.runs is not None:
        _stage(staged, defaults, "run", "runs", str(args.runs), command)
    if args.out is not None:
        staged["run"]["out"] = args.out
    if args.horizon is not None:
        _stage(staged, defaults, "scenario", "horizon", str(args.horizon), command)
    sections: dict[str, object] = {}
    for name, cfg in defaults.items():
        try:
            sections[name] = dataclasses.replace(cfg, **staged[name])
        except ValueError as e:
            raise ConfigError(str(e)) from None
    return sections


def _dump(sections: dict[str, object], scenario: str) -> None:
    print(f"scenario={scenario}")
    for name, cfg in sections.items():
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, tuple):
                value = ",".join(repr(x) for x in value)
            print(f"{name}.{f.name}={value}")


# glibc mallopt parameters (malloc.h) and the values main pins them to.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 64 << 20


def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds for this process (see the
    module docstring); does nothing where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` and cpusets narrow it), else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(tasks: int) -> int:
    cap = os.environ.get("ECOSIM_THREADS") or str(_cpus())
    if not cap.strip().isdecimal() or int(cap) < 1:
        raise ConfigError(f"ECOSIM_THREADS must be an integer >= 1, got {cap!r}")
    return max(1, min(tasks, int(cap)))


def _pool_map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, on a process pool of ``workers`` (each
    pinned by ``_pin_allocator``) when there are several workers and tasks.
    The pool's modules are imported here, so that a serial command, and
    every command's start-up, does without them."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_allocator) as pool:
        return list(pool.map(fn, tasks))


def _lines(rows) -> list[str]:
    """CSV body text, one line per row of cells that need no quoting."""
    return [",".join(map(str, row)) + "\n" for row in rows]


def _fmt(x) -> str:
    return repr(float(x))


def _single_run(command: str, run: RunSettings) -> None:
    if run.runs not in (None, 1):
        raise ConfigError(f"{command} does one run; run.runs must be 1, got {run.runs}")


# ---------------------------------------------------------------------------
# simulate


def _build_scenario(name: str, cfg, seed: int):
    if name == "count":
        return build_count_story(cfg), {"final_count": ("count", "n")}
    if name == "porl":
        net, _, metrics = build_porl_story(cfg)
        return net, {"mean_cumulative_reward": metrics["reward"]}
    if name == "latent-sat":
        alpha = sample_true_alpha(cfg, derive_seed(seed, "alpha"))
        net, _, _ = build_latent_sat_story(cfg, true_alpha=alpha)
        return net, {"mean_final_satisfaction": ("satisfaction", "value")}
    if name == "ecosystem":
        net, metrics = build_ecosystem_story(cfg)
        return net, {"welfare": metrics["welfare"]}


def cmd_simulate(args, sections) -> int:
    run = sections["run"]
    cfg = sections["scenario"]
    _single_run(args.command, run)
    net, metrics = _build_scenario(args.scenario, cfg, run.seed)
    # The export samples the run as it writes: each slice goes to the CSVs
    # and is dropped, so memory does not grow with the horizon, and only
    # the final slice is kept, for summary.csv.  The draws are execute's,
    # several steps a pass, and the bytes are those of exporting the
    # trajectory() record.
    sampled = Run(net, cfg.horizon, run.seed)
    outdir = Path(run.out)
    export_trajectory(sampled, outdir)
    rows = []
    for metric, (var, path) in metrics.items():
        arr = as_array(sampled.final[var].get(path))
        if args.scenario == "ecosystem":
            for r in range(arr.shape[0]):
                rows.append([r, metric, _fmt(arr[r])])
        else:
            rows.append([0, metric, _fmt(arr.mean())])
    write_csv(outdir / "summary.csv", "summary/1", ["run", "metric", "value"], _lines(rows))
    return 0


# ---------------------------------------------------------------------------
# train-reinforce


def _train_one(task):
    cfg, seed, train = task
    net, registry, metrics = build_porl_story(cfg, param_seed=derive_seed(seed, "params"))
    rc = ReinforceConfig(horizon=cfg.horizon, reward_field=metrics["reward"],
                         policy_field=metrics["policy_log_prob"],
                         baseline=train.baseline)
    opt = Adam(train.learning_rate)
    rewards = [reinforce_step(net, registry, rc, opt, derive_seed(seed, "reinforce", i))
               for i in range(train.iterations)]
    return cfg.history_length, seed, rewards


def cmd_train_reinforce(args, sections) -> int:
    run, cfg, train = sections["run"], sections["scenario"], sections["train"]
    histories = train.history_lengths or (cfg.history_length,)
    try:
        scenarios = {h: dataclasses.replace(cfg, history_length=h) for h in histories}
    except ValueError as e:
        raise ConfigError(f"bad train.history_lengths: {e}") from None
    seeds = [derive_seed(run.seed, "train-seed", i) for i in range(run.runs or 1)]
    tasks = [(scenarios[h], s, train) for h in histories for s in seeds]
    results = _pool_map(_train_one, tasks, _workers(len(tasks)))
    curves = {(h, s): r for h, s, r in results}
    header = ["iteration"]
    for h in histories:
        header += [f"h{h}_s{i}" for i in range(len(seeds))] + [f"h{h}_avg"]
    rows = []
    for it in range(train.iterations):
        row = [str(it)]
        for h in histories:
            vals = [curves[(h, s)][it] for s in seeds]
            row += [_fmt(v) for v in vals] + [_fmt(np.mean(vals))]
        rows.append(row)
    outdir = Path(run.out)
    write_csv(outdir / "reinforce_curve.csv", "reinforce_curve/1", header, _lines(rows))
    summary = []
    for h in histories:
        first = np.mean([curves[(h, s)][0] for s in seeds])
        last = np.mean([curves[(h, s)][-1] for s in seeds])
        summary.append([f"h{h}", _fmt(first), _fmt(last)])
    write_csv(outdir / "reinforce_summary.csv", "reinforce_summary/1",
              ["history", "initial_reward", "final_reward"], _lines(summary))
    return 0


# ---------------------------------------------------------------------------
# fit-em


def cmd_fit_em(args, sections) -> int:
    run, cfg, em = sections["run"], sections["scenario"], sections["em"]
    _single_run(args.command, run)
    true_alpha = sample_true_alpha(cfg, derive_seed(run.seed, "alpha"))
    truth_net, _, _ = build_latent_sat_story(cfg, true_alpha=true_alpha)
    data = Trajectory.from_trajectory(
        truth_net, trajectory(truth_net, cfg.horizon, run.seed), hold_out=[HELD_OUT])
    net, registry, held = build_latent_sat_story(cfg)
    trace = mc_em_fit(net, data, held, em.hmc(), Adam(em.learning_rate), em.iterations,
                      run.seed, registry=registry)
    outdir = Path(run.out)
    write_csv(outdir / "em_trace.csv", "em_trace/1",
              ["iteration", "objective", "acceptance_rate", "wall_clock_ms"],
              _lines([it.iteration, repr(it.objective),
                      "" if it.acceptance is None else repr(it.acceptance),
                      repr(it.wall_clock_ms)] for it in trace))
    estimated = registry.as_arrays()["alpha"]
    write_csv(outdir / "alpha_recovery.csv", "alpha_recovery/1",
              ["user", "true_alpha", "estimated_alpha"],
              _lines([u, _fmt(true_alpha[u]), _fmt(estimated[u])]
                     for u in range(cfg.population)))
    # Pearson's r is undefined for fewer than two users or a constant
    # vector (an unfitted estimate); its cell is left empty then.
    if cfg.population < 2 or np.ptp(true_alpha) == 0 or np.ptp(estimated) == 0:
        r = ""
    else:
        r = _fmt(np.corrcoef(true_alpha, estimated)[0, 1])
    write_csv(outdir / "summary.csv", "summary/1", ["run", "metric", "value"],
              _lines([[0, "alpha_pearson_r", r],
                      [0, "final_objective", _fmt(trace[-1].objective)]]))
    return 0


# ---------------------------------------------------------------------------
# ecosystem-sweep


def _sweep_one(task):
    """Welfare of one contiguous slice of the sweep's (run, cap) rows."""
    cfg, caps, run_ids, seed = task
    net, metrics = build_ecosystem_story(dataclasses.replace(cfg, num_runs=len(run_ids)),
                                         boost_caps=caps)
    final = execute(net, cfg.horizon - 1, seed, row_ids=np.array(run_ids))
    var, path = metrics["welfare"]
    return final[var].get(path).data.copy()


# A sweep task's element budget: its rows times a row's (users, items)
# slate distances or (users, slate, dim) choice features.  The slate and
# the choice build those a group of rows at a time, so they no longer
# bound a task's memory.  What grows with its rows is the slices' own
# fields; each field's lookahead pass has a fixed bound (``rng.Rows.ahead``).
# At the default config a task holds at most 26 rows, and a 25-row task's
# traced peak is 4.3 MB, against 6.4 MB for the 13-row tasks of a budget
# of 2^18 with the choice built as one batch.  A task pays a fixed cost
# before its rows cost anything, so the default sweep runs as one task
# per worker at two workers.
_TASK_ELEMENTS = 2**19


def _sweep_slices(rows: int, cfg: EcosystemConfig, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` slices of the sweep's ``rows``, one per task.

    The fewest tasks within the rows limit (``_TASK_ELEMENTS``), rounded
    up to a multiple of ``workers``, at least two and at most one per row,
    with sizes differing by at most one row, the larger first.  Each task
    pays a fixed cost before its rows cost anything, so the default sweep
    at two workers runs as two tasks of 25 rows, one per worker.  The
    minimum of two keeps the two sweep tasks that
    ``perfbench/tests/test_bench_spans.py`` counts for its one-worker sweep
    of 2 caps x 2 runs; it costs one task's fixed overhead only where every
    row would fit in one task.
    """
    per_row = cfg.num_users * max(cfg.num_items, cfg.slate_size * cfg.interest_dim)
    limit = max(1, _TASK_ELEMENTS // per_row)
    tasks = min(rows, max(2, math.ceil(math.ceil(rows / limit) / workers) * workers))
    size, extra = divmod(rows, tasks)
    bounds = [i * size + min(i, extra) for i in range(tasks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def cmd_ecosystem_sweep(args, sections) -> int:
    run, cfg, sweep = sections["run"], sections["scenario"], sections["sweep"]
    caps = sweep.boost_caps
    if not caps:
        raise ConfigError("sweep.boost_caps must name at least one cap")
    try:  # each cap through the config's own check
        for cap in caps:
            dataclasses.replace(cfg, boost_cap=cap)
    except ValueError as e:
        raise ConfigError(f"bad sweep.boost_caps: {e}") from None
    total_runs = cfg.num_runs if run.runs is None else run.runs
    # The sweep is one flat list of (run, cap) rows, run-major, and each
    # task steps a contiguous slice of it as one batch.  A row draws under
    # its run id, so every cap sees the same sampled ecosystems (shared
    # seed), and any split into tasks or workers is bit-identical to a
    # serial run.  Run-major, a task holds every cap's copy of few runs,
    # and its streams draw each run's numbers once (``rng.Rows``).
    row_caps = list(caps) * total_runs
    run_ids = [r for r in range(total_runs) for _ in caps]
    workers = _workers(len(row_caps))
    slices = _sweep_slices(len(row_caps), cfg, workers)
    tasks = [(cfg, row_caps[lo:hi], run_ids[lo:hi], run.seed) for lo, hi in slices]
    results = _pool_map(_sweep_one, tasks, workers)
    welfare = np.zeros(len(row_caps))
    for (lo, hi), values in zip(slices, results):
        welfare[lo:hi] = values
    welfare = welfare.reshape(total_runs, len(caps)).T.copy()  # cap-major, as written
    outdir = Path(run.out)
    rows = [[repr(cap), r, _fmt(welfare[i, r])]
            for i, cap in enumerate(caps) for r in range(total_runs)]
    write_csv(outdir / "welfare.csv", "ecosystem_welfare/1",
              ["boost_cap", "run", "cumulative_utility"], _lines(rows))
    summary = []
    for cap, w in zip(caps, welfare):
        se = _fmt(w.std(ddof=1) / math.sqrt(total_runs)) if total_runs > 1 else ""
        summary.append([repr(cap), _fmt(w.mean()), se])
    write_csv(outdir / "welfare_summary.csv", "ecosystem_welfare_summary/1",
              ["boost_cap", "mean", "standard_error"], _lines(summary))
    # summary.csv stays, header only: the sweep's results are in
    # welfare*.csv, and run timing is measured outside the --out tree.
    write_csv(outdir / "summary.csv", "summary/1", ["run", "metric", "value"], [])
    return 0


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, default_scenario: str | None = None):
    p.add_argument("--scenario", default=default_scenario,
                   required=default_scenario is None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config field (repeatable)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configuration and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecosim",
        description="Simulate, train, and fit multi-agent recommender ecosystems.")
    sub = parser.add_subparsers(dest="command", required=True)
    # The config sections each command reads besides [run] and [scenario],
    # and the one scenario it supports, if it supports one only, which is its default.
    for name, fn, section, only, summary in (
            ("simulate", cmd_simulate, {}, None, "sample a trajectory and export CSVs"),
            ("train-reinforce", cmd_train_reinforce, {"train": TrainSettings}, "porl",
             "policy-gradient training curves"),
            ("fit-em", cmd_fit_em, {"em": EmSettings}, "latent-sat",
             "Monte-Carlo EM latent-variable fitting"),
            ("ecosystem-sweep", cmd_ecosystem_sweep, {"sweep": SweepSettings}, "ecosystem",
             "welfare sweep over boost caps")):
        p = sub.add_parser(name, help=summary)
        _add_common(p, default_scenario=only)
        p.set_defaults(fn=fn, section=section, only=only)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_allocator()
    try:
        sections = _resolve(args, args.section)
        if args.dump_config:
            _dump(sections, args.scenario)
            return 0
        if args.only is not None and args.scenario != args.only:
            raise ConfigError(f"{args.command} supports only the {args.only} scenario")
        return args.fn(args, sections)
    except ConfigError as e:
        print(f"ecosim: configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"ecosim: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
