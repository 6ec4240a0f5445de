"""Reach gate: every function in ``src/ecosim`` is reached by a command or
is listed here with its reason.

The four commands run through ``cli.main`` in one fresh interpreter, at
tiny sizes, under ``sys.setprofile`` (every story's ``simulate``,
``train-reinforce``, ``fit-em``, ``ecosystem-sweep`` and a
``--dump-config``), with ``--set`` values that take each branch of the
config parser's conversion.  ``ECOSIM_THREADS=1`` and a patched
``ProcessPoolExecutor`` keep every command in that interpreter.  Every function that
``ast`` finds in ``src/ecosim`` must be reached or be in ``UNREACHED``.
An entry's reason starts with one tag of ``TAGS``:

- ``error``: the function only raises, builds or cleans up after an error.
- ``repr``: a ``__repr__``.
- ``perfbench``: the benchmark imports or traces it; the reason names the
  ``perfbench/<file>:<line>`` that does and quotes it in backticks.
- ``reference``: a test compares against it; the reason names the test
  module, which must mention it.
- ``outside-data``: only ``logprob.observe``, how data from outside enters
  scoring.
- ``scoring``: the log-probability or gradient rule of a distribution or
  op whose forward half a command reaches; no command scores or
  differentiates it, but scoring the story that samples it does.

A listed function that no longer exists, or that a command now reaches,
fails the gate too, so the list stays exact.
"""

import ast
import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ecosim
from ecosim import cli

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects name their qualname from 3.11")

SRC = Path(ecosim.__file__).resolve().parent
REPO = SRC.parents[1]
TAGS = ("error", "repr", "perfbench", "reference", "outside-data", "scoring")

TINY_PORL = ["--set", "population=3", "--set", "scenario.horizon=3",
             "--set", "corpus_size=5", "--set", "interest_dim=3",
             "--set", "history_length=2", "--set", "hidden_width=4"]
TINY_ECOSYSTEM = ["--set", "num_users=6", "--set", "num_providers=2", "--set", "num_items=6",
                  "--set", "slate_size=2", "--set", "horizon=3", "--set", "num_runs=2",
                  # 8 <= d < 16 takes negative_euclidean's plane sum
                  "--set", "interest_dim=8", "--set", "num_communities=2",
                  "--set", "community_sizes=2.0,1.0", "--set", "items_engagement_rate=none"]
TINY_LATENT_SAT = ["--set", "population=3", "--horizon", "3"]

# (argv, ECOSIM_THREADS).  The run without ECOSIM_THREADS is one task: it
# computes the default worker count and still starts no pool.
COMMANDS = [
    (["simulate", "--scenario", "count", "--horizon", "3"], "1"),
    (["simulate", "--scenario", "porl"] + TINY_PORL, "1"),
    (["simulate", "--scenario", "latent-sat"] + TINY_LATENT_SAT, "1"),
    (["simulate", "--scenario", "ecosystem"] + TINY_ECOSYSTEM, "1"),
    (["train-reinforce"] + TINY_PORL + ["--set", "iterations=2", "--set", "baseline=off"],
     None),
    (["train-reinforce"] + TINY_PORL + ["--set", "iterations=1", "--runs", "2",
                                        "--set", "train.history_lengths=2,3",
                                        "--set", "learning_rate=0.1"], "1"),
    (["fit-em"] + TINY_LATENT_SAT + ["--set", "em.iterations=1", "--set", "hmc_num_samples=2",
                                     "--set", "hmc_burn_in=1", "--set", "hmc_num_leapfrog=2"],
     "1"),
    (["ecosystem-sweep", "--seed", "3"] + TINY_ECOSYSTEM + ["--set", "sweep.boost_caps=0,1.5"],
     "1"),
    (["simulate", "--scenario", "count", "--dump-config"], "1"),
]

UNREACHED = {
    "core.Network.__repr__": "repr",
    "core.Value.__repr__": "repr",
    "core.Variable.__repr__": "repr",
    "tensor.Tensor.__repr__": "repr",
    "core._find_cycle": "error: names the cycle in Network's dependency-cycle error",
    "dist.Distribution.sample": "error: the base class raises NotImplementedError",
    "dist.Distribution.log_prob": "error: the base class raises NotImplementedError",
    "rng.RngStream._error": "error: builds the counter-word ValueError",
    "runtime._VariableCsv.discard": "error: removes a failed run's .part file",
    "runtime._CsvWriter.discard": "error: removes a failed run's .part files",
    "dist.Bernoulli.__init__": "perfbench: perfbench/probes.py:47 `dist.Bernoulli(`",
    "dist.Bernoulli.sample": "perfbench: perfbench/probes.py:82 `d.sample(draws)`",
    "dist.Bernoulli.log_prob": "perfbench: perfbench/probes.py:84 `d.log_prob(value)`",
    "tensor._expit": "perfbench: perfbench/probes.py:82 `d.sample(draws)`, Bernoulli's",
    "tensor.softplus": "perfbench: perfbench/probes.py:84 `d.log_prob(value)`, Bernoulli's",
    "dist.Deterministic.sample": "perfbench: perfbench/probes.py:82 `d.sample(draws)`",
    "dist.Deterministic.log_prob": "perfbench: perfbench/probes.py:84 `d.log_prob(value)`",
    "dist.Deterministic._matches": "perfbench: perfbench/probes.py:84 "
                                   "`d.log_prob(value)`, Deterministic's",
    "dist.GaussianMixture.log_prob": "perfbench: perfbench/probes.py:84 `d.log_prob(value)`",
    "tensor.log": "perfbench: perfbench/probes.py:84 `d.log_prob(value)`, GaussianMixture's",
    "inference.Sgd.__init__": "perfbench: perfbench/spans.py:179 `\"Sgd\", \"apply\"`",
    "inference.Sgd.apply": "perfbench: perfbench/spans.py:179 `\"Sgd\", \"apply\"`",
    "tensor.Tape.__len__": "perfbench: perfbench/probes.py:95 `len(tape)`",
    "runtime._replay": "perfbench: perfbench/probes.py:111 "
                       "`export_trajectory(traj, dest)`, of a record",
    "logprob.observe": "outside-data",
    "dist.Uniform.log_prob": "scoring: the ecosystem's jitter field",
    "tensor.negative_euclidean.<locals>.vjp_items": "scoring: the gradient in the items",
    "tensor.take_rows.<locals>.vjp": "scoring: the gradient of a row gather",
}


def defined_functions() -> dict[str, int]:
    """Every def in ``src/ecosim`` as ``module.qualname`` (the code object's
    ``co_qualname``), with its line."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{module}.{prefix}{child.name}"] = child.lineno
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _no_pool(*args, **kwargs):
    raise AssertionError("the reach run must not start a process pool")


def trace_commands(out: Path) -> set[str]:
    """Run ``COMMANDS`` in this process under ``sys.setprofile``; returns
    the ``module.qualname`` of every ``src/ecosim`` function called.  For
    a throwaway interpreter: it leaves ``ProcessPoolExecutor`` patched and
    ``ECOSIM_THREADS`` set."""
    names, modules = set(), {}  # modules: code file -> ecosim module, or None

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename not in modules:
                path = Path(code.co_filename).resolve()
                modules[code.co_filename] = (
                    ".".join(path.relative_to(SRC).with_suffix("").parts)
                    if path.is_relative_to(SRC) else None)
            if modules[code.co_filename] is not None:
                names.add(f"{modules[code.co_filename]}.{code.co_qualname}")

    concurrent.futures.ProcessPoolExecutor = _no_pool
    for i, (argv, threads) in enumerate(COMMANDS):
        os.environ.pop("ECOSIM_THREADS", None)
        if threads is not None:
            os.environ["ECOSIM_THREADS"] = threads
        sys.setprofile(profile)
        try:
            code = cli.main(argv + ["--out", str(out / str(i))])
        finally:
            sys.setprofile(None)
        assert code == 0, argv
    return names


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    # In a fresh interpreter: this one may already hold what a command
    # builds once per process (numtext's tables), and then reach less.
    out = tmp_path_factory.mktemp("reach")
    path = [str(SRC.parent), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, "-c", "import json, sys, pathlib, test_reach; "
         "out = pathlib.Path(sys.argv[1]); "
         "(out / 'reached.json').write_text(json.dumps(sorted(test_reach.trace_commands(out))))",
         str(out)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return set(json.loads((out / "reached.json").read_text()))


def test_every_unreached_function_is_listed(reached):
    unlisted = sorted(f"{name} (line {line})" for name, line in defined_functions().items()
                      if name not in reached and name not in UNREACHED)
    assert unlisted == [], "no command reaches these; delete them or list them with a reason"


def test_every_listed_function_exists_and_is_unreached(reached):
    defined = defined_functions()
    assert sorted(set(UNREACHED) - set(defined)) == []
    assert sorted(set(UNREACHED) & reached) == []


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_reason(name, reached):
    reason = UNREACHED[name]
    tag = reason.split(":")[0]
    assert tag in TAGS
    short = name.split(".")[-1]
    if tag == "repr":
        assert short == "__repr__"
    elif tag == "outside-data":
        assert name == "logprob.observe"
    elif tag == "perfbench":
        where = re.search(r"(perfbench/\S+\.py):(\d+) `([^`]+)`", reason)
        assert where, "a perfbench reason names the line and quotes it"
        lines = (REPO / where[1]).read_text(encoding="utf-8").splitlines()
        assert where[3] in lines[int(where[2]) - 1]
    elif tag == "reference":
        test = re.search(r"tests/\S+\.py", reason)
        assert test and short in (REPO / test[0]).read_text(encoding="utf-8")
    elif tag == "scoring":
        # the owner: the class of a method, or the op a gradient rule is local to
        owner = name.rsplit(".<locals>.", 1)[0] if "<locals>" in name \
            else name.rsplit(".", 1)[0]
        assert any(r == owner or r.startswith(owner + ".") for r in reached), owner
