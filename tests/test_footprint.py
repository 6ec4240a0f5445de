"""Import footprint: no command loads OpenSSL's libcrypto or ``numpy.random``.

Every number a command draws comes from :mod:`ecosim.rng`'s keyed Philox
streams, whose keys take BLAKE2b from CPython's built-in ``_blake2``.
Importing ``hashlib`` would load ``_hashlib`` and with it libcrypto, and
``numpy.random`` loads it too (through ``secrets`` and ``hmac``); each
costs a few MB of resident memory in every process.  One fresh
interpreter runs every command through ``cli.main`` at tiny sizes and
reports which of those modules it holds.  It imports nothing but
``ecosim.cli``: pytest is not loaded there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ecosim

from test_reach import TINY_ECOSYSTEM, TINY_LATENT_SAT, TINY_PORL

SRC = Path(ecosim.__file__).resolve().parent
LOADED = ("_hashlib", "numpy.random")
FORBIDDEN_IMPORTS = ("hashlib", "random", "secrets", "numpy.random")

COMMANDS = [
    ["simulate", "--scenario", "count", "--horizon", "3"],
    ["simulate", "--scenario", "porl"] + TINY_PORL,
    ["simulate", "--scenario", "latent-sat"] + TINY_LATENT_SAT,
    ["simulate", "--scenario", "ecosystem"] + TINY_ECOSYSTEM,
    ["train-reinforce"] + TINY_PORL + ["--set", "iterations=1"],
    ["fit-em"] + TINY_LATENT_SAT + ["--set", "em.iterations=1", "--set", "hmc_num_samples=2",
                                    "--set", "hmc_burn_in=1", "--set", "hmc_num_leapfrog=2"],
    ["ecosystem-sweep", "--runs", "2"] + TINY_ECOSYSTEM,
]

# Runs each command (argv[1], a JSON list) with its own --out under
# argv[2], then prints the exit codes and which of LOADED it holds.
CHILD = """
import json, sys
import ecosim.cli
commands, out, loaded = json.loads(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
codes = [ecosim.cli.main(argv + ["--out", f"{out}/{i}"]) for i, argv in enumerate(commands)]
print(json.dumps({"codes": codes, "loaded": [m for m in loaded if m in sys.modules]}))
"""


def test_no_command_loads_hashlib_or_numpy_random(tmp_path):
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS), str(tmp_path), json.dumps(LOADED)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(COMMANDS), run.stderr
    assert report["loaded"] == []


def _imports(tree: ast.AST):
    """Every module an ``import`` names, and ``np.random``/``numpy.random``
    attribute reads as ``numpy.random``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield "numpy.random"


def test_no_module_imports_a_second_rng_or_hashlib():
    found = sorted(f"{path.relative_to(SRC)}: {name}"
                   for path in SRC.rglob("*.py")
                   for name in _imports(ast.parse(path.read_text(encoding="utf-8")))
                   if name in FORBIDDEN_IMPORTS)
    assert found == []
