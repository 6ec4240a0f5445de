"""One benchmark child process: import ecosim, optionally run one CLI command.

Usage: ``python -m perfbench.child REQUEST.json``, run from the checkout
root with ``src`` on ``PYTHONPATH``.  The request names the CLI argv (or
none, for an import-only spawn), the artifacts it must write, whether to
trace, whether to run the layer probes, and where to write the result and
the spans.

The command runs through ``ecosim.cli.main(argv)`` rather than
``python -m ecosim.cli``: the latter warns, because ``ecosim/__init__.py``
already imports ``cli``.  The child also checks and digests its own
artifacts, after it has measured its peak RSS, so that the parent never
holds the large outputs in memory.
"""

import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import ecosim.cli

IMPORTED_AT = time.monotonic()


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak RSS of this program image or of any reaped child (pool workers).

    VmHWM, not ``ru_maxrss`` of this process: after exec the latter also
    counts the image of the process that spawned this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(hwm_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _run_cli(argv: list[str]) -> int:
    try:
        return ecosim.cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        return e.code if isinstance(e.code, int) else 1


def main(request_path: str) -> int:
    import numpy
    import scipy

    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    result = {"imported_at": IMPORTED_AT, "ecosim_file": ecosim.cli.__file__,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if request.get("argv") is not None:
        tracer = patches = None
        if request.get("trace"):
            from perfbench import spans
            tracer = spans.Tracer()
            patches, result["trace_missing"] = spans.install(tracer)
        cpu0, workers0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            result["exit_code"] = _run_cli(request["argv"])
        finally:
            result["wall_s"] = time.perf_counter() - t0
            if patches is not None:
                patches.restore()
        result["cpu_s"] = _cpu(resource.RUSAGE_SELF) - cpu0
        result["worker_cpu_s"] = _cpu(resource.RUSAGE_CHILDREN) - workers0
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            with open(request["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        from perfbench.checks import inspect_run
        hits = Counter()
        checked = inspect_run("", result["exit_code"], Path(request["out"]),
                              tuple(request["artifacts"]), hits)
        result.update(digests=checked.digests, problems=checked.problems,
                      exclusion_hits=dict(hits))
    if request.get("probes"):
        from perfbench.probes import run_probes
        result["probes"] = run_probes(Path(request["scratch"]))
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
