"""Output checks behind the benchmark's failure count.

Every artifact a CLI run writes must start with its ``# schema=`` line and
hold only finite numbers, and the runs of one invocation (same code, same
seed) must write byte-identical artifacts.  Exactly two timing fields are
taken out before the bytes are compared; ``EXCLUSIONS`` names them.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Exclusion:
    """A timing field blanked before digesting: a whole row whose cells
    include ``key`` (``kind="row"``), or the column headed ``key``."""

    file: str
    kind: str
    key: str
    note: str


EXCLUSIONS = (
    Exclusion("summary.csv", "row", "wall_clock_s",
              "known defect: ecosystem-sweep writes its wall clock into summary.csv, "
              "which is why the Tier-1 test test_cli.py::TestEcosystemSweep::"
              "test_deterministic_across_worker_counts fails"),
    Exclusion("em_trace.csv", "column", "wall_clock_ms",
              "fit-em's per-iteration timing column, kept in em_trace.csv by design"),
)

_NON_FINITE = re.compile(rb"(?:^|,)[+-]?(?:nan|inf)(?:,|$)", re.MULTILINE | re.IGNORECASE)


def normalized(name: str, data: bytes, hits: Counter | None = None) -> bytes:
    """``data`` with the excluded timing fields of file ``name`` removed.

    ``hits`` counts, per exclusion key, how many rows it changed.
    """
    rules = [e for e in EXCLUSIONS if e.file == name]
    if not rules:
        return data
    lines = data.decode("utf-8").split("\n")
    header = next((i for i, line in enumerate(lines) if not line.startswith("#")), None)
    for rule in rules:
        if header is None:
            break
        if rule.kind == "row":
            kept = [line for line in lines[header + 1:] if rule.key not in line.split(",")]
            changed = len(lines) - header - 1 - len(kept)
            lines = lines[: header + 1] + kept
        else:
            cells = lines[header].split(",")
            if rule.key not in cells:
                continue
            col = cells.index(rule.key)
            changed = 0
            for i in range(header + 1, len(lines)):
                row = lines[i].split(",")
                if len(row) > col:
                    row[col] = ""
                    lines[i] = ",".join(row)
                    changed += 1
        if hits is not None and changed:
            hits[rule.key] += changed
    return "\n".join(lines).encode("utf-8")


def artifact_problems(name: str, data: bytes) -> list[str]:
    """Schema line and finiteness of one CSV artifact."""
    if not data.startswith(b"# schema="):
        return [f"{name}: no '# schema=' line"]
    body_start = data.find(b"\n", data.find(b"\n") + 1) + 1  # after schema and header
    if body_start and _NON_FINITE.search(data, body_start):
        return [f"{name}: non-finite number"]
    return []


@dataclass
class RunOutput:
    """What one CLI run left behind, reduced to digests and problems."""

    label: str
    exit_code: int
    digests: dict[str, str]
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def inspect_run(label: str, exit_code: int, outdir: Path, expected: tuple[str, ...],
                hits: Counter | None = None) -> RunOutput:
    """Digest every artifact under ``outdir`` and check it."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    digests: dict[str, str] = {}
    files = sorted(p for p in outdir.rglob("*") if p.is_file()) if outdir.is_dir() else []
    for path in files:
        rel = path.relative_to(outdir).as_posix()
        data = path.read_bytes()
        problems += artifact_problems(rel, data)
        digests[rel] = hashlib.sha256(normalized(path.name, data, hits)).hexdigest()
    problems += [f"missing artifact {name}" for name in expected if name not in digests]
    return RunOutput(label, exit_code, digests, problems)


def compare_digests(runs: list[RunOutput], files: tuple[str, ...] | None = None) -> None:
    """Fail every run whose artifacts differ from a strict majority of the runs.

    ``files`` restricts the comparison to those artifacts.  With no strict
    majority (two runs that differ, say) every run fails.
    """
    def key(run: RunOutput):
        items = run.digests.items()
        return tuple(sorted((k, v) for k, v in items if files is None or k in files))

    votes = Counter(key(run) for run in runs)
    winner, count = votes.most_common(1)[0] if votes else (None, 0)
    for run in runs:
        if key(run) != winner or 2 * count <= len(runs):
            others = ", ".join(r.label for r in runs if r is not run)
            run.problems.append(f"artifacts differ from the other runs ({others})")
