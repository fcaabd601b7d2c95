"""Shared machinery: the run context, child processes, statistics and
the output checks.

Every child is a fresh interpreter with ``PYTHONPATH=<checkout>/src``;
its wall time runs from spawn to reap, and its peak RSS is the
``ru_maxrss`` that ``wait4`` reports for it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Run(NamedTuple):
    """One finished child: wall seconds from spawn to reap, exit code,
    peak RSS and CPU seconds (user + system)."""

    wall: float
    code: int
    rss_mb: float
    cpu_s: float


class CheckFailed(RuntimeError):
    """An output of the program is wrong: the run reports no metrics."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(p, value) for the highest of p90/p95/p99/p99.9 that has at least
    ten samples beyond it (nearest rank); ``None`` when no such p."""
    ordered = sorted(values)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
            best = (p, ordered[rank - 1])
    return best


def describe(values: Sequence[float], unit: str) -> dict:
    """Median, sample count and tail of one timing series, with the
    samples themselves when there are few."""
    out = {"median": median(values), "n": len(values), "unit": unit}
    high = tail(values)
    if high is not None:
        out[f"p{high[0]:g}"] = high[1]
    if len(values) <= 64:
        out["samples"] = list(values)
    return out


# -- the scientific payload --------------------------------------------------------

#: summary fields that carry the paper's results; store keys and engine
#: labels stay out so a key-format or engine change cannot trip a check
PAYLOAD_FIELDS = (
    "code", "a_final", "escape_per_cycle", "faults", "detected",
    "coverage", "mean_detection_cycle", "max_detection_cycle",
)


def payload_digest(cells: List[dict]) -> str:
    """Order-free sha256 over each cell's family and payload fields."""
    items = sorted(
        json.dumps(
            [
                cell["family"],
                {
                    name: cell["summary"][name]
                    for name in PAYLOAD_FIELDS
                    if name in cell["summary"]
                },
            ],
            sort_keys=True,
        )
        for cell in cells
    )
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def check_report(report: dict, where: str) -> None:
    """No error cells, and every campaign summary is self-consistent."""
    execution = report["execution"]
    check(execution["errors"] == 0, f"{where}: {execution['errors']} error cell(s)")
    for cell in report["cells"]:
        check(
            cell["execution"]["status"] in ("ran", "hit") and not cell["error"],
            f"{where}: cell {cell['cell']} is {cell['execution']['status']}: "
            f"{cell['error']}",
        )
        summary = cell["summary"]
        if "faults" in summary:
            faults, detected = summary["faults"], summary["detected"]
            check(
                0 <= detected <= faults
                and (not faults or summary["coverage"] == round(detected / faults, 6)),
                f"{where}: cell {cell['cell']} summary is inconsistent",
            )


# -- the run context -----------------------------------------------------------


class Bench:
    """One benchmark run: its work directory, environment and children."""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.state = os.path.join(ROOT, ".perfbench")
        self.work = os.path.join(self.state, "work")
        self.traces = os.path.join(self.state, "traces")
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("PYTHON", "REPRO_"))
        }
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.children: List[subprocess.Popen] = []
        self._dirs = 0

    def __enter__(self) -> "Bench":
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(self.traces, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self.children:
            if child.returncode is None:
                child.kill()
                child.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def build(self) -> None:
        """Byte-compile the sources once, so no timed run pays for it."""
        run = self.python(["-m", "compileall", "-q", os.path.join(ROOT, "src")])
        check(run.code == 0, "compileall failed")

    # -- children ----------------------------------------------------------------

    def spawn(self, argv: List[str], **popen) -> subprocess.Popen:
        child = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=self.env, **popen
        )
        self.children.append(child)
        return child

    def reap(self, child: subprocess.Popen) -> Tuple[int, float, float]:
        """Wait for a child: (exit code, peak RSS in MB, CPU seconds)."""
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(child)
        cpu = usage.ru_utime + usage.ru_stime
        return child.returncode, usage.ru_maxrss / 1024.0, cpu

    def python(self, argv: List[str], stdout: str = os.devnull) -> Run:
        """Run a fresh interpreter to completion.  Standard error goes
        next to ``stdout`` (or nowhere)."""
        errors = stdout + ".err" if stdout != os.devnull else os.devnull
        with open(stdout, "wb") as out, open(errors, "wb") as err:
            start = time.perf_counter()
            child = self.spawn(argv, stdout=out, stderr=err)
            code, rss, cpu = self.reap(child)
            wall = time.perf_counter() - start
        return Run(wall, code, rss, cpu)

    def loop(self, minimum: int, seconds: Optional[float] = None):
        """Iteration indices until ``seconds`` (default: the run length)
        have passed and at least ``minimum`` iterations ran."""
        budget = self.seconds if seconds is None else seconds
        start = time.perf_counter()
        index = 0
        while index < minimum or time.perf_counter() - start < budget:
            yield index
            index += 1

    # -- result stamp ------------------------------------------------------------

    def stamp(self) -> Dict[str, object]:
        import importlib.metadata
        import platform

        sha = None
        if os.path.isdir(os.path.join(ROOT, ".git")):
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True,
            )
            sha = done.stdout.strip() or None
        digest = hashlib.sha256()
        src = os.path.join(ROOT, "src")
        for folder, dirs, files in sorted(os.walk(src)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, src).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        try:
            numpy = importlib.metadata.version("numpy")
        except importlib.metadata.PackageNotFoundError:
            numpy = None
        return {
            "git_sha": sha,
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)),
        }
