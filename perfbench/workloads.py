"""The workloads, each run as a user runs it.

Each spawns ``python -m repro suite run paper_grid --store S --json``
from a fresh interpreter, one at a time.  With tracing on, the same
command runs in process under ``perfbench/inproc.py`` instead,
alternating untraced and traced runs.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Dict, List, Optional

import tracing
from bench import (
    HERE,
    Bench,
    check,
    check_report,
    describe,
    median,
    payload_digest,
)

#: fresh-interpreter samples behind ``setup_s`` in every run
SETUP_RUNS = 5
#: ``--seed`` default; ``paper_grid`` is fixed by the paper, so no input
#: depends on it yet
DEFAULT_SEED = 1
IMPORT_PROBE = (
    "import sys; before = set(sys.modules); import repro; "
    "print(len(set(sys.modules) - before), int('numpy' in sys.modules))"
)


class Result:
    """What a workload hands back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, object] = {}
        self.attempted = 0


def _setup_probe(bench: Bench) -> float:
    """``setup_s`` of one fresh interpreter: ``repro --version`` exits."""
    out = os.path.join(bench.work, "version.txt")
    run = bench.python(["-m", "repro", "--version"], stdout=out)
    with open(out) as handle:
        text = handle.read()
    check(run.code == 0 and text.startswith("repro "), f"--version printed {text!r}")
    return run.wall


def _cli_layer(bench: Bench, result: Result) -> None:
    """``cli.*``: fresh-interpreter ``import repro`` minus ``python -c
    pass``, and what the import loads."""
    bare, full = [], []
    out = os.path.join(bench.work, "import.txt")
    for _ in range(SETUP_RUNS):
        bare.append(bench.python(["-c", "pass"]).wall)
        run = bench.python(["-c", IMPORT_PROBE], stdout=out)
        check(run.code == 0, "import repro failed")
        full.append(run.wall)
    with open(out) as handle:
        modules, numpy = (int(word) for word in handle.read().split())
    result.metrics.update({
        "cli.import_s": median(full) - median(bare),
        "cli.modules_loaded": modules,
        "cli.numpy_loaded": numpy,
    })
    result.attempted += 2 * SETUP_RUNS


# -- suite workloads -----------------------------------------------------------


class SuiteCase:
    """One ``repro suite run`` workload."""

    def __init__(self, name: str, suite: str, resume: bool):
        self.name = name
        self.suite = suite
        self.resume = resume
        self.shared_store: Optional[str] = None

    def prepare(self, bench: Bench) -> None:
        if self.resume:
            # filled outside the timed region; every timed run only reads
            self.shared_store = bench.fresh_dir("store")
            out = os.path.join(bench.work, "fill.json")
            run = bench.python(self.argv(self.shared_store), stdout=out)
            check(run.code == 0, "filling the store failed")

    def store(self, bench: Bench) -> str:
        if self.shared_store:
            return self.shared_store
        return bench.fresh_dir("store")

    def argv(self, store: str) -> List[str]:
        return ["-m", "repro"] + self.args(store)

    def args(self, store: str) -> List[str]:
        return ["suite", "run", self.suite, "--store", store, "--json"]

    def check(self, report: dict, expected: str) -> str:
        check_report(report, self.name)
        if self.resume:
            for cell in report["cells"]:
                execution = cell["execution"]
                check(
                    execution["status"] == "hit" and execution["verified"],
                    f"{self.name}: cell {cell['cell']} was not a verified hit",
                )
        digest = payload_digest(report["cells"])
        check(
            digest == expected,
            f"{self.name}: payload digest {digest[:16]} != expected {expected[:16]}",
        )
        return digest


#: workload -> (suite, resume)
SUITE_WORKLOADS = {
    "paper_grid_cold": ("paper_grid", False),
    "paper_grid_resume": ("paper_grid", True),
}


def _read_report(path: str, code: int, where: str) -> dict:
    check(code == 0, f"{where}: exit code {code}")
    with open(path) as handle:
        return json.load(handle)


def run_suite(bench: Bench, name: str, expected: dict) -> Result:
    result = Result()
    case = SuiteCase(name, *SUITE_WORKLOADS[name])
    want = expected[case.suite]
    setup = [] if bench.trace else [_setup_probe(bench) for _ in range(SETUP_RUNS)]
    case.prepare(bench)
    digests = set()
    if bench.trace:
        _cli_layer(bench, result)
        _suite_traced(bench, case, want, result, digests)
    else:
        walls, rss, cpu = [], [], []
        out = os.path.join(bench.work, "report.json")
        for _ in bench.loop(minimum=3):
            run = bench.python(case.argv(case.store(bench)), stdout=out)
            digests.add(case.check(_read_report(out, run.code, case.name), want))
            walls.append(run.wall)
            rss.append(run.rss_mb)
            cpu.append(run.cpu_s)
        result.metrics.update({
            "setup_s": median(setup),
            "wall_s": median(walls),
            "peak_rss_mb": median(rss),
        })
        result.details["timings"] = {
            "setup_s": describe(setup, "s"),
            "wall_s": describe(walls, "s"),
            "cpu_s": describe(cpu, "s"),
            "peak_rss_mb": describe(rss, "MB"),
        }
        result.attempted += len(walls)
    check(len(digests) == 1, f"{case.name}: runs disagree on the payload")
    result.details["digest"] = digests.pop()
    result.attempted += len(setup)
    return result


def _suite_traced(bench: Bench, case: SuiteCase, want, result: Result, digests) -> None:
    walls: Dict[bool, List[float]] = {False: [], True: []}
    layers: List[Dict[str, float]] = []
    out = os.path.join(bench.work, "report.json")
    spans = os.path.join(bench.work, "spans.jsonl")
    timing = os.path.join(bench.work, "timing.json")
    for _ in bench.loop(minimum=2):
        for traced in (False, True):
            argv = [os.path.join(HERE, "inproc.py"), "--timing", timing, "--stdout", out]
            if traced:
                argv += ["--trace", spans]
            argv += ["--"] + case.args(case.store(bench))
            run = bench.python(argv, stdout=os.path.join(bench.work, "inproc.log"))
            digests.add(case.check(_read_report(out, run.code, case.name), want))
            with open(timing) as handle:
                walls[traced].append(json.load(handle)["wall_s"])
            if traced:
                layers.append(tracing.layer_metrics(tracing.read_spans(spans)))
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        # counts repeat exactly; report them as they are
        result.metrics[name] = values[0] if len(set(values)) == 1 else median(values)
    result.metrics["trace.inproc_s"] = median(walls[False])
    result.metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    result.attempted += len(walls[False]) + len(walls[True])
    result.details["trace_file"] = _keep_trace(bench, spans, case.name)


def _keep_trace(bench: Bench, spans: str, name: str) -> str:
    path = os.path.join(bench.traces, f"{name}-seed{bench.seed}.jsonl")
    shutil.copyfile(spans, path)
    return os.path.relpath(path, os.path.dirname(HERE))
