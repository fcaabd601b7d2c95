"""Spans around calls into each ``repro`` layer, recorded from outside.

The program's source is not instrumented: :func:`install` replaces the
public functions listed in :data:`PROBES` with wrappers, patching each
name where its caller looks it up (a module attribute for a function
imported at call time, the class attribute for a method).  A span
records its name, start, end and parent; spans stay in memory and
:meth:`Tracer.write` dumps them as JSONL when the run ends.  The traced
command is single-threaded (``suite run`` without ``--workers``), so one
stack of open spans suffices.

:func:`layer_metrics` turns a span list into the per-layer metrics.  A
span's self time is its duration minus its child spans (children nest
inside their parent, so their durations add up).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._stack: List[dict] = []

    def current(self) -> Optional[str]:
        return self._stack[-1]["name"] if self._stack else None

    def open(self, name: str) -> dict:
        span = {
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- probes -------------------------------------------------------------------


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_len(key: str) -> Callable:
    def count(span, args, kwargs, result):
        span[key] = len(result)

    return count


def _kernel_work(faults_from: Callable) -> Callable:
    """Campaign size of one simulator call: faults x stimulus cycles."""

    def count(span, args, kwargs, result):
        span["fault_cycles"] = faults_from(args, kwargs) * int(
            result.cycles_simulated
        )

    return count


def _decoder_faults(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["faults"])


def _scheme_faults(args, kwargs) -> int:
    return sum(
        len(kwargs.get(name, ()))
        for name in ("row_faults", "column_faults", "memory_faults")
    )


def _map_jobs_name(args, kwargs) -> str:
    # (worker, (ram, workload, engine, ...), jobs, workers)
    return f"faultsim.{args[1][2]}"


def _map_jobs_work(span, args, kwargs, result):
    span["fault_cycles"] = len(args[2]) * len(args[1][1])


def _collapse_counts(span, args, kwargs, result):
    span["faults_listed"] = result.total
    span["faults_simulated"] = len(result.classes)


def _store_read(span, args, kwargs, result):
    store, key = args[0], args[1]
    span["hit"] = result is not None
    if result is not None:
        span["bytes"] = _size(os.path.join(store.root, f"{key}.jsonl"))


def _report_read(span, args, kwargs, result):
    store, key = args[0], args[1]
    span["hit"] = result is not None
    if result is not None:
        span["bytes"] = _size(os.path.join(store.root, "reports", f"{key}.json"))


def _store_write(span, args, kwargs, result):
    span["bytes"] = _size(os.path.join(args[0].root, f"{result}.jsonl"))


def _report_write(span, args, kwargs, result):
    span["bytes"] = _size(
        os.path.join(args[0].root, "reports", f"{result}.json")
    )


def _verify_name(tracer: Tracer) -> Callable:
    """``content_digest`` under a store read is its verification; other
    callers (key derivation, puts) keep the time as their own."""

    def name(args, kwargs) -> Optional[str]:
        return "results.verify" if tracer.current() == "results.get" else None

    return name


#: (module, owner attribute or None, function attribute, span name,
#:  result hook).  The owner is the class for methods; a span name may
#:  be a callable of the call's (args, kwargs) that returns ``None`` to
#:  leave that call untraced.
PROBES = [
    ("repro.cli", None, "build_parser", "cli.parse", None),
    ("repro.suite", None, "load_suite", "suite.expand", None),
    ("repro.suite.spec", "SuiteSpec", "cells", "suite.expand",
     _count_len("cells")),
    ("repro.suite.runner", "SuiteRunner", "run", "suite.run", None),
    ("repro.suite.runner", None, "execute_cell", "suite.cell", None),
    ("repro.suite.populations", None, "build_population",
     "suite.population", None),
    ("repro.suite.report", "SuiteReport", "to_dict", "suite.report", None),
    ("repro.suite.report", "SuiteReport", "to_json", "suite.report", None),
    ("repro.scenarios", None, "named_workload", "scenarios.workload", None),
    ("repro.scenarios.workload", "Workload", "from_dict",
     "scenarios.workload", None),
    ("repro.scenarios.workload", "Workload", "address_list",
     "scenarios.workload", _count_len("cycles")),
    ("repro.scenarios.workload", "Workload", "chunks",
     "scenarios.workload", _count_len("cycles")),
    ("repro.scenarios.engine", "CampaignEngine", "decoder",
     "scenarios.campaign", None),
    ("repro.scenarios.engine", "CampaignEngine", "scheme",
     "scenarios.campaign", None),
    ("repro.scenarios.engine", "CampaignEngine", "transient",
     "scenarios.campaign", None),
    ("repro.scenarios.engine", "CampaignEngine", "march",
     "scenarios.campaign", None),
    ("repro.design.engine", "DesignEngine", "evaluate", "design.evaluate",
     None),
    ("repro.design.engine", "DesignEngine", "report_key", "design.evaluate",
     None),
    ("repro.design.engine", "DesignEngine", "plan", "design.build", None),
    ("repro.design.engine", "DesignEngine", "build", "design.build", None),
    ("repro.rom.nor_matrix", "CheckedDecoder", "__init__", "design.build",
     None),
    ("repro.faultsim.fastsim", None, "collapse_faults", "circuits.collapse",
     _collapse_counts),
    ("repro.faultsim.fastsim", None, "decoder_campaign_packed",
     "faultsim.packed", _kernel_work(_decoder_faults)),
    ("repro.faultsim.fastsim", None, "scheme_campaign_packed",
     "faultsim.packed", _kernel_work(_scheme_faults)),
    ("repro.faultsim.vectorsim", None, "decoder_campaign_vector",
     "faultsim.vector", _kernel_work(_decoder_faults)),
    ("repro.faultsim.vectorsim", None, "scheme_campaign_vector",
     "faultsim.vector", _kernel_work(_scheme_faults)),
    # transient and march campaigns reach the kernels through the
    # job mapper the scenario engine imported from fastsim
    ("repro.scenarios.engine", None, "_map_jobs", _map_jobs_name,
     _map_jobs_work),
    ("repro.results.store", "ResultStore", "get", "results.get", None),
    ("repro.results.store", "ResultStore", "payload", "results.get",
     _store_read),
    ("repro.results.store", "ResultStore", "get_report", "results.get",
     _report_read),
    ("repro.results.store", "ResultStore", "put", "results.put",
     _store_write),
    ("repro.results.store", "ResultStore", "put_report", "results.put",
     _report_write),
    ("repro.results.store", None, "content_digest", "results.verify", None),
]


def _wrap(tracer: Tracer, function: Callable, name, hook) -> Callable:
    def span_name(args, kwargs) -> Optional[str]:
        return name(args, kwargs) if callable(name) else name

    if inspect.isgeneratorfunction(function):
        # each resume of the generator is one span, so the time the
        # consumer spends between items stays with the consumer
        @functools.wraps(function)
        def traced_gen(*args, **kwargs):
            items = function(*args, **kwargs)
            label = span_name(args, kwargs)
            while True:
                span = tracer.open(label)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                if hook is not None:
                    hook(span, args, kwargs, item)
                yield item

        return traced_gen

    @functools.wraps(function)
    def traced(*args, **kwargs):
        label = span_name(args, kwargs)
        if label is None:
            return function(*args, **kwargs)
        span = tracer.open(label)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Patch every probe; must run before the program's first call."""
    for module_name, owner_name, attr, name, hook in PROBES:
        module = importlib.import_module(module_name)
        if name == "results.verify":
            name = _verify_name(tracer)
        if owner_name is None:
            setattr(module, attr, _wrap(tracer, getattr(module, attr), name, hook))
            continue
        owner = getattr(module, owner_name)
        owners = [owner] + [
            sub for sub in _subclasses(owner) if attr in vars(sub)
        ]
        for cls in owners:
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(
                    _wrap(tracer, raw.__func__, name, hook)
                ))
            else:
                setattr(cls, attr, _wrap(tracer, raw, name, hook))


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- analysis -----------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> its duration minus its children's durations."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer busy time (self seconds) and work counts of one run."""
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def busy(*names: str) -> float:
        return sum(own[s["id"]] for n in names for s in by_name.get(n, ()))

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def total_all(key: str, *names: str) -> int:
        return sum(total(name, key) for name in names)

    reads = [s for s in by_name.get("results.get", ()) if "hit" in s]
    hits = sum(1 for s in reads if s["hit"])
    listed = total("circuits.collapse", "faults_listed")
    simulated = total("circuits.collapse", "faults_simulated")
    kernels = ("faultsim.packed", "faultsim.vector", "faultsim.serial")
    kernel_s = busy(*kernels)
    fault_cycles = total_all("fault_cycles", *kernels)
    roots = [s for s in spans if s["parent"] is None]
    root_s = sum(s["end"] - s["start"] for s in roots)
    named_s = sum(own[s["id"]] for s in spans if s["parent"] is not None)
    return {
        "suite.expand_s": busy("suite.expand"),
        "suite.report_s": busy("suite.report"),
        "suite.run_s": busy("suite.run", "suite.cell", "suite.population"),
        "suite.cells": total("suite.expand", "cells"),
        "scenarios.workload_s": busy("scenarios.workload"),
        "scenarios.campaign_s": busy("scenarios.campaign"),
        "scenarios.cycles_generated": total("scenarios.workload", "cycles"),
        "design.evaluate_s": busy("design.evaluate"),
        "design.build_s": busy("design.build"),
        "design.calls": len(by_name.get("design.evaluate", ()))
        + len(by_name.get("design.build", ())),
        "circuits.collapse_s": busy("circuits.collapse"),
        "circuits.faults_listed": listed,
        "circuits.faults_simulated": simulated,
        "circuits.collapse_ratio": simulated / listed if listed else 0.0,
        "faultsim.packed_s": busy("faultsim.packed"),
        "faultsim.vector_s": busy("faultsim.vector"),
        "faultsim.fault_cycles": fault_cycles,
        "faultsim.fault_cycles_per_s": (
            fault_cycles / kernel_s if kernel_s else 0.0
        ),
        "results.get_s": busy("results.get"),
        "results.verify_s": busy("results.verify"),
        "results.put_s": busy("results.put"),
        "results.hits": hits,
        "results.misses": len(reads) - hits,
        "results.hit_frac": hits / len(reads) if reads else 0.0,
        "results.bytes_read": total("results.get", "bytes"),
        "results.bytes_written": total("results.put", "bytes"),
        "trace.spans": len(spans),
        "trace.coverage": named_s / root_s if root_s else 0.0,
    }
