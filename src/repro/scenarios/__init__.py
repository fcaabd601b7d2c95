"""`repro.scenarios` — the unified scenario layer (1.3).

One vocabulary drives every campaign:

* :class:`Workload` — seeded, composable, chunk-iterable stimulus
  (uniform / sequential / bursty / scrubbed / march-derived / mixed
  read-write, plus concatenation and interleaving);
* :class:`FaultScenario` — structural stuck-ats, behavioural memory
  faults, transient upsets and multi-fault combinations under one
  hierarchy;
* :class:`CampaignEngine` — the facade routing any scenario family to
  the ``"packed"`` fast path or the ``"serial"`` bit-identity oracle,
  with ``collapse`` / ``workers`` / ``chunk`` execution policy.

The pre-1.3 helpers (``random_addresses``, ``scrubbed_stream``,
``march_address_stream``, ``transient_campaign``) remain as thin shims
over these types; see CHANGES.md for the migration table.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.scenarios.engine import CampaignEngine
    from repro.scenarios.faults import (
        FaultScenario,
        MemoryScenario,
        StructuralScenario,
        TransientScenario,
        as_scenarios,
    )
    from repro.scenarios.workload import (
        NAMED_WORKLOADS,
        Access,
        BurstyWorkload,
        ConcatWorkload,
        ExplicitWorkload,
        InterleavedWorkload,
        MarchWorkload,
        MixedWorkload,
        ScrubbedWorkload,
        SequentialWorkload,
        UniformWorkload,
        Workload,
        as_workload,
        named_workload,
        workload_kinds,
    )

__all__ = [
    "Access",
    "Workload",
    "UniformWorkload",
    "SequentialWorkload",
    "BurstyWorkload",
    "ScrubbedWorkload",
    "MarchWorkload",
    "MixedWorkload",
    "ExplicitWorkload",
    "ConcatWorkload",
    "InterleavedWorkload",
    "NAMED_WORKLOADS",
    "named_workload",
    "workload_kinds",
    "as_workload",
    "FaultScenario",
    "StructuralScenario",
    "MemoryScenario",
    "TransientScenario",
    "as_scenarios",
    "CampaignEngine",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".engine": ("CampaignEngine",),
        ".faults": (
            "FaultScenario",
            "MemoryScenario",
            "StructuralScenario",
            "TransientScenario",
            "as_scenarios",
        ),
        ".workload": (
            "NAMED_WORKLOADS",
            "Access",
            "BurstyWorkload",
            "ConcatWorkload",
            "ExplicitWorkload",
            "InterleavedWorkload",
            "MarchWorkload",
            "MixedWorkload",
            "ScrubbedWorkload",
            "SequentialWorkload",
            "UniformWorkload",
            "Workload",
            "as_workload",
            "named_workload",
            "workload_kinds",
        ),
    },
)
