"""The paper's primary contribution: latency-driven code selection,
address mappings, the analytic latency model, the assembled figure-3
scheme, the §II safety model and the trade-off explorer."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.core.latency import (
        collision_count,
        cycles_to_reach,
        detection_quantile,
        escape_probability,
        expected_detection_cycles,
        pndc,
        required_a_for,
        worst_escape_over_blocks,
        worst_escape_probability,
        worst_pndc,
    )
    from repro.core.mapping import (
        AddressMapping,
        IdentityMapping,
        ModAMapping,
        ParityMapping,
        TruncatedBergerMapping,
        mapping_for_code,
    )
    from repro.core.deterministic import (
        DeterministicBound,
        deterministic_bounds,
        scan_guarantee,
        worst_case_latency_for_site,
    )
    from repro.core.plan import MemoryCodePlan, plan_memory_codes
    from repro.core.report import design_report
    from repro.core.safety import (
        SafetyModel,
        undetectable_rate_unchecked_decoders,
        undetectable_rate_with_coverage,
    )
    from repro.core.scheme import ReadResult, SelfCheckingMemory
    from repro.core.selection import (
        CodeSelection,
        SelectionPolicy,
        evaluate_code,
        select_code,
        select_zero_latency_code,
    )
    from repro.core.tradeoff import TradeoffExplorer, TradeoffPoint

__all__ = [
    "collision_count",
    "escape_probability",
    "worst_escape_probability",
    "worst_escape_over_blocks",
    "pndc",
    "worst_pndc",
    "required_a_for",
    "cycles_to_reach",
    "expected_detection_cycles",
    "detection_quantile",
    "AddressMapping",
    "ModAMapping",
    "ParityMapping",
    "IdentityMapping",
    "TruncatedBergerMapping",
    "mapping_for_code",
    "SelectionPolicy",
    "CodeSelection",
    "select_code",
    "select_zero_latency_code",
    "evaluate_code",
    "ReadResult",
    "SelfCheckingMemory",
    "SafetyModel",
    "undetectable_rate_unchecked_decoders",
    "undetectable_rate_with_coverage",
    "TradeoffExplorer",
    "TradeoffPoint",
    "DeterministicBound",
    "deterministic_bounds",
    "scan_guarantee",
    "worst_case_latency_for_site",
    "MemoryCodePlan",
    "plan_memory_codes",
    "design_report",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".latency": (
            "collision_count",
            "cycles_to_reach",
            "detection_quantile",
            "escape_probability",
            "expected_detection_cycles",
            "pndc",
            "required_a_for",
            "worst_escape_over_blocks",
            "worst_escape_probability",
            "worst_pndc",
        ),
        ".mapping": (
            "AddressMapping",
            "IdentityMapping",
            "ModAMapping",
            "ParityMapping",
            "TruncatedBergerMapping",
            "mapping_for_code",
        ),
        ".deterministic": (
            "DeterministicBound",
            "deterministic_bounds",
            "scan_guarantee",
            "worst_case_latency_for_site",
        ),
        ".plan": ("MemoryCodePlan", "plan_memory_codes"),
        ".report": ("design_report",),
        ".safety": (
            "SafetyModel",
            "undetectable_rate_unchecked_decoders",
            "undetectable_rate_with_coverage",
        ),
        ".scheme": ("ReadResult", "SelfCheckingMemory"),
        ".selection": (
            "CodeSelection",
            "SelectionPolicy",
            "evaluate_code",
            "select_code",
            "select_zero_latency_code",
        ),
        ".tradeoff": ("TradeoffExplorer", "TradeoffPoint"),
    },
)
