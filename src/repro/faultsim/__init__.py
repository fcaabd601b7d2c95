"""Monte-Carlo fault-injection campaigns and their result statistics.

Campaigns run on one of three engines (``engine=`` on the drivers):
``"packed"`` — the default bit-parallel engine of
:mod:`repro.faultsim.fastsim`, one netlist traversal per fault with
structural fault collapsing and optional ``workers=N`` process-pool
sharding; ``"vector"`` — the NumPy lane-array engine of
:mod:`repro.faultsim.vectorsim`, which packs the fault axis into lanes
too (optional ``repro[vector]`` extra; ``"auto"`` selects it when NumPy
is importable); or ``"serial"``, the per-cycle reference oracle both
fast engines are proven bit-identical against.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.faultsim.campaign import (
        classify_structural_fault,
        decoder_campaign,
        default_scheme_writer,
        scheme_campaign,
    )
    from repro.faultsim.fastsim import (
        decoder_campaign_packed,
        scheme_campaign_packed,
    )
    from repro.faultsim.injector import (
        burst_addresses,
        decoder_fault_list,
        random_addresses,
        rom_fault_list,
        sample_faults,
        sequential_addresses,
    )
    from repro.faultsim.results import CampaignResult, FaultRecord
    from repro.faultsim.transient import (
        TransientResult,
        TransientUpset,
        scrubbed_stream,
        transient_campaign,
    )
    from repro.faultsim.vectorsim import (
        CAMPAIGN_ENGINES,
        decoder_campaign_vector,
        numpy_available,
        resolve_engine,
        scheme_campaign_vector,
    )

__all__ = [
    "TransientUpset",
    "TransientResult",
    "transient_campaign",
    "scrubbed_stream",
    "CAMPAIGN_ENGINES",
    "numpy_available",
    "resolve_engine",
    "decoder_campaign",
    "decoder_campaign_packed",
    "decoder_campaign_vector",
    "scheme_campaign",
    "scheme_campaign_packed",
    "scheme_campaign_vector",
    "classify_structural_fault",
    "default_scheme_writer",
    "random_addresses",
    "sequential_addresses",
    "burst_addresses",
    "decoder_fault_list",
    "rom_fault_list",
    "sample_faults",
    "CampaignResult",
    "FaultRecord",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".campaign": (
            "classify_structural_fault",
            "decoder_campaign",
            "default_scheme_writer",
            "scheme_campaign",
        ),
        ".fastsim": ("decoder_campaign_packed", "scheme_campaign_packed"),
        ".injector": (
            "burst_addresses",
            "decoder_fault_list",
            "random_addresses",
            "rom_fault_list",
            "sample_faults",
            "sequential_addresses",
        ),
        ".results": ("CampaignResult", "FaultRecord"),
        ".transient": (
            "TransientResult",
            "TransientUpset",
            "scrubbed_stream",
            "transient_campaign",
        ),
        ".vectorsim": (
            "CAMPAIGN_ENGINES",
            "decoder_campaign_vector",
            "numpy_available",
            "resolve_engine",
            "scheme_campaign_vector",
        ),
    },
)
