"""Gate-level decoder trees (§III.2) and their analytic fault analysis."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.decoder.analysis import (
        DecoderAnalysis,
        FaultSite,
        analyze_decoder,
        classify_fault_sites,
        sa1_escape_closed_form,
        sa1_escape_exhaustive,
    )
    from repro.decoder.flat import FlatDecoder
    from repro.decoder.tree import DecoderTree, DecodingBlock, build_decoder

__all__ = [
    "FlatDecoder",
    "DecoderTree",
    "DecodingBlock",
    "build_decoder",
    "DecoderAnalysis",
    "FaultSite",
    "analyze_decoder",
    "classify_fault_sites",
    "sa1_escape_closed_form",
    "sa1_escape_exhaustive",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".analysis": (
            "DecoderAnalysis",
            "FaultSite",
            "analyze_decoder",
            "classify_fault_sites",
            "sa1_escape_closed_form",
            "sa1_escape_exhaustive",
        ),
        ".flat": ("FlatDecoder",),
        ".tree": ("DecoderTree", "DecodingBlock", "build_decoder"),
    },
)
