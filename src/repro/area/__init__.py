"""Area models: the paper's analytic formula and the calibrated std-cell model."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.area.gatecount import (
        GATE_AREA_CELLS,
        circuit_area_cells,
        decoder_gate_count,
        m_out_of_n_checker_gates,
        parity_checker_gates,
        two_rail_tree_gates,
    )
    from repro.area.model import AreaBreakdown, PaperAreaModel
    from repro.area.stdcell import StdCellAreaModel

__all__ = [
    "PaperAreaModel",
    "AreaBreakdown",
    "StdCellAreaModel",
    "GATE_AREA_CELLS",
    "circuit_area_cells",
    "decoder_gate_count",
    "m_out_of_n_checker_gates",
    "parity_checker_gates",
    "two_rail_tree_gates",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".gatecount": (
            "GATE_AREA_CELLS",
            "circuit_area_cells",
            "decoder_gate_count",
            "m_out_of_n_checker_gates",
            "parity_checker_gates",
            "two_rail_tree_gates",
        ),
        ".model": ("AreaBreakdown", "PaperAreaModel"),
        ".stdcell": ("StdCellAreaModel",),
    },
)
