"""Gate-level circuit substrate: netlists, faults, builders, simulation."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.circuits.builders import (
        and_tree,
        literal_pair,
        or_tree,
        reduce_tree,
        xor_tree,
    )
    from repro.circuits.equivalence import (
        FaultClasses,
        collapse_faults,
        representative_faults,
    )
    from repro.circuits.faults import (
        FaultBase,
        NetStuckAt,
        PinStuckAt,
        enumerate_stuck_at_faults,
    )
    from repro.circuits.gates import GATE_ARITY, GateType, evaluate_gate
    from repro.circuits.netlist import Circuit, Gate
    from repro.circuits.parallel import (
        evaluate_packed,
        first_set_lane,
        lanes_equal_const,
        pack_addresses,
        pack_stimuli,
        packed_rom_words,
        popcount_lanes,
        unpack_outputs,
        xor_fold_lanes,
    )
    from repro.circuits.simulator import (
        coverage,
        detects,
        fault_free_responses,
        first_difference,
    )

__all__ = [
    "Circuit",
    "Gate",
    "GateType",
    "GATE_ARITY",
    "evaluate_gate",
    "FaultBase",
    "NetStuckAt",
    "PinStuckAt",
    "enumerate_stuck_at_faults",
    "and_tree",
    "or_tree",
    "xor_tree",
    "reduce_tree",
    "literal_pair",
    "coverage",
    "detects",
    "fault_free_responses",
    "first_difference",
    "FaultClasses",
    "collapse_faults",
    "representative_faults",
    "evaluate_packed",
    "pack_stimuli",
    "pack_addresses",
    "packed_rom_words",
    "unpack_outputs",
    "popcount_lanes",
    "lanes_equal_const",
    "xor_fold_lanes",
    "first_set_lane",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".builders": (
            "and_tree",
            "literal_pair",
            "or_tree",
            "reduce_tree",
            "xor_tree",
        ),
        ".equivalence": (
            "FaultClasses",
            "collapse_faults",
            "representative_faults",
        ),
        ".faults": (
            "FaultBase",
            "NetStuckAt",
            "PinStuckAt",
            "enumerate_stuck_at_faults",
        ),
        ".gates": ("GATE_ARITY", "GateType", "evaluate_gate"),
        ".netlist": ("Circuit", "Gate"),
        ".parallel": (
            "evaluate_packed",
            "first_set_lane",
            "lanes_equal_const",
            "pack_addresses",
            "pack_stimuli",
            "packed_rom_words",
            "popcount_lanes",
            "unpack_outputs",
            "xor_fold_lanes",
        ),
        ".simulator": (
            "coverage",
            "detects",
            "fault_free_responses",
            "first_difference",
        ),
    },
)
