"""Self-checking checkers and their property verifiers."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.checkers.base import Checker, indication_valid
    from repro.checkers.berger_checker import BergerChecker
    from repro.checkers.m_out_of_n_checker import (
        MOutOfNChecker,
        build_sorting_network,
    )
    from repro.checkers.parity_checker import ParityChecker
    from repro.checkers.properties import (
        is_code_disjoint,
        is_fault_secure,
        is_self_testing,
        undetected_checker_faults,
    )
    from repro.checkers.two_rail_checker import (
        TwoRailChecker,
        build_two_rail_tree,
        two_rail_cell,
    )

__all__ = [
    "Checker",
    "indication_valid",
    "ParityChecker",
    "MOutOfNChecker",
    "build_sorting_network",
    "BergerChecker",
    "TwoRailChecker",
    "build_two_rail_tree",
    "two_rail_cell",
    "is_code_disjoint",
    "is_fault_secure",
    "is_self_testing",
    "undetected_checker_faults",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".base": ("Checker", "indication_valid"),
        ".berger_checker": ("BergerChecker",),
        ".m_out_of_n_checker": ("MOutOfNChecker", "build_sorting_network"),
        ".parity_checker": ("ParityChecker",),
        ".properties": (
            "is_code_disjoint",
            "is_fault_secure",
            "is_self_testing",
            "undetected_checker_faults",
        ),
        ".two_rail_checker": (
            "TwoRailChecker",
            "build_two_rail_tree",
            "two_rail_cell",
        ),
    },
)
