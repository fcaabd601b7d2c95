"""Stimulus generation and fault-list construction for campaigns.

The address-stream helpers are thin shims over the 1.3
:class:`repro.scenarios.Workload` vocabulary (bit-identical traces);
new code should build workloads directly — they compose, serialise and
chunk-iterate, which bare lists cannot.  Uniform random traffic has no
helper: use ``Workload.uniform(1 << n_bits, cycles, seed=seed)``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.circuits.faults import FaultBase, NetStuckAt
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios.workload import Workload

__all__ = [
    "sequential_addresses",
    "burst_addresses",
    "decoder_fault_list",
    "rom_fault_list",
    "sample_faults",
]


def sequential_addresses(n_bits: int, cycles: int, start: int = 0) -> List[int]:
    """Linear sweep (wrapping) — a marching access pattern.

    Shim over ``Workload.sequential(1 << n_bits, cycles, start)``.
    """
    return Workload.sequential(
        1 << n_bits, cycles, start=start
    ).address_list()


def burst_addresses(
    n_bits: int,
    cycles: int,
    locality: int = 8,
    seed: int = 0,
) -> List[int]:
    """Bursty stream: short sequential runs at random bases (cache-like).

    Stresses the latency model's uniformity assumption — the empirical
    benches show detection slows when traffic never leaves a region whose
    addresses share a residue class.  Shim over ``Workload.bursty``.
    """
    return Workload.bursty(
        1 << n_bits, cycles, locality=locality, seed=seed
    ).address_list()


def decoder_fault_list(
    checked: CheckedDecoder, include_inputs: bool = False
) -> List[FaultBase]:
    """Stuck-at faults on every gate output of the decoder *tree* only.

    ROM faults are enumerated separately (:func:`rom_fault_list`) since
    the paper's analysis targets decoder faults; address-input stems are
    excluded by default (out of the scheme's fault model — see
    :mod:`repro.decoder.analysis`).
    """
    faults: List[FaultBase] = []
    if include_inputs:
        for net in checked.tree.circuit.input_nets:
            for value in (0, 1):
                faults.append(NetStuckAt(net, value))
    for gate in checked.tree.circuit.gates:
        for value in (0, 1):
            faults.append(NetStuckAt(gate.output, value))
    return faults


def rom_fault_list(checked: CheckedDecoder) -> List[FaultBase]:
    """Stuck-at faults on the NOR-matrix output nets.

    A ROM output stuck-at flips one bit of every emitted word — caught by
    the m-out-of-n checker whenever the programmed bit differs (the word
    weight goes off-m), which the X3 bench quantifies.
    """
    faults: List[FaultBase] = []
    for net in checked.rom_nets:
        for value in (0, 1):
            faults.append(NetStuckAt(net, value))
    return faults


def sample_faults(
    faults: Sequence[FaultBase], count: Optional[int], seed: int = 0
) -> List[FaultBase]:
    """Deterministic sub-sample for time-boxed campaigns (None = all)."""
    if count is None or count >= len(faults):
        return list(faults)
    rng = random.Random(seed)
    return rng.sample(list(faults), count)
