"""Packed fault-injection campaign engine (PPSFP-style fast path).

The serial drivers in :mod:`repro.faultsim.campaign` evaluate the
circuit once per (fault, cycle).  This module is the engine every
campaign consumer now routes through: per fault it runs **one**
bit-parallel netlist traversal over the entire address stream
(:func:`repro.circuits.parallel.evaluate_packed`, lane ``k`` = cycle
``k``) and recovers the campaign observables with bit tricks —

* ``first_error`` — OR-fold of lane-wise mismatch words against the
  golden selected-line words; first set bit
  (``(diff & -diff).bit_length() - 1``) = first corrupt-data cycle;
* ``first_detection`` — packed checker acceptance
  (:meth:`repro.checkers.base.Checker.accepts_packed`: carry-save
  popcount for m-out-of-n/Berger weight, XOR-fold for parity/two-rail);
  first zero bit = first cycle the observer flags a non-code word.

A fault's cost follows its cone, not the circuit's width.  The cone
walk reports the nets whose word left golden, and ``err`` is built from
the changed line nets only — exact because the stream checks once that
every fault-free line equals its golden one-hot word (otherwise it
compares all ``2^n`` lines).  Wide OR/NOR/AND/NAND gates (fan-in >=
:data:`WIDE_FANIN`, the ROM columns) are updated from their changed
inputs: with ``old``/``new`` the OR of the changed inputs' golden/faulty
controlling lanes, the output's controlling lanes become
``(golden & ~old) | new``.  That is exact unless some lane of ``old``
also had a second controlling input, which is checked against a
precomputed ``twos`` word; such a gate, or one with a pin fault, is
re-evaluated in full.

Layered on top of the packed traversals:

* structural fault collapsing (:mod:`repro.circuits.equivalence`) is
  applied by default: one representative per equivalence class is
  simulated and the measured outcome is fanned back out to every class
  member — lossless, because classes are equivalent at the primary
  outputs, which is all a campaign observes;
* golden responses (one-hot line words, fault-free indication flags)
  are computed once per campaign and shared across the fault loop;
* ``workers=N`` shards the fault list over a
  :class:`concurrent.futures.ProcessPoolExecutor` (the
  ``DesignEngine.sweep`` executor pattern; opt-in, serial by default).

The serial paths remain in :mod:`repro.faultsim.campaign` as the
reference oracle; the test suite proves record-by-record bit-identity
for net, pin, ROM and memory faults, and ``benchmarks/run_campaigns.py``
tracks the measured speedup in ``BENCH_campaigns.json``.

Scheme campaigns (:func:`scheme_campaign_packed`) pack the structural
axis under test and fall back to address-memoised behavioural reads only
on the lanes whose word-line selection is wrong *before* the first
already-known detection — reads are pure, so per-address memoisation is
exact.
"""

from __future__ import annotations

from concurrent import futures
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checkers.base import Checker
from repro.circuits.equivalence import collapse_faults
from repro.circuits.faults import FaultBase, NetStuckAt, PinStuckAt
from repro.circuits.gates import GateType
from repro.circuits.parallel import (
    first_set_lane,
    pack_addresses,
    packed_gate_word,
)
from repro.core.scheme import SelfCheckingMemory
from repro.results.resultset import ResultSet
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "PackedStream",
    "decoder_campaign_packed",
    "scheme_campaign_packed",
]


#: Fan-in from which OR/NOR/AND/NAND gates are updated incrementally
#: from their changed inputs instead of re-reading every input word.
WIDE_FANIN = 8

_WIDE_TYPES = (GateType.OR, GateType.NOR, GateType.AND, GateType.NAND)


class _PackedCircuit:
    """Incremental single-fault packed evaluator over one stimulus set.

    The golden (fault-free) lane-word of **every** net is computed once;
    a fault evaluation then copies that table and re-evaluates only the
    gates downstream of the fault site (index-ordered worklist over a
    precomputed fanout graph — insertion order is topological, so a
    min-heap of gate indices visits each affected gate exactly once).
    For the paper's decoder trees the average cone is a small fraction
    of the circuit, which is where most of the packed engine's speedup
    over :func:`evaluate_packed`-per-fault comes from.

    Wide OR/NOR/AND/NAND gates (fan-in >= :data:`WIDE_FANIN`, the ROM
    columns) keep ``(flip_in, flip_out, ones, twos)``: in the
    *controlling* domain (inputs XOR ``flip_in``, so 1 controls) ``ones``
    is the golden OR and ``twos`` the lanes where at least two pins
    control.  A walk updates such a gate from its changed inputs alone.
    """

    def __init__(self, circuit, packed_inputs: Sequence[int], num_lanes: int):
        self.circuit = circuit
        self.num_lanes = num_lanes
        mask = self.mask = (1 << num_lanes) - 1
        self.readers: List[List[int]] = [[] for _ in range(circuit.num_nets)]
        for gate in circuit.gates:
            for src in set(gate.inputs):
                self.readers[src].append(gate.index)
        # lane-exact golden pass (same algebra as evaluate_packed)
        values = [0] * circuit.num_nets
        for net, word in zip(circuit.input_nets, packed_inputs):
            values[net] = word
        for gate in circuit.gates:
            values[gate.output] = self._gate_word(gate, values)
        self.golden_values = values
        self.wide: Dict[int, Tuple[int, int, int, int]] = {}
        for gate in circuit.gates:
            kind = gate.gate_type
            if kind in _WIDE_TYPES and len(gate.inputs) >= WIDE_FANIN:
                flip_in = mask if kind in (GateType.AND, GateType.NAND) else 0
                flip_out = mask if kind in (GateType.AND, GateType.NOR) else 0
                ones = twos = 0
                for src in gate.inputs:
                    word = values[src] ^ flip_in
                    twos |= ones & word
                    ones |= word
                self.wide[gate.index] = (flip_in, flip_out, ones, twos)

    def _gate_word(self, gate, values, pin_forced=None) -> int:
        """One gate's packed output word (identical per-lane semantics
        to :meth:`repro.circuits.netlist.Circuit.evaluate`)."""
        if pin_forced is None:
            ins = [values[src] for src in gate.inputs]
        else:
            ins = [
                pin_forced[pin] if pin in pin_forced else values[src]
                for pin, src in enumerate(gate.inputs)
            ]
        return packed_gate_word(gate.gate_type, ins, self.mask)

    def _wide_word(self, gate, values, changes: List[int]) -> int:
        """A wide gate's output word from its changed input nets alone;
        re-evaluated in full when a lane of a changed input's golden
        controlling value had a second controlling input."""
        flip_in, flip_out, ones, twos = self.wide[gate.index]
        golden = self.golden_values
        old = new = 0
        for net in changes:
            old |= golden[net] ^ flip_in
            new |= values[net] ^ flip_in
        if twos & old:
            return self._gate_word(gate, values)
        return ((ones & ~old) | new) ^ flip_out

    def values_with_fault(self, fault: FaultBase) -> List[int]:
        """All net lane-words under one fault (cone re-evaluation)."""
        return self.walk(fault)[0]

    def walk(self, fault: FaultBase) -> Tuple[List[int], List[int]]:
        """(all net lane-words, nets whose word left golden) under one
        fault — the cone walk behind :meth:`values_with_fault`."""
        mask = self.mask
        values = self.golden_values[:]
        changed: List[int] = []
        net_faults: Dict[int, int] = {}
        pin_faults: Dict[Tuple[int, int], int] = {}
        fault.register(net_faults, pin_faults)

        heap: List[int] = []
        queued: Set[int] = set()
        readers = self.readers
        wide = self.wide
        # changed input nets of each queued wide gate
        wide_changes: Dict[int, List[int]] = {}

        def mark(net: int, word: int) -> None:
            values[net] = word
            changed.append(net)
            for reader in readers[net]:
                if reader in wide:
                    wide_changes.setdefault(reader, []).append(net)
                if reader not in queued:
                    queued.add(reader)
                    heappush(heap, reader)

        for net, forced in net_faults.items():
            word = mask if forced else 0
            if values[net] != word:
                mark(net, word)
        forced_by_gate: Dict[int, Dict[int, int]] = {}
        for (gate_index, pin), forced in pin_faults.items():
            forced_by_gate.setdefault(gate_index, {})[pin] = (
                mask if forced else 0
            )
            if gate_index not in queued:
                queued.add(gate_index)
                heappush(heap, gate_index)

        gates = self.circuit.gates
        while heap:
            index = heappop(heap)
            gate = gates[index]
            output = gate.output
            if output in net_faults:
                continue  # output stays forced regardless of inputs
            pins = forced_by_gate.get(index)
            if pins is None and index in wide_changes:
                word = self._wide_word(gate, values, wide_changes[index])
            else:
                word = self._gate_word(gate, values, pins)
            if word != values[output]:
                mark(output, word)
        return values, changed


class PackedStream:
    """One address stream packed for a checked decoder, golden included.

    ``golden_line_words[L]`` has bit ``k`` set iff the stream selects
    line ``L`` at cycle ``k`` — the packed form of the serial campaign's
    per-cycle ``one_hot[address]`` compare; ``sim`` carries the golden
    lane-word of every net for incremental fault evaluation.
    """

    def __init__(self, checked: CheckedDecoder, addresses: Sequence[int]):
        self.addresses = list(addresses)
        self.num_lanes = len(self.addresses)
        self.mask = (1 << self.num_lanes) - 1
        self.num_lines = 1 << checked.n
        self.packed_inputs, _ = pack_addresses(self.addresses, checked.n)
        golden = [0] * self.num_lines
        for lane, address in enumerate(self.addresses):
            golden[address] |= 1 << lane
        self.golden_line_words = golden
        outputs = checked.circuit.output_nets
        self.line_nets = outputs[: self.num_lines]
        self.rom_nets = outputs[self.num_lines :]
        self.sim = _PackedCircuit(
            checked.circuit, self.packed_inputs, self.num_lanes
        )
        # line net -> golden line word, for observing only the nets a
        # fault changed; exact only when every fault-free line already
        # matches its golden word (else None: compare every line)
        values = self.sim.golden_values
        mismatch = 0
        for net, word in zip(self.line_nets, golden):
            mismatch |= values[net] ^ word
        self.line_golden = (
            None if mismatch else dict(zip(self.line_nets, golden))
        )

    def observe_fault(
        self, fault: FaultBase, checker: Checker
    ) -> Tuple[int, int]:
        """(err_word, acc_word) under one fault — the packed campaign
        observables: lanes with a wrong selected-line vector, and lanes
        whose ROM word the checker accepts."""
        values, changed = self.sim.walk(fault)
        err = 0
        if self.line_golden is None:
            for net, golden in zip(self.line_nets, self.golden_line_words):
                err |= values[net] ^ golden
        else:
            for net in changed:
                word = self.line_golden.get(net)
                if word is not None:
                    err |= values[net] ^ word
        acc = checker.accepts_packed(
            [values[net] for net in self.rom_nets], self.num_lanes
        )
        return err, acc


def _decoder_fault_outcome(
    checker: Checker,
    stream: PackedStream,
    fault: FaultBase,
) -> Tuple[Optional[int], Optional[int]]:
    """(first_error, first_detection) from one packed cone traversal."""
    err, acc = stream.observe_fault(fault, checker)
    first_detection = first_set_lane(~acc & stream.mask)
    if first_detection is not None:
        # the serial loop breaks after detection: errors first showing
        # up on later cycles are never observed
        err &= (1 << (first_detection + 1)) - 1
    return first_set_lane(err), first_detection


# -- fault collapsing --------------------------------------------------------


def _fault_groups(
    circuit, faults: Sequence[FaultBase], collapse: bool
) -> Tuple[List[FaultBase], Dict[Tuple, int]]:
    """(representatives, fault key -> representative index).

    With ``collapse`` the stuck-at faults are partitioned into
    structural equivalence classes and only the class representative is
    simulated; faults the collapser does not model (custom
    :class:`FaultBase` subclasses) become singleton groups.
    """
    reps: List[FaultBase] = []
    key_to_group: Dict[Tuple, int] = {}
    if collapse and len(faults) > 1:
        known = [
            f for f in faults if isinstance(f, (NetStuckAt, PinStuckAt))
        ]
        if known:
            for cls in collapse_faults(circuit, known).classes:
                gid = len(reps)
                reps.append(cls[0])
                for member in cls:
                    key_to_group[member.key()] = gid
    for fault in faults:
        if fault.key() not in key_to_group:
            key_to_group[fault.key()] = len(reps)
            reps.append(fault)
    return reps, key_to_group


# -- process-pool sharding ---------------------------------------------------


def _chunk(items: List, parts: int) -> List[List]:
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _map_jobs(worker, context, jobs: List, workers: Optional[int]) -> List:
    """``worker((context, chunk))`` over chunks of ``jobs``, in order.

    In-process by default; ``workers=N`` fans contiguous chunks out over
    a process pool (one pickled context per worker, mirroring the
    ``DesignEngine.sweep`` executor pattern).
    """
    if not jobs:
        return []
    if workers is None or workers <= 1 or len(jobs) == 1:
        return worker((context, jobs))
    chunks = _chunk(jobs, workers)
    with futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = pool.map(
            worker, [(context, chunk) for chunk in chunks]
        )
        out: List = []
        for part in parts:
            out.extend(part)
    return out


def _decoder_worker(payload):
    """(first_error, first_detection) per representative fault.

    ``chunk=None`` packs the whole stream into one lane set;
    ``chunk=W`` processes W-lane windows in stream order — the
    bounded-memory path (per-net lane words stay W bits wide however
    long the stream is).  Faults whose detection lands in an early
    window drop out of later ones, exactly mirroring the serial loop's
    per-fault ``break``; results are bit-identical for every W (the
    chunked-lane invariance property test pins this).
    """
    (checked, checker, addresses, chunk), reps = payload
    if chunk is None or chunk >= len(addresses):
        stream = PackedStream(checked, addresses)
        return [
            _decoder_fault_outcome(checker, stream, fault) for fault in reps
        ]
    outcomes: List[List[Optional[int]]] = [[None, None] for _ in reps]
    active = list(range(len(reps)))
    offset = 0
    for start in range(0, len(addresses), chunk):
        window = addresses[start : start + chunk]
        stream = PackedStream(checked, window)
        survivors = []
        for index in active:
            err, det = _decoder_fault_outcome(checker, stream, reps[index])
            if outcomes[index][0] is None and err is not None:
                outcomes[index][0] = offset + err
            if det is not None:
                outcomes[index][1] = offset + det
            else:
                survivors.append(index)
        active = survivors
        offset += len(window)
        if not active:
            break
    return [tuple(outcome) for outcome in outcomes]


# -- decoder campaigns -------------------------------------------------------


def decoder_campaign_packed(
    checked: CheckedDecoder,
    checker: Checker,
    faults: Sequence[FaultBase],
    addresses: Sequence[int],
    attach_analytic: bool = True,
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """Packed counterpart of :func:`repro.faultsim.campaign.decoder_campaign`.

    Bit-identical records, one netlist traversal per simulated fault
    (class representatives when ``collapse``), ``workers=N`` shards the
    representative list over a process pool, ``chunk=W`` bounds packed
    lane words to W bits (see :func:`_decoder_worker`).
    """
    from repro.faultsim.campaign import analytic_escapes, decoder_result

    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")

    analytic = analytic_escapes(checked) if attach_analytic else None

    faults = list(faults)
    reps, key_to_group = _fault_groups(checked.circuit, faults, collapse)
    outcomes = _map_jobs(
        _decoder_worker,
        (checked, checker, list(addresses), chunk),
        reps,
        workers,
    )

    return decoder_result(
        checked,
        faults,
        [outcomes[key_to_group[fault.key()]] for fault in faults],
        analytic,
        "packed",
        len(addresses),
    )


# -- scheme campaigns --------------------------------------------------------


class _SchemeCampaignState:
    """Golden context shared by every fault of one scheme campaign.

    Built lazily: memory-fault-only campaigns never pack a decoder, and
    the fault-free indication words cost one behavioural read per
    *distinct* address, once for the whole campaign.
    """

    def __init__(self, memory: SelfCheckingMemory, addresses: Sequence[int]):
        self.memory = memory
        self.addresses = list(addresses)
        org = memory.organization
        self.rows = [org.split_address(a)[0] for a in self.addresses]
        self.cols = [org.split_address(a)[1] for a in self.addresses]
        self._streams: Dict[str, PackedStream] = {}
        self._ff_rejects: Optional[Tuple[int, int, int]] = None

    def stream(self, axis: str) -> PackedStream:
        if axis not in self._streams:
            checked = self.memory.row if axis == "row" else self.memory.column
            values = self.rows if axis == "row" else self.cols
            self._streams[axis] = PackedStream(checked, values)
        return self._streams[axis]

    def fault_free_rejects(self) -> Tuple[int, int, int]:
        """(row, column, parity) fault-free rejection lane-words.

        Bit ``k`` set iff the fault-free read of cycle ``k``'s address
        fails that checker — non-zero only for exotic writers, but kept
        exact so packed == serial under *any* memory preparation.
        """
        if self._ff_rejects is None:
            self.memory.clear_faults()
            flags: Dict[int, Tuple[bool, bool, bool]] = {}
            row_rej = col_rej = par_rej = 0
            for lane, address in enumerate(self.addresses):
                f = flags.get(address)
                if f is None:
                    r = self.memory.read(address)
                    f = (r.row_ok, r.column_ok, r.parity_ok)
                    flags[address] = f
                bit = 1 << lane
                if not f[0]:
                    row_rej |= bit
                if not f[1]:
                    col_rej |= bit
                if not f[2]:
                    par_rej |= bit
            self._ff_rejects = (row_rej, col_rej, par_rej)
        return self._ff_rejects


def _axis_fault_detection(
    state: _SchemeCampaignState, axis: str, fault: FaultBase
) -> Optional[int]:
    """First detection cycle of one structural fault on one decoder axis.

    One packed traversal of the faulted axis gives the axis-checker
    rejection word and the wrong-selection (``err``) word; the other
    axis and the parity path are fault-free except on ``err`` lanes,
    where the data path is resolved by memoised behavioural reads — and
    only for lanes preceding the first already-known detection.
    """
    memory = state.memory
    checker = memory.row_checker if axis == "row" else memory.column_checker
    stream = state.stream(axis)
    row_ff, col_ff, parity_ff = state.fault_free_rejects()
    other_reject = col_ff if axis == "row" else row_ff

    err, acc = stream.observe_fault(fault, checker)
    known = (~acc & stream.mask) | other_reject | (parity_ff & ~err)
    first = first_set_lane(known)

    pending = err if first is None else err & ((1 << first) - 1)
    if pending:
        memory.clear_faults()
        if axis == "row":
            memory.inject_row_fault(fault)
        else:
            memory.inject_column_fault(fault)
        seen: Dict[int, bool] = {}
        while pending:
            lane = (pending & -pending).bit_length() - 1
            address = state.addresses[lane]
            detected = seen.get(address)
            if detected is None:
                detected = memory.read(address).error_detected
                seen[address] = detected
            if detected:
                first = lane
                break
            pending &= pending - 1
        memory.clear_faults()
    return first


def _memory_fault_detection(
    state: _SchemeCampaignState, fault
) -> Optional[int]:
    """First detection of a behavioural fault: reads are pure, so the
    verdict is memoised per distinct address instead of re-read per
    cycle."""
    memory = state.memory
    memory.clear_faults()
    memory.inject_memory_fault(fault)
    first: Optional[int] = None
    seen: Dict[int, bool] = {}
    for lane, address in enumerate(state.addresses):
        detected = seen.get(address)
        if detected is None:
            detected = memory.read(address).error_detected
            seen[address] = detected
        if detected:
            first = lane
            break
    memory.clear_faults()
    return first


def _scheme_worker(payload):
    (memory, addresses), jobs = payload
    state = _SchemeCampaignState(memory, addresses)
    out = []
    for axis, fault in jobs:
        if axis == "memory":
            out.append(_memory_fault_detection(state, fault))
        else:
            out.append(_axis_fault_detection(state, axis, fault))
    return out


def scheme_campaign_packed(
    memory: SelfCheckingMemory,
    addresses: Sequence[int],
    row_faults: Sequence[FaultBase] = (),
    column_faults: Sequence[FaultBase] = (),
    memory_faults: Sequence = (),
    writer=None,
    collapse: bool = True,
    workers: Optional[int] = None,
) -> ResultSet:
    """Packed counterpart of :func:`repro.faultsim.campaign.scheme_campaign`.

    Structural row/column faults are collapsed per axis and simulated
    with one packed traversal each; behavioural memory faults use
    address-memoised reads.  Bit-identical to the serial oracle.
    """
    from repro.faultsim.campaign import default_scheme_writer, scheme_result

    fill = writer or default_scheme_writer
    fill(memory)

    row_faults = list(row_faults)
    column_faults = list(column_faults)
    memory_faults = list(memory_faults)
    row_reps, row_groups = _fault_groups(
        memory.row.circuit, row_faults, collapse
    )
    col_reps, col_groups = _fault_groups(
        memory.column.circuit, column_faults, collapse
    )

    jobs = (
        [("row", f) for f in row_reps]
        + [("column", f) for f in col_reps]
        + [("memory", f) for f in memory_faults]
    )
    memory.clear_faults()
    outcomes = _map_jobs(
        _scheme_worker, (memory, list(addresses)), jobs, workers
    )
    row_out = outcomes[: len(row_reps)]
    col_out = outcomes[len(row_reps) : len(row_reps) + len(col_reps)]
    mem_out = outcomes[len(row_reps) + len(col_reps) :]

    detections = (
        [row_out[row_groups[fault.key()]] for fault in row_faults]
        + [col_out[col_groups[fault.key()]] for fault in column_faults]
        + mem_out
    )
    return scheme_result(
        memory,
        row_faults,
        column_faults,
        memory_faults,
        detections,
        "packed",
        len(addresses),
    )
