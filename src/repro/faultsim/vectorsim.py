"""NumPy lane-array campaign engine (``engine="vector"``).

The packed engine (:mod:`repro.faultsim.fastsim`) bit-parallelises the
*cycle* axis into Python bigints but still runs one netlist traversal
per fault — per-fault Python dispatch is the measured ceiling on scheme
campaigns (~4x vs 58-90x on decoder benches).  This module packs the
**fault axis too**: every net carries a ``(faults, cycle_words)``
``uint64`` lane matrix, each gate is evaluated once for the whole
campaign as NumPy bitwise ops broadcast over the fault axis (golden row
+ per-fault forcing masks from the collapsed fault list), and the
packed checkers become array reductions — carry-save popcount for
m-out-of-n/Berger, XOR folds for parity/two-rail.  ``first_error`` /
``first_detection`` are recovered per fault with vectorized
trailing-bit arithmetic; there is no per-fault Python in the hot path.

Campaigns run in bounded-memory cycle windows (``chunk`` lanes wide,
:data:`DEFAULT_WINDOW` when unset): faults detected in an early window
drop out of later ones, mirroring the serial loop's per-fault ``break``,
and results are invariant in the window width (property-tested).  The
serial loops and the bigint packed engine remain the bit-identity
oracles; record-by-record equality across all three engines is part of
the test suite.

NumPy is an *optional* dependency (``pip install repro[vector]``): this
module imports without it, ``engine="vector"`` raises a one-line
actionable error when it is missing, and ``engine="auto"`` resolves to
``"vector"`` when NumPy is importable and falls back to ``"packed"``
otherwise.  NumPy itself is imported on first use, so the packed and
serial engines never pay for it.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkers.base import Checker
from repro.checkers.berger_checker import BergerChecker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.checkers.parity_checker import ParityChecker
from repro.checkers.two_rail_checker import TwoRailChecker
from repro.circuits.faults import FaultBase
from repro.circuits.gates import GateType
from repro.core.scheme import SelfCheckingMemory
from repro.faultsim.fastsim import _fault_groups, _map_jobs
from repro.results.resultset import ResultSet
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "CAMPAIGN_ENGINES",
    "DEFAULT_WINDOW",
    "numpy_available",
    "require_numpy",
    "resolve_engine",
    "decoder_campaign_vector",
    "scheme_campaign_vector",
]

#: engine policies accepted by the campaign layer (the circuit-level
#: drivers in :mod:`repro.circuits.simulator` stay packed/serial)
CAMPAIGN_ENGINES = ("packed", "serial", "vector", "auto")

#: default bounded-memory cycle-window width (lanes) for the vector
#: engine — per-net lane matrices stay (faults x DEFAULT_WINDOW/64)
#: words however long the stream is; results are invariant in the width
DEFAULT_WINDOW = 8192


class _NumPyOnFirstUse:
    """Stands in for ``np`` until NumPy is needed: the first attribute
    read imports it (or raises the install hint) and rebinds ``np``.
    Dunder probes (``inspect``, ``doctest``) load nothing."""

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        require_numpy()
        return getattr(np, name)


_DEFERRED = _NumPyOnFirstUse()

#: the NumPy module once loaded; ``None`` when it is not installed
np: Any = _DEFERRED


def numpy_available() -> bool:
    """True iff the optional NumPy dependency is importable (answered
    without importing it)."""
    if np is _DEFERRED:
        return importlib.util.find_spec("numpy") is not None
    return np is not None


def require_numpy() -> None:
    """Import NumPy on first use; raise the one-line actionable error
    when it is missing."""
    global np
    if np is _DEFERRED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - the no-numpy CI job
            np = None
        else:
            np = numpy
    if np is None:
        raise RuntimeError(
            "engine='vector' needs NumPy: pip install 'repro[vector]' "
            "(or keep engine='packed', the pure-Python fast path)"
        )


def resolve_engine(engine: str) -> str:
    """Validate a campaign engine policy and resolve ``"auto"``.

    ``"auto"`` becomes ``"vector"`` when NumPy is importable and falls
    back to ``"packed"`` otherwise; ``"vector"`` without NumPy raises
    immediately with the install hint.  Returns the resolved engine
    (one of ``"packed" | "serial" | "vector"``).
    """
    if engine not in CAMPAIGN_ENGINES:
        raise ValueError(
            f"engine must be one of {CAMPAIGN_ENGINES}, got {engine!r}"
        )
    if engine == "auto":
        return "vector" if numpy_available() else "packed"
    if engine == "vector":
        require_numpy()
    return engine


# -- lane packing helpers ----------------------------------------------------


def _lane_mask(num_lanes: int):
    """(W,) uint64 word array with the low ``num_lanes`` lane bits set."""
    words = (num_lanes + 63) // 64
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = num_lanes % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def _pack_bool(bits):
    """Pack a (..., L) 0/1 array into (..., ceil(L/64)) uint64 lanes.

    Lane ``k`` of word ``j`` is element ``64*j + k`` — the
    :mod:`repro.circuits.parallel` lane convention, word-sliced.
    """
    length = bits.shape[-1]
    words = (length + 63) // 64
    pad = words * 64 - length
    bits = np.asarray(bits, dtype=np.uint8)
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _unpack_lanes(row, num_lanes: int):
    """(W,) uint64 lane words -> (num_lanes,) bool (inverse of
    :func:`_pack_bool` for one row)."""
    bits = np.unpackbits(
        np.ascontiguousarray(row, dtype="<u8").view(np.uint8),
        bitorder="little",
    )
    return bits[:num_lanes].astype(bool)


def _row_to_int(row) -> int:
    """One (W,) uint64 lane row -> the equivalent Python bigint."""
    value = 0
    for j, word in enumerate(row.tolist()):
        value |= word << (64 * j)
    return value


def _int_to_row(value: int, words: int):
    """Python bigint -> (W,) uint64 lane row (inverse of _row_to_int)."""
    row = np.zeros(words, dtype=np.uint64)
    low = (1 << 64) - 1
    for j in range(words):
        row[j] = np.uint64((value >> (64 * j)) & low)
    return row


def _first_set_lanes(words):
    """Per-row index of the lowest set lane bit; -1 where all zero.

    The vectorized counterpart of
    :func:`repro.circuits.parallel.first_set_lane`: first nonzero word
    via ``argmax`` over the word axis, then trailing-zero count of the
    isolated lowest bit (``w & -w``).
    """
    nonzero = words != 0
    has = nonzero.any(axis=1)
    first_word = np.argmax(nonzero, axis=1)
    rows = np.arange(words.shape[0])
    picked = words[rows, first_word]
    isolated = picked & (~picked + np.uint64(1))
    if hasattr(np, "bitwise_count"):
        trailing = np.bitwise_count(isolated - np.uint64(1))
    else:  # pragma: no cover - NumPy < 2 fallback
        # isolated is 0 or a power of two: float64 log2 is exact
        trailing = np.log2(
            np.maximum(isolated, np.uint64(1)).astype(np.float64)
        )
    out = first_word.astype(np.int64) * 64 + trailing.astype(np.int64)
    out[~has] = -1
    return out


def _mask_through_lane(words, lanes):
    """Keep only lane bits <= ``lanes[f]`` per row (-1 keeps all).

    The vector form of the packed engine's
    ``err &= (1 << (first_detection + 1)) - 1`` — the serial loop breaks
    after detection, so later errors are never observed.
    """
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    width = words.shape[1]
    word_of = lanes // 64
    bit_of = (lanes % 64).astype(np.uint64)
    index = np.arange(width)[None, :]
    partial = full >> (np.uint64(63) - bit_of)
    keep = np.where(
        index < word_of[:, None],
        full,
        np.where(index == word_of[:, None], partial[:, None], np.uint64(0)),
    )
    keep = np.where((lanes < 0)[:, None], full, keep)
    return words & keep


# -- vectorized circuit evaluation -------------------------------------------


class _VectorCircuit:
    """One circuit over a (faults x cycle-words) uint64 lane matrix.

    The golden (fault-free) pass runs once on (W,) rows; a fault pass
    broadcasts the golden row over the fault axis and applies per-fault
    forcing masks from ``fault.register`` — every gate is then evaluated
    once for the whole campaign with NumPy bitwise ops.  Per-lane gate
    semantics are identical to
    :func:`repro.circuits.parallel.packed_gate_word`.
    """

    def __init__(self, circuit, packed_inputs, lane_mask):
        self.circuit = circuit
        self.mask = lane_mask
        values = [None] * circuit.num_nets
        for net, word in zip(circuit.input_nets, packed_inputs):
            values[net] = word
        for gate in circuit.gates:
            values[gate.output] = self._gate_word(
                gate.gate_type, [values[src] for src in gate.inputs]
            )
        self.golden_values = values

    def _gate_word(self, gate_type, ins):
        mask = self.mask
        if gate_type is GateType.AND or gate_type is GateType.NAND:
            if ins:
                acc = ins[0]
                for word in ins[1:]:
                    acc = acc & word
            else:
                acc = mask
            if gate_type is GateType.NAND:
                acc = ~acc & mask
        elif gate_type is GateType.OR or gate_type is GateType.NOR:
            if ins:
                acc = ins[0]
                for word in ins[1:]:
                    acc = acc | word
            else:
                acc = np.zeros_like(mask)
            if gate_type is GateType.NOR:
                acc = ~acc & mask
        elif gate_type is GateType.XOR or gate_type is GateType.XNOR:
            if ins:
                acc = ins[0]
                for word in ins[1:]:
                    acc = acc ^ word
            else:
                acc = np.zeros_like(mask)
            if gate_type is GateType.XNOR:
                acc = ~acc & mask
        elif gate_type is GateType.NOT:
            acc = ~ins[0] & mask
        elif gate_type is GateType.BUF:
            acc = ins[0]
        elif gate_type is GateType.CONST0:
            acc = np.zeros_like(mask)
        else:  # CONST1
            acc = mask.copy()
        return acc

    def outputs_with_faults(self, reps: Sequence[FaultBase]) -> Dict:
        """net -> (F, W) lane matrix for every output net, all faults.

        Non-output nets are freed as soon as their last reader has
        consumed them, so peak memory tracks the live width of the
        circuit rather than its total net count.
        """
        circuit = self.circuit
        mask = self.mask
        count = len(reps)
        shape = (count,) + mask.shape

        net_ones: Dict[int, List[int]] = {}
        net_zeros: Dict[int, List[int]] = {}
        pin_ones: Dict[Tuple[int, int], List[int]] = {}
        pin_zeros: Dict[Tuple[int, int], List[int]] = {}
        for index, fault in enumerate(reps):
            nets: Dict[int, int] = {}
            pins: Dict[Tuple[int, int], int] = {}
            fault.register(nets, pins)
            for net, forced in nets.items():
                target = net_ones if forced else net_zeros
                target.setdefault(net, []).append(index)
            for key, forced in pins.items():
                target = pin_ones if forced else pin_zeros
                target.setdefault(key, []).append(index)

        refs = [0] * circuit.num_nets
        for gate in circuit.gates:
            for src in gate.inputs:
                refs[src] += 1
        keep = set(circuit.output_nets)

        def forced_copy(net, base):
            rows = np.array(np.broadcast_to(base, shape))
            if net in net_ones:
                rows[net_ones[net]] = mask
            if net in net_zeros:
                rows[net_zeros[net]] = np.uint64(0)
            return rows

        values: List = [None] * circuit.num_nets
        for net in circuit.input_nets:
            base = self.golden_values[net]
            if net in net_ones or net in net_zeros:
                values[net] = forced_copy(net, base)
            else:
                values[net] = np.broadcast_to(base, shape)

        for gate in circuit.gates:
            ins = []
            for pin, src in enumerate(gate.inputs):
                word = values[src]
                key = (gate.index, pin)
                if key in pin_ones or key in pin_zeros:
                    word = np.array(np.broadcast_to(word, shape))
                    if key in pin_ones:
                        word[pin_ones[key]] = mask
                    if key in pin_zeros:
                        word[pin_zeros[key]] = np.uint64(0)
                ins.append(word)
            acc = self._gate_word(gate.gate_type, ins)
            output = gate.output
            if output in net_ones or output in net_zeros:
                acc = forced_copy(output, acc)
            values[output] = acc
            for src in gate.inputs:
                refs[src] -= 1
                if refs[src] == 0 and src not in keep:
                    values[src] = None
        out = {}
        for net in circuit.output_nets:
            word = values[net]
            if word.shape != shape:
                word = np.broadcast_to(word, shape)
            out[net] = word
        return out


# -- vectorized packed checkers ----------------------------------------------


def _popcount_slices(columns, mask):
    """Carry-save lane popcount over (F, W) bit columns (LSB first).

    Array form of :func:`repro.circuits.parallel.popcount_lanes`: one
    ripple pass per input column, no unpacking.
    """
    slices: List = []
    for word in columns:
        carry = word & mask
        for i in range(len(slices)):
            if not carry.any():
                break
            slices[i], carry = slices[i] ^ carry, slices[i] & carry
        if carry.any():
            slices.append(carry)
    return slices


def _lanes_equal_const(slices, value, mask, shape):
    """Lanes whose bit-sliced count equals ``value`` (array form)."""
    if value < 0 or (value >> len(slices) if slices else value):
        return np.zeros(shape, dtype=np.uint64)
    acc = np.array(np.broadcast_to(mask, shape))
    for i, word in enumerate(slices):
        acc = acc & (word if (value >> i) & 1 else ~word & mask)
    return acc


def _accepts_lanes(checker: Checker, columns, mask, num_lanes: int):
    """(F, W) acceptance lanes of a checker over packed bit columns.

    The built-in checkers map to array reductions mirroring their
    ``accepts_packed`` bit tricks exactly; plugin checkers fall back to
    per-fault bigint conversion and defer to ``accepts_packed`` (the
    same escape hatch the packed engine uses for plugin codes).
    """
    shape = columns[0].shape
    if isinstance(checker, MOutOfNChecker):
        slices = _popcount_slices(columns, mask)
        return _lanes_equal_const(slices, checker.m, mask, shape)
    if isinstance(checker, ParityChecker):
        fold = np.zeros(shape, dtype=np.uint64)
        for word in columns:
            fold = fold ^ word
        fold = fold & mask
        return ~fold & mask if checker.even else fold
    if isinstance(checker, BergerChecker):
        info = columns[: checker.code.info_bits]
        check = columns[checker.code.info_bits :]
        zeros = _popcount_slices([~word & mask for word in info], mask)
        width = len(check)
        acc = np.array(np.broadcast_to(mask, shape))
        for j in range(width):
            if j < len(zeros):
                counted = zeros[j]
            else:
                counted = np.zeros(shape, dtype=np.uint64)
            stored = check[width - 1 - j]  # check field is MSB-first
            acc = acc & (~(counted ^ stored) & mask)
        return acc
    if isinstance(checker, TwoRailChecker):
        acc = np.array(np.broadcast_to(mask, shape))
        for i in range(checker.pairs):
            acc = acc & (columns[2 * i] ^ columns[2 * i + 1])
        return acc & mask
    out = np.zeros(shape, dtype=np.uint64)
    words = shape[-1]
    for row in range(shape[0]):
        packed_word = [_row_to_int(column[row]) for column in columns]
        out[row] = _int_to_row(
            checker.accepts_packed(packed_word, num_lanes), words
        )
    return out


# -- decoder campaigns -------------------------------------------------------


def _pack_values(values, n_bits: int):
    """Pack an int stream into one (W,) lane row per LSB-first bit."""
    bits = (values[None, :] >> np.arange(n_bits)[:, None]) & 1
    return _pack_bool(bits)


def _decoder_window(
    checked: CheckedDecoder, checker: Checker, window, reps
):
    """(first_error, first_detection) int64 arrays for one lane window.

    One vectorized traversal for every representative fault at once:
    ``err`` ORs the per-line mismatch against the ideal one-hot words,
    ``acc`` is the vector checker over the ROM columns, and the error
    word is truncated at the first detection exactly as the packed and
    serial engines do.
    """
    lanes = len(window)
    mask = _lane_mask(lanes)
    addresses = np.asarray(window, dtype=np.int64)
    sim = _VectorCircuit(
        checked.circuit, _pack_values(addresses, checked.n), mask
    )
    num_lines = 1 << checked.n
    outputs = checked.circuit.output_nets
    line_nets = outputs[:num_lines]
    rom_nets = outputs[num_lines:]
    values = sim.outputs_with_faults(reps)

    one_hot = addresses[None, :] == np.arange(num_lines)[:, None]
    golden_lines = _pack_bool(one_hot)
    err = np.zeros((len(reps),) + mask.shape, dtype=np.uint64)
    for index, net in enumerate(line_nets):
        err |= values[net] ^ golden_lines[index][None, :]

    acc = _accepts_lanes(
        checker, [values[net] for net in rom_nets], mask, lanes
    )
    detection = _first_set_lanes(~acc & mask)
    err = _mask_through_lane(err, detection)
    return _first_set_lanes(err), detection


def _vector_decoder_worker(payload):
    """Windowed (first_error, first_detection) per representative fault.

    Mirrors :func:`repro.faultsim.fastsim._decoder_worker` — faults
    whose detection lands in an early window drop out of later ones —
    but evaluates every surviving fault of a window in one vectorized
    pass.  ``chunk=None`` uses :data:`DEFAULT_WINDOW`, so memory stays
    bounded however long the stream is.
    """
    (checked, checker, addresses, chunk), reps = payload
    require_numpy()
    step = DEFAULT_WINDOW if chunk is None else chunk
    outcomes: List[List[Optional[int]]] = [[None, None] for _ in reps]
    active = list(range(len(reps)))
    offset = 0
    for start in range(0, len(addresses), step):
        window = addresses[start : start + step]
        errs, dets = _decoder_window(
            checked, checker, window, [reps[i] for i in active]
        )
        survivors = []
        for pos, index in enumerate(active):
            err, det = int(errs[pos]), int(dets[pos])
            if outcomes[index][0] is None and err >= 0:
                outcomes[index][0] = offset + err
            if det >= 0:
                outcomes[index][1] = offset + det
            else:
                survivors.append(index)
        active = survivors
        offset += len(window)
        if not active:
            break
    return [tuple(outcome) for outcome in outcomes]


def decoder_campaign_vector(
    checked: CheckedDecoder,
    checker: Checker,
    faults: Sequence[FaultBase],
    addresses: Sequence[int],
    attach_analytic: bool = True,
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """Vector counterpart of :func:`repro.faultsim.campaign.decoder_campaign`.

    Bit-identical records to the packed and serial engines; the whole
    collapsed fault list is evaluated per cycle window in one NumPy
    traversal.  ``workers=N`` shards representatives over a process
    pool; ``chunk=W`` sets the bounded-memory window width
    (:data:`DEFAULT_WINDOW` when unset; results invariant in W).
    """
    from repro.faultsim.campaign import analytic_escapes, decoder_result

    require_numpy()
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")

    analytic = analytic_escapes(checked) if attach_analytic else None

    faults = list(faults)
    reps, key_to_group = _fault_groups(checked.circuit, faults, collapse)
    outcomes = _map_jobs(
        _vector_decoder_worker,
        (checked, checker, list(addresses), chunk),
        reps,
        workers,
    )

    return decoder_result(
        checked,
        faults,
        [outcomes[key_to_group[fault.key()]] for fault in faults],
        analytic,
        "vector",
        len(addresses),
    )


# -- scheme campaigns --------------------------------------------------------


class _VectorSchemeState:
    """Shared golden context for one vectorized scheme campaign.

    Structural axis faults never touch the behavioural model: each
    window packs both decoders' golden passes once (each axis's golden
    doubles as the other axis's fault-free reference) and the raw array
    contents feed the vectorized data path.  Only behavioural memory
    faults read through the scheme, memoised per distinct address with
    the packed engine's early exit.
    """

    def __init__(
        self,
        memory: SelfCheckingMemory,
        addresses: Sequence[int],
        chunk: Optional[int],
    ):
        require_numpy()
        self.memory = memory
        self.addresses = list(addresses)
        self.chunk = DEFAULT_WINDOW if chunk is None else chunk
        org = memory.organization
        self.org = org
        stream = np.asarray(self.addresses, dtype=np.int64)
        self.addr_stream = stream
        self.row_stream = stream >> org.s
        self.col_stream = stream & (org.column_mux - 1)
        self._stored = None
        self._stored_zero = None
        self._axis_rejects = None
        self._joined: Dict[str, "np.ndarray"] = {}

    def stored(self):
        """(words, word_width) uint8 snapshot of the raw array contents.

        Contents are static for the whole campaign (reads are pure and
        the writer fills once), so the data path is a pure function of
        the selected lines and this table.
        """
        if self._stored is None:
            ram = self.memory.ram
            self._stored = np.array(
                [ram.raw_word(a) for a in range(self.org.words)],
                dtype=np.uint8,
            )
        return self._stored

    def stored_zero(self):
        """Boolean zero-cell table: ``stored() == 0``, cached."""
        if self._stored_zero is None:
            self._stored_zero = self.stored() == 0
        return self._stored_zero

    # -- behavioural memory faults ------------------------------------------

    def _golden_axis_rejects(self):
        """(row, column) golden checker rejection, one bool per axis
        value.

        A behavioural memory fault leaves both decoders fault-free, so
        their checker verdict per cycle is a pure function of the axis
        value — one tiny vector pass over every axis value replaces the
        behavioural read path.  Non-trivial only for exotic plugin
        codes, but kept exact so vector == packed == serial.
        """
        if self._axis_rejects is None:
            memory = self.memory
            luts = []
            for checked, checker in (
                (memory.row, memory.row_checker),
                (memory.column, memory.column_checker),
            ):
                count = 1 << checked.n
                mask = _lane_mask(count)
                sim = _VectorCircuit(
                    checked.circuit,
                    _pack_values(
                        np.arange(count, dtype=np.int64), checked.n
                    ),
                    mask,
                )
                rom = [
                    sim.golden_values[net][None, :]
                    for net in checked.circuit.output_nets[count:]
                ]
                acc = _accepts_lanes(checker, rom, mask, count)
                luts.append(_unpack_lanes((~acc & mask)[0], count))
            self._axis_rejects = tuple(luts)
        return self._axis_rejects

    def memory_fault_firsts(self, faults) -> List[Optional[int]]:
        """First detection per behavioural fault, all faults batched.

        Selection is fault-free and contents static, so a read of
        address ``a`` resolves to the faulted raw word at ``a`` behind
        golden decoders: the verdict is ``golden axis reject | parity
        reject of that word``, a pure function of the address.  Raw
        words are read once per distinct streamed address (in stream
        order, exactly the packed engine's memoisation), every fault's
        word table is judged as one address-indexed lane batch, and the
        verdict tables are gathered over the cycle stream in a single
        lookup each.
        """
        faults = list(faults)
        if not faults:
            return []
        memory = self.memory
        org = self.org
        ram = memory.ram
        width = ram.word_width
        row_rej, col_rej = self._golden_axis_rejects()
        distinct = list(dict.fromkeys(self.addresses))
        data = np.zeros((len(faults), org.words, width), dtype=bool)
        for idx, fault in enumerate(faults):
            memory.clear_faults()
            memory.inject_memory_fault(fault)
            data[idx, distinct] = [ram.read(a) for a in distinct]
        memory.clear_faults()

        mask = _lane_mask(org.words)
        columns = [_pack_bool(data[:, :, b]) for b in range(width)]
        acc = _accepts_lanes(
            memory.parity_checker, columns, mask, org.words
        )
        axis_rej = row_rej[self.row_stream] | col_rej[self.col_stream]
        firsts: List[Optional[int]] = []
        for idx in range(len(faults)):
            parity_rej = ~_unpack_lanes(acc[idx] & mask, org.words)
            rejected = parity_rej[self.addr_stream] | axis_rej
            firsts.append(
                int(rejected.argmax()) if rejected.any() else None
            )
        return firsts

    # -- structural axis faults ----------------------------------------------

    def axis_batches(
        self,
        row_reps: Sequence[FaultBase],
        col_reps: Sequence[FaultBase],
    ) -> Tuple[List[Optional[int]], List[Optional[int]]]:
        """First-detection cycle per representative fault, both axes.

        Window-major with survivor compaction: each cycle window packs
        both decoders' golden passes exactly once (an axis's golden run
        doubles as the other axis's fault-free reference), and a fault
        detected in an early window never reaches later ones (the
        serial loop's ``break``).
        """
        memory = self.memory
        reps = {"row": list(row_reps), "column": list(col_reps)}
        outcomes: Dict[str, List[Optional[int]]] = {
            axis: [None] * len(reps[axis]) for axis in ("row", "column")
        }
        active = {
            axis: list(range(len(reps[axis])))
            for axis in ("row", "column")
        }
        offset = 0
        total = len(self.addresses)
        for start in range(0, total, self.chunk):
            if not active["row"] and not active["column"]:
                break
            stop = min(start + self.chunk, total)
            lanes = stop - start
            mask = _lane_mask(lanes)
            sims = {
                "row": _VectorCircuit(
                    memory.row.circuit,
                    _pack_values(
                        self.row_stream[start:stop], memory.row.n
                    ),
                    mask,
                ),
                "column": _VectorCircuit(
                    memory.column.circuit,
                    _pack_values(
                        self.col_stream[start:stop], memory.column.n
                    ),
                    mask,
                ),
            }
            for axis in ("row", "column"):
                if not active[axis]:
                    continue
                other = "column" if axis == "row" else "row"
                detection = self._axis_window(
                    axis,
                    [reps[axis][i] for i in active[axis]],
                    sims[axis],
                    sims[other],
                    mask,
                    lanes,
                )
                firsts = _first_set_lanes(detection)
                survivors = []
                for pos, index in enumerate(active[axis]):
                    first = int(firsts[pos])
                    if first >= 0:
                        outcomes[axis][index] = offset + first
                    else:
                        survivors.append(index)
                active[axis] = survivors
            offset += stop - start
        return outcomes["row"], outcomes["column"]

    def _axis_window(self, axis, reps, sim, other_sim, mask, lanes):
        """(F, W) detection lanes of one window, all faults at once.

        ``detection = axis-checker reject | other-axis fault-free
        reject | parity reject``.  The other-axis verdict is its own
        checker over its golden code output (no behavioural read), and
        the parity path is computed exactly for every lane: per stored
        bit, a lane violates iff some active faulted-axis line combines
        with an active fault-free other-axis line whose cell stores 0
        (bit lines are precharged high, reads AND) — so multi-hot and
        empty selections resolve without the behavioural model.
        """
        memory = self.memory
        org = self.org
        row_axis = axis == "row"
        checked = memory.row if row_axis else memory.column
        checker = memory.row_checker if row_axis else memory.column_checker
        other = memory.column if row_axis else memory.row
        other_checker = (
            memory.column_checker if row_axis else memory.row_checker
        )

        num_lines = 1 << checked.n
        outputs = checked.circuit.output_nets
        line_nets = outputs[:num_lines]
        rom_nets = outputs[num_lines:]
        values = sim.outputs_with_faults(reps)
        acc = _accepts_lanes(
            checker, [values[net] for net in rom_nets], mask, lanes
        )
        detection = ~acc & mask

        # other-axis fault-free rejection: its golden code output fails
        # its own checker (non-trivial only for exotic writers/codes,
        # but kept exact so vector == packed == serial under *any*
        # memory preparation)
        other_outputs = other.circuit.output_nets
        other_rom = [
            other_sim.golden_values[net][None, :]
            for net in other_outputs[1 << other.n :]
        ]
        other_acc = _accepts_lanes(other_checker, other_rom, mask, lanes)
        detection = detection | (~other_acc & mask)

        # fault-free other-axis line activity (golden vector pass)
        other_lines = [
            other_sim.golden_values[net]
            for net in other_outputs[: 1 << other.n]
        ]

        # zero-cell masks: zmask[j, b] = lanes whose active other-axis
        # line, joined with faulted-axis line j, addresses a stored 0
        joined = self._joined.get(axis)
        if joined is None:
            # the organization's layout (split/join_address):
            # address = (row << s) | column
            lines = np.arange(num_lines, dtype=np.int64)
            others = np.arange(len(other_lines), dtype=np.int64)
            if row_axis:
                joined = (lines[:, None] << org.s) | others[None, :]
            else:
                joined = (others[None, :] << org.s) | lines[:, None]
            self._joined[axis] = joined
        zero = self.stored_zero()[joined]  # (J, O, width)
        other_arr = np.stack(other_lines)  # (O, W)
        width = memory.ram.word_width
        words = mask.shape[0]
        zmask = np.bitwise_or.reduce(
            np.where(
                zero[..., None],
                other_arr[None, :, None, :],
                np.uint64(0),
            ),
            axis=1,
        )  # (J, width, W)

        count = len(reps)
        violation = np.zeros((count, width, words), dtype=np.uint64)
        for j, net in enumerate(line_nets):
            violation |= values[net][:, None, :] & zmask[j][None, :, :]
        data_columns = [
            ~violation[:, b, :] & mask for b in range(width)
        ]
        parity_acc = _accepts_lanes(
            memory.parity_checker, data_columns, mask, lanes
        )
        detection |= ~parity_acc & mask
        return detection


def _vector_scheme_worker(payload):
    """Detection outcomes for one chunk of (axis, fault) jobs.

    Jobs of the same axis are batched into one fault-parallel
    evaluation; behavioural memory faults use the memoised pure-read
    path.  Output order matches the job order (the packed worker's
    contract)."""
    (memory, addresses, chunk), jobs = payload
    state = _VectorSchemeState(memory, addresses, chunk)
    out: List[Optional[int]] = [None] * len(jobs)
    row_idx = [i for i, (a, _) in enumerate(jobs) if a == "row"]
    col_idx = [i for i, (a, _) in enumerate(jobs) if a == "column"]
    if row_idx or col_idx:
        row_first, col_first = state.axis_batches(
            [jobs[i][1] for i in row_idx],
            [jobs[i][1] for i in col_idx],
        )
        for i, first in zip(row_idx, row_first):
            out[i] = first
        for i, first in zip(col_idx, col_first):
            out[i] = first
    mem_idx = [i for i, (a, _) in enumerate(jobs) if a == "memory"]
    if mem_idx:
        firsts = state.memory_fault_firsts(
            [jobs[i][1] for i in mem_idx]
        )
        for i, first in zip(mem_idx, firsts):
            out[i] = first
    return out


def scheme_campaign_vector(
    memory: SelfCheckingMemory,
    addresses: Sequence[int],
    row_faults: Sequence[FaultBase] = (),
    column_faults: Sequence[FaultBase] = (),
    memory_faults: Sequence = (),
    writer=None,
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """Vector counterpart of :func:`repro.faultsim.campaign.scheme_campaign`.

    Structural row/column faults are collapsed per axis and evaluated
    *together* — one vectorized traversal per cycle window for the whole
    fault list, with the parity data path resolved as array ops over
    the static array contents instead of per-fault behavioural reads.
    Bit-identical to the packed and serial engines.
    """
    from repro.faultsim.campaign import default_scheme_writer, scheme_result

    require_numpy()
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")

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
        _vector_scheme_worker,
        (memory, list(addresses), chunk),
        jobs,
        workers,
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
        "vector",
        len(addresses),
    )
