"""Packed campaign engine vs the serial oracle: record-level bit-identity,
plus the incremental packed evaluator against evaluate_packed."""

import copy
import itertools
import random
import types

import pytest

from repro.checkers.base import Checker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.circuits.faults import (
    NetStuckAt,
    PinStuckAt,
    enumerate_stuck_at_faults,
)
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel import evaluate_packed, pack_stimuli
from repro.circuits.simulator import (
    coverage,
    detects,
    fault_free_responses,
    first_difference,
)
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.faultsim.campaign import decoder_campaign, scheme_campaign
from repro.faultsim import fastsim
from repro.faultsim.fastsim import WIDE_FANIN, PackedStream, _PackedCircuit
from repro.faultsim.injector import (
    burst_addresses,
    decoder_fault_list,
    rom_fault_list,
    sample_faults,
    sequential_addresses,
)
from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
    MuxLineStuckAt,
)
from repro.memory.organization import MemoryOrganization
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import Workload


def _uniform_addresses(n_bits, cycles, seed=0):
    """Uniform stimulus via the canonical Workload."""
    return Workload.uniform(1 << n_bits, cycles, seed=seed).address_list()


def record_key(result):
    return [
        (
            str(r.fault),
            r.kind,
            r.first_detection,
            r.first_error,
            r.analytic_escape,
        )
        for r in result.records
    ]


@pytest.fixture(scope="module")
def checked4():
    return CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))


@pytest.fixture(scope="module")
def checker35():
    return MOutOfNChecker(3, 5, structural=False)


class TestPackedCircuit:
    """The incremental cone evaluator is lane-exact vs evaluate_packed."""

    @staticmethod
    def random_circuit(seed, inputs=4, gates=14):
        rng = random.Random(seed)
        c = Circuit(f"random{seed}")
        nets = c.add_inputs([f"x{i}" for i in range(inputs)])
        pool = list(nets)
        choices = [
            GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
            GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
        ]
        for _ in range(gates):
            gate_type = rng.choice(choices)
            if gate_type in (GateType.NOT, GateType.BUF):
                ins = (rng.choice(pool),)
            else:
                ins = tuple(
                    rng.choice(pool) for _ in range(rng.randint(2, 3))
                )
            pool.append(c.add_gate(gate_type, ins))
        c.add_gate(GateType.CONST1, ())
        pool.append(c.add_gate(GateType.CONST0, ()))
        for net in pool[-4:]:
            c.mark_output(net)
        return c

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_evaluate_packed_for_every_fault(self, seed):
        circuit = self.random_circuit(seed)
        rng = random.Random(100 + seed)
        stimuli = [
            tuple(rng.randint(0, 1) for _ in range(len(circuit.input_nets)))
            for _ in range(33)
        ]
        packed, lanes = pack_stimuli(stimuli)
        sim = _PackedCircuit(circuit, packed, lanes)
        faults = enumerate_stuck_at_faults(
            circuit, include_inputs=True, include_pins=True
        )
        for fault in faults:
            expected = evaluate_packed(
                circuit, packed, lanes, faults=(fault,)
            )
            values = sim.values_with_fault(fault)
            got = [values[net] for net in circuit.output_nets]
            assert got == expected, fault

    WIDE_TYPES = (GateType.OR, GateType.NOR, GateType.AND, GateType.NAND)

    @classmethod
    def wide_circuit(cls, seed, inputs=8, pairs=32, wide=12):
        """Random netlist whose OR/NOR/AND/NAND gates have fan-in 8-40,
        every net marked as an output.

        Under one-hot stimuli the ``sparse`` nets (inputs, ANDed input
        pairs) hold at most one 1 per lane and their ``dense``
        complements at most one 0, so OR-type gates over the former and
        AND-type gates over the latter can be updated incrementally;
        repeated pins and cascaded wide outputs make two inputs control
        one lane and force the full re-evaluation.
        """
        rng = random.Random(seed)
        c = Circuit(f"wide{seed}")
        sparse = list(c.add_inputs([f"x{i}" for i in range(inputs)]))
        for _ in range(pairs):
            pair = tuple(rng.sample(sparse[:inputs], 2))
            sparse.append(c.add_gate(GateType.AND, pair))
        dense = [c.add_gate(GateType.NOT, (net,)) for net in sparse]
        outs = []
        for _ in range(wide):
            gate_type = rng.choice(cls.WIDE_TYPES)
            or_type = gate_type in (GateType.OR, GateType.NOR)
            fan_in = rng.randint(WIDE_FANIN, 40)
            dups = rng.randint(0, 3)
            ins = rng.sample(sparse if or_type else dense, fan_in - dups)
            if outs and rng.random() < 0.5:
                ins[0] = rng.choice(outs)
            ins += [rng.choice(ins) for _ in range(dups)]
            rng.shuffle(ins)
            outs.append(c.add_gate(gate_type, tuple(ins)))
        for net in range(c.num_nets):
            c.mark_output(net)
        return c

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_gates_match_evaluate_packed(self, seed, monkeypatch):
        circuit = self.wide_circuit(seed)
        n_in = len(circuit.input_nets)
        rng = random.Random(200 + seed)
        hots = [rng.randrange(n_in) for _ in range(40)]
        one_hot = [tuple(int(i == hot) for i in range(n_in)) for hot in hots]
        noise = [
            tuple(rng.randint(0, 1) for _ in range(n_in)) for _ in range(40)
        ]
        wide_gates = [
            g for g in circuit.gates
            if g.gate_type in self.WIDE_TYPES and len(g.inputs) >= WIDE_FANIN
        ]
        faults = enumerate_stuck_at_faults(
            circuit, include_inputs=True, include_pins=True
        )
        calls = []
        real = fastsim.packed_gate_word

        def counting(gate_type, ins, mask):
            calls.append(len(ins))
            return real(gate_type, ins, mask)

        monkeypatch.setattr(fastsim, "packed_gate_word", counting)
        visits = fallbacks = 0
        for stimuli in (one_hot, noise):
            packed, lanes = pack_stimuli(stimuli)
            sim = _PackedCircuit(circuit, packed, lanes)
            golden = sim.golden_values
            for fault in faults:
                expected = evaluate_packed(
                    circuit, packed, lanes, faults=(fault,)
                )
                assert sim.values_with_fault(fault) == expected, fault
                del calls[:]
                values, changed = sim.walk(fault)
                assert values == expected, fault
                diff = {
                    net for net, word in enumerate(values)
                    if word != golden[net]
                }
                assert diff <= set(changed), fault
                if isinstance(fault, NetStuckAt):
                    # wide gates the walk must update vs full re-reads
                    visits += sum(
                        1 for g in wide_gates
                        if g.output != fault.net and diff & set(g.inputs)
                    )
                    fallbacks += sum(1 for n in calls if n >= WIDE_FANIN)
        # both the incremental update and the `twos` fallback ran
        assert 0 < fallbacks < visits

    @pytest.mark.parametrize("miswired", [False, True])
    def test_observe_fault_matches_full_line_compare(
        self, checked4, checker35, miswired
    ):
        """Sparse observation equals the compare over every line; a
        decoder whose fault-free lines miss golden_line_words (two lines
        swapped) must take the full compare."""
        checked = checked4
        if miswired:
            circuit = copy.copy(checked4.circuit)
            circuit._output_nets = list(circuit.output_nets)
            nets = circuit._output_nets
            nets[0], nets[1] = nets[1], nets[0]
            checked = types.SimpleNamespace(n=checked4.n, circuit=circuit)
        stream = PackedStream(checked, _uniform_addresses(4, 40, seed=3))
        assert (stream.line_golden is None) is miswired
        faults = enumerate_stuck_at_faults(
            checked.circuit, include_inputs=True, include_pins=True
        )
        for fault in faults:
            values = stream.sim.values_with_fault(fault)
            err = 0
            for net, golden in zip(
                stream.line_nets, stream.golden_line_words
            ):
                err |= values[net] ^ golden
            assert stream.observe_fault(fault, checker35)[0] == err, fault

    def test_golden_pass_matches_evaluate_packed(self, checked4):
        addresses = _uniform_addresses(4, 40, seed=9)
        stream = PackedStream(checked4, addresses)
        expected = evaluate_packed(
            checked4.circuit, stream.packed_inputs, stream.num_lanes
        )
        got = [
            stream.sim.golden_values[net]
            for net in checked4.circuit.output_nets
        ]
        assert got == expected


@pytest.fixture(scope="module")
def paper_decoder_cells():
    """The ``paper_grid`` decoder cells, built as the suite runner builds
    them: (words, checked decoder, checker, fault population, stream)."""
    from repro.design.engine import DesignEngine
    from repro.design.registry import checker_for
    from repro.design.spec import DesignSpec
    from repro.scenarios import named_workload
    from repro.suite import builtin_suite

    cells = []
    for cell in builtin_suite("paper_grid").cells():
        if cell.family != "decoder":
            continue
        spec = DesignSpec.from_dict(cell.target)
        mapping = DesignEngine().plan(spec).row_mapping()
        checked = CheckedDecoder(mapping)
        workload = cell.workload
        addresses = named_workload(
            workload["family"],
            1 << spec.organization.p,
            workload["cycles"],
            seed=workload["seed"],
        ).address_list()
        cells.append(
            (
                spec.organization.words,
                checked,
                checker_for(mapping, structural=spec.structural_checkers),
                decoder_fault_list(checked),
                addresses,
            )
        )
    assert [cell[0] for cell in cells] == [2048, 4096, 8192]
    return cells


class TestPaperScale:
    """Bit-identity on the paper's decoder cells, where the ROM column
    gates are wide enough for the incremental update."""

    @pytest.mark.parametrize("chunk", [None, 50])
    def test_packed_matches_vector(self, paper_decoder_cells, chunk):
        pytest.importorskip("numpy")
        for _, checked, checker, faults, addresses in paper_decoder_cells:
            runs = [
                decoder_campaign(
                    checked, checker, faults, addresses,
                    attach_analytic=False, engine=engine, chunk=chunk,
                )
                for engine in ("packed", "vector")
            ]
            assert record_key(runs[0]) == record_key(runs[1])

    def test_packed_matches_serial_on_every_8th_fault(
        self, paper_decoder_cells
    ):
        words, checked, checker, faults, addresses = paper_decoder_cells[0]
        assert words == 2048 and len(addresses) == 192
        sample = faults[::8]
        serial = decoder_campaign(
            checked, checker, sample, addresses,
            attach_analytic=False, engine="serial",
        )
        packed = decoder_campaign(
            checked, checker, sample, addresses, attach_analytic=False
        )
        assert record_key(serial) == record_key(packed)


class TestDecoderCampaignEquivalence:
    @pytest.mark.parametrize("collapse", [True, False])
    def test_net_rom_pin_and_input_faults(
        self, checked4, checker35, collapse
    ):
        faults = (
            decoder_fault_list(checked4)
            + rom_fault_list(checked4)
            + enumerate_stuck_at_faults(
                checked4.circuit, include_inputs=True, include_pins=True
            )
        )
        addresses = _uniform_addresses(4, 220, seed=5)
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial"
        )
        packed = decoder_campaign(
            checked4, checker35, faults, addresses, collapse=collapse
        )
        assert record_key(serial) == record_key(packed)
        assert serial.engine == "serial" and packed.engine == "packed"

    @pytest.mark.parametrize(
        "stream_factory",
        [
            lambda: sequential_addresses(4, 48),
            lambda: burst_addresses(4, 64, locality=4, seed=2),
            lambda: [3] * 32,  # pathological: one address repeated
        ],
    )
    def test_stream_shapes(self, checked4, checker35, stream_factory):
        faults = decoder_fault_list(checked4)
        addresses = stream_factory()
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial",
            attach_analytic=False,
        )
        packed = decoder_campaign(
            checked4, checker35, faults, addresses, attach_analytic=False
        )
        assert record_key(serial) == record_key(packed)

    def test_empty_stream_and_empty_fault_list(self, checked4, checker35):
        faults = decoder_fault_list(checked4)[:4]
        packed = decoder_campaign(
            checked4, checker35, faults, [], attach_analytic=False
        )
        serial = decoder_campaign(
            checked4, checker35, faults, [], engine="serial",
            attach_analytic=False,
        )
        assert record_key(serial) == record_key(packed)
        assert all(r.first_detection is None for r in packed.records)
        empty = decoder_campaign(
            checked4, checker35, [], _uniform_addresses(4, 16),
            attach_analytic=False,
        )
        assert empty.total == 0

    def test_workers_shard_matches_serial(self, checked4, checker35):
        faults = decoder_fault_list(checked4)
        addresses = _uniform_addresses(4, 120, seed=8)
        sharded = decoder_campaign(
            checked4, checker35, faults, addresses, workers=2,
            attach_analytic=False,
        )
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial",
            attach_analytic=False,
        )
        assert record_key(serial) == record_key(sharded)

    def test_duplicate_faults_in_list(self, checked4, checker35):
        fault = decoder_fault_list(checked4)[3]
        faults = [fault, fault, fault]
        addresses = _uniform_addresses(4, 60, seed=1)
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial",
            attach_analytic=False,
        )
        packed = decoder_campaign(
            checked4, checker35, faults, addresses, attach_analytic=False
        )
        assert record_key(serial) == record_key(packed)
        assert packed.total == 3

    def test_unknown_engine_rejected(self, checked4, checker35):
        with pytest.raises(ValueError):
            decoder_campaign(
                checked4, checker35, [], [], engine="quantum"
            )


class _MembershipChecker(Checker):
    """Plugin-style checker (no packed override): generic fallback path."""

    def __init__(self, mapping):
        self.input_width = mapping.rom_width
        self._words = {
            mapping.codeword(a) for a in range(1 << mapping.n_bits)
        }

    def indication(self, word):
        return (1, 0) if tuple(word) in self._words else (1, 1)


def test_plugin_checker_campaign_matches_serial(checked4):
    checker = _MembershipChecker(checked4.mapping)
    faults = decoder_fault_list(checked4)
    addresses = _uniform_addresses(4, 150, seed=13)
    serial = decoder_campaign(
        checked4, checker, faults, addresses, engine="serial",
        attach_analytic=False,
    )
    packed = decoder_campaign(
        checked4, checker, faults, addresses, attach_analytic=False
    )
    assert record_key(serial) == record_key(packed)


class TestSchemeCampaignEquivalence:
    def build_memory(self, structural=False):
        org = MemoryOrganization(64, 8, column_mux=4)
        return SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9), structural_checkers=structural
        )

    MEMORY_FAULTS = [
        CellStuckAt(5, 1, 1),
        CellStuckAt(9, 0, 0),
        DataLineStuckAt(3, 1),
        MuxLineStuckAt(2, 0, 0),
        CouplingFault(3, 0, 40, 1),
    ]

    @pytest.mark.parametrize("structural", [False, True])
    def test_all_fault_kinds_match_serial(self, structural):
        serial_memory = self.build_memory(structural)
        packed_memory = self.build_memory(structural)
        row_faults = decoder_fault_list(serial_memory.row) + [
            PinStuckAt(gate.index, pin, value)
            for gate in serial_memory.row.tree.circuit.gates[:10]
            for pin in range(len(gate.inputs))
            for value in (0, 1)
        ]
        column_faults = sample_faults(
            decoder_fault_list(serial_memory.column), 10, seed=4
        )
        addresses = _uniform_addresses(
            serial_memory.organization.n, 250, seed=3
        )
        serial = scheme_campaign(
            serial_memory, addresses, row_faults=row_faults,
            column_faults=column_faults, memory_faults=self.MEMORY_FAULTS,
            engine="serial",
        )
        packed = scheme_campaign(
            packed_memory, addresses, row_faults=row_faults,
            column_faults=column_faults, memory_faults=self.MEMORY_FAULTS,
        )
        key = lambda res: [
            (str(r.fault), r.kind, r.first_detection) for r in res.records
        ]
        assert key(serial) == key(packed)

    def test_adversarial_writer_with_corrupt_contents(self):
        """A writer that leaves non-code words in the array: the packed
        engine's fault-free rejection words must mirror serial."""

        def corrupting_writer(memory):
            for address in range(memory.organization.words):
                memory.write(address, (address & 1,) * 8)
            # leave a few stored words off the parity code
            for address in (0, 17, 33):
                memory.ram.flip_stored_bit(address, 2)

        serial_memory = self.build_memory()
        packed_memory = self.build_memory()
        row_faults = sample_faults(
            decoder_fault_list(serial_memory.row), 14, seed=6
        )
        addresses = _uniform_addresses(
            serial_memory.organization.n, 200, seed=11
        )
        serial = scheme_campaign(
            serial_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS[:2],
            writer=corrupting_writer, engine="serial",
        )
        packed = scheme_campaign(
            packed_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS[:2],
            writer=corrupting_writer,
        )
        key = lambda res: [
            (str(r.fault), r.kind, r.first_detection) for r in res.records
        ]
        assert key(serial) == key(packed)

    def test_workers_shard_matches_serial(self):
        serial_memory = self.build_memory()
        packed_memory = self.build_memory()
        row_faults = sample_faults(
            decoder_fault_list(serial_memory.row), 12, seed=2
        )
        addresses = _uniform_addresses(
            serial_memory.organization.n, 150, seed=5
        )
        serial = scheme_campaign(
            serial_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS, engine="serial",
        )
        sharded = scheme_campaign(
            packed_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS, workers=2,
        )
        key = lambda res: [
            (str(r.fault), r.kind, r.first_detection) for r in res.records
        ]
        assert key(serial) == key(sharded)


class TestSimulatorEngines:
    def build_circuit(self):
        c = Circuit("sim")
        a, b, d = c.add_inputs(["a", "b", "d"])
        x = c.add_gate(GateType.XOR, (a, b))
        y = c.add_gate(GateType.AND, (x, d))
        z = c.add_gate(GateType.NOR, (a, y))
        c.mark_output(y)
        c.mark_output(z)
        return c

    def all_stimuli(self):
        return list(itertools.product((0, 1), repeat=3))

    def test_fault_free_responses_engines_agree(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        assert fault_free_responses(c, stimuli) == fault_free_responses(
            c, stimuli, engine="serial"
        )

    def test_first_difference_engines_agree(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        golden = fault_free_responses(c, stimuli)
        for fault in enumerate_stuck_at_faults(
            c, include_inputs=True, include_pins=True
        ):
            serial = first_difference(
                c, fault, stimuli, engine="serial"
            )
            assert first_difference(c, fault, stimuli) == serial
            assert (
                first_difference(c, fault, stimuli, golden=golden)
                == serial
            )

    def test_detects_and_coverage_engines_agree(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        checker = lambda response: response != (1, 0)
        faults = enumerate_stuck_at_faults(
            c, include_inputs=True, include_pins=True
        )
        for fault in faults:
            assert detects(c, fault, stimuli, checker) == detects(
                c, fault, stimuli, checker, engine="serial"
            )
        packed = coverage(c, faults, stimuli, checker)
        serial = coverage(c, faults, stimuli, checker, engine="serial")
        assert packed["coverage"] == serial["coverage"]
        assert packed["first_detection"] == serial["first_detection"]
        assert packed["undetected"] == serial["undetected"]

    def test_first_difference_rejects_mismatched_golden(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        golden = fault_free_responses(c, stimuli)
        fault = NetStuckAt(c.gates[0].output, 1)
        with pytest.raises(ValueError):
            first_difference(c, fault, stimuli, golden=golden[:-1])

    def test_empty_stimuli(self):
        c = self.build_circuit()
        fault = NetStuckAt(c.gates[0].output, 1)
        assert first_difference(c, fault, []) is None
        assert detects(c, fault, [], lambda r: True) is None
        report = coverage(c, [fault], [], lambda r: True)
        assert report["coverage"] == 0.0


class TestDesignEngineEmpirical:
    def test_evaluate_attaches_empirical_report(self):
        from repro.design import DesignEngine, DesignSpec
        from repro.design.report import DesignReport

        spec = DesignSpec(words=256, bits=8, c=10, pndc=1e-9)
        engine = DesignEngine()
        report = engine.evaluate(spec, empirical=True, empirical_cycles=128)
        emp = report.empirical
        assert emp is not None
        assert emp.engine == "packed"
        assert emp.faults > 0 and emp.cycles == 128
        assert 0.0 <= emp.coverage <= 1.0
        assert "empirical validation" in report.render()
        # round-trips through dict/json with the empirical section
        clone = DesignReport.from_dict(report.to_dict())
        assert clone.empirical == emp
        # evaluate without the hook stays lean
        assert engine.evaluate(spec).empirical is None

    def test_empirical_engines_agree(self):
        from repro.design import DesignEngine, DesignSpec

        spec = DesignSpec(words=256, bits=8, c=10, pndc=1e-9)
        engine = DesignEngine()
        packed = engine.empirical(spec, cycles=128)
        serial = engine.empirical(spec, cycles=128, engine="serial")
        for field in (
            "faults", "detected", "coverage", "mean_detection_cycle",
            "max_detection_cycle", "escape_fraction_at_c",
            "zero_latency_sa0",
        ):
            assert getattr(packed, field) == getattr(serial, field), field


class TestCampaignCLI:
    def test_latency_json_reports_throughput(self, capsys):
        from repro.cli import main

        assert main(["latency", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "packed"
        assert payload["wall_time_s"] > 0
        assert payload["campaign"]["faults"] > 0
        assert payload["campaign"]["faults_per_sec"] > 0

    def test_report_empirical_json(self, capsys):
        from repro.cli import main

        assert main([
            "report", "--words", "256", "--bits", "8", "-c", "10",
            "-p", "1e-9", "--empirical", "--empirical-cycles", "64",
            "--json",
        ]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["empirical"]["cycles"] == 64
        assert payload["empirical"]["engine"] == "packed"

    def test_serial_flag_round_trip(self, capsys):
        from repro.cli import main

        assert main(["latency", "--engine", "serial", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "serial"
        assert payload["campaign"]["engine"] == "serial"

    def test_workers_with_serial_engine_rejected(self, capsys):
        from repro.cli import main

        assert main(
            ["latency", "--engine", "serial", "--workers", "2"]
        ) == 1
        assert "--workers requires the packed or vector engine" in (
            capsys.readouterr().err
        )
