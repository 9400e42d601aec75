"""Tests for repro.isa.program — instruction stream container."""

from dataclasses import replace

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_network
from repro.dse.space import DseOptions
from repro.errors import EncodingError
from repro.experiments.common import paper_config
from repro.ir import zoo
from repro.isa import Comp, LoadInp, LoadWgt, Program, Save, validate_program
from repro.isa.instructions import DeptFlag, Opcode
from repro.mapping import NetworkMapping
from repro.pipeline import PipelineSession
from repro.runtime import generate_parameters


def sample_program():
    program = Program()
    program.append(LoadInp(size_chan=4))
    program.append(LoadWgt(size_chan=8))
    program.append(Comp(ic_number=4, oc_number=2))
    program.append(Save(size_chan=2))
    program.mark_layer("conv1", 0, mode="wino", dataflow="is")
    return program


class TestProgram:
    def test_container_protocol(self):
        program = sample_program()
        assert len(program) == 4
        assert isinstance(program[2], Comp)
        assert [i.opcode for i in program] == [
            Opcode.LOAD_INP, Opcode.LOAD_WGT, Opcode.COMP, Opcode.SAVE,
        ]

    def test_markers(self):
        program = sample_program()
        marker = program.markers[0]
        assert (marker.start, marker.end) == (0, 4)
        assert marker.mode == "wino"
        assert len(program.layer_slice("conv1")) == 4
        with pytest.raises(KeyError):
            program.layer_slice("conv9")

    def test_count_by_opcode(self):
        counts = sample_program().count_by_opcode()
        assert counts[Opcode.COMP] == 1
        assert counts[Opcode.LOAD_INP] == 1

    def test_binary_roundtrip(self):
        program = sample_program()
        blob = program.to_bytes()
        assert len(blob) == 16 * len(program)
        back = Program.from_bytes(blob)
        assert back.instructions == program.instructions

    def test_binary_length_check(self):
        with pytest.raises(EncodingError):
            Program.from_bytes(b"\x01" * 17)

    def test_file_roundtrip(self, tmp_path):
        program = sample_program()
        path = tmp_path / "program.bin"
        program.save(path)
        assert Program.load(path).instructions == program.instructions

    def test_extend(self):
        program = Program()
        program.extend([Comp(), Comp()])
        assert len(program) == 2

    def test_second_marker_starts_after_first(self):
        program = sample_program()
        program.append(Comp())
        program.mark_layer("conv2", 4, mode="spat", dataflow="ws")
        assert program.markers[1].start == 4
        assert program.markers[1].end == 5

    def test_columns_hold_the_stream(self):
        program = sample_program()
        assert program.opcodes.tolist() == [
            Opcode.LOAD_INP, Opcode.LOAD_WGT, Opcode.COMP, Opcode.SAVE,
        ]
        assert program.rows[1, :4].tolist() == [0, 0, 0, 8]  # buff_id ..
        assert not program.rows[1, 12:].any()  # zero past LOAD's 12 fields
        assert Program(program.instructions) == Program(program)

    def test_instructions_snapshot_is_immutable(self):
        program = sample_program()
        snapshot = program.instructions
        assert isinstance(snapshot, tuple)
        with pytest.raises(TypeError):
            snapshot[0] = Comp()
        with pytest.raises(AttributeError):
            program.instructions = []
        assert program.instructions == snapshot

    def test_item_assignment_replaces_one_instruction(self):
        program = sample_program()
        flagged = replace(program[2], dept_flag=DeptFlag.WAIT_INP, oc_number=7)
        program[2] = flagged
        assert program[2] == flagged
        assert program[-2] == flagged
        assert program.depts[2] == DeptFlag.WAIT_INP
        program[0] = Save(size_chan=3)
        assert program.count_by_opcode()[Opcode.SAVE] == 2
        with pytest.raises(IndexError):
            program[4] = Comp()
        with pytest.raises(TypeError):
            program[0:1] = [Comp()]
        assert len(program) == 4

    def test_slices_build_instructions(self):
        program = sample_program()
        assert program[1:3] == list(program.instructions[1:3])
        assert program[::-1][0] == program[3]


def packed_program() -> Program:
    """tiny_cnn (Winograd, WS) on the PYNQ-Z1 paper configuration,
    packed and quantised: its descriptors carry weight-scale arrays."""
    cfg, _ = paper_config("pynq-z1")
    net = zoo.tiny_cnn()
    compiled = compile_network(
        net, cfg, NetworkMapping.uniform(net, "wino", "ws"),
        generate_parameters(net, seed=1), CompilerOptions(),
    )
    return compiled.programs()[0]


def _edit_field(program: Program) -> None:
    index = int(np.flatnonzero(program.opcodes == Opcode.LOAD_INP)[0])
    program[index] = replace(
        program[index], size_rows=program[index].size_rows + 1
    )


def _edit_dept(program: Program) -> None:
    index = int(np.flatnonzero(program.opcodes == Opcode.COMP)[0])
    flag = program[index].dept_flag ^ DeptFlag.FREE_WGT
    program[index] = replace(program[index], dept_flag=flag)


def _edit_descriptor(program: Program) -> None:
    table = program.metadata["descriptors"]
    table.update(len(table) - 1, elems=table[len(table) - 1]["elems"] + 1)


def _edit_scales(program: Program) -> None:
    scales = program.metadata["descriptors"].layers[0].wgt_scales
    scales[0, 0, 0] *= 2


class TestEquality:
    def test_independent_packed_compiles_are_equal(self):
        first, second = packed_program(), packed_program()
        scales = [
            constants.wgt_scales
            for constants in first.metadata["descriptors"].layers
        ]
        assert all(isinstance(array, np.ndarray) for array in scales)
        assert first == second
        assert not first != second

    @pytest.mark.parametrize("edit", [
        _edit_field, _edit_dept, _edit_descriptor, _edit_scales,
    ])
    def test_one_edit_makes_them_unequal(self, edit):
        first, second = packed_program(), packed_program()
        edit(second)
        assert first != second
        assert not first == second


TIMING_ONLY = CompilerOptions(quantize=True, pack_data=False)


@pytest.mark.parametrize("device", ["vu9p", "pynq-z1"])
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_zoo_streams_encode(model, device):
    """The stream ``repro compile`` writes for every zoo model fits the
    128-bit formats (LOAD_WGT's k-vector x c-vector count reaches
    16,384 on DarkNet-19 / VU9P), decodes back to the same stream and
    passes the static handshake checks."""
    session = PipelineSession(
        model, device, DseOptions(), compiler_options=TIMING_ONLY
    )
    for program in session.compiled().programs():
        back = Program.from_bytes(program.to_bytes())
        assert np.array_equal(back.opcodes, program.opcodes)
        assert np.array_equal(back.depts, program.depts)
        assert np.array_equal(back.rows, program.rows)
        report = validate_program(program)
        assert report.ok, str(report)
