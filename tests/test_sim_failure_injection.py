"""Failure-injection tests: corrupted programs must be *detected*, not
silently mis-simulated.

The simulator's handshake FIFOs act like RTL assertions: a compiler (or
bit-flip) bug that unbalances tokens raises ``SimulationError`` instead
of producing wrong numbers quietly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions, compile_network
from repro.errors import SimulationError
from repro.fpga import get_device
from repro.ir import zoo
from repro.isa.instructions import DeptFlag, Opcode
from repro.mapping import NetworkMapping
from repro.runtime import HostRuntime, generate_parameters


@pytest.fixture
def setup():
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, frequency_mhz=100.0,
        input_buffer_vecs=4096, weight_buffer_vecs=2048,
        output_buffer_vecs=2048,
    )
    device = get_device("pynq-z1")
    net = zoo.tiny_cnn(input_size=16, channels=8)
    compiled = compile_network(
        net, cfg, NetworkMapping.uniform(net, "wino", "ws"),
        generate_parameters(net), CompilerOptions(quantize=False),
    )
    return cfg, device, net, compiled


def run(compiled, device, functional=True):
    """Functional mode engages the buffer/accumulator assertions."""
    runtime = HostRuntime(compiled, device, functional=functional)
    return runtime.infer(np.zeros((3, 16, 16)))


def corrupt(program, index, **changes):
    """Replace instruction ``index`` with a mutated copy."""
    program[index] = replace(program[index], **changes)


def first_of(program, opcode, flag=None):
    for i, inst in enumerate(program):
        if inst.opcode == opcode and (flag is None or inst.dept_flag & flag):
            return i
    raise AssertionError(f"no {opcode} in program")


class TestFailureInjection:
    def test_instruction_snapshot_is_read_only(self, setup):
        """Editing ``program.instructions`` cannot silently miss the
        stream the simulator reads: the snapshot refuses assignment."""
        cfg, device, net, compiled = setup
        program = compiled.steps[0].program
        idx = first_of(program, Opcode.LOAD_INP)
        inst = program.instructions[idx]
        with pytest.raises(TypeError):
            program.instructions[idx] = replace(inst, dept_flag=DeptFlag.NONE)
        assert program[idx] == inst

    def test_dropped_emit_deadlocks(self, setup):
        cfg, device, net, compiled = setup
        program = compiled.steps[0].program
        idx = first_of(program, Opcode.LOAD_INP)
        corrupt(program, idx, dept_flag=DeptFlag.WAIT_FREE)  # no EMIT
        with pytest.raises(SimulationError, match="underflow"):
            run(compiled, device, functional=False)

    def test_unthrottled_producer_overflows(self, setup):
        """Three loads emitting without waiting for free halves exceed
        the depth-2 data FIFO — the data-pollution hazard Section 4.1's
        handshakes prevent."""
        cfg, device, net, compiled = setup
        from repro.arch.dram import ExternalMemoryModel
        from repro.isa.instructions import LoadInp
        from repro.isa.program import DescriptorTable, Program
        from repro.sim.simulator import AcceleratorSimulator

        program = Program(
            LoadInp(dept_flag=DeptFlag.EMIT, buff_id=i % 2) for i in range(3)
        )
        program.metadata["descriptors"] = DescriptorTable.from_columns(
            program.opcodes, {"elems": 16, "half": [0, 1, 0]}
        )
        dram = ExternalMemoryModel(1024, 1.0)
        sim = AcceleratorSimulator(cfg, device, dram, functional=False)
        with pytest.raises(SimulationError, match="overflow"):
            sim.run(program)

    def test_missing_clear_detected(self, setup):
        cfg, device, net, compiled = setup
        program = compiled.steps[0].program
        idx = first_of(program, Opcode.COMP)
        corrupt(program, idx, accum_clear=0)
        program.metadata["descriptors"].update(idx, clear=False)
        with pytest.raises(SimulationError, match="accum"):
            run(compiled, device)

    def test_read_before_write_detected(self, setup):
        cfg, device, net, compiled = setup
        program = compiled.steps[0].program
        idx = first_of(program, Opcode.COMP)
        table = program.metadata["descriptors"]
        # Point the COMP at the never-written ping-pong half.
        table.update(idx, inp_half=1 - table[idx]["inp_half"])
        with pytest.raises(SimulationError, match="before any write"):
            run(compiled, device)

    def test_oversized_payload_detected(self, setup):
        cfg, device, net, compiled = setup
        program = compiled.steps[0].program
        idx = first_of(program, Opcode.LOAD_INP)
        program.metadata["descriptors"].update(idx, rows=10_000)
        with pytest.raises(SimulationError):
            run(compiled, device)
