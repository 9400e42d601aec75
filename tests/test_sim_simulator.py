"""Tests for repro.sim.simulator — timing behaviour and module overlap."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_network
from repro.errors import SimulationError
from repro.ir import zoo
from repro.isa.program import Program
from repro.mapping import NetworkMapping
from repro.runtime import HostRuntime, generate_parameters
from repro.sim.simulator import (
    AcceleratorSimulator,
    ModuleStats,
    SimulationResult,
)


def run_tiny(cfg, device, mode="wino", dataflow="ws", functional=False,
             net=None):
    net = net or zoo.tiny_cnn(input_size=16, channels=8)
    params = generate_parameters(net, seed=1)
    mapping = NetworkMapping.uniform(net, mode, dataflow)
    compiled = compile_network(
        net, cfg, mapping, params,
        CompilerOptions(quantize=False, pack_data=functional),
    )
    runtime = HostRuntime(compiled, device, functional=functional)
    result = runtime.infer(np.zeros(net.input_shape.as_tuple()))
    return result.sim, compiled


class TestTiming:
    def test_deterministic(self, cfg_pt4, pynq):
        a, _ = run_tiny(cfg_pt4, pynq)
        b, _ = run_tiny(cfg_pt4, pynq)
        assert a.cycles == b.cycles

    def test_modules_overlap(self, cfg_pt4, pynq):
        # Ping-pong + handshake FIFOs must overlap module activity:
        # total busy cycles across modules exceeds the makespan.
        sim, _ = run_tiny(cfg_pt4, pynq)
        busy = sum(m.busy_cycles for m in sim.modules.values())
        assert busy > sim.cycles

    def test_makespan_bounded_by_serial_execution(self, cfg_pt4, pynq):
        sim, _ = run_tiny(cfg_pt4, pynq)
        busy = sum(m.busy_cycles for m in sim.modules.values())
        assert sim.cycles <= busy

    def test_winograd_faster_than_spatial(self, cfg_pt4, pynq):
        wino, _ = run_tiny(cfg_pt4, pynq, mode="wino")
        spat, _ = run_tiny(cfg_pt4, pynq, mode="spat")
        assert wino.cycles < spat.cycles

    def test_higher_bandwidth_not_slower(self, cfg_pt4, pynq, vu9p):
        # Same config, cloud memory system and frequency-normalised:
        # more bandwidth can only help.
        from dataclasses import replace

        slow_dev = replace(pynq)
        fast_dev = replace(
            pynq, memory=replace(pynq.memory, bandwidth_gbps=100.0)
        )
        slow, _ = run_tiny(cfg_pt4, slow_dev)
        fast, _ = run_tiny(cfg_pt4, fast_dev)
        assert fast.cycles <= slow.cycles

    def test_layer_timings_cover_program(self, cfg_pt4, pynq):
        sim, compiled = run_tiny(cfg_pt4, pynq)
        assert {t.layer_name for t in sim.layers} == set(
            compiled.partitions
        )
        for timing in sim.layers:
            assert timing.finish_cycle > timing.start_cycle
            assert timing.cycles > 0

    def test_seconds_from_frequency(self, cfg_pt4, pynq):
        sim, _ = run_tiny(cfg_pt4, pynq)
        assert sim.seconds == pytest.approx(
            sim.cycles / cfg_pt4.frequency_hz
        )

    def test_instruction_count_reported(self, cfg_pt4, pynq):
        sim, compiled = run_tiny(cfg_pt4, pynq)
        assert sim.instructions == compiled.total_instructions


class TestFunctionalBookkeeping:
    def test_dram_traffic_counted(self, cfg_pt4, pynq):
        sim, _ = run_tiny(cfg_pt4, pynq, functional=True)
        assert sim.dram_read_elems > 0
        assert sim.dram_written_elems > 0

    def test_timing_identical_with_and_without_functional(self, cfg_pt4, pynq):
        # The functional datapath must not perturb timing.
        t, _ = run_tiny(cfg_pt4, pynq, functional=False)
        f, _ = run_tiny(cfg_pt4, pynq, functional=True)
        assert t.cycles == f.cycles


class TestErrors:
    def test_program_without_descriptors_rejected(self, cfg_pt4, pynq):
        from repro.arch.dram import ExternalMemoryModel

        dram = ExternalMemoryModel(1024, 1.0)
        sim = AcceleratorSimulator(cfg_pt4, pynq, dram, functional=False)
        with pytest.raises(SimulationError, match="descriptors"):
            sim.run(Program())

    def test_merge_empty_rejected(self):
        with pytest.raises(SimulationError):
            SimulationResult.merge([])

    def test_merge_accumulates(self, cfg_pt4, pynq):
        a, _ = run_tiny(cfg_pt4, pynq)
        merged = SimulationResult.merge([a, a])
        assert merged.cycles == 2 * a.cycles
        assert merged.instructions == 2 * a.instructions
        assert len(merged.layers) == 2 * len(a.layers)
        # Second copy's layer windows shifted by the first's makespan.
        assert merged.layers[len(a.layers)].start_cycle >= a.cycles
        # Each module finishes where it last ran: in the second copy.
        for name, stats in a.modules.items():
            assert stats.instructions and stats.finish_time > 0
            assert merged.modules[name].finish_time == (
                a.cycles + stats.finish_time
            )

    def test_merge_keeps_the_last_segment_a_module_ran_in(self, cfg_pt4,
                                                          pynq):
        a, _ = run_tiny(cfg_pt4, pynq)
        idle = SimulationResult(
            cycles=10, frequency_hz=a.frequency_hz,
            modules={name: ModuleStats(name) for name in a.modules},
        )
        merged = SimulationResult.merge([a, idle])
        for name, stats in a.modules.items():
            assert merged.modules[name].finish_time == stats.finish_time

    def test_layer_lookup(self, cfg_pt4, pynq):
        sim, _ = run_tiny(cfg_pt4, pynq)
        assert sim.layer("conv1").layer_name == "conv1"
        with pytest.raises(KeyError):
            sim.layer("nope")
