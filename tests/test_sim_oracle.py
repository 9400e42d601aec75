"""``AcceleratorSimulator.run`` against the implementations it replaced.

:func:`oracle_run` below is the simulator's former main loop, kept
verbatim as the oracle: one instruction at a time, popping and pushing
timestamped tokens through six :class:`HandshakeFifo` queues, with the
scalar duration formulas :func:`_xfer_cycles` and :func:`_comp_cycles`.
The column simulator (durations as column math, tokens matched
statically, the max-plus recurrence) must agree with it on cycles,
module stats, layer windows, trace records and DRAM counters, and on
the output of a functional run.  On a corrupted program both must raise
the same FIFO error.

:func:`_finish_times` is the fast oracle of the recurrence alone: the
former one-pass loop over plain ints, kept verbatim.  The periodic
recurrence (:func:`repro.sim.simulator._finish_column`, which fills
each layer's periodic regime instead of stepping it) must give the
same finish column on random single layers, on hand-built streams
whose periods are wrong, missing, issue-bound or never settle, and on
every design of two whole DSE spaces.

The zoo on the other catalog devices, both full Figure 6 sweeps and the
design spaces are marked ``slow``; run them with
``REPRO_FULL_ORACLE=1 pytest -m slow tests/test_sim_oracle.py``.
"""

import math
import os
from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch import pe
from repro.arch.buffers import PingPongBuffer
from repro.arch.fifo import HandshakeFifo
from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions, compile_network
from repro.dse.space import DseOptions, explore_hardware
from repro.errors import ReproError, SimulationError
from repro.experiments.figure6 import run_figure6
from repro.fpga import get_device
from repro.ir import NetworkBuilder, zoo
from repro.isa.instructions import INSTRUCTION_CLASSES, Comp, DeptFlag, Opcode
from repro.isa.program import (
    ROW_WIDTH,
    DescriptorTable,
    LayerConstants,
    LayerMarker,
    Program,
)
from repro.mapping import LayerMapping, NetworkMapping
from repro.pipeline import PipelineSession
from repro.runtime import HostRuntime, generate_parameters
from repro.sim import simulator
from repro.sim.simulator import (
    CTRL_ISSUE_CYCLES,
    DDR_FIXED_CYCLES,
    AcceleratorSimulator,
    LayerTiming,
    ModuleStats,
    SimulationResult,
)
from repro.sim.trace import TraceRecord
from repro.winograd.reference import max_pool2d

MODELS = sorted(zoo.MODELS)
PAPER_DEVICES = ("vu9p", "pynq-z1")
OTHER_DEVICES = ("zcu102", "ku115")
TIMING_ONLY = CompilerOptions(quantize=True, pack_data=False)

# -- the oracle: the per-instruction FIFO replay, verbatim -------------------


def _xfer_cycles(sim, elems: int, bytes_per_elem: int,
                 port_elems_per_cycle: float) -> int:
    if elems <= 0:
        return DDR_FIXED_CYCLES
    ddr = elems * bytes_per_elem / sim.bytes_per_cycle
    port = elems / port_elems_per_cycle
    return int(math.ceil(max(ddr, port))) + DDR_FIXED_CYCLES


def _comp_cycles(sim, desc: dict) -> int:
    kc, cc = desc["k_count"], desc["c_count"]
    if desc["mode"] == "wino":
        n_tiles = -(-desc["out_w"] // sim.cfg.m)
        per_block = pe.winograd_cycles(sim.cfg, kc, cc, n_tiles)
        return per_block * len(desc["blocks"])
    r, s = desc["kernel"]
    return pe.spatial_cycles(
        sim.cfg, kc, cc, r, s, desc["rows_out"], desc["out_w"]
    )


def oracle_run(sim, program: Program) -> SimulationResult:
    """The simulator's former main loop: one instruction at a time
    through six :class:`HandshakeFifo` token queues."""
    descriptors = program.metadata.get("descriptors")
    if descriptors is None:
        raise SimulationError(
            "program has no descriptors; run a compiler-produced "
            "program (binary round-trips drop host-side metadata)"
        )
    cfg = sim.cfg

    fifos = {
        "inp_data": HandshakeFifo("inp_data", depth=2),
        "inp_free": HandshakeFifo("inp_free", depth=2, preload=2),
        "wgt_data": HandshakeFifo("wgt_data", depth=2),
        "wgt_free": HandshakeFifo("wgt_free", depth=2, preload=2),
        "out_data": HandshakeFifo("out_data", depth=2),
        "out_free": HandshakeFifo("out_free", depth=2, preload=2),
    }
    modules = {
        name: ModuleStats(name)
        for name in ("LOAD_INP", "LOAD_WGT", "COMP", "SAVE")
    }
    module_time = {name: 0 for name in modules}
    module_of = {
        Opcode.LOAD_INP: "LOAD_INP",
        Opcode.LOAD_WGT: "LOAD_WGT",
        Opcode.LOAD_BIAS: "LOAD_WGT",
        Opcode.COMP: "COMP",
        Opcode.SAVE: "SAVE",
    }

    if sim.functional:
        input_buf = PingPongBuffer("input", cfg.input_buffer_vecs)
        weight_buf = PingPongBuffer("weight", cfg.weight_buffer_vecs)
        output_buf = PingPongBuffer("output", cfg.output_buffer_vecs)
        bias_buf: Optional[np.ndarray] = None
        accum: Optional[np.ndarray] = None

    start_cycle: Dict[int, int] = {}
    finish_cycle: Dict[int, int] = {}
    trace_records = []
    read0 = sim.dram.total_read_elems
    written0 = sim.dram.total_written_elems

    for idx, inst in enumerate(program):
        desc = descriptors[idx]
        opcode = inst.opcode
        mod = module_of[opcode]
        start = max(module_time[mod], idx * CTRL_ISSUE_CYCLES)
        dept = inst.dept_flag

        # -- token waits ---------------------------------------------
        if opcode in (Opcode.LOAD_INP, Opcode.LOAD_WGT):
            fifo = "inp_free" if opcode == Opcode.LOAD_INP else "wgt_free"
            if dept & DeptFlag.WAIT_FREE:
                start = max(start, fifos[fifo].pop())
        elif opcode == Opcode.COMP:
            if dept & DeptFlag.WAIT_INP:
                start = max(start, fifos["inp_data"].pop())
            if dept & DeptFlag.WAIT_WGT:
                start = max(start, fifos["wgt_data"].pop())
            if dept & DeptFlag.WAIT_FREE:
                start = max(start, fifos["out_free"].pop())
        elif opcode == Opcode.SAVE:
            if dept & DeptFlag.WAIT_INP:
                start = max(start, fifos["out_data"].pop())

        # -- duration ---------------------------------------------------
        if opcode == Opcode.LOAD_INP:
            duration = _xfer_cycles(sim,
                desc["elems"], sim.feature_bytes, cfg.pi * cfg.pt
            )
        elif opcode == Opcode.LOAD_WGT:
            duration = _xfer_cycles(sim,
                desc["elems"], sim.weight_bytes,
                cfg.pi * cfg.po * cfg.pt,
            )
        elif opcode == Opcode.LOAD_BIAS:
            duration = _xfer_cycles(sim,
                desc["elems"], sim.weight_bytes, cfg.po
            )
        elif opcode == Opcode.COMP:
            duration = _comp_cycles(sim, desc)
        elif opcode == Opcode.SAVE:
            duration = _xfer_cycles(sim,
                desc["elems"], sim.feature_bytes, cfg.po * cfg.pt
            )
        else:
            raise SimulationError(f"unhandled opcode {opcode}")

        finish = start + duration
        module_time[mod] = finish
        stats = modules[mod]
        stats.instructions += 1
        stats.busy_cycles += duration
        stats.finish_time = finish
        start_cycle[idx] = start
        finish_cycle[idx] = finish
        if sim.trace:
            trace_records.append(
                TraceRecord(
                    index=idx, opcode=opcode.name, module=mod,
                    start=start, finish=finish,
                )
            )

        # -- token emission --------------------------------------------
        if opcode == Opcode.LOAD_INP and dept & DeptFlag.EMIT:
            fifos["inp_data"].push(finish)
        elif opcode == Opcode.LOAD_WGT and dept & DeptFlag.EMIT:
            fifos["wgt_data"].push(finish)
        elif opcode == Opcode.COMP:
            if dept & DeptFlag.EMIT:
                fifos["out_data"].push(finish)
            if dept & DeptFlag.FREE_INP:
                fifos["inp_free"].push(finish)
            if dept & DeptFlag.FREE_WGT:
                fifos["wgt_free"].push(finish)
        elif opcode == Opcode.SAVE and dept & DeptFlag.FREE_INP:
            fifos["out_free"].push(finish)

        # -- functional data movement ---------------------------------
        if not sim.functional:
            continue
        if opcode == Opcode.LOAD_INP:
            strip = sim._load_strip(desc)
            input_buf.write(desc["half"], strip, strip.size // cfg.pi)
        elif opcode == Opcode.LOAD_WGT:
            region = sim.dram.region(desc["region"])
            flat = sim.dram.read(
                region.base + desc["offset"], desc["elems"]
            )
            weight_buf.write(
                desc["half"],
                flat.reshape(desc["shape"]),
                desc["elems"] // (cfg.pi * cfg.po),
            )
        elif opcode == Opcode.LOAD_BIAS:
            region = sim.dram.region(desc["region"])
            bias_buf = sim.dram.read(region.base, desc["count"])
        elif opcode == Opcode.COMP:
            strip = input_buf.read(desc["inp_half"]).data
            wgt = weight_buf.read(desc["wgt_half"]).data
            kc, cc = desc["k_count"], desc["c_count"]
            if desc["clear"]:
                accum = np.zeros(
                    (kc, desc["rows_out"], desc["out_w"]),
                    dtype=np.float64,
                )
                if bias_buf is not None:
                    accum += bias_buf[
                        desc["k0"] : desc["k0"] + kc, None, None
                    ]
            if accum is None:
                raise SimulationError("COMP without prior accum_clear")
            if desc["mode"] == "spat":
                out = pe.spatial_compute(
                    strip[:cc], wgt[0], desc["stride"], desc["rows_out"]
                )
                accum += out[:, :, : desc["out_w"]]
            else:
                scales = desc.get("wgt_scales")
                for b, (dr, ds) in enumerate(desc["blocks"]):
                    coeffs = wgt[b]
                    if scales is not None:
                        # Undo the per-position power-of-two weight
                        # scaling (a shift in hardware) before the
                        # output transform.
                        coeffs = coeffs * scales[b]
                    partial, _ = pe.winograd_compute(
                        strip[:cc, dr : dr + cfg.pt, ds:],
                        coeffs,
                        cfg.pt,
                        out_w=desc["out_w"],
                    )
                    accum += partial[:, : desc["rows_out"], : desc["out_w"]]
            if desc["flush"]:
                out = accum
                if desc["relu"]:
                    out = np.maximum(out, 0.0)
                if inst.quan_param > 0:
                    out = cfg.feature_type.quantize(out)
                output_buf.write(
                    desc["out_half"], out, out.size // cfg.po
                )
                accum = None
        elif opcode == Opcode.SAVE:
            data = output_buf.read(desc["half"]).data
            valid = data[:, : desc["rows_valid"], :]
            pool = desc["pool"]
            if pool > 1:
                valid = max_pool2d(valid, pool, pool)
                desc = dict(desc, y_dst0=desc["y0_out"] // pool)
            else:
                desc = dict(desc, y_dst0=desc["y0_out"])
            if valid.shape[1]:
                sim._store_rows(desc, valid)

    total_cycles = max(finish_cycle.values(), default=0)
    layer_timings = []
    for marker in program.markers:
        indices = range(marker.start, marker.end)
        layer_timings.append(
            LayerTiming(
                layer_name=marker.layer_name,
                mode=marker.mode,
                dataflow=marker.dataflow,
                start_cycle=min(start_cycle[i] for i in indices),
                finish_cycle=max(finish_cycle[i] for i in indices),
            )
        )
    return SimulationResult(
        cycles=total_cycles,
        frequency_hz=cfg.frequency_hz,
        modules=modules,
        layers=layer_timings,
        instructions=len(program),
        dram_read_elems=sim.dram.total_read_elems - read0,
        dram_written_elems=sim.dram.total_written_elems - written0,
        trace=trace_records,
    )


# -- the fast oracle: the one-pass recurrence, verbatim ----------------------


def _finish_times(
    previous: np.ndarray, waits: np.ndarray, durations: np.ndarray
) -> List[int]:
    """One pass of the max-plus recurrence, over plain ints.

    ``previous[i]`` is the module's previous instruction and ``waits[:,
    i]`` the matched pushes of ``i``'s tokens; -1 reads the trailing 0,
    which stands for "no dependency".
    """
    n = len(durations)
    finish = [0] * (n + 1)
    first, second, third = waits.tolist()
    for i, issue, before, a, b, c, duration in zip(
        range(n),
        range(0, CTRL_ISSUE_CYCLES * n, CTRL_ISSUE_CYCLES),
        previous.tolist(),
        first,
        second,
        third,
        durations.tolist(),
    ):
        finish[i] = (
            max(issue, finish[before], finish[a], finish[b], finish[c])
            + duration
        )
    finish.pop()
    return finish


def loop_finish(back: np.ndarray, durations: np.ndarray) -> List[int]:
    """:func:`_finish_times` over the dependency positions that
    ``back``'s distances give (-1 where a distance is 0: none)."""
    positions = np.arange(back.shape[1]) - back
    previous, *waits = np.where(back > 0, positions, -1)
    return _finish_times(previous, np.array(waits), durations)


def recurrence_inputs(sim, program: Program):
    """The durations and dependency distances ``sim.run`` times
    ``program`` with."""
    durations = sim._durations(
        program.opcodes, program.metadata["descriptors"]
    )
    back, failure = simulator._dependencies(
        program.opcodes, program.depts,
        simulator._module_members(program.opcodes),
    )
    assert failure is None
    return durations, back


def assert_same_column(program: Program, durations, back) -> None:
    got = simulator._finish_column(program, durations, back)
    assert got.dtype == np.int64
    assert got.tolist() == loop_finish(back, durations)


def assert_same_columns(sim, programs) -> int:
    """Equal finish columns on every program; returns the instructions."""
    checked = 0
    for program in programs:
        assert_same_column(program, *recurrence_inputs(sim, program))
        checked += len(program)
    return checked


def stepped_ranges(monkeypatch) -> list:
    """Record the ``(lo, hi)`` of every stepped stretch."""
    step = simulator._Recurrence.step
    ranges = []

    def recorded(self, lo, hi):
        ranges.append((lo, hi))
        step(self, lo, hi)

    monkeypatch.setattr(simulator._Recurrence, "step", recorded)
    return ranges


def stepped(ranges) -> int:
    return sum(max(0, hi - lo) for lo, hi in ranges)


# -- harness -----------------------------------------------------------------


def assert_same(got: SimulationResult, want: SimulationResult) -> None:
    """Equal results, field by field, with plain-int timings."""
    assert got.cycles == want.cycles
    assert got.frequency_hz == want.frequency_hz
    assert got.instructions == want.instructions
    assert got.modules == want.modules
    assert got.layers == want.layers
    assert got.trace == want.trace
    assert got.dram_read_elems == want.dram_read_elems
    assert got.dram_written_elems == want.dram_written_elems
    timings = [got.cycles] + [
        value
        for stats in got.modules.values()
        for value in (stats.busy_cycles, stats.finish_time)
    ] + [
        value
        for layer in got.layers
        for value in (layer.start_cycle, layer.finish_cycle)
    ]
    assert all(type(value) is int for value in timings)


def check_every_run(monkeypatch) -> list:
    """Make every timing-only ``AcceleratorSimulator.run`` also run the
    oracle on the same program and compare; returns the checked
    instruction counts."""
    run = AcceleratorSimulator.run
    checked = []

    def both(sim, program):
        assert not sim.functional  # both would move the data
        want = oracle_run(sim, program)
        got = run(sim, program)
        assert_same(got, want)
        checked.append(len(program))
        return got

    monkeypatch.setattr(AcceleratorSimulator, "run", both)
    return checked


def outcome(run, sim, program):
    """A run's result, or the message of the SimulationError it raised."""
    try:
        return run(sim, program)
    except SimulationError as error:
        return str(error)


def assert_same_outcome(sim, program) -> None:
    got = outcome(AcceleratorSimulator.run, sim, program)
    want = outcome(oracle_run, sim, program)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, SimulationResult), got
        assert_same(got, want)


def clone(program: Program) -> Program:
    """A copy whose instructions can be edited independently (the
    descriptors are shared)."""
    return Program(
        program.instructions,
        markers=list(program.markers),
        metadata=program.metadata,
    )


#: The rest of the catalog and the full Figure 6 sweeps; CI's benchmark
#: job runs them with ``REPRO_FULL_ORACLE=1 pytest -m slow``.
FULL_MATRIX = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_FULL_ORACLE") != "1",
        reason="full simulator oracle matrix: set REPRO_FULL_ORACLE=1",
    ),
]


def _zoo_cases():
    for device in PAPER_DEVICES + OTHER_DEVICES:
        for model in MODELS:
            yield pytest.param(
                model, device, id=f"{model}-{device}",
                marks=FULL_MATRIX if device in OTHER_DEVICES else [],
            )


# -- the tests ---------------------------------------------------------------


@pytest.mark.parametrize("model,device", _zoo_cases())
def test_zoo_timing_matches_oracle(model, device):
    """The DSE-selected design of every zoo model, traced, timing-only."""
    session = PipelineSession(
        model, device, DseOptions(), compiler_options=TIMING_ONLY
    )
    compiled = session.compiled()
    sim = HostRuntime(compiled, session.device, functional=False,
                      trace=True).sim
    for program in compiled.programs():
        assert_same(sim.run(program), oracle_run(sim, program))


def test_figure6_layers_match_oracle(monkeypatch):
    """A few Figure 6 layers per device, Winograd and Spatial."""
    checked = check_every_run(monkeypatch)
    run_figure6("vu9p", series=((56, 128), (14, 512)), kernels=(1, 3, 7))
    run_figure6("pynq-z1", series=((28, 128), (7, 256)), kernels=(3, 5))
    assert len(checked) == 2 * 2 * (3 + 2)


@pytest.mark.parametrize(
    "device", [pytest.param(d, marks=FULL_MATRIX) for d in PAPER_DEVICES]
)
def test_figure6_sweep_matches_oracle(monkeypatch, device):
    checked = check_every_run(monkeypatch)
    points = run_figure6(device)
    assert len(checked) == 2 * len(points)


@pytest.mark.parametrize("model,mode,dataflow", [
    ("tiny_cnn", "wino", "ws"),
    ("tiny_cnn", "wino", "is"),
    ("tiny_cnn", "spat", "ws"),
    ("tiny_cnn", "spat", "is"),
    ("tiny_mlp", "spat", "ws"),
    ("tiny_mlp", "spat", "is"),
])
def test_functional_matches_oracle(cfg_pt4, pynq, model, mode, dataflow):
    """Functional runs: equal outputs and equal timing, traced."""
    net = zoo.get_model(model)
    compiled = compile_network(
        net, cfg_pt4, NetworkMapping.uniform(net, mode, dataflow),
        generate_parameters(net, seed=3), CompilerOptions(quantize=True),
    )
    image = np.random.default_rng(5).standard_normal(
        net.input_shape.as_tuple()
    )
    new = HostRuntime(compiled, pynq, functional=True, trace=True)
    old = HostRuntime(compiled, pynq, functional=True, trace=True)
    old.sim.run = lambda program: oracle_run(old.sim, program)
    got, want = new.infer(image), old.infer(image)
    np.testing.assert_array_equal(got.output, want.output)
    assert_same(got.sim, want.sim)
    assert got.sim.dram_read_elems > 0


#: The ``cfg_pt4`` fixture's configuration, for module-level caching.
SMALL_CFG = AcceleratorConfig(
    pi=4, po=4, pt=4, instances=1, frequency_mhz=100.0,
    input_buffer_vecs=4096, weight_buffer_vecs=2048,
    output_buffer_vecs=2048,
)


@lru_cache(maxsize=None)
def _small(model: str, mode: str, dataflow: str, functional: bool = False):
    """A compiled small network and a simulator for it."""
    cfg = SMALL_CFG
    net = zoo.get_model(model)
    compiled = compile_network(
        net, cfg, NetworkMapping.uniform(net, mode, dataflow),
        generate_parameters(net, seed=1),
        CompilerOptions(quantize=False, pack_data=functional),
    )
    sim = HostRuntime(compiled, get_device("pynq-z1"),
                      functional=functional).sim
    return sim, compiled


SMALL = (
    ("tiny_cnn", "wino", "ws"),
    ("tiny_cnn", "spat", "is"),
    ("tiny_mlp", "wino", "is"),
)


@settings(max_examples=80, deadline=None)
@given(
    which=st.sampled_from(SMALL),
    flips=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(0, 5)),
        min_size=1, max_size=4,
    ),
)
def test_corrupted_dept_bits_fail_alike(which, flips):
    """Random DEPT_FLAG bit flips: both simulators raise the same FIFO
    error (FIFO name and kind), or both return equal results."""
    sim, compiled = _small(*which)
    for base in compiled.programs():
        program = clone(base)
        for index, bit in flips:
            index %= len(program)
            inst = program[index]
            program[index] = replace(
                inst, dept_flag=DeptFlag(inst.dept_flag ^ (1 << bit))
            )
        assert_same_outcome(sim, program)


def _first(program: Program, opcode: Opcode, last: bool = False) -> int:
    positions = [i for i, op in enumerate(program.opcodes) if op == opcode]
    return positions[-1] if last else positions[0]


def _drop_emit(program: Program, index: int) -> int:
    """Clear the EMIT bit of LOAD_INP ``index``; returns the position of
    the COMP whose pop then finds ``inp_data`` empty."""
    inst = program[index]
    program[index] = replace(inst, dept_flag=inst.dept_flag & ~DeptFlag.EMIT)
    tokens = 0
    for position, inst in enumerate(program):
        if inst.opcode == Opcode.LOAD_INP and inst.dept_flag & DeptFlag.EMIT:
            tokens += 1
        elif inst.opcode == Opcode.COMP and inst.dept_flag & DeptFlag.WAIT_INP:
            if not tokens:
                return position
            tokens -= 1
    raise AssertionError("no COMP starves")


def _unclear(program: Program, index: int) -> None:
    """Make COMP ``index`` continue an accumulation that never began."""
    shared = program.metadata["descriptors"]
    table = DescriptorTable(
        shared.kinds, shared.layer, shared.values.copy(), shared.layers
    )
    table.update(index, clear=False)
    program.metadata = dict(program.metadata, descriptors=table)


@pytest.mark.parametrize("case", ["data-first", "fifo-first", "same-instruction"])
def test_functional_failures_raise_in_program_order(case):
    """A data-path error and a FIFO error in one functional run: the one
    the replay meets first is raised; at the same instruction the FIFO
    pop comes first."""
    sim, compiled = _small("tiny_cnn", "wino", "ws", functional=True)
    program = clone(compiled.programs()[0])
    if case == "data-first":
        _unclear(program, _first(program, Opcode.COMP))
        _drop_emit(program, _first(program, Opcode.LOAD_INP, last=True))
        kind = "accum"
    elif case == "fifo-first":
        _drop_emit(program, _first(program, Opcode.LOAD_INP))
        _unclear(program, _first(program, Opcode.COMP, last=True))
        kind = "underflow"
    else:
        starved = _drop_emit(program, _first(program, Opcode.LOAD_INP))
        assert program.opcodes[starved] == Opcode.COMP
        _unclear(program, starved)
        kind = "underflow"
    messages = []
    for run in (AcceleratorSimulator.run, oracle_run):
        with pytest.raises(SimulationError, match=kind) as error:
            run(sim, program)
        messages.append(str(error.value))
    assert messages[0] == messages[1]


#: Transfer sizes that give any load or save a duration.
GENERIC_ELEMS = {
    Opcode.LOAD_INP: 64,
    Opcode.LOAD_WGT: 576,
    Opcode.LOAD_BIAS: 16,
    Opcode.COMP: 0,
    Opcode.SAVE: 64,
}


def generic_descriptors(opcodes) -> DescriptorTable:
    """Descriptors that give any instruction a duration (timing-only
    runs read nothing else): COMPs are 3x3 Spatial over 4 x 4 channels,
    4 columns and 2 rows."""
    return DescriptorTable.from_columns(
        opcodes,
        {
            "elems": [GENERIC_ELEMS[opcode] for opcode in opcodes.tolist()],
            "k_count": 4, "c_count": 4, "out_w": 4, "rows_out": 2,
        },
        LayerConstants(mode="spat", kernel=(3, 3)),
    )


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.sampled_from(list(Opcode)), st.integers(0, 63)),
        min_size=1, max_size=12,
    )
)
def test_random_streams_fail_alike(stream):
    """Hand-made streams with arbitrary DEPT_FLAG bits: one instruction
    may underflow one FIFO and overflow another, or several of either;
    both simulators must raise the replay's first error."""
    program = Program([
        INSTRUCTION_CLASSES[opcode](dept_flag=DeptFlag(bits))
        for opcode, bits in stream
    ])
    program.metadata["descriptors"] = generic_descriptors(program.opcodes)
    sim, _ = _small("tiny_cnn", "wino", "ws")
    assert_same_outcome(sim, program)


@pytest.mark.parametrize("depts,message", [
    ((DeptFlag.WAIT_INP | DeptFlag.FREE_INP,), "inp_data: token underflow"),
    ((DeptFlag.WAIT_WGT | DeptFlag.WAIT_INP,), "inp_data: token underflow"),
    ((DeptFlag.FREE_WGT | DeptFlag.FREE_INP,), "inp_free: token overflow"),
    ((DeptFlag.EMIT,) * 2 + (DeptFlag.EMIT | DeptFlag.FREE_INP,),
     "out_data: token overflow"),
])
def test_first_error_within_one_comp(depts, message):
    """Within one instruction the replay pops before it pushes, and
    COMP pops inp_data, wgt_data, out_free, then pushes out_data,
    inp_free, wgt_free."""
    program = Program([Comp(dept_flag=dept) for dept in depts])
    program.metadata["descriptors"] = generic_descriptors(program.opcodes)
    sim, _ = _small("tiny_cnn", "wino", "ws")
    for run in (AcceleratorSimulator.run, oracle_run):
        with pytest.raises(SimulationError, match=message):
            run(sim, program)


# -- the periodic recurrence against the loop --------------------------------


@st.composite
def single_layers(draw):
    """A ``zoo.single_conv`` shape, half the time with a fused ReLU and
    2 x 2 max pool."""
    channels = draw(st.integers(1, 300))
    out_channels = draw(st.integers(1, 300))
    kernel = draw(st.sampled_from((1, 3, 5)))
    stride = draw(st.sampled_from((1, 2)))
    padding = draw(st.integers(0, kernel // 2))
    size = draw(st.integers(max(2, kernel - 2 * padding), 40))
    if draw(st.booleans()):
        return zoo.single_conv(
            channels, out_channels, size, kernel, stride, padding
        )
    assume((size + 2 * padding - kernel) // stride + 1 >= 2)
    return (
        NetworkBuilder("layer_under_test", (channels, size, size))
        .conv2d(out_channels, kernel_size=kernel, stride=stride,
                padding=padding, relu=True, name="conv")
        .maxpool2d(2, name="pool")
        .build()
    )


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    network=single_layers(),
    pt=st.sampled_from((4, 6)),
    parallel=st.sampled_from(((4, 4), (8, 4), (4, 2), (2, 1))),
    buffers=st.sampled_from((
        (32768, 16384, 16384), (8192, 4096, 4096), (1024, 512, 512),
        (128, 128, 128),
    )),
    mode=st.sampled_from(("spat", "wino")),
    dataflow=st.sampled_from(("is", "ws")),
    device=st.sampled_from(PAPER_DEVICES),
)
def test_random_layers_periodic_matches_loop(network, pt, parallel, buffers,
                                             mode, dataflow, device):
    """Random single layers on random configurations, small buffers
    forcing GC > 1 (an IS layer that then fails to compile is dropped):
    the periodic recurrence's finish column equals the loop's."""
    cfg = AcceleratorConfig(
        pi=parallel[0], po=parallel[1], pt=pt,
        input_buffer_vecs=buffers[0], weight_buffer_vecs=buffers[1],
        output_buffer_vecs=buffers[2],
    )
    mapping = NetworkMapping(
        network.name, [LayerMapping("conv", mode, dataflow)]
    )
    try:
        compiled = compile_network(
            network, cfg, mapping, generate_parameters(network, seed=0),
            TIMING_ONLY,
        )
    except ReproError:
        assume(False)
    assume(compiled.total_instructions <= 5000)
    sim = HostRuntime(compiled, get_device(device), functional=False).sim
    assert assert_same_columns(sim, compiled.programs())


def _layer(dataflow: str, buffers=(4096, 2048, 2048)):
    """One compiled 3 x 3 layer on :data:`SMALL_CFG`'s parallelism:
    its program and a timing-only simulator."""
    net = zoo.single_conv(64, 96, 28, 3, padding=1)
    cfg = replace(
        SMALL_CFG, input_buffer_vecs=buffers[0],
        weight_buffer_vecs=buffers[1], output_buffer_vecs=buffers[2],
    )
    compiled = compile_network(
        net, cfg, NetworkMapping.uniform(net, "spat", dataflow),
        generate_parameters(net, seed=0), TIMING_ONLY,
    )
    sim = HostRuntime(compiled, get_device("pynq-z1"), functional=False).sim
    (program,) = compiled.programs()
    return sim, program


def _with_markers(program: Program, markers) -> Program:
    return Program.from_columns(
        program.opcodes, program.depts, program.rows, markers=markers,
        metadata=program.metadata,
    )


@pytest.mark.parametrize("dataflow,buffers", [
    ("is", (4096, 2048, 2048)),
    ("ws", (4096, 2048, 2048)),
    ("ws", (256, 256, 256)),  # GC > 1
])
def test_wrong_periods_cost_speed_only(monkeypatch, dataflow, buffers):
    """Markers that misstate the loop nest (the other dataflow, a
    shifted range, two markers over one layer, none) give wrong
    candidate periods, which cost steps only: the column is the
    loop's."""
    sim, program = _layer(dataflow, buffers)
    (marker,) = program.markers
    other = "ws" if dataflow == "is" else "is"
    half = (marker.start + marker.end) // 2
    variants = {
        "right": [marker],
        "other dataflow": [replace(marker, dataflow=other)],
        "shifted": [replace(marker, start=marker.start + 1)],
        "split": [replace(marker, end=half), replace(marker, start=half)],
        "none": [],
    }
    durations, back = recurrence_inputs(sim, program)
    steps = {}
    for name, markers in variants.items():
        ranges = stepped_ranges(monkeypatch)
        assert_same_column(_with_markers(program, markers), durations, back)
        steps[name] = stepped(ranges)
        monkeypatch.undo()
    assert steps["right"] < len(program) // 4
    assert steps["none"] == len(program)


def _stream(durations, distance: int = 3):
    """A hand-built WS layer: a LOAD_BIAS, then LOAD_WGT, COMP, SAVE
    bodies whose instructions each wait on the one ``distance`` back;
    the candidate period is 3.  Returns the program, its durations and
    its dependency distances."""
    bodies = len(durations) // 3
    opcodes = np.array(
        [Opcode.LOAD_BIAS]
        + [Opcode.LOAD_WGT, Opcode.COMP, Opcode.SAVE] * bodies
    )
    n = len(opcodes)
    program = Program.from_columns(
        opcodes, np.zeros(n), np.zeros((n, ROW_WIDTH)),
        markers=[LayerMarker("layer", 0, n, "spat", "ws")],
        metadata={"descriptors": generic_descriptors(opcodes)},
    )
    back = np.zeros((4, n), dtype=np.int32)
    back[0, 1 + distance:] = distance
    return program, np.array([64] + list(durations)), back


def test_no_markers_steps_everything(monkeypatch):
    """Without markers there are no candidate periods: the loop runs
    all the way."""
    sim, program = _layer("is")
    durations, back = recurrence_inputs(sim, program)
    ranges = stepped_ranges(monkeypatch)
    assert_same_column(_with_markers(program, []), durations, back)
    assert stepped(ranges) == len(program)


def test_issue_bound_stream_is_filled(monkeypatch):
    """Instructions shorter than their issue slot: every finish is the
    slot plus the duration, so a period moves by exactly
    ``CTRL_ISSUE_CYCLES * 3``, and the regime is filled."""
    program, durations, back = _stream([1, 2, 1] * 200)
    ranges = stepped_ranges(monkeypatch)
    assert_same_column(program, durations, back)
    assert stepped(ranges) < len(program) // 10
    column = simulator._finish_column(program, durations, back)
    assert (column[4:] - column[1:-3] == CTRL_ISSUE_CYCLES * 3).all()


def test_unsettled_stream_steps_everything(monkeypatch):
    """Three independent chains growing 10, 20 and 30 cycles a period:
    the keys repeat every 3 instructions, but no uniform shift ever
    appears, so each check fails and the loop runs all the way."""
    program, durations, back = _stream([10, 20, 30] * 200)
    assert simulator._runs(program, durations, back)
    ranges = stepped_ranges(monkeypatch)
    assert_same_column(program, durations, back)
    assert stepped(ranges) == len(program)


#: The Step-1 spaces of the paper's two devices: every design is
#: compiled timing-only with its ``map_network`` mapping.
DESIGN_SPACES = [
    pytest.param(device, designs, marks=FULL_MATRIX)
    for device, designs in (("vu9p", 621), ("pynq-z1", 18))
]


@pytest.mark.parametrize("device,designs", DESIGN_SPACES)
def test_design_space_periodic_matches_loop(device, designs):
    """VGG16 on every design of a whole DSE space: equal columns."""
    fpga = get_device(device)
    space = explore_hardware(fpga, DseOptions())
    assert len(space) == designs
    for candidate in space:
        compiled = PipelineSession(
            "vgg16", fpga, cfg=candidate.cfg, compiler_options=TIMING_ONLY,
        ).compiled()
        sim = HostRuntime(compiled, fpga, functional=False).sim
        assert assert_same_columns(sim, compiled.programs())
