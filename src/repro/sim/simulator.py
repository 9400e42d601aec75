"""The accelerator simulator.

Timing model
------------
Instructions are dispatched in program order by the CTRL module (a
4-stage fetch/decode pipeline issuing one instruction every
``CTRL_ISSUE_CYCLES``).  Each functional module executes its own
instructions in order, and the handshake FIFOs of Section 4.1 carry a
producer's finish time to its consumer as a token.  Instruction ``i``
runs for ``d[i]`` cycles, given by the DDR/port transfer model (loads
and saves) or the PE cycle model (COMP), and::

    start[i]  = max(finish[previous instruction of i's module],
                    CTRL_ISSUE_CYCLES * i,
                    finish[matched push of every token i pops])
    finish[i] = start[i] + d[i]

This is a max-plus recurrence over a timed event graph (Baccelli,
Cohen, Olsder & Quadrat, *Synchronization and Linearity*, Wiley 1992).
Its dependencies are static.  Each FIFO has one producer module and one
consumer module, and both push and pop in program order, so the k-th
pop always takes the (k - preload)-th push, whatever the timing.  The
opcode and DEPT_FLAG columns of the program therefore fix every edge
before any time is known, and :meth:`AcceleratorSimulator.run` works in
three steps:

1. durations, as column math per opcode;
2. token matching from per-FIFO push and pop positions
   (:func:`~repro.arch.fifo.match_tokens`), which also finds the first
   FIFO overflow or underflow in program order;
3. the recurrence, one layer at a time: stepped over plain ints, except
   where a layer's loop nest has settled into a periodic regime, which
   is filled with numpy (:func:`_finish_column`).

The recurrence is shift-invariant: add ``c`` to every finish time an
instruction reads and its own moves by ``c``.  A layer repeats one loop
body, so once the finish times of a whole body have all moved by one
``Δ`` against the body before, every later body of the same pattern is
the last one plus ``Δ``; the issue slot, which moves by
``CTRL_ISSUE_CYCLES`` per instruction, keeps that exact as long as
``Δ`` keeps up with it.  Each such shift is checked on the finish times
before it is used, so the filled times are the stepped ones exactly.

Replaying the FIFOs token by token computes the same times: a token's
timestamp is its producer's finish time, and the replay hands the k-th
pop the same push.  Because durations are positive, each FIFO's token
times rise, so the replay's monotonicity check cannot fire.
``tests/test_sim_oracle.py`` keeps that replay as the oracle.

Producer/consumer overlap emerges naturally, and the makespan reflects
the ``max(...)`` structure of Eq. 12-15 plus all the discretisation the
analytical model abstracts away — the measured few-percent gap between
the two reproduces the paper's estimation-error experiment.

Functional model
----------------
With ``functional=True`` every instruction also moves real data: strips
are gathered from the DRAM image, the PE computes through the
Spatial/Winograd paths of :mod:`repro.arch.pe`, and SAVE applies ReLU /
pooling / re-quantisation and the Figure-5 layout transform before
writing back.  The data movement never changes the timing, which comes
from the same recurrence.  The end-to-end result is compared against
the numpy reference in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.arch import layouts, pe
from repro.arch.buffers import PingPongBuffer
from repro.arch.dram import ExternalMemoryModel
from repro.arch.fifo import match_tokens, overflow_error, underflow_error
from repro.arch.params import AcceleratorConfig
from repro.fpga.device import FpgaDevice
from repro.isa.encoding import ROW_FIELDS
from repro.isa.instructions import DeptFlag, Opcode
from repro.isa.program import DescriptorTable, Program
from repro.isa.validate import FIFO_DEPTH, FREE_PRELOAD
from repro.sim.trace import TraceRecord
from repro.winograd.reference import max_pool2d

#: CTRL issue interval (cycles per instruction through the 4-stage
#: instruction pipeline).
CTRL_ISSUE_CYCLES = 2

#: DDR burst/setup cycles per transfer (matches the estimator's
#: GROUP_OVERHEAD_CYCLES together with the COMP pipeline depth).
DDR_FIXED_CYCLES = 64

#: The functional modules, and the one executing each opcode.
MODULES = ("LOAD_INP", "LOAD_WGT", "COMP", "SAVE")
_MODULE_OF = {
    Opcode.LOAD_INP: 0,
    Opcode.LOAD_WGT: 1,
    Opcode.LOAD_BIAS: 1,
    Opcode.COMP: 2,
    Opcode.SAVE: 3,
}
_MODULE_LOOKUP = np.array([_MODULE_OF.get(op, 0) for op in range(16)])

#: The handshake FIFOs (``FIFO_DEPTH`` tokens each): name, preloaded
#: tokens, producer opcode and DEPT_FLAG bit, consumer opcode and bit.
#: The free FIFOs start with both ping-pong halves free.  The table is
#: in the order an instruction pops, and separately pushes, its FIFOs:
#: COMP waits for input, then weights, then a free output half, and
#: emits to SAVE before releasing its input and weight halves.
_FIFOS: Tuple[Tuple[str, int, Opcode, DeptFlag, Opcode, DeptFlag], ...] = (
    ("inp_data", 0, Opcode.LOAD_INP, DeptFlag.EMIT,
     Opcode.COMP, DeptFlag.WAIT_INP),
    ("wgt_data", 0, Opcode.LOAD_WGT, DeptFlag.EMIT,
     Opcode.COMP, DeptFlag.WAIT_WGT),
    ("out_free", FREE_PRELOAD, Opcode.SAVE, DeptFlag.FREE_INP,
     Opcode.COMP, DeptFlag.WAIT_FREE),
    ("out_data", 0, Opcode.COMP, DeptFlag.EMIT,
     Opcode.SAVE, DeptFlag.WAIT_INP),
    ("inp_free", FREE_PRELOAD, Opcode.COMP, DeptFlag.FREE_INP,
     Opcode.LOAD_INP, DeptFlag.WAIT_FREE),
    ("wgt_free", FREE_PRELOAD, Opcode.COMP, DeptFlag.FREE_WGT,
     Opcode.LOAD_WGT, DeptFlag.WAIT_FREE),
)

#: Most FIFOs one instruction pops (COMP's three).
_MAX_WAITS = 3

#: Fewest instructions a periodic run must leave to fill: a shorter one
#: is stepped, as its check and fill would cost more than the steps.
_MIN_FILL = 32

_QUAN_PARAM = ROW_FIELDS[Opcode.COMP].index("quan_param")


@dataclass
class ModuleStats:
    """Activity of one functional module."""

    name: str
    instructions: int = 0
    busy_cycles: int = 0
    finish_time: int = 0

    def utilisation(self, total_cycles: int) -> float:
        return self.busy_cycles / total_cycles if total_cycles else 0.0


@dataclass
class LayerTiming:
    """Start/finish window of one layer's instruction range."""

    layer_name: str
    mode: str
    dataflow: str
    start_cycle: int
    finish_cycle: int

    @property
    def cycles(self) -> int:
        return self.finish_cycle - self.start_cycle


@dataclass
class SimulationResult:
    """Outcome of one program segment run."""

    cycles: int
    frequency_hz: float
    modules: Dict[str, ModuleStats]
    layers: List[LayerTiming] = field(default_factory=list)
    instructions: int = 0
    dram_read_elems: int = 0
    dram_written_elems: int = 0
    trace: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz

    def layer(self, name: str) -> LayerTiming:
        for timing in self.layers:
            if timing.layer_name == name:
                return timing
        raise KeyError(f"no layer {name!r} in simulation result")

    @staticmethod
    def merge(results: List["SimulationResult"]) -> "SimulationResult":
        """Aggregate sequential segment results (host steps take no
        accelerator time).  A module finishes where it last ran: at its
        finish in the last segment that used it, plus that segment's
        offset."""
        if not results:
            raise SimulationError("nothing to merge")
        total = SimulationResult(
            cycles=sum(r.cycles for r in results),
            frequency_hz=results[0].frequency_hz,
            modules={},
            instructions=sum(r.instructions for r in results),
            dram_read_elems=sum(r.dram_read_elems for r in results),
            dram_written_elems=sum(r.dram_written_elems for r in results),
        )
        offset = 0
        for result in results:
            for name, stats in result.modules.items():
                agg = total.modules.setdefault(name, ModuleStats(name))
                agg.instructions += stats.instructions
                agg.busy_cycles += stats.busy_cycles
                if stats.instructions:
                    agg.finish_time = offset + stats.finish_time
            for timing in result.layers:
                total.layers.append(
                    LayerTiming(
                        timing.layer_name,
                        timing.mode,
                        timing.dataflow,
                        timing.start_cycle + offset,
                        timing.finish_cycle + offset,
                    )
                )
            if result.trace:
                base = len(total.trace)
                total.trace.extend(
                    TraceRecord(
                        index=base + record.index,
                        opcode=record.opcode,
                        module=record.module,
                        start=record.start + offset,
                        finish=record.finish + offset,
                    )
                    for record in result.trace
                )
            offset += result.cycles
        return total


class AcceleratorSimulator:
    """Simulate one accelerator instance.

    Parameters
    ----------
    cfg:
        Hardware configuration (PI/PO/PT, buffer depths, instances — the
        instance count only divides the DRAM bandwidth share).
    device:
        FPGA platform (frequency and memory system).
    dram:
        The external-memory image (regions must be populated by the
        runtime before running).
    functional:
        Move and compute real data (True) or timing only (False).
    """

    def __init__(
        self,
        cfg: AcceleratorConfig,
        device: FpgaDevice,
        dram: ExternalMemoryModel,
        functional: bool = True,
        trace: bool = False,
    ):
        self.cfg = cfg
        self.device = device
        self.dram = dram
        self.functional = functional
        self.trace = trace
        freq = cfg.frequency_hz
        self.bytes_per_cycle = (
            device.memory.bandwidth_bytes / freq / cfg.instances
        )
        self.feature_bytes = max(1, (cfg.data_width + 7) // 8)
        self.weight_bytes = max(1, (cfg.weight_width + 7) // 8)

    # -- timing ------------------------------------------------------------

    def _durations(
        self, opcodes: np.ndarray, table: DescriptorTable
    ) -> np.ndarray:
        """Cycles of every instruction, as column math per opcode.

        Loads and saves take ``ceil(max(elems * bytes / DDR bytes per
        cycle, elems / port lanes)) + DDR_FIXED_CYCLES``; COMP follows
        the PE cycle model of :mod:`repro.arch.pe`.  Everything is read
        from slices of the descriptor table's columns and gathers of its
        per-layer constants: no Python object per instruction.  The
        int64 columns go through the same float operations, in the same
        order, as one instruction's ints would, so every duration is
        exact.
        """
        cfg = self.cfg
        durations = np.empty(len(opcodes), dtype=np.int64)
        ports = (
            (Opcode.LOAD_INP, self.feature_bytes, cfg.pi * cfg.pt),
            (Opcode.LOAD_WGT, self.weight_bytes, cfg.pi * cfg.po * cfg.pt),
            (Opcode.LOAD_BIAS, self.weight_bytes, cfg.po),
            (Opcode.SAVE, self.feature_bytes, cfg.po * cfg.pt),
        )
        all_elems = table.column("elems")
        for opcode, elem_bytes, lanes in ports:
            at = np.flatnonzero(opcodes == opcode)
            elems = all_elems[at]
            ddr = elems * elem_bytes / self.bytes_per_cycle
            port = elems / lanes
            cycles = np.ceil(np.maximum(ddr, port)).astype(np.int64)
            durations[at] = np.where(elems > 0, cycles, 0) + DDR_FIXED_CYCLES

        at = np.flatnonzero(opcodes == Opcode.COMP)
        k, c, out_w, rows = (
            table.column(name)[at]
            for name in ("k_count", "c_count", "out_w", "rows_out")
        )
        layers = table.layers
        layer = table.layer[at]
        r, s = np.array(
            [constants.kernel for constants in layers], dtype=np.int64
        ).reshape(-1, 2)[layer].T
        blocks = np.array(
            [len(constants.blocks) for constants in layers], dtype=np.int64
        )[layer]
        wino = np.array(
            [constants.mode == "wino" for constants in layers], dtype=bool
        )[layer]
        durations[at] = np.where(
            wino,
            pe.winograd_cycles(cfg, k, c, -(-out_w // cfg.m)) * blocks,
            pe.spatial_cycles(cfg, k, c, r, s, rows, out_w),
        )
        return durations

    # -- functional helpers -----------------------------------------------

    def _load_strip(self, desc: dict) -> np.ndarray:
        """Gather one (possibly padded) input strip from DRAM."""
        lanes = self.cfg.pi
        region = self.dram.region(desc["region"])
        channels, height, width = (
            desc["channels"], desc["height"], desc["width"],
        )
        n_cv = layouts.channel_vectors(channels, lanes)
        y0, rows = desc["y_start"], desc["rows"]
        pad_l, pad_r = desc["pad_left"], desc["pad_right"]
        c0, cc = desc["c0"], desc["c_count"]
        cv0 = c0 // lanes
        cvn = -(-cc // lanes)
        strip = np.zeros(
            (cvn * lanes, rows, width + pad_l + pad_r), dtype=np.float64
        )
        y_lo, y_hi = max(0, y0), min(height, y0 + rows)
        if y_hi > y_lo:
            row_words = n_cv * lanes * width
            block = self.dram.read(
                region.base + y_lo * row_words, (y_hi - y_lo) * row_words
            )
            nrows = y_hi - y_lo
            if desc["layout"] == layouts.SPAT:
                arr = block.reshape(nrows, n_cv, width, lanes)
                chunk = arr[:, cv0 : cv0 + cvn].transpose(1, 3, 0, 2)
            else:
                arr = block.reshape(nrows, width, n_cv, lanes)
                chunk = arr[:, :, cv0 : cv0 + cvn].transpose(2, 3, 0, 1)
            chunk = chunk.reshape(cvn * lanes, nrows, width)
            strip[:, y_lo - y0 : y_hi - y0, pad_l : pad_l + width] = chunk
        return strip

    def _store_rows(self, desc: dict, data: np.ndarray) -> None:
        """Read-modify-write output rows into the destination layout."""
        lanes = self.cfg.pi
        region = self.dram.region(desc["region"])
        channels = desc["dst_channels"]
        width = desc["dst_width"]
        n_cv = layouts.channel_vectors(channels, lanes)
        k0 = desc["k0"]
        kc, rows_dst = data.shape[0], data.shape[1]
        y0 = desc["y_dst0"]
        row_words = n_cv * lanes * width
        base = region.base + y0 * row_words
        block = self.dram.read(base, rows_dst * row_words)
        if desc["dst_layout"] == layouts.SPAT:
            arr = block.reshape(rows_dst, n_cv, width, lanes)
            flat = arr.transpose(1, 3, 0, 2).reshape(
                n_cv * lanes, rows_dst, width
            ).copy()
            flat[k0 : k0 + kc] = data[:, :, :width]
            arr = flat.reshape(n_cv, lanes, rows_dst, width).transpose(2, 0, 3, 1)
        else:
            arr = block.reshape(rows_dst, width, n_cv, lanes)
            flat = arr.transpose(2, 3, 0, 1).reshape(
                n_cv * lanes, rows_dst, width
            ).copy()
            flat[k0 : k0 + kc] = data[:, :, :width]
            arr = flat.reshape(n_cv, lanes, rows_dst, width).transpose(2, 3, 0, 1)
        self.dram.write(base, np.ascontiguousarray(arr).reshape(-1))

    # -- main loop -------------------------------------------------------

    def run(self, program: Program) -> SimulationResult:
        """Execute one program segment; returns timing (and, in
        functional mode, leaves the DRAM image updated)."""
        table = program.metadata.get("descriptors")
        if not isinstance(table, DescriptorTable):
            raise SimulationError(
                "program has no descriptors; run a compiler-produced "
                "program (binary round-trips drop host-side metadata)"
            )
        opcodes = program.opcodes
        durations = self._durations(opcodes, table)
        members = _module_members(opcodes)
        back, failure = _dependencies(opcodes, program.depts, members)

        read0 = self.dram.total_read_elems
        written0 = self.dram.total_written_elems
        if self.functional:
            # The replay stops at the first FIFO violation, so the data
            # moves up to it (and may fail earlier on its own).
            stop = len(program) if failure is None else failure[0]
            self._move_data(program, table, stop)
        if failure is not None:
            raise failure[1]

        finish = _finish_column(program, durations, back)
        start = finish - durations

        modules = {
            name: ModuleStats(
                name,
                instructions=len(at),
                busy_cycles=int(durations[at].sum()),
                finish_time=int(finish[at[-1]]) if len(at) else 0,
            )
            for name, at in zip(MODULES, members)
        }
        layer_timings = [
            LayerTiming(
                layer_name=marker.layer_name,
                mode=marker.mode,
                dataflow=marker.dataflow,
                start_cycle=int(start[marker.start : marker.end].min()),
                finish_cycle=int(finish[marker.start : marker.end].max()),
            )
            for marker in program.markers
        ]
        trace_records = []
        if self.trace:
            trace_records = [
                TraceRecord(
                    index=index,
                    opcode=Opcode(opcode).name,
                    module=MODULES[_MODULE_OF[opcode]],
                    start=begin,
                    finish=end,
                )
                for index, (opcode, begin, end) in enumerate(
                    zip(opcodes.tolist(), start.tolist(), finish.tolist())
                )
            ]
        return SimulationResult(
            cycles=int(finish.max()) if len(finish) else 0,
            frequency_hz=self.cfg.frequency_hz,
            modules=modules,
            layers=layer_timings,
            instructions=len(program),
            dram_read_elems=self.dram.total_read_elems - read0,
            dram_written_elems=self.dram.total_written_elems - written0,
            trace=trace_records,
        )

    def _move_data(
        self, program: Program, table: DescriptorTable, stop: int
    ) -> None:
        """Functional mode: move and compute the data of instructions
        ``0 .. stop - 1`` in program order, building each one's
        descriptor dict from the table as it goes."""
        cfg = self.cfg
        input_buf = PingPongBuffer("input", cfg.input_buffer_vecs)
        weight_buf = PingPongBuffer("weight", cfg.weight_buffer_vecs)
        output_buf = PingPongBuffer("output", cfg.output_buffer_vecs)
        bias_buf: Optional[np.ndarray] = None
        accum: Optional[np.ndarray] = None

        opcodes = program.opcodes.tolist()
        for idx in range(stop):
            desc = table[idx]
            opcode = opcodes[idx]
            if opcode == Opcode.LOAD_INP:
                strip = self._load_strip(desc)
                input_buf.write(desc["half"], strip, strip.size // cfg.pi)
            elif opcode == Opcode.LOAD_WGT:
                region = self.dram.region(desc["region"])
                flat = self.dram.read(
                    region.base + desc["offset"], desc["elems"]
                )
                weight_buf.write(
                    desc["half"],
                    flat.reshape(desc["shape"]),
                    desc["elems"] // (cfg.pi * cfg.po),
                )
            elif opcode == Opcode.LOAD_BIAS:
                region = self.dram.region(desc["region"])
                bias_buf = self.dram.read(region.base, desc["count"])
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
                    if program.rows[idx, _QUAN_PARAM] > 0:
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
                    self._store_rows(desc, valid)


def _module_members(opcodes: np.ndarray) -> List[np.ndarray]:
    """Each module's instruction positions, in program order."""
    module = _MODULE_LOOKUP[opcodes]
    return [np.flatnonzero(module == index) for index in range(len(MODULES))]


def _dependencies(
    opcodes: np.ndarray, depts: np.ndarray, members: List[np.ndarray]
) -> Tuple[np.ndarray, Optional[Tuple[int, SimulationError]]]:
    """How far back every instruction's dependencies lie.

    Returns ``back``, a ``(1 + _MAX_WAITS, n)`` int32 array holding per
    instruction the distance back to its module's previous instruction,
    then to the pushes whose tokens it pops (0 where there is none: a
    module's first instruction, fewer FIFOs popped, a preloaded token),
    and the first FIFO violation in program order as ``(position,
    error)``, or None.  An instruction pops before it pushes, and pops
    (and pushes) its FIFOs in ``_FIFOS`` order.
    """
    back = np.zeros((1 + _MAX_WAITS, len(opcodes)), dtype=np.int32)
    for at in members:
        back[0, at[1:]] = np.diff(at)
    slots: Dict[int, int] = {}
    failures = []
    for rank, (name, preload, producer, emit, consumer, wait) in enumerate(
        _FIFOS
    ):
        pushes = np.flatnonzero((opcodes == producer) & (depts & emit > 0))
        pops = np.flatnonzero((opcodes == consumer) & (depts & wait > 0))
        match = match_tokens(pushes, pops, FIFO_DEPTH, preload)
        slot = slots.get(consumer, 1)
        slots[consumer] = slot + 1
        back[slot, pops] = np.where(
            match.sources >= 0, pops - match.sources, 0
        )
        if match.underflow >= 0:
            failures.append(
                ((match.underflow, 0, rank), underflow_error(name))
            )
        if match.overflow >= 0:
            failures.append(
                ((match.overflow, 1, rank), overflow_error(name, FIFO_DEPTH))
            )
    if not failures:
        return back, None
    (position, _, _), error = min(failures, key=itemgetter(0))
    return back, (position, error)


def _finish_column(
    program: Program, durations: np.ndarray, back: np.ndarray
) -> np.ndarray:
    """The finish time of every instruction: the max-plus recurrence,
    with each layer's periodic regime filled in rather than stepped.

    ``back`` holds the distances to each instruction's dependencies
    (:func:`_dependencies`).  A run (:func:`_runs`) is a stretch in
    which every instruction repeats the one ``P`` earlier: same opcode,
    DEPT bits and duration, and its dependencies equally far back.  The
    recurrence is shift-invariant, so once the ``W = max(P, R)`` finish
    times that instructions up to ``R`` back can read have all moved by
    one ``Δ`` over a period, every later period of the run is the last
    one plus ``kΔ``.  The issue slot moves by ``CTRL_ISSUE_CYCLES * P``
    per period: at ``Δ`` equal to that it moves with everything else,
    and at a larger ``Δ`` a verified window holds no issue-bound
    instruction (an issue-bound finish rises by at most that much), so
    the slack only grows.  Each run is stepped for ``W + P``
    instructions, its last ``W`` checked and, if they hold, the rest
    filled with numpy; everything else is stepped.  A wrong or missing
    period costs speed only, never a cycle.
    """
    recurrence = _Recurrence(durations, back)
    done = 0
    for start, end, period, window in _runs(program, durations, back):
        if end <= done:
            continue
        start = max(start, done)
        recurrence.step(done, start)
        done = end if recurrence.fill(start, end, period, window) else start
    recurrence.step(done, len(durations))
    return recurrence.column


class _Recurrence:
    """The finish column of one program, stepped and filled.

    Steps run over a list of plain ints.  A missing dependency (distance
    0) reads the instruction's own entry, still 0 while it is stepped.
    Filled stretches are written to the column only, and copied into the
    list lazily, as far back as a step reads.
    """

    def __init__(self, durations: np.ndarray, back: np.ndarray):
        self.durations = durations
        self.back = back
        self.column = np.empty(len(durations), dtype=np.int64)
        self.finish = [0] * len(durations)
        #: ``[start, end)`` of each filled stretch not yet in the list.
        self.filled: List[List[int]] = []

    def fill(self, start: int, end: int, period: int, window: int) -> bool:
        """Fill ``start .. end - 1`` as the period before ``start`` plus
        ``kΔ``, if each of the ``window`` finish times before ``start``
        is the one ``period`` earlier plus the same ``Δ`` and ``Δ`` keeps
        up with the issue slot; returns whether it did."""
        recent = self.column[start - window - period : start]
        delta = int(recent[-1] - recent[-1 - period])
        if delta < CTRL_ISSUE_CYCLES * period or not (
            recent[period:] - recent[:-period] == delta
        ).all():
            return False
        shifts = delta * np.arange(1, -(-(end - start) // period) + 1)
        self.column[start:end] = (
            shifts[:, None] + recent[-period:]
        ).ravel()[: end - start]
        self.filled.append([start, end])
        return True

    def step(self, lo: int, hi: int) -> None:
        """The recurrence over instructions ``lo .. hi - 1``."""
        if hi <= lo:
            return
        reads = np.arange(lo, hi) - self.back[:, lo:hi]
        self._copy_filled(int(reads.min()))
        finish = self.finish
        for i, issue, before, a, b, c, duration in zip(
            range(lo, hi),
            range(CTRL_ISSUE_CYCLES * lo, CTRL_ISSUE_CYCLES * hi,
                  CTRL_ISSUE_CYCLES),
            *reads.tolist(),
            self.durations[lo:hi].tolist(),
        ):
            finish[i] = (
                max(issue, finish[before], finish[a], finish[b], finish[c])
                + duration
            )
        self.column[lo:hi] = finish[lo:hi]

    def _copy_filled(self, lowest: int) -> None:
        """Copy the filled finish times from ``lowest`` on into the list."""
        for stretch in reversed(self.filled):
            start, end = stretch
            if end <= lowest:
                break
            start = max(start, lowest)
            if start < end:
                self.finish[start:end] = self.column[start:end].tolist()
                stretch[1] = start


def _runs(
    program: Program, durations: np.ndarray, back: np.ndarray
) -> List[Tuple[int, int, int, int]]:
    """The periodic runs worth filling, as ``(fill start, end, period,
    window)`` in program order.

    Per layer marker and candidate period ``P`` (:func:`_loop_periods`),
    a run is a maximal stretch ``[a, end)`` in which each instruction's
    key equals the key ``P`` earlier: its opcode, DEPT bits, duration
    and ``back`` column.  ``window`` is ``max(P, R)``, ``R`` the
    farthest back an instruction of the run reaches, and filling may
    start once ``window + P`` of the run have been stepped.  Runs
    leaving fewer than ``_MIN_FILL`` to fill are dropped.  The keys are
    built one layer at a time.
    """
    n = len(durations)
    first_rows = program.metadata["descriptors"].column("y0_out") == 0
    found = []
    for marker in program.markers:
        lo, hi = max(marker.start, 0), min(marker.end, n)
        periods = _loop_periods(
            program.opcodes[lo:hi], marker.dataflow, first_rows[lo:hi]
        )
        if not periods:
            continue
        key = np.vstack((
            program.opcodes[lo:hi], program.depts[lo:hi], durations[lo:hi],
            back[:, lo:hi],
        ))
        # One spare entry: a run may end at the layer's end.
        reach = np.append(back[:, lo:hi].max(axis=0), 0)
        for period in periods:
            same = np.zeros(hi - lo + 1, dtype=bool)
            same[period:-1] = (key[:, period:] == key[:, :-period]).all(axis=0)
            edges = np.flatnonzero(same[1:] != same[:-1]) + 1
            window = np.maximum(
                np.maximum.reduceat(reach, edges)[0::2], period
            )
            begin = edges[0::2] + window + period
            end = edges[1::2]
            keep = end - begin >= _MIN_FILL
            found.extend(zip(
                (lo + begin[keep]).tolist(), (lo + end[keep]).tolist(),
                [period] * int(keep.sum()), window[keep].tolist(),
            ))
    found.sort()
    return found


def _loop_periods(
    opcodes: np.ndarray, dataflow: str, first_rows: np.ndarray
) -> List[int]:
    """Candidate body lengths of one layer's loop nest, outer level
    first, each long enough to hold a run worth filling.

    The compiler emits a LOAD_BIAS and then one body per outer
    iteration (:func:`repro.compiler.codegen._loop_nest`): per row group
    under IS (one LOAD_INP each), per k group under WS (its first row
    group's SAVE is the one with ``y0_out == 0``), and under WS with GC
    > 1 also per (k, row) group (one SAVE each).  A level's body is the
    stream after the LOAD_BIAS over its iteration count; every
    innermost body is three instructions.  A run at one level lies
    within one body of the level above, so it fills at most that body
    less two of its own periods.
    """
    body = len(opcodes) - 1
    if body <= 2 * 3 + _MIN_FILL:  # too short even for innermost runs
        return []
    if dataflow == "is":
        iterations = (np.count_nonzero(opcodes == Opcode.LOAD_INP),)
    else:
        saves = opcodes == Opcode.SAVE
        iterations = (
            np.count_nonzero(saves & first_rows), np.count_nonzero(saves)
        )
    periods = []
    for period in sorted(
        {body // count for count in iterations
         if count and body % count == 0} | {3},
        reverse=True,
    ):
        if 2 * period + _MIN_FILL < body:
            periods.append(period)
            body = period
    return periods
