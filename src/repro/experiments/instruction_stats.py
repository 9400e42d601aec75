"""Instruction-stream statistics (the framework's "Inst. files").

Reports, per network and device, what the compiler actually emits:
instruction counts by opcode, stream size in bytes, per-layer mode /
dataflow / group geometry.  Useful for sanity-checking compiler changes
and for sizing the instruction region of a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.report import Table
from repro.experiments.common import paper_session
from repro.ir import zoo
from repro.isa.instructions import Opcode
from repro.isa.validate import validate_program


@dataclass(frozen=True)
class LayerStats:
    layer_name: str
    mode: str
    dataflow: str
    instructions: int
    comp_instructions: int
    row_groups: int
    k_groups: int
    c_groups: int


@dataclass(frozen=True)
class ProgramStats:
    network: str
    device: str
    total_instructions: int
    bytes: int
    by_opcode: Dict[str, int]
    layers: List[LayerStats]
    valid: bool


def run_instruction_stats(
    model: str = "vgg16", device_name: str = "vu9p"
) -> ProgramStats:
    """Compile ``model`` for the paper config of ``device_name`` and
    collect the stream statistics."""
    session = paper_session(device_name, zoo.get_model(model))
    compiled = session.compiled()
    by_opcode: Dict[str, int] = {}
    layers: List[LayerStats] = []
    valid = True
    for program in compiled.programs():
        for opcode, count in program.count_by_opcode().items():
            by_opcode[opcode.name] = by_opcode.get(opcode.name, 0) + count
        valid = valid and validate_program(program).ok
        for marker in program.markers:
            opcodes = program.opcodes[marker.start : marker.end]
            part = compiled.partitions[marker.layer_name]
            layers.append(
                LayerStats(
                    layer_name=marker.layer_name,
                    mode=marker.mode,
                    dataflow=marker.dataflow,
                    instructions=len(opcodes),
                    comp_instructions=int(
                        np.count_nonzero(opcodes == Opcode.COMP)
                    ),
                    row_groups=part.n_row_groups,
                    k_groups=part.n_k_groups,
                    c_groups=part.n_c_groups,
                )
            )
    total = compiled.total_instructions
    return ProgramStats(
        network=model,
        device=device_name,
        total_instructions=total,
        bytes=total * 16,
        by_opcode=by_opcode,
        layers=layers,
        valid=valid,
    )


def format_instruction_stats(stats: ProgramStats) -> str:
    table = Table(
        f"Instruction stream: {stats.network} on {stats.device} "
        f"({stats.total_instructions} instructions, "
        f"{stats.bytes / 1024:.1f} KiB)",
        ["Layer", "Mode", "DF", "Instrs", "COMPs",
         "RowGrp", "KGrp", "CGrp"],
    )
    for layer in stats.layers:
        table.add_row(
            layer.layer_name, layer.mode, layer.dataflow,
            layer.instructions, layer.comp_instructions,
            layer.row_groups, layer.k_groups, layer.c_groups,
        )
    mix = ", ".join(
        f"{name} {count}" for name, count in sorted(stats.by_opcode.items())
    )
    table.add_note(f"opcode mix: {mix}")
    table.add_note(
        "handshake validation: " + ("clean" if stats.valid else "ISSUES")
    )
    return table.render()


def main(model: str = "vgg16", device_name: str = "vu9p") -> str:
    output = format_instruction_stats(
        run_instruction_stats(model, device_name)
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
