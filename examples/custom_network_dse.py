#!/usr/bin/env python
"""Bring-your-own-model flow: JSON model in, HLS project + program out.

Demonstrates the "framework" usage the paper targets: a user who has a
model description and an FPGA part, and wants a deployable accelerator
without writing RTL:

1. parse a model from JSON (the Step-1 parser);
2. DSE across *several* catalog devices and compare;
3. inspect the per-layer mapping choices;
4. emit the instruction stream binary, the assembly listing and the
   HLS project for the chosen device.

Run:  python examples/custom_network_dse.py [output_dir]
"""

import json
import sys
import tempfile
from pathlib import Path

from repro import get_device
from repro.dse.space import DseOptions
from repro.hls import HlsConfig, emit_project
from repro.ir import network_from_dict
from repro.isa import disassemble
from repro.pipeline import PipelineSession

MODEL_JSON = {
    "name": "detector_backbone",
    "input_shape": [3, 96, 96],
    "layers": [
        {"type": "conv2d", "name": "stem", "out_channels": 24,
         "kernel_size": [5, 5], "stride": 1, "padding": 2, "relu": True},
        {"type": "maxpool2d", "name": "pool0", "pool_size": 2},
        {"type": "conv2d", "name": "b1a", "out_channels": 48,
         "kernel_size": [3, 3], "padding": 1, "relu": True},
        {"type": "conv2d", "name": "b1b", "out_channels": 48,
         "kernel_size": [3, 3], "padding": 1, "relu": True},
        {"type": "maxpool2d", "name": "pool1", "pool_size": 2},
        {"type": "conv2d", "name": "b2a", "out_channels": 96,
         "kernel_size": [3, 3], "padding": 1, "relu": True},
        {"type": "conv2d", "name": "head", "out_channels": 96,
         "kernel_size": [1, 1], "relu": False},
    ],
}


def main(out_dir=None):
    # Step 1: parse.
    net = network_from_dict(MODEL_JSON)
    print(net.summary())

    # Step 2: DSE across catalog devices.  One PipelineSession per
    # device: the DSE selection and everything after it are computed
    # lazily, once.
    print("\nDSE across devices:")
    sessions = {
        name: PipelineSession(net, name, DseOptions(), seed=13)
        for name in ("vu9p", "zcu102", "pynq-z1")
    }
    for name, session in sessions.items():
        r = session.dse()
        print(f"  {name:8s}: PI={r.cfg.pi} PO={r.cfg.po} PT={r.cfg.pt} "
              f"x{r.cfg.instances}  {r.latency_ms:7.3f} ms/img  "
              f"{r.throughput_gops:8.1f} GOPS  "
              f"({r.candidates_pruned}/{r.candidates_considered} pruned)")

    # Step 3: inspect the embedded mapping.
    choice_session = sessions["pynq-z1"]
    choice = choice_session.dse()
    print("\nper-layer mapping on pynq-z1:")
    for m in choice.mapping:
        est = next(
            l for l in choice.estimate.layers if l.layer_name == m.layer_name
        )
        print(f"  {m.layer_name:6s} {m.mode:4s}-{m.dataflow:2s} "
              f"{est.latency * 1e3:7.3f} ms  bound={est.bound}")

    # Step 4: emit everything a deployment needs.
    out_dir = Path(out_dir or tempfile.mkdtemp(prefix="hybriddnn_custom_"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").write_text(json.dumps(MODEL_JSON, indent=2))
    compiled = choice_session.compiled()
    program = compiled.steps[0].program
    program.save(out_dir / "program.bin")
    (out_dir / "program.asm").write_text(disassemble(program))
    emit_project(
        HlsConfig.from_config(choice.cfg, get_device("pynq-z1"), net.name),
        out_dir,
    )
    weight_elems = sum(p.elems for p in compiled.weights.values())
    print(f"\nwrote {out_dir}:")
    print(f"  program.bin   {len(program)} instructions "
          f"({len(program) * 16} bytes)")
    print(f"  program.asm   human-readable listing")
    print(f"  hybriddnn_*   HLS project ({weight_elems} weight elements "
          "to load at runtime)")
    # Show a taste of the generated assembly.
    print("\nfirst instructions:")
    for line in disassemble(program).splitlines()[:8]:
        print("  " + line)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
