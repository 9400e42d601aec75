"""Host runtime: deploy a compiled model and run inference.

Mirrors the paper's Step 4: a light-weight host process that writes the
instruction and data files into the accelerator's external memory,
kicks off execution (here: the simulator), services the host-side steps
(flatten / non-fusable pooling), and collects results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import RuntimeHostError
from repro.arch import layouts
from repro.arch.dram import ExternalMemoryModel
from repro.compiler.codegen import AccelStep, CompiledModel, HostStep
from repro.fpga.device import FpgaDevice
from repro.sim.simulator import AcceleratorSimulator, SimulationResult
from repro.winograd.reference import avg_pool2d, max_pool2d, relu


@dataclass
class InferenceResult:
    """Output feature map plus execution statistics."""

    output: np.ndarray
    sim: Optional[SimulationResult]
    host_ops: int

    @property
    def seconds(self) -> float:
        """Accelerator time (host steps are not timed — they overlap
        with PCIe/PS transfers in the paper's deployments)."""
        return self.sim.seconds if self.sim else 0.0


class HostRuntime:
    """Deploy ``compiled`` on ``device`` and run images through it."""

    @classmethod
    def from_session(cls, session, functional: bool = True, **kwargs):
        """Deploy a :class:`~repro.pipeline.session.PipelineSession`.

        The session supplies the compiled model and device (duck-typed
        so this module stays independent of the pipeline layer); extra
        keyword arguments reach ``__init__`` unchanged.
        """
        return cls(
            session.compiled(), session.device, functional=functional,
            **kwargs,
        )

    def __init__(
        self,
        compiled: CompiledModel,
        device: FpgaDevice,
        functional: bool = True,
        dram_margin: float = 1.25,
        trace: bool = False,
    ):
        self.compiled = compiled
        self.device = device
        self.functional = functional
        cfg = compiled.cfg
        lanes = cfg.pi

        total = 0
        sizes: Dict[str, int] = {}
        for key, spec in compiled.fmaps.items():
            sizes[spec.region] = spec.words(lanes)
            total += sizes[spec.region]
        for name, packed in compiled.weights.items():
            sizes[f"wgt:{name}"] = max(packed.elems, 1)
            total += sizes[f"wgt:{name}"]
        for name, bias in compiled.biases.items():
            sizes[f"bias:{name}"] = max(bias.size, 1)
            total += sizes[f"bias:{name}"]

        bw_elems = device.bandwidth_elems(cfg.data_width, cfg.instances)
        self.dram = ExternalMemoryModel(
            size=int(total * dram_margin) + 4096,
            bandwidth_elems_per_cycle=bw_elems / cfg.frequency_hz,
        )
        for region, size in sizes.items():
            self.dram.allocate(region, size)
        if functional:
            # Timing reads no DRAM, so a timing-only runtime moves no data.
            for name, packed in compiled.weights.items():
                if packed.image.size:
                    self.dram.write(
                        self.dram.region(f"wgt:{name}").base, packed.image
                    )
            for name, bias in compiled.biases.items():
                if bias.size:
                    self.dram.write(
                        self.dram.region(f"bias:{name}").base, bias
                    )

        self.sim = AcceleratorSimulator(
            cfg, device, self.dram, functional=functional, trace=trace
        )

    # -- data movement -----------------------------------------------------

    def load_input(self, image: np.ndarray) -> None:
        """Quantise and pack one CHW image into the input region (a
        timing-only runtime checks its shape only)."""
        spec = self.compiled.input_spec
        image = np.asarray(image, dtype=np.float64)
        expected = (spec.channels, spec.height, spec.width)
        if image.shape != expected:
            raise RuntimeHostError(
                f"input shape {image.shape} != expected {expected}"
            )
        if not self.functional:
            return
        if self.compiled.options.quantize:
            image = self.compiled.cfg.feature_type.quantize(image)
        words = layouts.pack_feature(spec.layout, image, self.compiled.cfg.pi)
        self.dram.write(self.dram.region(spec.region).base, words)

    def _read_fmap(self, spec) -> np.ndarray:
        region = self.dram.region(spec.region)
        words = self.dram.read(region.base, spec.words(self.compiled.cfg.pi))
        return layouts.unpack_feature(
            spec.layout, words, spec.channels, spec.height, spec.width,
            self.compiled.cfg.pi,
        )

    def _write_fmap(self, spec, feature: np.ndarray) -> None:
        words = layouts.pack_feature(spec.layout, feature, self.compiled.cfg.pi)
        self.dram.write(self.dram.region(spec.region).base, words)

    def read_output(self) -> np.ndarray:
        """Unpack the network output feature map."""
        return self._read_fmap(self.compiled.output_spec)

    # -- execution ---------------------------------------------------------

    def _run_host_step(self, step: HostStep) -> None:
        feature = self._read_fmap(step.src)
        if step.op == "flatten":
            result = feature.reshape(-1, 1, 1)
        elif step.op == "maxpool":
            result = max_pool2d(
                feature, step.params["pool"], step.params["stride"]
            )
        elif step.op == "avgpool":
            result = avg_pool2d(
                feature, step.params["pool"], step.params["stride"]
            )
        elif step.op == "relu":
            result = relu(feature)
        else:
            raise RuntimeHostError(f"unknown host op {step.op!r}")
        self._write_fmap(step.dst, result)

    def infer(self, image: np.ndarray) -> InferenceResult:
        """Run one image end to end."""
        self.load_input(image)
        sim_results: List[SimulationResult] = []
        host_ops = 0
        for step in self.compiled.steps:
            if isinstance(step, AccelStep):
                sim_results.append(self.sim.run(step.program))
            elif isinstance(step, HostStep):
                if self.functional:
                    self._run_host_step(step)
                host_ops += 1
            else:
                raise RuntimeHostError(f"unknown step type {type(step)}")
        merged = SimulationResult.merge(sim_results) if sim_results else None
        output = self.read_output() if self.functional else np.zeros(0)
        return InferenceResult(output=output, sim=merged, host_ops=host_ops)
