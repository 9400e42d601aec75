"""Additional HostRuntime API coverage: memory images, fmap round
trips, host-step variants, DRAM sizing."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_network
from repro.errors import RuntimeHostError
from repro.ir import NetworkBuilder, zoo
from repro.mapping import NetworkMapping
from repro.runtime import HostRuntime, generate_parameters
from repro.sim.simulator import CTRL_ISSUE_CYCLES


def make_runtime(cfg, device, net=None, quantize=False, **kwargs):
    net = net or zoo.tiny_cnn(input_size=16, channels=8)
    params = generate_parameters(net, seed=1)
    mapping = NetworkMapping.uniform(net, "wino", "ws")
    compiled = compile_network(
        net, cfg, mapping, params, CompilerOptions(quantize=quantize)
    )
    return HostRuntime(compiled, device, **kwargs), net


class TestMemoryImage:
    def test_regions_allocated_for_everything(self, cfg_pt4, pynq):
        runtime, net = make_runtime(cfg_pt4, pynq)
        regions = runtime.dram.regions
        assert "fmap:in" in regions
        for info in net.compute_layers():
            assert f"wgt:{info.layer.name}" in regions
            assert f"bias:{info.layer.name}" in regions

    def test_weight_image_written(self, cfg_pt4, pynq):
        runtime, net = make_runtime(cfg_pt4, pynq)
        region = runtime.dram.region("wgt:conv1")
        data = runtime.dram.read(region.base, region.size)
        assert np.abs(data).sum() > 0

    def test_input_roundtrip(self, cfg_pt4, pynq, rng):
        runtime, net = make_runtime(cfg_pt4, pynq)
        image = rng.normal(size=net.input_shape.as_tuple())
        runtime.load_input(image)
        back = runtime._read_fmap(runtime.compiled.input_spec)
        np.testing.assert_allclose(back, image)

    def test_quantized_input_lands_on_grid(self, cfg_pt4, pynq, rng):
        runtime, net = make_runtime(cfg_pt4, pynq, quantize=True)
        image = rng.normal(size=net.input_shape.as_tuple())
        runtime.load_input(image)
        back = runtime._read_fmap(runtime.compiled.input_spec)
        ft = cfg_pt4.feature_type
        np.testing.assert_allclose(back, ft.quantize(image))

    def test_timing_only_moves_no_data(self, cfg_pt4, pynq, rng):
        """Timing reads no DRAM: a timing-only runtime writes no weight,
        bias or input image, but still checks the input's shape."""
        runtime, net = make_runtime(cfg_pt4, pynq, quantize=True,
                                    functional=False)
        assert runtime.dram.total_written_elems == 0
        with pytest.raises(RuntimeHostError):
            runtime.load_input(np.zeros((1, 2, 3)))
        result = runtime.infer(rng.normal(size=net.input_shape.as_tuple()))
        assert runtime.dram.total_written_elems == 0
        assert not runtime.dram.data.any()
        assert result.sim.dram_read_elems == 0
        assert result.sim.dram_written_elems == 0
        functional, _ = make_runtime(cfg_pt4, pynq, quantize=True)
        assert result.sim.cycles == functional.infer(
            rng.normal(size=net.input_shape.as_tuple())
        ).sim.cycles

    def test_dram_sized_with_margin(self, cfg_pt4, pynq):
        runtime, _ = make_runtime(cfg_pt4, pynq)
        used = sum(r.size for r in runtime.dram.regions.values())
        assert runtime.dram.size > used


class TestHostSteps:
    def _run(self, builder_fn, cfg, device, rng):
        net = builder_fn()
        params = generate_parameters(net, seed=2)
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        compiled = compile_network(
            net, cfg, mapping, params, CompilerOptions(quantize=False)
        )
        runtime = HostRuntime(compiled, device)
        image = rng.normal(size=net.input_shape.as_tuple())
        from repro.runtime import reference_inference

        out = runtime.infer(image)
        ref = reference_inference(net, params, image)
        return out, ref

    def test_avgpool_host_step(self, cfg_pt4, pynq, rng):
        def build():
            return (
                NetworkBuilder("avg", (3, 12, 12))
                .conv2d(4, padding=1, name="c")
                .avgpool2d(2, name="gap")
                .build()
            )

        out, ref = self._run(build, cfg_pt4, pynq, rng)
        np.testing.assert_allclose(out.output, ref, atol=1e-9)
        assert out.host_ops == 1

    def test_standalone_relu_host_step(self, cfg_pt4, pynq, rng):
        def build():
            # ReLU separated from the conv by a pool: not fusable.
            return (
                NetworkBuilder("r", (3, 12, 12))
                .conv2d(4, padding=1, name="c")
                .maxpool2d(3, stride=2, name="p")  # host pool
                .relu(name="act")
                .flatten(name="fl")
                .dense(5, name="fc")
                .build()
            )

        out, ref = self._run(build, cfg_pt4, pynq, rng)
        np.testing.assert_allclose(out.output, ref, atol=1e-9)
        assert out.host_ops == 3  # pool + relu + flatten


class TestCtrlPipeline:
    def test_issue_rate_lower_bounds_makespan(self, cfg_pt4, pynq):
        runtime, net = make_runtime(cfg_pt4, pynq, functional=False)
        sim = runtime.infer(np.zeros(net.input_shape.as_tuple())).sim
        # The CTRL 4-stage pipeline issues one instruction every
        # CTRL_ISSUE_CYCLES; the last one cannot start earlier.
        assert sim.cycles >= (sim.instructions - 1) * CTRL_ISSUE_CYCLES
