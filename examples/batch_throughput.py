#!/usr/bin/env python
"""Batch throughput across accelerator instances (Table 4 accounting).

The VU9P design's 3375.7 GOPS headline comes from six instances running
*different images* concurrently. This example measures that with the
BatchRunner: per-image latency stays that of one instance (which sees
1/6 of the DRAM bandwidth), while throughput scales with the instance
count — until memory sharing bites.

Run:  python examples/batch_throughput.py
"""

from dataclasses import replace

import numpy as np

from repro import (
    AcceleratorConfig,
    CompilerOptions,
    compile_network,
    generate_parameters,
    get_device,
)
from repro.dse.engine import map_network
from repro.ir import zoo
from repro.pipeline import EvaluationCache
from repro.runtime.batch import BatchRunner


def main():
    device = get_device("vu9p")
    # A VGG16-like stack, scaled so the demo runs in seconds.
    net = zoo.vgg16(input_size=64, include_fc=False)
    params = generate_parameters(net)
    ops = sum(i.ops for i in net.compute_layers())
    batch = [np.zeros(net.input_shape.as_tuple())] * 12

    print(f"model: {net.name}-64, {ops / 1e9:.2f} GOP/image, "
          f"batch of {len(batch)}\n")
    print(f"{'NI':>3} {'ms/image':>9} {'batch ms':>9} "
          f"{'img/s':>8} {'GOPS':>9}")
    base = AcceleratorConfig(
        pi=4, po=4, pt=6, instances=1, frequency_mhz=167.0,
        input_buffer_vecs=32768, weight_buffer_vecs=16384,
        output_buffer_vecs=16384,
    )
    # The cache shares the group-partition geometry across the NI
    # sweep (it is instance-count independent).
    cache = EvaluationCache()
    for ni in (1, 2, 3, 6):
        cfg = replace(base, instances=ni)
        mapping, _ = map_network(cfg, device, net, cache=cache)
        compiled = compile_network(
            net, cfg, mapping, params,
            CompilerOptions(quantize=True, pack_data=False),
        )
        runner = BatchRunner(compiled, device, ops)
        result = runner.run(batch)
        print(f"{ni:>3} {result.per_image_seconds * 1e3:>9.2f} "
              f"{result.makespan_seconds * 1e3:>9.2f} "
              f"{result.images_per_second:>8.1f} "
              f"{result.throughput_gops:>9.1f}")
    print("\nper-image latency grows slightly with NI (shared DRAM "
          "bandwidth); throughput scales with instances — the paper's "
          "multi-die scaling story.")


if __name__ == "__main__":
    main()
