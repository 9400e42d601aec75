"""Benchmark: fast-forward replay engine vs the event kernel.

The fast-forward engine (``repro.serving.fastforward``) replaces the
event heap with batch-granular recurrences on eligible runs — plain
open-loop traffic, no scenario/SLO/autoscaler.  Its contract is
*byte identity*: every report field except the wall-clock ones
(``events_processed`` is the kernel-equivalent count, the rest measure
the host) must match the kernel exactly.  This bench enforces both
halves of the deal:

* **identity** — a policy x traffic matrix and the bursty-trace replay
  (100k arrivals) produce reports the kernel path reproduces field for
  field, dataclass-equal down to the per-request records;
* **speedup** — on the 1M-arrival trace replay (the CI smoke's exact
  workload) fast-forward beats the kernel by at least 5x wall clock.
  Clean dev-box runs sit near 10x; the floor absorbs runner noise.

Measurement note: the kernel leg holds a million completion records
while it runs; its report is dropped and the collector run before the
fast-forward leg, so the second measurement never pays for them.
"""

import gc
from dataclasses import replace
from pathlib import Path

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    BatcherOptions,
    ShardPool,
    ShardServer,
    TraceSource,
    WorkloadSpec,
    make_requests,
)

TRACE = Path(__file__).resolve().parent / "data" / "trace_bursty.csv"

#: Host-side fields — the only report keys the engines may differ on.
WALL_KEYS = (
    "events_processed",
    "wall_seconds",
    "events_per_second",
    "replay_requests_per_second",
)


def _session(device="vu9p", instances=2):
    dev = get_device(device)
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, instances=instances, frequency_mhz=100.0,
        input_buffer_vecs=4096, weight_buffer_vecs=2048,
        output_buffer_vecs=2048,
    )
    return PipelineSession(
        zoo.tiny_cnn(input_size=16, channels=8),
        dev,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=False, pack_data=False),
    )


def _trace_server():
    session = _session(device="pynq-z1", instances=1)
    return ShardServer(ShardPool.replicate(session, 2))


def _trace(loop, engine, max_events=None):
    """The bursty-trace replay, ``loop`` times over, on ``engine``."""
    return WorkloadSpec(
        traffic=TraceSource.load(
            str(TRACE), time_scale=0.00002, loop=loop
        ),
        batcher=BatcherOptions(max_batch=4),
        engine=engine,
        max_events=max_events,
    )


def _summary(report):
    return {
        key: value for key, value in report.to_dict().items()
        if key not in WALL_KEYS
    }


def test_fastforward_matches_kernel_matrix(capsys):
    session = _session()
    checked = 0
    for policy in ("round-robin", "least-loaded", "shortest-latency"):
        for kind in ("uniform", "fixed-qps", "poisson", "burst"):
            server = ShardServer(ShardPool.replicate(session, 3))
            spec = WorkloadSpec(
                traffic=make_requests(
                    kind, 60, qps=400.0, seed=11, burst=5
                ),
                policy=policy,
                batcher=BatcherOptions(max_batch=4, max_wait_s=5e-4),
            )
            kernel = server.run(replace(spec, engine="kernel"))
            fast = server.run(replace(spec, engine="fastforward"))
            label = f"{policy}/{kind}"
            # Dataclass equality covers the per-request records; the
            # equivalent event count is compare=False so it gets its
            # own assertion.
            assert fast == kernel, f"records diverge: {label}"
            assert fast.events_processed == kernel.events_processed, label
            assert _summary(fast) == _summary(kernel), label
            checked += 1
    with capsys.disabled():
        print()
        print(f"  {checked} policy x traffic cells byte-identical")


def test_fastforward_matches_kernel_on_trace_replay(capsys):
    server = _trace_server()
    kernel = server.run(_trace(1316, "kernel"))
    fast = server.run(_trace(1316, "fastforward"))
    assert fast == kernel
    assert fast.events_processed == kernel.events_processed
    assert _summary(fast) == _summary(kernel)
    with capsys.disabled():
        print()
        print(f"  100k-arrival trace byte-identical "
              f"({kernel.events_processed} equivalent events; kernel "
              f"{kernel.wall_seconds:.2f} s, fast-forward "
              f"{fast.wall_seconds:.2f} s)")


def test_fastforward_speedup_floor(benchmark, once, capsys):
    server = _trace_server()

    kernel = server.run(_trace(13158, "kernel", 4_000_000))
    kernel_wall = kernel.wall_seconds
    kernel_summary = _summary(kernel)
    kernel_events = kernel.events_processed
    # Drop the kernel report before timing the fast-forward leg so
    # the second measurement never pays the first run's GC debt.
    del kernel
    gc.collect()

    fast = once(
        benchmark, server.run, _trace(13158, "fastforward", 4_000_000)
    )
    speedup = kernel_wall / fast.wall_seconds

    with capsys.disabled():
        print()
        print(f"  1M-arrival trace replay ({kernel_events} equivalent "
              "events)")
        print(f"  kernel:       {kernel_wall:6.2f} s "
              f"({kernel_events / kernel_wall / 1e3:6.0f}k events/s)")
        print(f"  fast-forward: {fast.wall_seconds:6.2f} s "
              f"({fast.events_processed / fast.wall_seconds / 1e3:6.0f}k "
              f"events/s, "
              f"{fast.count / fast.wall_seconds / 1e3:.0f}k requests/s)")
        print(f"  speedup:      {speedup:6.1f}x")

    assert _summary(fast) == kernel_summary, "1M replay summary diverges"
    assert fast.events_processed == kernel_events
    assert speedup >= 5.0, (
        f"fast-forward only {speedup:.1f}x over the kernel (< 5x floor)"
    )
