"""Benchmark: full-sweep DSE wall-clock and cache traffic, seed vs
pipeline vs warm on-disk store.

The sweep is the VGG16 tradeoff study on VU9P: the full 621-candidate
space explored once per objective (throughput, then latency) — the
many-scenario pattern the unified pipeline exists for.  The *seed* path
is the brute-force configuration (no cache, no pruning) of the serial
scalar oracle kept in ``tests/test_dse_oracle.py``; the *pipeline*
path is ``run_dse`` sharing one
:class:`~repro.pipeline.cache.EvaluationCache` across the two runs with
lower-bound pruning and best-first ordering.  A DSE looks up partitions
only, so that is the traffic the cache sees.  The *store* path repeats
the sweep in a fresh cache warmed from an
:class:`~repro.pipeline.store.EvaluationStore` flushed by a cold run —
the repeated-fleet workload persistent caching exists for.

Checked claims:

* the pipeline selects the byte-identical design point per objective;
* >= 3x wall-clock speedup over the seed path;
* no entry is computed twice: the sweep's misses equal the entries its
  flush persists;
* a store-warmed repeat has 0 misses at both cache levels, flushes 0
  entries and makes the byte-identical selection of the cold run.
"""

import sys
import time
from pathlib import Path

from repro.dse import run_dse
from repro.dse.space import DseOptions
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import EvaluationCache, EvaluationStore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_dse_oracle import scalar_run_dse  # noqa: E402

OBJECTIVES = ("throughput", "latency")


def _sweep_seed(device, network):
    return {
        objective: scalar_run_dse(
            device, network,
            DseOptions(frequency_mhz=device.frequency_mhz,
                       objective=objective, use_cache=False, prune=False),
        )
        for objective in OBJECTIVES
    }


def _sweep_pipeline(device, network, cache):
    return {
        objective: run_dse(
            device, network,
            DseOptions(frequency_mhz=device.frequency_mhz,
                       objective=objective, best_first=True),
            cache=cache,
        )
        for objective in OBJECTIVES
    }


def _design_point(result):
    return result.cfg, result.mapping, result.estimate


def test_dse_cache_speedup(tmp_path, benchmark, once, capsys):
    device = get_device("vu9p")
    network = zoo.vgg16()

    start = time.perf_counter()
    seed = _sweep_seed(device, network)
    seed_seconds = time.perf_counter() - start

    cache = EvaluationCache()
    start = time.perf_counter()
    fast = once(benchmark, _sweep_pipeline, device, network, cache)
    fast_seconds = time.perf_counter() - start

    stats = cache.stats
    flushed = EvaluationStore(tmp_path / "cache").flush(cache)
    speedup = seed_seconds / fast_seconds
    with capsys.disabled():
        print()
        print("VGG16 full sweep on vu9p "
              f"({seed['throughput'].candidates_considered} candidates "
              f"x {len(OBJECTIVES)} objectives)")
        print(f"  seed (brute force): {seed_seconds * 1e3:8.1f} ms")
        print(f"  pipeline:           {fast_seconds * 1e3:8.1f} ms "
              f"({speedup:.1f}x)")
        print(f"  cache: {stats.describe()}, {flushed} entries flushed")
        for objective in OBJECTIVES:
            result = fast[objective]
            print(f"  {objective}: evaluated {result.candidates_evaluated}, "
                  f"pruned {result.candidates_pruned} of "
                  f"{result.candidates_considered}")

    # Identical selection per objective.
    for objective in OBJECTIVES:
        assert _design_point(fast[objective]) == _design_point(
            seed[objective]
        ), objective
    # Acceptance: >= 3x wall-clock, and every miss computed a new entry.
    assert speedup >= 3.0, f"speedup {speedup:.2f}x < 3x"
    misses = stats.misses + stats.partition_misses
    assert misses == flushed, f"{misses} misses != {flushed} flushed"


def test_dse_store_warm_sweep(tmp_path, once, benchmark, capsys):
    """Repeat the two-objective sweep out of a warm on-disk store."""
    device = get_device("vu9p")
    network = zoo.vgg16()
    store = EvaluationStore(tmp_path / "cache")

    # Cold run: evaluate everything once, flush the delta to disk.
    cold_cache = EvaluationCache()
    start = time.perf_counter()
    cold = _sweep_pipeline(device, network, cold_cache)
    cold_seconds = time.perf_counter() - start
    flushed = store.flush(cold_cache)

    # Warm run: a fresh cache in a "new invocation", warmed from disk.
    warm_cache = EvaluationCache()
    store.warm(warm_cache)
    start = time.perf_counter()
    warm = once(benchmark, _sweep_pipeline, device, network, warm_cache)
    warm_seconds = time.perf_counter() - start

    stats = warm_cache.stats
    with capsys.disabled():
        print()
        print("VGG16 warm-store sweep on vu9p")
        print(f"  cold (empty cache): {cold_seconds * 1e3:8.1f} ms, "
              f"{flushed} entries flushed")
        print(f"  warm (from store):  {warm_seconds * 1e3:8.1f} ms "
              f"({cold_seconds / warm_seconds:.1f}x)")
        print(f"  cache: {stats.describe()}")
        print(f"  {store.describe()}")

    # Identical selection, served entirely from the store.
    for objective in OBJECTIVES:
        assert _design_point(warm[objective]) == _design_point(
            cold[objective]
        ), objective
    assert stats.misses == stats.partition_misses == 0, stats.describe()
    assert store.flush(warm_cache) == 0
