"""Benchmark: the vectorized candidate-batch DSE vs the serial scalar
oracle on the VU9P VGG16 two-objective sweep.

The scalar path — the serial branch-and-bound kept verbatim in
``tests/test_dse_oracle.py``, one ``map_network`` call per candidate
through an evaluation cache — is the selection oracle; ``run_dse``
routes Step 2/3 through
:class:`~repro.estimator.vectorized.BatchLayerEstimator`, which
evaluates Eq. 6-15 for the whole 621-candidate batch as numpy column
operations.  Both paths run the *full unpruned* sweep — the pruned
best-first path evaluates a handful of survivors, which is exactly the
regime where batching has nothing to batch, so the speedup claim is
made where the work is.

Checked claims:

* the vectorized sweep selects the byte-identical design point *and*
  runner-up ranking per objective — equality on cfg, mapping and
  estimate (every term of every layer), not a tolerance;
* >= 5x wall-clock speedup over the cached scalar sweep;
* the pruned best-first sweep matches too: the same ranking and the
  same evaluated/pruned counts.
"""

import sys
import time
from pathlib import Path

from repro.dse import run_dse
from repro.dse.space import DseOptions, explore_hardware
from repro.fpga import get_device
from repro.ir import zoo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_dse_oracle import scalar_run_dse  # noqa: E402

OBJECTIVES = ("throughput", "latency")


def _sweep(device, network, candidates, dse):
    return {
        objective: dse(
            device, network,
            DseOptions(frequency_mhz=device.frequency_mhz,
                       objective=objective, use_cache=True, prune=False),
            candidates=candidates,
        )
        for objective in OBJECTIVES
    }


def _design_point(result):
    return result.cfg, result.mapping, result.estimate


def _ranking(result):
    return [_design_point(result)] + [
        _design_point(r) for r in result.runners_up
    ]


def test_vectorized_sweep_equivalence_and_speedup(benchmark, once, capsys):
    device = get_device("vu9p")
    network = zoo.vgg16()
    # Shared candidate list: enumeration is identical either way and
    # not what this benchmark measures.
    candidates = explore_hardware(
        device, DseOptions(frequency_mhz=device.frequency_mhz)
    )

    start = time.perf_counter()
    scalar = _sweep(device, network, candidates, scalar_run_dse)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = once(benchmark, _sweep, device, network, candidates, run_dse)
    vectorized_seconds = time.perf_counter() - start

    speedup = scalar_seconds / vectorized_seconds
    with capsys.disabled():
        print()
        print(f"VGG16 full sweep on vu9p ({len(candidates)} candidates "
              f"x {len(OBJECTIVES)} objectives)")
        print(f"  scalar (cached):  {scalar_seconds * 1e3:8.1f} ms")
        print(f"  vectorized:       {vectorized_seconds * 1e3:8.1f} ms "
              f"({speedup:.1f}x)")

    # Byte-identical selection, winner and runners-up alike.
    for objective in OBJECTIVES:
        assert _ranking(vectorized[objective]) == _ranking(
            scalar[objective]
        ), objective
    assert speedup >= 5.0, f"speedup {speedup:.2f}x < 5x"


def test_vectorized_pruned_sweep_equivalence(capsys):
    """Pruning composes: bounds prune first, the vector path evaluates
    survivor batches, and the replayed branch-and-bound keeps both the
    selection and the counts."""
    device = get_device("vu9p")
    network = zoo.vgg16()
    for objective in OBJECTIVES:
        options = DseOptions(frequency_mhz=device.frequency_mhz,
                             objective=objective, best_first=True)
        scalar = scalar_run_dse(device, network, options)
        vectorized = run_dse(device, network, options)
        with capsys.disabled():
            print(f"\n  {objective}: vectorized evaluated "
                  f"{vectorized.candidates_evaluated}, pruned "
                  f"{vectorized.candidates_pruned} of "
                  f"{vectorized.candidates_considered} "
                  f"(scalar pruned {scalar.candidates_pruned})")
        assert _ranking(vectorized) == _ranking(scalar), objective
        assert (
            vectorized.candidates_evaluated, vectorized.candidates_pruned
        ) == (scalar.candidates_evaluated, scalar.candidates_pruned)
