"""The vectorized candidate-batch estimator against the scalar oracle.

The contract is *exact* float equality, not closeness: every term of
every :class:`~repro.estimator.latency.LayerEstimate` the batch path
materialises must be bit-equal to what
:func:`~repro.estimator.latency.estimate_layer` computes, and the DSE
selection (winner, runner-up ranking, infeasibility) must be
byte-identical to the serial scalar path's
(``tests/test_dse_oracle.py``).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import AcceleratorConfig
from repro.dse import explore_hardware, run_dse
from repro.dse.engine import map_network
from repro.dse.space import DseOptions
from repro.errors import DseError, ReproError
from repro.estimator import BatchLayerEstimator, estimate_layer
from repro.estimator.vectorized import COMBOS
from repro.fpga import get_device
from repro.ir import zoo
from repro.mapping.partition import fused_pool_for
from repro.mapping.partition import partition_layer
from repro.pipeline import CacheStats, EvaluationCache, PipelineSession
from test_dse_oracle import scalar_run_dse

DEVICE = get_device("vu9p")


def make_cfg(pi=4, po=4, pt=6, instances=1, buffers=(32768, 16384, 16384)):
    return AcceleratorConfig(
        pi=pi, po=po, pt=pt, instances=instances, frequency_mhz=167.0,
        input_buffer_vecs=buffers[0], weight_buffer_vecs=buffers[1],
        output_buffer_vecs=buffers[2],
    )


#: A deliberately mixed batch: different parallelism, tile sizes,
#: instance counts, and one tiny-buffer config that is infeasible for
#: most layers (exercises the feasibility masks).
CFG_BATCH = [
    make_cfg(pi=4, po=4, pt=6),
    make_cfg(pi=8, po=2, pt=4),
    make_cfg(pi=2, po=1, pt=6, instances=2),
    make_cfg(pi=16, po=8, pt=4, instances=4),
    make_cfg(pi=4, po=2, pt=6, buffers=(64, 32, 32)),
]


def scalar_grid(device, network, cfgs):
    """The oracle view: estimate_layer per cell, None where it raises."""
    grid = []
    for cfg in cfgs:
        by_layer = []
        for info in network.compute_layers():
            pool = fused_pool_for(network, info.index)
            cell = {}
            for mode, dataflow in COMBOS:
                try:
                    cell[(mode, dataflow)] = estimate_layer(
                        cfg, device, info, mode, dataflow,
                        fused_pool=pool,
                    )
                except ReproError:
                    cell[(mode, dataflow)] = None
            by_layer.append(cell)
        grid.append(by_layer)
    return grid


def assert_grids_equal(vec, scalar):
    assert len(vec) == len(scalar)
    for vec_layers, scalar_layers in zip(vec, scalar):
        assert len(vec_layers) == len(scalar_layers)
        for vec_cell, scalar_cell in zip(vec_layers, scalar_layers):
            assert vec_cell.keys() == scalar_cell.keys()
            for combo, expected in scalar_cell.items():
                got = vec_cell[combo]
                if expected is None:
                    assert got is None, combo
                    continue
                assert got is not None, combo
                # Dataclass equality compares every term; each float
                # must be *bit*-equal, so == (not approx) is the point.
                assert got == expected, combo


@settings(max_examples=30, deadline=None)
@given(
    c=st.sampled_from([3, 16, 64, 256]),
    k=st.sampled_from([8, 32, 128]),
    h=st.sampled_from([7, 14, 28, 56]),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
)
def test_grid_matches_scalar_exactly(c, k, h, kernel, stride):
    """Random single-conv layers: every (cfg, mode, dataflow) term is
    bit-equal to estimate_layer, infeasible cells included."""
    network = zoo.single_conv(c, k, h, kernel, stride=stride,
                              padding=kernel // 2)
    estimator = BatchLayerEstimator(DEVICE, network)
    assert_grids_equal(
        estimator.estimate_grid(CFG_BATCH),
        scalar_grid(DEVICE, network, CFG_BATCH),
    )


@pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp"])
def test_grid_matches_on_multilayer_models(model):
    """Fused pools, Dense layers and pooling all flow through the
    geometry precomputation."""
    network = zoo.get_model(model)
    estimator = BatchLayerEstimator(DEVICE, network)
    assert_grids_equal(
        estimator.estimate_grid(CFG_BATCH),
        scalar_grid(DEVICE, network, CFG_BATCH),
    )


#: Whole VU9P, ZCU102 and KU115 spaces under every zoo model take ~3 s
#: of scalar mapping, so tier-1 skips them; CI's benchmark job runs them
#: with ``REPRO_FULL_ORACLE=1 pytest -m slow``.
FULL_ORACLE = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_FULL_ORACLE") != "1",
        reason="full catalog matrix: set REPRO_FULL_ORACLE=1",
    ),
]


def _latency_inputs(name):
    """``(device, network, candidates)`` cases: the mixed config list
    on tiny_cnn, or every zoo model on a device's whole Step-1 space."""
    if name == "cfg-batch":
        return [(DEVICE, zoo.tiny_cnn(), CFG_BATCH)]
    device = get_device(name)
    space = explore_hardware(device)
    return [
        (device, zoo.get_model(model), space) for model in sorted(zoo.MODELS)
    ]


@pytest.mark.parametrize(
    "inputs",
    ["cfg-batch", "pynq-z1"] + [
        pytest.param(name, marks=FULL_ORACLE)
        for name in ("vu9p", "zcu102", "ku115")
    ],
)
def test_network_latencies_match_map_network(inputs):
    """The latency column is the materialised estimate's latency, bit
    for bit, and None exactly where map_network raises — on a config
    list, and on whole Step-1 spaces passed as ``run_dse`` passes its
    batches."""
    for device, network, candidates in _latency_inputs(inputs):
        estimator = BatchLayerEstimator(device, network)
        latencies = estimator.network_latencies(candidates)
        assert len(latencies) == len(candidates)
        for candidate, latency in zip(candidates, latencies):
            cfg = getattr(candidate, "cfg", candidate)
            try:
                _, expected = map_network(cfg, device, network)
            except DseError:
                assert latency is None
                continue
            assert latency is not None
            assert latency.hex() == expected.latency.hex()


def test_map_candidates_matches_map_network():
    """Per-candidate (mapping, estimate) equals map_network's — and a
    candidate map_network rejects comes back as None."""
    network = zoo.tiny_cnn()
    estimator = BatchLayerEstimator(DEVICE, network)
    results = estimator.map_candidates(CFG_BATCH)
    for cfg, result in zip(CFG_BATCH, results):
        try:
            expected = map_network(cfg, DEVICE, network)
        except DseError:
            assert result is None
            continue
        assert result is not None
        mapping, estimate = result
        assert mapping == expected[0]
        assert estimate == expected[1]
        assert [e for e in estimate.layers] == [
            e for e in expected[1].layers
        ]


def test_map_candidates_empty_batch():
    estimator = BatchLayerEstimator(DEVICE, zoo.tiny_cnn())
    assert estimator.map_candidates([]) == []
    assert estimator.network_latencies([]) == []


def _ranking(result):
    return [(result.cfg, result.mapping, result.estimate)] + [
        (r.cfg, r.mapping, r.estimate) for r in result.runners_up
    ]


@pytest.mark.parametrize("objective", ["throughput", "latency"])
@pytest.mark.parametrize(
    "knobs",
    [
        dict(prune=False),
        dict(prune=True),
        dict(prune=True, best_first=True),
        dict(prune=False, best_first=True),
    ],
)
def test_run_dse_vectorized_identical(objective, knobs):
    """The batched DSE returns the serial scalar ranking byte for byte
    whatever order the serial loop evaluates in, pruned or not, and
    the counts of its pruned best-first loop."""
    network = zoo.tiny_cnn()
    options = DseOptions(objective=objective)
    scalar = scalar_run_dse(DEVICE, network, options, **knobs)
    vectorized = run_dse(DEVICE, network, options)
    assert _ranking(vectorized) == _ranking(scalar)
    assert vectorized.candidates_considered == scalar.candidates_considered
    if knobs == dict(prune=True, best_first=True):
        assert (
            vectorized.candidates_evaluated, vectorized.candidates_pruned
        ) == (scalar.candidates_evaluated, scalar.candidates_pruned)


def test_dse_leaves_session_cache_empty():
    """A session's DSE reads its group counts from columns: the cache
    the session holds gets no lookup and no entry, so a flush would
    write nothing — and the selection, runners-up and counts are the
    scalar best-first loop's."""
    network = zoo.tiny_cnn()
    cache = EvaluationCache()
    result = PipelineSession(network, DEVICE, cache=cache).dse()
    assert cache.stats == CacheStats()
    assert len(cache) == 0
    assert cache.take_dirty() == ({}, {})
    oracle = scalar_run_dse(DEVICE, network, best_first=True)
    assert _ranking(result) == _ranking(oracle)
    assert (result.candidates_evaluated, result.candidates_pruned) == (
        oracle.candidates_evaluated, oracle.candidates_pruned
    )


def test_internal_cache_gets_no_offers():
    """``run_dse`` has no cache: its ``cache_stats`` is always the empty
    ``CacheStats()``, and the winner's mapping is still the one the
    scalar partitions give (every layer's partition exists)."""
    network = zoo.tiny_cnn()
    result = run_dse(DEVICE, network, DseOptions())
    assert result.cache_stats == CacheStats()
    assert all(r.cache_stats == CacheStats() for r in result.runners_up)
    for info, layer_est in zip(
        network.compute_layers(), result.estimate.layers
    ):
        pool = fused_pool_for(network, info.index)
        partition_layer(result.cfg, info, layer_est.mode, pool)


def test_exact_limit_guard():
    """A layer whose numerator products overflow float64's exact-integer
    range is refused at construction."""
    huge = zoo.single_conv(4096, 4096, 4096, 3, padding=1)
    with pytest.raises(DseError, match=r"2\*\*53"):
        BatchLayerEstimator(DEVICE, huge)


def test_batch_api_takes_no_cal():
    """Latency is calibration-free (calibration feeds the resource
    model), so no batch entry point takes a ``cal`` argument."""
    import inspect

    for function in (
        BatchLayerEstimator.__init__,
        BatchLayerEstimator.estimate_grid,
        BatchLayerEstimator.map_candidates,
        BatchLayerEstimator.network_latencies,
    ):
        assert "cal" not in inspect.signature(function).parameters


def test_scalar_estimate_ignores_cal():
    """The scalar latency path takes no ``cal`` either, and a caller that
    still passes one by keyword fails loudly rather than being ignored."""
    import inspect

    from repro.estimator.calibration import get_calibration
    from repro.estimator.latency import estimate_network

    for function in (
        estimate_layer,
        estimate_network,
        map_network,
        EvaluationCache.estimate,
    ):
        assert "cal" not in inspect.signature(function).parameters
    info = zoo.tiny_cnn().compute_layers()[0]
    cfg = make_cfg()
    for cal in (get_calibration("generic"), get_calibration(DEVICE.name)):
        with pytest.raises(TypeError, match="cal"):
            estimate_layer(cfg, DEVICE, info, "spat", "ws", cal=cal)
