"""Tests for repro.pipeline — evaluation cache, pruned DSE
equivalence, and the PipelineSession facade."""

import pytest

from repro.dse import map_network, run_dse
from repro.dse.space import DseOptions, explore_hardware
from repro.errors import DseError, ReproError
from repro.estimator.calibration import get_calibration
from repro.estimator.latency import estimate_layer, estimate_network
from repro.ir import zoo
from repro.pipeline import CacheStats, EvaluationCache, PipelineSession, layer_signature
from test_dse_oracle import latency_lower_bound, objective_lower_bound, scalar_run_dse


# -- cache keying and dedup ------------------------------------------------


class TestLayerSignature:
    def test_identical_shapes_share_signature(self):
        net = zoo.vgg16()
        conv5_1 = net.find("conv5_1")
        conv5_2 = net.find("conv5_2")
        assert conv5_1.layer.name != conv5_2.layer.name
        assert layer_signature(conv5_1) == layer_signature(conv5_2)

    def test_fused_pool_distinguishes(self):
        net = zoo.vgg16()
        info = net.find("conv5_3")
        assert layer_signature(info, 1) != layer_signature(info, 2)

    def test_different_shapes_differ(self):
        net = zoo.vgg16()
        assert layer_signature(net.find("conv1_1")) != layer_signature(
            net.find("conv1_2")
        )
        assert layer_signature(net.find("fc6")) != layer_signature(
            net.find("fc7")
        )


class TestEvaluationCache:
    def test_hit_returns_identical_estimate(self, cfg_pt4, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        first = cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        second = cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        direct = estimate_layer(cfg_pt4, pynq, info, "spat", "is")
        assert first == second == direct
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1

    def test_shape_dedup_relabels_layer_name(self, cfg_vu9p_paper, vu9p):
        cache = EvaluationCache()
        net = zoo.vgg16()
        a = cache.estimate(
            cfg_vu9p_paper, vu9p, net.find("conv5_1"), "wino", "ws"
        )
        b = cache.estimate(
            cfg_vu9p_paper, vu9p, net.find("conv5_2"), "wino", "ws"
        )
        assert a.layer_name == "conv5_1"
        assert b.layer_name == "conv5_2"
        assert a.latency == b.latency
        stats = cache.stats
        assert stats.shape_dedup_hits == 1

    def test_mode_dataflow_cfg_are_distinct_keys(self, cfg_pt4, cfg_pt6, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        cache.estimate(cfg_pt4, pynq, info, "spat", "ws")
        cache.estimate(cfg_pt4, pynq, info, "wino", "ws")
        cache.estimate(cfg_pt6, pynq, info, "spat", "is")
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0

    def test_errors_are_memoized_and_reraised(self, cfg_pynq_paper, pynq):
        cache = EvaluationCache()
        # fc6 of full VGG16 needs an input-channel split (GC > 1) on the
        # embedded buffers, which the IS dataflow rejects.
        info = zoo.vgg16().find("fc6")
        with pytest.raises(ReproError):
            cache.estimate(cfg_pynq_paper, pynq, info, "spat", "is")
        with pytest.raises(ReproError):
            cache.estimate(cfg_pynq_paper, pynq, info, "spat", "is")
        stats = cache.stats
        assert stats.misses == 1 and stats.hits == 1
        assert stats.error_entries == 1

    def test_memoized_error_relabelled_on_dedup_hit(
        self, cfg_vu9p_paper, vu9p
    ):
        cache = EvaluationCache()
        net = zoo.vgg16()
        # conv5_1 and conv5_2 share a shape; GK > 1 makes IS infeasible
        # once buffers shrink enough — force it with a tiny weight buffer.
        from dataclasses import replace

        cfg = replace(cfg_vu9p_paper, weight_buffer_vecs=64)
        with pytest.raises(ReproError) as first:
            cache.estimate(cfg, vu9p, net.find("conv5_1"), "spat", "is")
        with pytest.raises(ReproError) as second:
            cache.estimate(cfg, vu9p, net.find("conv5_2"), "spat", "is")
        assert "conv5_1" in str(first.value)
        assert "conv5_2" in str(second.value)
        assert "conv5_1" not in str(second.value)
        assert type(second.value) is type(first.value)

    def test_partition_memo_shared_across_dataflows(self, cfg_pt4, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        cache.estimate(cfg_pt4, pynq, info, "spat", "ws")
        stats = cache.stats
        # Second dataflow misses the estimate level but reuses the
        # partition geometry.
        assert stats.partition_misses == 1
        assert stats.partition_hits == 1

    def test_partition_memo_instance_independent(self, cfg_pt4, pynq):
        from dataclasses import replace

        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        cache.estimate(replace(cfg_pt4, instances=2), pynq, info, "spat", "is")
        stats = cache.stats
        assert stats.misses == 2  # different bandwidth share => new estimate
        assert stats.partition_hits == 1  # ... but the same partition

    def test_clear_resets(self, cfg_pt4, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_stats_subtraction(self):
        a = CacheStats(hits=5, misses=5, partition_hits=2, partition_misses=2)
        b = CacheStats(hits=2, misses=1, partition_hits=1, partition_misses=0)
        delta = a - b
        assert delta.hits == 3 and delta.misses == 4
        assert delta.lookups == 7
        assert 0.0 <= delta.hit_rate <= 1.0

    def test_describe_partition_only(self):
        # A DSE's delta: partition lookups only, no estimate clause.
        stats = CacheStats(partition_hits=0, partition_misses=150)
        assert stats.describe() == (
            "0/150 partition hits, 0.0% overall, 0 from shape dedup, "
            "0 infeasible entries"
        )

    def test_describe_with_estimate_lookups(self):
        stats = CacheStats(hits=3, misses=1, partition_hits=1,
                           partition_misses=1, shape_dedup_hits=2)
        assert stats.describe() == (
            "1/2 partition hits, 3/4 estimate hits (75.0%), "
            "66.7% overall, 2 from shape dedup, 0 infeasible entries"
        )


# -- prune-bound admissibility --------------------------------------------


class TestPruneBound:
    @pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp", "alexnet"])
    @pytest.mark.parametrize("objective", ["throughput", "latency"])
    def test_bound_is_admissible(self, pynq, model, objective):
        """The compute-bound objective bound never exceeds the truth."""
        network = zoo.get_model(model)
        cal = get_calibration(pynq.name)
        total_ops = sum(i.ops for i in network.compute_layers())
        for candidate in explore_hardware(pynq, cal=cal):
            try:
                _, estimate = map_network(candidate.cfg, pynq, network)
            except DseError:
                continue
            lb_latency = latency_lower_bound(candidate.cfg, pynq, network)
            assert lb_latency <= estimate.latency
            bound = objective_lower_bound(
                lb_latency, objective, total_ops, candidate.cfg.instances
            )
            if objective == "latency":
                assert bound <= estimate.latency
            else:
                assert bound <= -estimate.gops

    def test_unknown_objective_rejected(self):
        with pytest.raises(DseError):
            objective_lower_bound(1.0, "area", 100, 1)

    def test_bound_includes_bandwidth_terms(self, pynq):
        """The bound exceeds pure compute time on a memory-bound layer.

        tiny_mlp is dominated by Dense layers, whose weight streaming
        (Eq. 8) dwarfs T_CP on a small device — the Eq. 8-11 terms must
        make the bound strictly tighter than the compute-only sum.
        """
        from repro.estimator.latency import _module_times

        network = zoo.tiny_mlp()
        cfg = explore_hardware(pynq)[-1].cfg
        compute_only = sum(
            _module_times(cfg, pynq, info, "spat")[0]
            for info in network.compute_layers()
        )
        assert latency_lower_bound(cfg, pynq, network) > compute_only

    @pytest.mark.parametrize("objective", ["throughput", "latency"])
    def test_bandwidth_bound_equivalence(self, pynq, objective):
        """Pruning with the tightened bound keeps the selection *and*
        the runner-up ranking byte-identical to brute force."""
        network = zoo.tiny_mlp()  # memory-bound: the new terms do prune
        options = DseOptions(objective=objective)
        seed = scalar_run_dse(pynq, network, options, prune=False)
        fast = run_dse(pynq, network, options)
        assert fast.candidates_pruned > 0
        assert _design_point(fast) == _design_point(seed)
        assert [_design_point(r) for r in fast.runners_up] == [
            _design_point(r) for r in seed.runners_up
        ]


# -- DSE equivalence: the one search vs brute force ----------------------


def _design_point(result):
    return result.cfg, result.mapping, result.estimate


class TestDseEquivalence:
    @pytest.mark.parametrize(
        "model", ["tiny_cnn", "tiny_mlp", "alexnet", "darknet19", "vgg16"]
    )
    def test_pipeline_matches_brute_force_on_zoo(self, pynq, model):
        network = zoo.get_model(model)
        seed = scalar_run_dse(pynq, network, cache=EvaluationCache(),
                              prune=False)
        fast = run_dse(pynq, network)
        assert _design_point(fast) == _design_point(seed)
        assert [_design_point(r) for r in fast.runners_up] == [
            _design_point(r) for r in seed.runners_up
        ]
        # The search reads group counts from columns: no lookups.
        assert fast.cache_stats == CacheStats()

    def test_latency_objective_equivalence(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        options = DseOptions(objective="latency", top_k=3)
        seed = scalar_run_dse(pynq, network, options, prune=False)
        fast = run_dse(pynq, network, options)
        assert _design_point(fast) == _design_point(seed)
        assert [_design_point(r) for r in fast.runners_up] == [
            _design_point(r) for r in seed.runners_up
        ]

    def test_fresh_cache_without_explicit_cache(self, pynq):
        # run_dse takes no cache and makes no lookup: its stats are
        # empty, and it still ranks and counts as the scalar
        # best-first loop does.
        network = zoo.tiny_cnn(input_size=32)
        result = run_dse(pynq, network)
        assert result.cache_stats == CacheStats()
        oracle = scalar_run_dse(pynq, network, best_first=True)
        assert _design_point(result) == _design_point(oracle)
        assert [_design_point(r) for r in result.runners_up] == [
            _design_point(r) for r in oracle.runners_up
        ]
        assert (result.candidates_evaluated, result.candidates_pruned) == (
            oracle.candidates_evaluated, oracle.candidates_pruned
        )

    def test_precomputed_candidates(self, pynq):
        from repro.dse import explore_hardware

        network = zoo.tiny_cnn(input_size=32)
        candidates = explore_hardware(pynq)
        direct = run_dse(pynq, network, DseOptions())
        seeded = run_dse(pynq, network, DseOptions(), candidates=candidates)
        assert _design_point(direct) == _design_point(seeded)

    def test_shared_cache_across_runs(self, pynq):
        # Two sessions sharing one cache: neither DSE touches it, and
        # both select, rank and count as the scalar loop does.
        network = zoo.tiny_cnn(input_size=32)
        cache = EvaluationCache()
        first = PipelineSession(network, pynq, cache=cache).dse()
        second = PipelineSession(network, pynq, cache=cache).dse()
        assert cache.stats == CacheStats() and len(cache) == 0
        oracle = scalar_run_dse(pynq, network, best_first=True)
        for result in (first, second):
            assert _design_point(result) == _design_point(oracle)
            assert [_design_point(r) for r in result.runners_up] == [
                _design_point(r) for r in oracle.runners_up
            ]
            assert (
                result.candidates_evaluated, result.candidates_pruned
            ) == (oracle.candidates_evaluated, oracle.candidates_pruned)

    def test_map_network_cached_equivalence(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        plain = map_network(cfg_pynq_paper, pynq, network)
        cached = map_network(
            cfg_pynq_paper, pynq, network, cache=EvaluationCache()
        )
        assert plain == cached

    def test_estimate_network_cached_equivalence(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        mapping, _ = map_network(cfg_pynq_paper, pynq, network)
        plain = estimate_network(cfg_pynq_paper, pynq, network, mapping)
        cached = estimate_network(
            cfg_pynq_paper, pynq, network, mapping, EvaluationCache()
        )
        assert plain == cached


# -- eager DseOptions validation -------------------------------------------


class TestDseOptionsValidation:
    def test_unknown_objective(self):
        with pytest.raises(DseError):
            DseOptions(objective="area")

    def test_non_positive_top_k(self):
        with pytest.raises(DseError):
            DseOptions(top_k=0)

    def test_non_positive_max_instances(self):
        with pytest.raises(DseError):
            DseOptions(max_instances=0)

    def test_bad_frequency(self):
        with pytest.raises(DseError):
            DseOptions(frequency_mhz=-100.0)

    def test_bad_buffer_presets(self):
        with pytest.raises(DseError):
            DseOptions(buffer_presets=(1024, 0, 1024))

    def test_valid_options_construct(self):
        options = DseOptions(top_k=1, objective="latency")
        assert options.top_k == 1 and options.objective == "latency"


# -- NetworkEstimate memoization -------------------------------------------


class TestNetworkEstimateMemo:
    def test_latency_and_ops_cached(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        mapping, estimate = map_network(cfg_pynq_paper, pynq, network)
        first = estimate.latency
        assert estimate.latency == first  # second read: cached
        assert "latency" in estimate.__dict__
        assert "ops" not in estimate.__dict__
        assert estimate.ops == sum(l.ops for l in estimate.layers)
        assert "ops" in estimate.__dict__


# -- PipelineSession -------------------------------------------------------


class TestPipelineSession:
    def test_dse_computed_once(self, pynq):
        session = PipelineSession(zoo.tiny_cnn(input_size=32), pynq)
        assert session.dse() is session.dse()

    def test_matches_direct_run_dse(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        session = PipelineSession(network, pynq)
        direct = run_dse(pynq, network, DseOptions())
        assert _design_point(session.dse()) == _design_point(direct)

    def test_accepts_names(self):
        session = PipelineSession("tiny_cnn", "pynq-z1")
        assert session.network.name == "tiny_cnn"
        assert session.device.name == "pynq-z1"
        assert session.calibration.name == "pynq-z1"

    def test_unknown_model_name(self):
        with pytest.raises(ReproError):
            PipelineSession("resnet-9000", "pynq-z1")

    def test_pinned_cfg_matches_map_network(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        session = PipelineSession(network, pynq, cfg=cfg_pynq_paper)
        mapping, estimate = map_network(cfg_pynq_paper, pynq, network)
        assert session.cfg == cfg_pynq_paper
        assert session.mapping() == mapping
        assert session.estimate() == estimate

    def test_pinned_cfg_forbids_dse(self, cfg_pynq_paper, pynq):
        session = PipelineSession(zoo.tiny_cnn(), pynq, cfg=cfg_pynq_paper)
        with pytest.raises(ReproError):
            session.dse()

    def test_pinned_mapping_requires_cfg(self, pynq):
        from repro.mapping.strategy import NetworkMapping

        network = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(network)
        with pytest.raises(ReproError):
            PipelineSession(network, pynq, mapping=mapping)

    def test_pinned_mapping_used_verbatim(self, cfg_pynq_paper, pynq):
        from repro.mapping.strategy import NetworkMapping

        network = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(network, mode="spat", dataflow="ws")
        session = PipelineSession(
            network, pynq, cfg=cfg_pynq_paper, mapping=mapping
        )
        assert session.mapping() is mapping
        estimate = session.estimate()
        assert {l.mode for l in estimate.layers} == {"spat"}

    def test_compiled_and_runtime_cached(self, cfg_pynq_paper, pynq):
        session = PipelineSession(
            zoo.tiny_cnn(), pynq, cfg=cfg_pynq_paper, seed=7
        )
        assert session.compiled() is session.compiled()
        assert session.runtime(False) is session.runtime(False)

    def test_simulate_matches_simulate_network(self, cfg_pynq_paper, pynq):
        from repro.experiments.common import simulate_network

        network = zoo.tiny_cnn()
        session = PipelineSession(
            network, pynq, cfg=cfg_pynq_paper,
            compiler_options=_timing_compiler_options(),
        )
        direct = simulate_network(
            network, cfg_pynq_paper, pynq, session.mapping()
        )
        assert session.simulate().cycles == direct.cycles

    def test_describe_renders(self, pynq):
        session = PipelineSession(zoo.tiny_cnn(), pynq)
        text = session.describe()
        assert "tiny_cnn" in text and "pynq-z1" in text

    def test_sessions_share_cache(self, pynq, vu9p):
        # A DSE adds nothing to a shared cache; sessions pinned to its
        # design share their estimates: the second one only hits.
        cache = EvaluationCache()
        net = zoo.tiny_cnn(input_size=32)
        cfg = PipelineSession(net, pynq, cache=cache).dse().cfg
        assert cache.stats == CacheStats()
        PipelineSession(net, pynq, cfg=cfg, cache=cache).estimate()
        first = cache.stats
        assert first.misses > 0 and first.partition_misses > 0
        PipelineSession(net, pynq, cfg=cfg, cache=cache).estimate()
        stats = cache.stats
        assert stats.misses == first.misses
        assert stats.partition_misses == first.partition_misses
        assert stats.hits == first.hits + first.lookups


def _timing_compiler_options():
    from repro.compiler import CompilerOptions

    return CompilerOptions(quantize=True, pack_data=False)
