"""The six benchmark workloads.

Each workload makes the same public calls as the CLI command it stands
for, wraps each call in a span named after the layer it enters, and
checks every result (``checks.py``).  Sizes are chosen so one iteration
takes about 2-8 s on a 2-core host: long enough to time, short enough
for several iterations in a run.  Why each workload exists, and which
layer metrics it should move, is recorded in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import gc
import random
import shutil
from pathlib import Path

from checks import (
    PLAN_WALL_KEYS,
    SERVING_WALL_KEYS,
    check_accounting,
    check_design_point,
    check_engine,
    check_plan,
    check_same_selection,
    check_sweep,
    check_warm_session,
    digest,
    selection,
    without,
)
from repro.baselines.published import PAPER_RESULTS
from repro.compiler import CompilerOptions
from repro.dse.space import DseOptions
from repro.experiments.common import paper_config
from repro.experiments.tenants_study import (
    BULK_CAP,
    BULK_LOAD,
    INTERACTIVE_LOAD,
    MAX_BATCH,
    MAX_WAIT_S,
    interactive_target_s,
)
from repro.ir import zoo
from repro.pipeline import EvaluationCache, EvaluationStore, PipelineSession
from repro.planning import PlanOptions, plan_capacity
from repro.serving import (
    BatcherOptions,
    ClosedLoopClientPool,
    ShardPool,
    ShardServer,
    SloOptions,
    SweepGrid,
    SweepOptions,
    TenantSet,
    TenantSpec,
    TraceSource,
    WorkloadSpec,
    make_requests,
    merge_streams,
    parse_scenario,
    run_sweep,
)

OBJECTIVES = ("throughput", "latency")
#: What ``repro serve``/``sweep`` and ``experiments estimation-error``
#: compile for timing-only runs: quantised, no packed weight images.
TIMING_ONLY = CompilerOptions(quantize=True, pack_data=False)


def _select(rec, session):
    """``repro dse``: Step 1 then Steps 2-3 on one session."""
    with rec.span("dse.explore_hardware"):
        session.candidates()
    with rec.span("dse.run_dse"):
        result = session.dse()
    rec.count("dse.evaluated", result.candidates_evaluated)
    rec.count("dse.pruned", result.candidates_pruned)
    rec.count("dse.considered", result.candidates_considered)
    return result


def _selection_digest(result) -> str:
    return digest({
        "cfg": repr(result.cfg),
        "mapping": [
            (m.layer_name, m.mode, m.dataflow) for m in result.mapping
        ],
        "latency": result.estimate.latency,
        "evaluated": result.candidates_evaluated,
        "pruned": result.candidates_pruned,
    })


def _same_as_first(rec, references: dict, key, label: str, result) -> None:
    got = selection(result)
    reference = references.setdefault(key, got)
    check_same_selection(label, reference, got)
    rec.output(label, _selection_digest(result))


def _store_gauges(rec, path: Path) -> None:
    segments = list(path.glob("*.seg"))
    rec.gauge("pipeline.store.segments", len(segments))
    rec.gauge("pipeline.store.bytes", sum(s.stat().st_size for s in segments))


# -- dse: `repro dse` over the zoo, one in-memory cache per sweep -----------

DSE_MODELS = ("vgg16", "alexnet", "darknet19")
DSE_DEVICES = ("vu9p", "pynq-z1")


def setup_dse(seed, work_dir):
    jobs = [
        (model, device, objective)
        for model in DSE_MODELS
        for device in DSE_DEVICES
        for objective in OBJECTIVES
    ]
    random.Random(seed).shuffle(jobs)
    return {"jobs": jobs, "references": {}}


def iterate_dse(rec, state):
    cache = EvaluationCache()
    for model, device, objective in state["jobs"]:
        label = f"dse {model}/{device}/{objective}"
        with rec.op(label):
            with rec.span("pipeline.session_open"):
                session = PipelineSession(
                    model, device, DseOptions(objective=objective),
                    cache=cache,
                )
            result = _select(rec, session)
            with rec.span("bench.checks"):
                if model == "vgg16" and objective == "throughput":
                    check_design_point(device, result.cfg)
                key = (model, device, objective)
                _same_as_first(rec, state["references"], key, label, result)
    stats = cache.stats
    rec.count("cache.hits", stats.hits + stats.partition_hits)
    rec.count(
        "cache.lookups",
        stats.lookups + stats.partition_hits + stats.partition_misses,
    )


# -- store-fill / store-reuse: `repro dse --cache-dir` ----------------------

STORE_MODEL = "alexnet"
STORE_DEVICES = ("vu9p", "pynq-z1", "zcu102", "ku115")


def setup_store_fill(seed, work_dir):
    # A fixed order: which sessions warm the larger segments depends on
    # it, so a seeded order would change the work, not just the inputs.
    jobs = [(d, o) for d in STORE_DEVICES for o in OBJECTIVES]
    return {"jobs": jobs, "dir": work_dir, "references": {}}


def iterate_store_fill(rec, state):
    """Consecutive CLI runs against one growing store: each session
    warms from every segment so far, then flushes its own delta."""
    path = state["dir"]
    for device, objective in state["jobs"]:
        label = f"store-fill {STORE_MODEL}/{device}/{objective}"
        with rec.op(label):
            with rec.span("pipeline.session_open"):
                session = PipelineSession(
                    STORE_MODEL, device, DseOptions(objective=objective),
                    store=path,
                )
            result = _select(rec, session)
            with rec.span("pipeline.store.flush"):
                session.close()
            with rec.span("bench.checks"):
                key = (device, objective)
                _same_as_first(rec, state["references"], key, label, result)
    with rec.span("bench.checks"):
        _store_gauges(rec, path)
        shutil.rmtree(path)


def setup_store_reuse(seed, work_dir):
    """Populate a store from one shared cache, as a sweep would."""
    cache = EvaluationCache()
    references = {}
    for device in STORE_DEVICES:
        for objective in OBJECTIVES:
            session = PipelineSession(
                STORE_MODEL, device, DseOptions(objective=objective),
                cache=cache,
            )
            references[device, objective] = selection(session.dse())
    EvaluationStore(work_dir).flush(cache)
    jobs = list(STORE_DEVICES)
    random.Random(seed).shuffle(jobs)
    return {"dir": work_dir, "jobs": jobs, "references": references}


def iterate_store_reuse(rec, state):
    """Reopen one session per device from the full store; every
    estimate must come from it and nothing new may be flushed."""
    for device in state["jobs"]:
        label = f"store-reuse {STORE_MODEL}/{device}"
        with rec.op(label):
            with rec.span("pipeline.session_open"):
                session = PipelineSession(
                    STORE_MODEL, device, DseOptions(), store=state["dir"]
                )
            result = _select(rec, session)
            with rec.span("pipeline.store.flush"):
                flushed = session.close()
            with rec.span("bench.checks"):
                stats = result.cache_stats
                rec.count("cache.hits", stats.hits + stats.partition_hits)
                rec.count(
                    "cache.lookups",
                    stats.lookups + stats.partition_hits
                    + stats.partition_misses,
                )
                check_warm_session(label, stats, flushed)
                check_same_selection(
                    label, state["references"][device, "throughput"],
                    selection(result),
                )
                rec.output(label, _selection_digest(result))
    with rec.span("bench.checks"):
        _store_gauges(rec, state["dir"])


# -- deploy: `repro simulate --model vgg16`, timing only --------------------


def setup_deploy(seed, work_dir):
    return {"seed": seed, "references": {}}


def iterate_deploy(rec, state):
    """DSE -> parameters -> compile -> simulate for the paper's two
    case-study devices, then the model-vs-simulator accuracy.  The
    compile is timing-only: ``repro simulate`` also packs the weight
    images, which takes VGG16 to ~4 GB."""
    for device in ("vu9p", "pynq-z1"):
        label = f"deploy vgg16/{device}"
        with rec.op(label):
            with rec.span("pipeline.session_open"):
                session = PipelineSession(
                    "vgg16", device, DseOptions(),
                    compiler_options=TIMING_ONLY, seed=state["seed"],
                )
            result = _select(rec, session)
            with rec.span("runtime.generate_parameters"):
                session.parameters()
            with rec.span("compiler.compile_network"):
                session.compiled()
            with rec.span("sim.simulate"):
                sim = session.simulate()
            with rec.span("bench.checks"):
                check_design_point(device, result.cfg)
                _same_as_first(
                    rec, state["references"], device, label, result
                )
                _accuracy(rec, device, session, result.estimate, sim)
                # The session and its runtime reference each other:
                # collect them, so VGG16's 1.1 GB of parameters is gone
                # before the next device generates its own.
                del session
                gc.collect()


def _accuracy(rec, device, session, estimate, sim) -> None:
    seconds = sim.seconds
    rec.gauge(f"sim.cycles.{device}", sim.cycles)
    rec.gauge(f"sim.instructions.{device}", sim.instructions)
    rec.gauge(
        f"estimator.est_error_pct.{device}",
        abs(estimate.latency - seconds) / seconds * 100.0,
    )
    ops = sum(info.ops for info in session.network.compute_layers())
    gops = ops / seconds / 1e9 * session.cfg.instances
    paper = PAPER_RESULTS[device].gops
    rec.gauge(
        f"sim.paper_gops_error_pct.{device}",
        abs(gops - paper) / paper * 100.0,
    )
    layers = []
    for layer in estimate.layers:
        timing = sim.layer(layer.layer_name)
        simulated = timing.cycles / sim.frequency_hz
        rec.gauge(
            f"estimator.layer_error_pct.{device}.{layer.layer_name}",
            abs(layer.latency - simulated) / simulated * 100.0,
        )
        layers.append((layer.layer_name, timing.cycles))
    rec.output(f"{device} sim", digest({
        "cycles": sim.cycles,
        "instructions": sim.instructions,
        "layers": layers,
    }))


# -- replay-1m: `repro serve --trace ... --trace-loop 13158` ----------------

#: The CI replay: 76 arrivals x 13158 loops = 1,000,008 requests.
REPLAY_LOOP = 13158
REPLAY_SCALE = 2e-5


def write_bursty_trace(path: Path, seed: int) -> None:
    """A 76-arrival CSV trace shaped like benchmarks/data/trace_bursty.csv:
    six bursts of eight arrivals about 1 s apart, then 28 steady
    arrivals about 0.5 s apart.  The seed moves every arrival, never
    the count or the load."""
    rng = random.Random(seed)
    now = 1_690_000_000.0
    stamps = []
    for _burst in range(6):
        for _arrival in range(8):
            stamps.append(now)
            now += rng.expovariate(1 / 3.5e-3)
        now += rng.uniform(0.970, 0.990)
    now += rng.uniform(0.3, 0.5)
    for _arrival in range(28):
        stamps.append(now)
        now += rng.uniform(0.41, 0.58)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "timestamp,shape\n"
        + "".join(f"{stamp!r},3x224x224\n" for stamp in stamps)
    )


def setup_replay(seed, work_dir):
    path = work_dir / "trace_bursty.csv"
    write_bursty_trace(path, seed)
    return {"trace": path}


def iterate_replay(rec, state):
    for policy in ("round-robin", "least-loaded"):
        label = f"replay {policy}"
        with rec.op(label):
            with rec.span("serving.trace_load"):
                traffic = TraceSource.load(
                    state["trace"], time_scale=REPLAY_SCALE,
                    loop=REPLAY_LOOP,
                )
            with rec.span("serving.pool_build"):
                cfg, device = paper_config("pynq-z1")
                session = PipelineSession(
                    "tiny_cnn", device, cfg=cfg,
                    compiler_options=TIMING_ONLY,
                )
                pool = ShardPool.replicate(session, 2)
            server = ShardServer(pool)
            spec = WorkloadSpec(
                traffic=traffic,
                policy=policy,
                batcher=BatcherOptions(max_batch=4, max_wait_s=0.0),
                engine="auto",
                max_events=4_000_000,
            )
            with rec.span("serving.run"):
                report = server.run(spec)
            with rec.span("serving.report"):
                payload = report.to_dict()
            with rec.span("bench.checks"):
                check_engine(label, "fastforward", server.last_engine)
                check_accounting(label, report, len(traffic.arrivals))
                _serving_counters(rec, report)
                rec.output(label, digest(without(payload, SERVING_WALL_KEYS)))
            del traffic, report, payload  # 1M records: free before the next


def _serving_counters(rec, report) -> None:
    rec.count("serving.served", report.count)
    rec.count("serving.events", report.events_processed)
    rec.count("serving.shed", report.shed)
    rec.count("serving.admission_shed", report.admission_shed)
    rec.count("serving.rerouted", report.rerouted)


# -- serve-control: tenancy, SLO + chaos, planning and sweeps ----------------

NOISY_INTERACTIVE = 20_000
NOISY_BULK = 40_000
CLOSED_CLIENTS = 16
CLOSED_REQUESTS = 30_000
CLOSED_SCENARIO = "kill:shard0@0.5,restore@2.0,degrade:shard1@3.0..6.0x4"
PLAN_DEVICES = "vu9p:0..4+pynq-z1:0..8"
PLAN_OPTIONS = {
    "slo_p99_s": 200e-6, "rate": 1.05e6, "requests": 20_000, "top_k": 6,
}
#: The CI chaos-sweep grid: 4 scenarios x 3 policies x 3 pool sizes.
SWEEP_GRID = {
    "scenarios": [
        "none",
        "kill:shard0@0.002,restore@0.01",
        "degrade:shard0@0.001..0.01x8",
        "outage:shard0+shard1@0.002..0.008",
    ],
    "policies": ["round-robin", "least-loaded", "shortest-latency"],
    "pool_sizes": [2, 3, 4],
}
SWEEP_REQUESTS = 240


def setup_serve_control(seed, work_dir):
    """The tenants study's pool: 4 VU9P shards of the 64x64 VGG16."""
    cfg, device = paper_config("vu9p")
    session = PipelineSession(
        zoo.vgg16(input_size=64, include_fc=False), device, cfg=cfg,
        compiler_options=TIMING_ONLY,
    )
    pool = ShardPool.replicate(session, 4)
    return {
        "seed": seed,
        "pool": pool,
        "target": interactive_target_s(pool),
        "grid": SweepGrid(**SWEEP_GRID),
    }


def iterate_serve_control(rec, state):
    seed, pool, target = state["seed"], state["pool"], state["target"]
    with rec.op("noisy neighbour"):
        with rec.span("serving.traffic"):
            rate = pool.simulated_images_per_second()
            traffic = merge_streams(
                make_requests("poisson", NOISY_INTERACTIVE,
                              qps=INTERACTIVE_LOAD * rate, seed=seed,
                              tenant="interactive"),
                make_requests("poisson", NOISY_BULK, qps=BULK_LOAD * rate,
                              seed=seed + 1, tenant="bulk"),
            )
        spec = WorkloadSpec(
            traffic=traffic,
            policy="weighted-fair",
            batcher=BatcherOptions(max_batch=MAX_BATCH,
                                   max_wait_s=MAX_WAIT_S),
            tenants=TenantSet([
                TenantSpec("interactive", weight=3.0, p99_slo_s=target),
                TenantSpec("bulk", weight=1.0, tier="batch",
                           max_outstanding=BULK_CAP),
            ]),
        )
        _serve(rec, "noisy neighbour", pool, spec, len(traffic), {
            "interactive": NOISY_INTERACTIVE, "bulk": NOISY_BULK,
        })
    with rec.op("closed loop"):
        with rec.span("serving.traffic"):
            clients = ClosedLoopClientPool(
                clients=CLOSED_CLIENTS, requests=CLOSED_REQUESTS, seed=seed,
            )
            scenario = parse_scenario(CLOSED_SCENARIO, seed=seed)
        spec = WorkloadSpec(
            traffic=clients,
            policy="least-loaded",
            batcher=BatcherOptions(max_batch=MAX_BATCH),
            slo=SloOptions(p99_target_s=target, action="reroute"),
            scenario=scenario,
        )
        _serve(rec, "closed loop", pool, spec, CLOSED_REQUESTS)
    with rec.op("plan"):
        with rec.span("planning.plan_capacity"):
            plan = plan_capacity(
                "tiny_cnn", PLAN_DEVICES,
                PlanOptions(seed=seed, **PLAN_OPTIONS),
            )
        with rec.span("serving.report"):
            payload = plan.to_dict()
        with rec.span("bench.checks"):
            rec.count("planning.tier_a_s", plan.tier_a_seconds)
            rec.count("planning.tier_b_s", plan.tier_b_seconds)
            check_plan(payload)
            rec.output("plan", digest(without(payload, PLAN_WALL_KEYS)))
    with rec.op("sweep"):
        with rec.span("serving.pool_build"):
            cfg, device = paper_config("pynq-z1")
            session = PipelineSession(
                "tiny_cnn", device, cfg=cfg, compiler_options=TIMING_ONLY,
            )
        with rec.span("serving.run_sweep"):
            report = run_sweep(
                session, state["grid"],
                SweepOptions(requests=SWEEP_REQUESTS), seed=seed,
            )
        with rec.span("serving.report"):
            payload = report.to_dict()
        with rec.span("bench.checks"):
            check_sweep(payload, len(state["grid"]))
            rec.output("sweep", digest(payload))


def _serve(rec, label, pool, spec, issued, issued_by_tenant=None) -> None:
    server = ShardServer(pool)
    with rec.span("serving.run"):
        report = server.run(spec)
    with rec.span("serving.report"):
        payload = report.to_dict()
    with rec.span("bench.checks"):
        check_engine(label, "kernel", server.last_engine)
        check_accounting(label, report, issued, issued_by_tenant)
        _serving_counters(rec, report)
        rec.output(label, digest(without(payload, SERVING_WALL_KEYS)))


#: name -> (setup, iterate); BENCHMARK.json lists the same names.
WORKLOADS = {
    "dse": (setup_dse, iterate_dse),
    "store-fill": (setup_store_fill, iterate_store_fill),
    "store-reuse": (setup_store_reuse, iterate_store_reuse),
    "deploy": (setup_deploy, iterate_deploy),
    "replay-1m": (setup_replay, iterate_replay),
    "serve-control": (setup_serve_control, iterate_serve_control),
}
