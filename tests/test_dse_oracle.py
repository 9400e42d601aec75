"""``run_dse`` against the serial scalar branch-and-bound it replaced.

:func:`scalar_run_dse` below is the DSE's former serial path, kept
as the oracle: one candidate at a time through ``map_network``
(scalar ``estimate_layer`` calls, memoized when given an
:class:`EvaluationCache`), pruned with the scalar
:func:`latency_lower_bound` / :func:`objective_lower_bound` against the
running ``top_k``-th objective.  ``prune`` and ``best_first`` are its
own keywords: ``run_dse`` has one search, the best-first one.  The
batched ``run_dse`` must return the ranking and budgets of every
reference (the brute force included), and the evaluated/pruned counts
of the pruned best-first one, bit for bit; its column bounds must
equal the scalar bounds bit for bit.
"""

import heapq
import math
import os
from typing import Dict, List, Optional, Tuple

import pytest

from repro.dse import explore_hardware, map_network, run_dse
from repro.dse import engine
from repro.dse.engine import DseResult, _candidate_bounds
from repro.dse.space import DseOptions, HardwareCandidate
from repro.errors import DseError
from repro.estimator import BatchLayerEstimator
from repro.estimator.calibration import get_calibration
from repro.estimator.latency import _module_times
from repro.fpga import get_device
from repro.ir import zoo
from repro.mapping.strategy import winograd_supported
from repro.pipeline import EvaluationCache

MODELS = sorted(zoo.MODELS)
OBJECTIVES = ("throughput", "latency")
PAPER_DEVICES = ("vu9p", "pynq-z1")
OTHER_DEVICES = ("zcu102", "ku115")

# -- the oracle: the serial scalar path -------------------------------------


def latency_lower_bound(cfg, device, network) -> float:
    """Admissible network-latency bound for one candidate (seconds).

    Every (mode, dataflow) latency is ``body + T_penalty`` where the
    body maxes the Eq. 6-11 module times (Eq. 12-15): ``T_CP`` and
    ``T_SV`` appear directly, and the load terms appear scaled by a
    group count ``>= 1`` (``T_LDI`` / ``GK * T_LDI``,
    ``N_rows * T_LDW`` / ``T_LDW``).  Hence for *either* dataflow

        latency >= max(T_CP, T_LDI, T_LDW, T_SV)

    without partitioning a single layer.  Summing each layer's cheapest
    supported mode bounds the network from below; including the
    bandwidth terms (not just ``T_CP``) prunes memory-bound candidates
    that a compute-only bound would have to evaluate.
    """
    total = 0.0
    for info in network.compute_layers():
        per_mode = [max(_module_times(cfg, device, info, "spat"))]
        if winograd_supported(info):
            per_mode.append(max(_module_times(cfg, device, info, "wino")))
        total += min(per_mode)
    return total


def objective_lower_bound(
    lb_latency: float, objective: str, ops: int, instances: int
) -> float:
    """Lower bound on the objective given a latency lower bound."""
    if objective == "latency":
        return lb_latency
    if objective == "throughput":
        if lb_latency <= 0:
            return -math.inf
        # gops <= ops / lb_latency * NI  =>  -gops >= this bound.
        return -(ops / lb_latency / 1e9) * instances
    raise DseError(f"unknown objective {objective!r}")


def _objective(estimate, objective: str) -> float:
    """Lower is better."""
    if objective == "latency":
        return estimate.latency
    if objective == "throughput":
        return -estimate.gops
    raise DseError(f"unknown objective {objective!r}")


def scalar_candidate_bounds(
    candidates: List[HardwareCandidate],
    device,
    network,
    objective: str,
    bound_fn=latency_lower_bound,
) -> List[float]:
    """Objective lower bound per candidate, memoized on the projection
    the module times depend on."""
    total_ops = sum(info.ops for info in network.compute_layers())
    lb_memo: Dict[Tuple, float] = {}
    bounds = []
    for candidate in candidates:
        cfg = candidate.cfg
        key = (
            cfg.pi, cfg.po, cfg.pt, cfg.frequency_mhz,
            cfg.data_width, cfg.weight_width, cfg.instances,
        )
        lb_latency = lb_memo.get(key)
        if lb_latency is None:
            lb_latency = bound_fn(cfg, device, network)
            lb_memo[key] = lb_latency
        bounds.append(
            objective_lower_bound(
                lb_latency, objective, total_ops, cfg.instances
            )
        )
    return bounds


def scalar_run_dse(
    device,
    network,
    options: Optional[DseOptions] = None,
    cal=None,
    cache: Optional[EvaluationCache] = None,
    candidates: Optional[List[HardwareCandidate]] = None,
    map_fn=map_network,
    bound_fn=latency_lower_bound,
    *,
    prune: bool = True,
    best_first: bool = False,
) -> DseResult:
    """The serial scalar branch-and-bound, one candidate at a time.

    ``prune`` skips candidates whose bound cannot reach the ``top_k``;
    ``best_first`` evaluates in ascending-bound order (a stable sort)
    instead of enumeration order; ``prune=False`` is the brute force.
    Without a ``cache`` every estimate is computed afresh.
    ``map_fn`` / ``bound_fn`` stand for ``map_network`` /
    ``latency_lower_bound`` (the tests pass memoized equivalents)."""
    options = options or DseOptions()
    if cal is None:
        cal = get_calibration(device.name)
    if candidates is None:
        candidates = explore_hardware(device, options, cal)

    bounds: Optional[List[float]] = None
    if prune or best_first:
        bounds = scalar_candidate_bounds(
            candidates, device, network, options.objective, bound_fn
        )
    order = list(range(len(candidates)))
    if best_first:
        assert bounds is not None
        order.sort(key=lambda index: bounds[index])

    scored = []  # (objective, index, candidate, mapping, estimate)
    worst_of_top_k: List[float] = []  # max-heap (negated)
    pruned = 0

    def kth_best() -> float:
        if len(worst_of_top_k) < options.top_k:
            return math.inf
        return -worst_of_top_k[0]

    def prunable(index: int) -> bool:
        return prune and bounds[index] > kth_best()

    def evaluate(index: int):
        candidate = candidates[index]
        try:
            mapping, estimate = map_fn(
                candidate.cfg, device, network, cache=cache
            )
        except DseError:
            return None
        objective = _objective(estimate, options.objective)
        return (objective, index, candidate, mapping, estimate)

    def admit(item) -> None:
        scored.append(item)
        objective = item[0]
        if len(worst_of_top_k) < options.top_k:
            heapq.heappush(worst_of_top_k, -objective)
        elif objective < -worst_of_top_k[0]:
            heapq.heapreplace(worst_of_top_k, -objective)

    for index in order:
        if prunable(index):
            pruned += 1
            continue
        item = evaluate(index)
        if item is not None:
            admit(item)

    if not scored:
        raise DseError(
            f"no candidate can run {network.name!r} on {device.name}"
        )
    scored.sort(key=lambda item: (item[0], item[1]))

    def to_result(item, runners=()) -> DseResult:
        _, _, candidate, mapping, estimate = item
        return DseResult(
            device_name=device.name,
            cfg=candidate.cfg,
            mapping=mapping,
            estimate=estimate,
            per_instance=candidate.per_instance,
            total=candidate.total,
            candidates_considered=len(candidates),
            runners_up=tuple(runners),
            candidates_evaluated=len(scored),
            candidates_pruned=pruned,
        )

    runners = [to_result(item) for item in scored[1 : options.top_k]]
    return to_result(scored[0], runners)


# -- helpers ----------------------------------------------------------------


class SharedRuns:
    """What this module's cases share, by (device, network, cfg): the
    candidates of each device, one oracle cache per device, and
    memoized scalar results.  Every shared value is deterministic, so
    sharing changes what a repeated sweep costs, never what it returns.
    """

    def __init__(self):
        self._candidates: Dict[str, List[HardwareCandidate]] = {}
        self._caches: Dict[str, EvaluationCache] = {}
        self._mapped: Dict[Tuple, object] = {}
        self._bounds: Dict[Tuple, float] = {}

    def candidates(self, device_name: str) -> List[HardwareCandidate]:
        """Step 1 under default options (what every case here runs)."""
        if device_name not in self._candidates:
            self._candidates[device_name] = explore_hardware(
                get_device(device_name)
            )
        return self._candidates[device_name]

    def map_network(self, cfg, device, network, cache=None):
        key = (device.name, network.name, cfg)
        if key not in self._mapped:
            try:
                self._mapped[key] = map_network(
                    cfg, device, network, cache=cache
                )
            except DseError as exc:
                self._mapped[key] = exc
        result = self._mapped[key]
        if isinstance(result, DseError):
            raise result
        return result

    def latency_lower_bound(self, cfg, device, network) -> float:
        key = (device.name, network.name, cfg)
        if key not in self._bounds:
            self._bounds[key] = latency_lower_bound(cfg, device, network)
        return self._bounds[key]

    def both_sides(self, device_name: str, model: str, options: DseOptions,
                   **reference):
        """``(run_dse result, oracle result)`` on shared candidates;
        ``reference`` holds the oracle's ``prune`` / ``best_first``."""
        device = get_device(device_name)
        network = zoo.get_model(model)
        candidates = self.candidates(device_name)

        cache = self._caches.setdefault(device_name, EvaluationCache())
        return (
            run_dse(device, network, options, candidates=candidates),
            scalar_run_dse(device, network, options, cache=cache,
                           candidates=candidates, map_fn=self.map_network,
                           bound_fn=self.latency_lower_bound, **reference),
        )


@pytest.fixture(scope="module")
def shared():
    return SharedRuns()


def outcome(result: DseResult, counts: bool = True):
    """Everything but the cache counters: ranking, budgets and, with
    ``counts``, the evaluated/pruned counts."""
    ranking = (
        [
            (r.cfg, r.mapping, r.estimate, r.per_instance, r.total)
            for r in (result, *result.runners_up)
        ],
        result.candidates_considered,
    )
    if not counts:
        return ranking
    return ranking + (result.candidates_evaluated, result.candidates_pruned)


def bits(values) -> List[str]:
    """Exact float identity: ``hex`` tells -0.0 from 0.0 as well."""
    return [float(value).hex() for value in values]


#: The serial best-first branch-and-bound: ``run_dse``'s own search, so
#: its counts must match too.
BEST_FIRST = {"best_first": True}

#: ``case -> (DseOptions knobs, scalar_run_dse keywords)``.  ``run_dse``
#: has no evaluation knobs, so the option sets are the default and
#: ``top_k`` ones.  Each is held to the best-first reference; the
#: default one also to the serial loop at its defaults (pruned, in
#: enumeration order: the same ranking, other counts) and to the
#: unpruned brute force.
CASES = {
    "default": ({}, {}),
    "best_first": ({}, BEST_FIRST),
    "no_prune": ({}, {"prune": False}),
    "top_1": ({"top_k": 1}, BEST_FIRST),
    "top_12": ({"top_k": 12}, BEST_FIRST),
}


#: The rest of the catalog and ``top_k=12`` triple this module's run
#: time, so tier-1 skips them; CI's benchmark job runs them with
#: ``REPRO_FULL_ORACLE=1 pytest -m slow tests/test_dse_oracle.py``.
FULL_MATRIX = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_FULL_ORACLE") != "1",
        reason="full catalog matrix: set REPRO_FULL_ORACLE=1",
    ),
]


def _cases():
    for device in PAPER_DEVICES + OTHER_DEVICES:
        for name, (knobs, reference) in CASES.items():
            full = device in OTHER_DEVICES or name == "top_12"
            yield pytest.param(device, knobs, reference,
                               id=f"{device}-{name}",
                               marks=FULL_MATRIX if full else [])


# -- the tests ---------------------------------------------------------------


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("device_name, knobs, reference", list(_cases()))
def test_run_dse_matches_serial_scalar_oracle(
    shared, device_name, knobs, reference, model, objective
):
    batched, serial = shared.both_sides(
        device_name, model, DseOptions(objective=objective, **knobs),
        **reference,
    )
    counts = reference == BEST_FIRST
    assert outcome(batched, counts) == outcome(serial, counts)


@pytest.mark.parametrize("batch", [1, 5, 1000])
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp"])
def test_replay_is_batch_size_independent(
    shared, monkeypatch, batch, objective, model
):
    """Pruning is checked at each batch's start, admission replays the
    serial loop: the outcome and both counts hold for any batch size."""
    monkeypatch.setattr(engine, "BATCH", batch)
    batched, serial = shared.both_sides(
        "vu9p", model, DseOptions(objective=objective), **BEST_FIRST
    )
    assert outcome(batched) == outcome(serial)


@pytest.mark.parametrize("device_name", PAPER_DEVICES + OTHER_DEVICES)
@pytest.mark.parametrize("model", MODELS)
def test_column_bounds_equal_scalar_bounds(shared, device_name, model):
    """Every candidate's column bound is the scalar bound, bit for bit,
    under both objectives."""
    device = get_device(device_name)
    network = zoo.get_model(model)
    candidates = shared.candidates(device_name)
    estimator = BatchLayerEstimator(device, network)
    ops = sum(info.ops for info in network.compute_layers())
    latency = [
        shared.latency_lower_bound(candidate.cfg, device, network)
        for candidate in candidates
    ]
    for objective in OBJECTIVES:
        expected = [
            objective_lower_bound(lb, objective, ops, candidate.cfg.instances)
            for lb, candidate in zip(latency, candidates)
        ]
        got = _candidate_bounds(estimator, candidates, objective, ops)
        assert bits(got) == bits(expected), objective
