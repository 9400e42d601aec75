"""Steady-state fast-forward replay: the serve loop without the heap.

A plain open-loop run — a pre-materialised arrival stream, no SLO
controller, no autoscaler, no chaos scenario, no closed-loop clients —
is a deterministic recurrence, not a discrete-event problem: nothing
that happens *during* the run can change what happens next, so the
entire timeline is computable from the arrival array alone.  This
module computes it batch-granularly:

* **batch formation** is a head-jump scan over the sorted arrivals.
  For head ``i`` with wait budget ``W`` and batch budget ``B``, the
  wait deadline is ``A[i] + W`` and ``limit[i] = searchsorted(A,
  A + W, side="right")`` counts the arrivals that beat it (``side=
  "right"`` is exactly the kernel's ``Arrival``-before-``Flush``
  priority: a request arriving *at* the deadline joins the flush).
  If ``i + B <= limit[i]`` the size trigger wins — the batch is
  ``A[i:i+B]`` flushed at ``A[i+B-1]``, the instant the ``B``-th
  request arrives — otherwise the wait trigger fires at the deadline
  with everything queued by then.  Either way the queue empties, so
  the next head is just the batch end: the scan replays
  :class:`~repro.serving.batcher._BatcherFeed`'s token semantics
  flush for flush in O(#batches) after one vectorized searchsorted;
* **shard assignment** is a speculate-and-verify scan over windows of
  batches.  On an overloaded shard each start is the previous finish
  (Lindley's recurrence ``start = max(at, busy_until)`` with ``at <=
  busy_until``), so its horizons are a running sum.  A window
  *guesses* its shard sequence — the rotation for round-robin; for
  least-loaded and shortest-latency, the merged order of the shards'
  projected next-free instants (plus the batch's analytical cost for
  shortest-latency, ties to the lowest shard index) — and *assumes*
  every chosen shard backlogged, so each shard's horizons are one
  ``np.cumsum`` of its service times ``rounds * p`` seeded with its
  carried ``busy_until``.  It then *verifies* every batch against
  those prefix states: the policy's exact keys and first-minimum
  choice must pick the guessed shard, and ``at <= busy_until`` must
  hold there.  The window is accepted up to its first failing batch.
  Acceptance is exact by induction — each accepted batch was computed
  from exact prior state — and ``np.cumsum`` is a sequential left
  fold, the very IEEE additions the per-batch recurrence makes.  The
  failing batch takes the one scalar step, the only copy of the
  policies' per-batch arithmetic (``math.ceil`` vs floor-div and the
  lowest-index tie-break included); while windows keep failing early
  (light load) the step runs a doubling chunk of batches, so a run
  that never backlogs costs what a per-batch loop does;
* **completion accounting** is one vectorized pass after the scan:
  the per-round ``busy_delta = (start + r * p) - (start + (r - 1) *
  p)`` terms (telescoping on paper, not in floats) form one flat
  array in dispatch order, and each shard's ``busy_seconds`` is the
  last element of the ``np.cumsum`` of its own terms — the kernel's
  ``+=`` sequence.  The per-request columns are numpy arrays too:
  ``completed = start + (position // NI + 1) * per_image``
  elementwise is IEEE-identical to the kernel's per-record
  arithmetic.  The arrays go to the report as its
  :class:`~repro.serving.metrics.RequestColumns` unchanged; no
  per-request Python object is built.

The kernel is the oracle: every field of the resulting
:class:`~repro.serving.metrics.ServingReport` except the wall-clock
perf fields (``events_processed``/``wall_seconds`` are ``compare=
False``) is **byte-identical** to the kernel path's — asserted across
policies and traffic models by ``benchmarks/bench_fastforward.py``
and the hypothesis suite in ``tests/test_serving_fastforward.py``.
``events_processed`` is reported as the *equivalent* kernel event
count (arrivals + one ``Flush`` per batch when ``max_batch > 1`` +
one ``BatchDone`` per completion round), so ``events_per_second``
stays the trajectory metric it always was and the kernel's
``max_events`` runaway budget keeps its meaning — exceeding it raises
the same :class:`~repro.errors.ServingError` the kernel raises.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

import numpy as np

from repro.errors import ServingError
from repro.serving.metrics import RequestColumns, ServingReport, ShardUsage
from repro.serving.scheduler import (
    LeastLoaded,
    RoundRobin,
    ShortestExpectedLatency,
    WeightedFair,
)
from repro.serving.shard import Shard
from repro.serving.tenancy import DEFAULT_TENANT
from repro.serving.traffic import OpenLoopSource, TraceSource

#: The kernel's default runaway budget (mirrored so the fast-forward
#: path enforces the same bound with the same error).
DEFAULT_EVENT_BUDGET = 1_000_000

#: Speculative windows start at ``_WINDOW_START`` batches and grow to
#: twice what the last one verified, up to ``_WINDOW_CELLS //
#: pool_size``: a window builds a few ``window x pool_size`` float64
#: arrays, so the cap holds each of them to 2 MB.
_WINDOW_START = 64
_WINDOW_CELLS = 1 << 18
#: A window verifying fewer than ``_WINDOW_START`` batches failed
#: early (it cost more than the scalar step would have): the scalar
#: step then runs a chunk of ``_CHUNK_START`` batches, doubling (up to
#: ``_CHUNK_MAX``) while windows keep failing early.
_CHUNK_START = 16
_CHUNK_MAX = 4096


def ineligible_reason(server, source, scenario) -> Optional[str]:
    """Why ``server``/``source``/``scenario`` cannot fast-forward
    (``None`` when they can).

    Eligibility is *exact-type* strict: a subclassed source, policy or
    shard may override behaviour the recurrence does not model, and a
    silently-wrong fast path is worse than no fast path.
    """
    if scenario is not None:
        return "a failure/chaos scenario perturbs the pool mid-stream"
    if server.slo is not None:
        return "an SLO controller sheds/reroutes based on observed state"
    if server.autoscale is not None:
        return "an autoscaler resizes the pool based on observed state"
    if not server.tenants.trivial:
        return (
            "a non-trivial tenant set routes, batches and sheds "
            "per tenant"
        )
    if getattr(source, "tenanted", False):
        return "the traffic carries non-default tenant tags"
    if type(source) not in (OpenLoopSource, TraceSource):
        return (
            f"source {type(source).__name__} is not a plain "
            "open-loop arrival stream"
        )
    if type(server.scheduler.policy) not in (
        RoundRobin, LeastLoaded, ShortestExpectedLatency, WeightedFair,
    ):
        return (
            f"custom scheduling policy "
            f"{type(server.scheduler.policy).__name__}"
        )
    for shard in server.pool:
        if type(shard) is not Shard:
            return f"custom shard type {type(shard).__name__}"
    return None


def _arrival_stream(source):
    """``(arrivals, indices)`` in kernel delivery order, both as the
    source's own read-only columns.

    Both eligible sources prime arrivals sorted by ``(arrival,
    index)``; ``indices`` is ``None`` when they are simply
    ``0..N-1`` (the trace case, whose read-only column is used as
    is: no copy, no argsort).
    """
    if type(source) is TraceSource:
        return source.arrivals, None
    stream = source.requests  # already (arrival, index)-sorted
    return stream.arrivals, stream.indices


def _form_batches(array: np.ndarray, max_batch: int, max_wait_s: float):
    """The head-jump scan: ``(heads, sizes, flush_times)``.

    Replays the batcher exactly: a size flush takes ``B`` requests at
    the ``B``-th arrival's instant; a wait flush takes everything
    arrived by ``head + W`` (inclusive — ``Arrival`` outranks
    ``Flush``) at that deadline.  Every flush empties the queue, so
    batch boundaries chain: the sole pending ``Flush`` wakeup per
    batch head is exactly why the equivalent event count below adds
    one ``Flush`` per batch (stale size-trigger wakeups still pop).
    """
    count = len(array)
    if max_batch == 1:
        # Degenerate per-request dispatch: every arrival size-flushes
        # instantly and the batcher schedules no wakeups at all.
        return (
            np.arange(count, dtype=np.int64),
            np.ones(count, dtype=np.int64),
            array,
        )
    if max_wait_s == 0.0:
        # Zero wait budget means a batch can never outlive its head's
        # instant, so batches never span runs of equal arrivals: each
        # run chops into ``max_batch`` chunks (size flushes) plus a
        # remainder that wait-flushes at the same instant.  That is a
        # pure array construction — no per-batch scan — and it is the
        # common case (the CLI default and every trace smoke).
        run_starts = np.flatnonzero(
            np.r_[True, np.diff(array) != 0.0]
        )
        run_lens = np.diff(np.r_[run_starts, count])
        per_run = (run_lens + max_batch - 1) // max_batch
        run_of = np.repeat(
            np.arange(len(run_starts), dtype=np.int64), per_run
        )
        first = np.r_[0, np.cumsum(per_run)[:-1]]
        offset = np.arange(len(run_of), dtype=np.int64) - first[run_of]
        heads_array = run_starts[run_of] + offset * max_batch
        ends = run_starts + run_lens
        sizes_array = np.minimum(max_batch, ends[run_of] - heads_array)
        # Size flushes fire at the B-th arrival, wait flushes at
        # head + 0.0 — distinct float ops even though the run's
        # arrivals are all equal (head + 0.0 normalises -0.0).
        flush_array = np.where(
            sizes_array == max_batch,
            array[heads_array + sizes_array - 1],
            array[heads_array] + max_wait_s,
        )
        return heads_array, sizes_array, flush_array
    limits = np.searchsorted(
        array, array + max_wait_s, side="right"
    ).tolist()
    # Scalar reads below: Python floats keep the kernel's float ops.
    arrivals = array.tolist()
    heads: List[int] = []
    sizes: List[int] = []
    flush_times: List[float] = []
    head = 0
    while head < count:
        limit = limits[head]
        if head + max_batch <= limit:
            end = head + max_batch
            at = arrivals[end - 1]
        else:
            end = limit
            at = arrivals[head] + max_wait_s
        heads.append(head)
        sizes.append(end - head)
        flush_times.append(at)
        head = end
    return (
        np.asarray(heads, dtype=np.int64),
        np.asarray(sizes, dtype=np.int64),
        np.asarray(flush_times, dtype=np.float64),
    )


class _Dispatch:
    """Every batch's shard and start instant, in dispatch order.

    :meth:`run` alternates speculative windows (:meth:`window`) with
    the scalar step (:meth:`steps`); both advance the same carried
    ``busy`` horizons, so any interleaving replays the policy exactly.
    """

    def __init__(self, mode, flush_times, sizes, shards):
        #: ``"round-robin"`` (weighted-fair over the trivial tenant
        #: set is round-robin turn for turn), ``"least-loaded"`` or
        #: ``"shortest-latency"``.
        self.mode = mode
        self.at = flush_times
        self.sizes = sizes
        # Warm every probe up front (replicas seed from their twin),
        # the way the kernel path does on each shard's first execute().
        self.per_image = [shard.probe_seconds() for shard in shards]
        self.instances = [shard.instances for shard in shards]
        self.analytical = (
            [shard.analytical_seconds() for shard in shards]
            if mode == "shortest-latency" else None
        )
        self.busy = [0.0] * len(shards)
        self.shard = np.empty(len(sizes), dtype=np.int64)
        self.start = np.empty(len(sizes), dtype=np.float64)
        #: Batches placed by verified windows (the rest took the
        #: scalar step): the speculation's coverage.
        self.speculated = 0

    def run(self) -> "_Dispatch":
        batches = len(self.sizes)
        window_cap = max(_WINDOW_START, _WINDOW_CELLS // len(self.busy))
        window, chunk, head = _WINDOW_START, _CHUNK_START, 0
        while head < batches:
            span = min(window, batches - head)
            accepted = self.window(head, span)
            head += accepted
            window = min(window_cap, max(_WINDOW_START, 2 * accepted))
            if accepted == span:
                chunk = _CHUNK_START
                continue
            if accepted >= _WINDOW_START:
                steps, chunk = 1, _CHUNK_START
            else:
                steps, chunk = chunk, min(2 * chunk, _CHUNK_MAX)
            end = min(head + steps, batches)
            self.steps(head, end)
            head = end
        return self

    def steps(self, low: int, high: int) -> None:
        """The scalar step over batches ``low..high-1``: the policies'
        own per-batch arithmetic, one batch at a time."""
        busy = self.busy
        pool = range(1, len(busy))
        per_image, instances = self.per_image, self.instances
        analytical = self.analytical
        ceil = math.ceil
        shards: List[int] = []
        starts: List[float] = []
        for batch, at, size in zip(
            range(low, high),
            self.at[low:high].tolist(),
            self.sizes[low:high].tolist(),
        ):
            if self.mode == "round-robin":
                chosen = batch % len(busy)
            elif self.mode == "least-loaded":
                chosen, best = 0, max(busy[0] - at, 0.0)
                for j in pool:
                    key = max(busy[j] - at, 0.0)
                    if key < best:
                        chosen, best = j, key
            else:
                chosen = 0
                best = max(at, busy[0]) + (
                    ceil(size / instances[0]) * analytical[0]
                )
                for j in pool:
                    key = max(at, busy[j]) + (
                        ceil(size / instances[j]) * analytical[j]
                    )
                    if key < best:
                        chosen, best = j, key
            start = max(at, busy[chosen])
            rounds = (size + instances[chosen] - 1) // instances[chosen]
            busy[chosen] = start + rounds * per_image[chosen]
            shards.append(chosen)
            starts.append(start)
        self.shard[low:high] = shards
        self.start[low:high] = starts

    def window(self, low: int, span: int) -> int:
        """Speculate batches ``low..low+span-1`` at once; returns how
        many of them verified (those are recorded, the rest are not)."""
        at = self.at[low:low + span]
        sizes = self.sizes[low:low + span]
        per_image = np.asarray(self.per_image)
        instances = np.asarray(self.instances)
        guess = self.guess(low, sizes, per_image, instances)
        rows = np.arange(span)
        chosen_instances = instances[guess]
        # Row b + 1 holds batch b's service time on its guessed shard
        # and zeros elsewhere (x + 0.0 == x), so the column cumsum is
        # each shard's own left fold: row b is every horizon as batch
        # b is dispatched, row ``span`` the horizons after the window.
        horizons = np.zeros((span + 1, len(self.busy)))
        horizons[0] = self.busy
        horizons[rows + 1, guess] = (
            (sizes + chosen_instances - 1) // chosen_instances
        ) * per_image[guess]
        horizons = np.cumsum(horizons, axis=0)
        before = horizons[:-1]
        chosen_busy = before[rows, guess]
        holds = at <= chosen_busy
        if self.mode != "round-robin":
            if self.mode == "least-loaded":
                keys = np.maximum(before - at[:, None], 0.0)
            else:
                keys = np.maximum(before, at[:, None]) + (
                    (sizes[:, None] + instances - 1) // instances
                ) * np.asarray(self.analytical)
            # argmin returns the first minimum: the lowest-index
            # tie-break the policies apply.
            holds &= np.argmin(keys, axis=1) == guess
        accepted = span if holds.all() else int(np.argmin(holds))
        self.speculated += accepted
        self.shard[low:low + accepted] = guess[:accepted]
        # Python's max(at, busy): ``at`` on a tie, as the scalar step.
        self.start[low:low + accepted] = np.where(
            chosen_busy > at, chosen_busy, at
        )[:accepted]
        self.busy = horizons[accepted].tolist()
        return accepted

    def guess(self, low, sizes, per_image, instances) -> np.ndarray:
        """The window's likely shard sequence (verified by the caller)."""
        span = len(sizes)
        if self.mode == "round-robin":
            return np.arange(low, low + span) % len(self.busy)
        # Project every shard's next-free instants as if each batch in
        # the window had the window's commonest size, then merge them.
        size = int(np.argmax(np.bincount(sizes)))
        rounds = (size + instances - 1) // instances
        projected = np.empty((len(self.busy), span))
        projected[:, 0] = self.busy
        projected[:, 1:] = (rounds * per_image)[:, None]
        projected = np.cumsum(projected, axis=1)
        if self.mode == "shortest-latency":
            projected += (rounds * np.asarray(self.analytical))[:, None]
        # Shard-major flattening: the stable sort puts equal instants
        # in shard-index order, the policies' tie-break.
        merged = np.argsort(projected, axis=None, kind="stable")[:span]
        return merged // span


def fastforward_serve(
    server, source, max_events: Optional[int] = None
) -> ServingReport:
    """Replay ``source`` over ``server``'s pool without the kernel.

    The caller (:meth:`~repro.serving.server.ShardServer.run`) has
    already checked :func:`ineligible_reason`; this function mirrors
    the kernel path's observable effects — the report byte for byte
    (wall-clock fields aside) and the post-run pool/policy state
    (``busy_until`` horizons, round-robin rotation), so back-to-back
    serves across engines stay interchangeable.
    """
    wall_start = time.perf_counter()
    server.pool.reset()
    server.scheduler.reset()
    budget = DEFAULT_EVENT_BUDGET if max_events is None else max_events

    arrivals, indices = _arrival_stream(source)
    count = len(arrivals)
    if count > budget:
        raise ServingError(
            f"event budget exhausted after {budget} events "
            "- runaway event loop?"
        )
    options = server.batcher.options
    heads, sizes, flush_times = _form_batches(
        arrivals, options.max_batch, options.max_wait_s
    )
    batches = len(heads)

    shards = server.pool.shards
    policy = server.scheduler.policy
    weighted = type(policy) is WeightedFair
    mode = "round-robin" if weighted else policy.name
    dispatch = _Dispatch(mode, flush_times, sizes, shards).run()
    batch_shard, batch_start = dispatch.shard, dispatch.start
    instance_array = np.asarray(dispatch.instances, dtype=np.int64)
    per_image_array = np.asarray(dispatch.per_image, dtype=np.float64)

    # Equivalent kernel event count: one Arrival per request, one
    # Flush wakeup per batch (only when max_batch > 1 — size flushes
    # at budget 1 never schedule one), one BatchDone per round.
    batch_instances = instance_array[batch_shard]
    rounds = (sizes + batch_instances - 1) // batch_instances
    total_rounds = int(rounds.sum())
    equivalent = count + total_rounds + (
        batches if options.max_batch > 1 else 0
    )
    if equivalent > budget:
        raise ServingError(
            f"event budget exhausted after {budget} events "
            "- runaway event loop?"
        )

    # busy_delta telescopes on paper but not in floats: build the
    # kernel's per-round terms in dispatch order and fold each shard's
    # own terms left to right, as its += sequence does.
    round_batch = np.repeat(np.arange(batches, dtype=np.int64), rounds)
    round_number = np.arange(total_rounds, dtype=np.int64) - np.repeat(
        np.cumsum(rounds) - rounds, rounds
    )
    round_start = batch_start[round_batch]
    round_shard = batch_shard[round_batch]
    round_per_image = per_image_array[round_shard]
    busy_delta = (
        round_start + (round_number + 1) * round_per_image
    ) - (round_start + round_number * round_per_image)
    busy_seconds = []
    for j in range(len(shards)):
        own = busy_delta[round_shard == j]
        busy_seconds.append(float(np.cumsum(own)[-1]) if len(own) else 0.0)

    # The per-request columns.  Every elementwise op below is
    # the kernel's per-record scalar op (int // int + 1, int * float,
    # float + float) applied across the whole array.
    started = np.repeat(batch_start, sizes)
    dispatched = np.repeat(flush_times, sizes)
    request_shard = np.repeat(batch_shard, sizes)
    batch_size = np.repeat(sizes, sizes)
    position = np.arange(count, dtype=np.int64) - np.repeat(heads, sizes)
    completed = started + (
        position // instance_array[request_shard] + 1
    ) * per_image_array[request_shard]

    index_array = (
        np.arange(count, dtype=np.int64) if indices is None else indices
    )
    if indices is not None:
        # The report holds requests in index order; trace indices are
        # already 0..N-1, open-loop indices need the argsort.
        order = np.argsort(index_array, kind="stable")
        index_array = index_array[order]
        arrivals = arrivals[order]
        dispatched = dispatched[order]
        started = started[order]
        completed = completed[order]
        request_shard = request_shard[order]
        batch_size = batch_size[order]
    usage_requests = np.bincount(
        request_shard, minlength=len(shards)
    ).tolist()
    usage_batches = np.bincount(batch_shard, minlength=len(shards)).tolist()
    total_ops = sum(
        shard.ops_per_image * usage_requests[j]
        for j, shard in enumerate(shards)
    )
    usage = [
        ShardUsage(
            name=shard.name,
            requests=usage_requests[j],
            batches=usage_batches[j],
            busy_seconds=busy_seconds[j],
            active_spans=None,
        )
        for j, shard in enumerate(shards)
    ]

    # Mirror the kernel path's post-run state so back-to-back serves
    # (and anything inspecting the pool) cannot tell the engines
    # apart.
    for j, shard in enumerate(shards):
        shard.busy_until = dispatch.busy[j]
    if weighted:
        policy._next = {DEFAULT_TENANT: batches}
    elif mode == "round-robin":
        policy._next = batches

    wall = time.perf_counter() - wall_start
    return ServingReport(
        records=RequestColumns(
            index=index_array,
            arrival=arrivals,
            dispatched=dispatched,
            started=started,
            completed=completed,
            shard=request_shard,
            shard_names=[shard.name for shard in shards],
            batch_size=batch_size,
            tenant=np.zeros(count, dtype=np.int64),
            tenant_names=[DEFAULT_TENANT],
        ),
        shards=usage,
        total_ops=total_ops,
        events_processed=equivalent,
        wall_seconds=wall,
    )
