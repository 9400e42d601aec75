"""Dynamic batching: coalesce queued requests under a batch/wait budget.

The batcher is an event handler on the
:class:`~repro.serving.events.EventKernel`: it consumes
:class:`~repro.serving.events.Arrival` events into a queue and emits
dispatchable batches under two triggers:

* **size** — the queue reached ``max_batch``: dispatch immediately (the
  batch is full, waiting longer cannot help anyone);
* **wait** — the oldest queued request has waited ``max_wait_s``: a
  :class:`~repro.serving.events.Flush` wakeup scheduled at that
  deadline dispatches whatever is queued *by then* (a later request
  never time-travels into an earlier batch; a stale wakeup — its head
  already flushed by size — is ignored via its token).

``max_wait_s=0`` with open-loop traffic degenerates to per-request
dispatch; ``max_wait_s=0`` with simultaneous arrivals still forms full
batches, because they hit the size trigger.  At end of stream the
remainder drains at each head's promised deadline — the pending
``Flush`` wakeups simply fire once no arrivals precede them, so the
batcher never peeks at the future to learn that traffic stopped.

Requests re-queued after a shard failure enter with their *enqueue*
time as the wait-deadline base (their original ``arrival`` is kept for
latency accounting); for first-delivery arrivals the two coincide, so
open-loop behaviour is unchanged from the pre-kernel batcher — flush
for flush, byte for byte (:meth:`DynamicBatcher.batches` is the same
logic run on a private kernel).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import ServingError
from repro.serving.events import Arrival, EventKernel, Flush
from repro.serving.tenancy import TenantSet
from repro.serving.traffic import OpenLoopSource, Request, RequestStream

#: A dispatch callback: ``(kernel, flush_time, batch)``.
DispatchFn = Callable[[EventKernel, float, List[Request]], None]

#: An admission callback: ``(kernel, request) -> admitted?``.  Rejected
#: requests never enter a queue — the callback owns the accounting and
#: the source notification.
AdmitFn = Callable[[EventKernel, Request], bool]

@dataclass(frozen=True)
class BatcherOptions:
    """The two knobs of the latency-vs-throughput trade.

    ``max_batch`` bounds how much work one flush hands a shard (larger
    batches amortise nothing here — instances are batch-parallel — but
    they do delay early requests behind late ones); ``max_wait_s``
    bounds how long the *oldest* request may wait for company.

    With tenants the batcher keeps one queue per batch tier, so an
    interactive request never waits out a bulk tenant's batch assembly
    — tenants of *incompatible tiers are never mixed* in one batch.  A
    trivial tenant set has one tier, hence one queue.
    """

    max_batch: int = 8
    max_wait_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_s < 0:
            raise ServingError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )


class _BatcherFeed:
    """Per-run batcher state: the queue and the wait-deadline wakeup.

    Each scheduled :class:`Flush` carries a token; any flush (size or
    wait) bumps the token, so a wakeup whose head has already left the
    queue is recognised as stale and ignored.
    """

    def __init__(self, options: BatcherOptions, dispatch: DispatchFn):
        self.options = options
        self.dispatch = dispatch
        #: (queued_at, request) — queued_at == arrival for first
        #: deliveries, the re-queue instant for failure re-deliveries.
        self.queue: Deque[Tuple[float, Request]] = deque()
        self.token = 0

    def on_arrival(self, kernel: EventKernel, event: Arrival) -> None:
        self.queue.append((kernel.now, event.request))
        if len(self.queue) >= self.options.max_batch:
            self._flush(kernel)
        elif len(self.queue) == 1:
            self._schedule_wakeup(kernel)

    def on_flush(self, kernel: EventKernel, event: Flush) -> None:
        if event.token != self.token or not self.queue:
            return  # stale wakeup: its head already flushed by size
        self._flush(kernel)

    def _flush(self, kernel: EventKernel) -> None:
        batch: List[Request] = []
        while (
            self.queue
            and len(batch) < self.options.max_batch
            and self.queue[0][0] <= kernel.now
        ):
            batch.append(self.queue.popleft()[1])
        self.token += 1  # any pending wakeup is now stale
        if self.queue:
            self._schedule_wakeup(kernel)
        if batch:
            self.dispatch(kernel, kernel.now, batch)

    def _schedule_wakeup(self, kernel: EventKernel) -> None:
        deadline = self.queue[0][0] + self.options.max_wait_s
        kernel.push(Flush(time=deadline, token=self.token))


class _TenantBatcherFeed:
    """Per-run batcher state with one queue per batch tier plus an
    optional admission gate.

    The per-queue flush logic is exactly :class:`_BatcherFeed`'s — size
    trigger inline, wait trigger via a keyed :class:`Flush` wakeup whose
    token invalidates stale firings — applied independently per tier,
    so a bulk tenant's half-full batch never delays an interactive
    request and tenants of incompatible tiers are never mixed.
    Rejected (inadmissible) requests never enter any queue.
    """

    def __init__(
        self,
        options: BatcherOptions,
        dispatch: DispatchFn,
        tenants: TenantSet,
        admit: Optional[AdmitFn] = None,
    ):
        self.options = options
        self.dispatch = dispatch
        self.tenants = tenants
        self.admit = admit
        self.queues: Dict[str, Deque[Tuple[float, Request]]] = {}
        self.tokens: Dict[str, int] = {}

    def _key(self, request: Request) -> str:
        return self.tenants.tier_of(request.tenant)

    def on_arrival(self, kernel: EventKernel, event: Arrival) -> None:
        request = event.request
        if self.admit is not None and not self.admit(kernel, request):
            return  # rejected at admission; the gate did the accounting
        key = self._key(request)
        queue = self.queues.setdefault(key, deque())
        self.tokens.setdefault(key, 0)
        queue.append((kernel.now, request))
        if len(queue) >= self.options.max_batch:
            self._flush(kernel, key)
        elif len(queue) == 1:
            self._schedule_wakeup(kernel, key)

    def on_flush(self, kernel: EventKernel, event: Flush) -> None:
        queue = self.queues.get(event.key)
        if (
            queue is None
            or event.token != self.tokens[event.key]
            or not queue
        ):
            return  # stale wakeup: its head already flushed by size
        self._flush(kernel, event.key)

    def _flush(self, kernel: EventKernel, key: str) -> None:
        queue = self.queues[key]
        batch: List[Request] = []
        while (
            queue
            and len(batch) < self.options.max_batch
            and queue[0][0] <= kernel.now
        ):
            batch.append(queue.popleft()[1])
        self.tokens[key] += 1  # any pending wakeup for this key is stale
        if queue:
            self._schedule_wakeup(kernel, key)
        if batch:
            self.dispatch(kernel, kernel.now, batch)

    def _schedule_wakeup(self, kernel: EventKernel, key: str) -> None:
        deadline = self.queues[key][0][0] + self.options.max_wait_s
        kernel.push(Flush(time=deadline, token=self.tokens[key], key=key))


class DynamicBatcher:
    """Coalesces a request stream into dispatchable batches."""

    def __init__(self, options: BatcherOptions = None):
        self.options = options or BatcherOptions()

    def attach(
        self,
        kernel: EventKernel,
        dispatch: DispatchFn,
        tenants: Optional[TenantSet] = None,
        admit: Optional[AdmitFn] = None,
    ):
        """Register this batcher's handlers on ``kernel``.

        Returns the per-run feed (fresh state — one ``attach`` per
        run); ``dispatch`` is called with every flushed batch.  A
        non-trivial ``tenants`` set or an ``admit`` gate selects the
        tenant-aware feed; otherwise the single-queue feed keeps the
        pre-tenancy event trace byte for byte.
        """
        tiered = tenants is not None and not tenants.trivial
        if tiered or admit is not None:
            feed = _TenantBatcherFeed(
                self.options,
                dispatch,
                tenants or TenantSet.default(),
                admit,
            )
        else:
            feed = _BatcherFeed(self.options, dispatch)
        kernel.subscribe(Arrival, feed.on_arrival)
        kernel.subscribe(Flush, feed.on_flush)
        return feed

    def batches(
        self, requests: Iterable[Request]
    ) -> Iterator[Tuple[float, List[Request]]]:
        """Yield ``(flush_time, batch)`` in nondecreasing flush order.

        Standalone view of the batching logic: runs the arrival stream
        through a private kernel with no shards attached — exactly the
        event sequence a full serve run would see.
        """
        stream = RequestStream.of(requests)
        if not len(stream):
            return iter(())
        kernel = EventKernel()
        flushed: List[Tuple[float, List[Request]]] = []
        self.attach(
            kernel, lambda _k, at, batch: flushed.append((at, batch))
        )
        OpenLoopSource(stream).prime(kernel)
        kernel.run()
        return iter(flushed)
