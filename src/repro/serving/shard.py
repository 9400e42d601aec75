"""Shards: one deployed accelerator design each, pooled behind a cache.

A :class:`Shard` is one deployment of a
:class:`~repro.pipeline.session.PipelineSession` — a compiled model on
a device, executed by a :class:`~repro.runtime.batch.BatchRunner` over
the design's NI instances.  The serving layer is a *virtual-time*
simulation: a shard keeps a ``busy_until`` horizon and places each
dispatched batch after it, using the runner's simulated per-image
timing probe (which is data-independent, so one simulation per shard —
or one per *pool* of identical shards — suffices).

A :class:`ShardPool` owns N shards that share one
:class:`~repro.pipeline.cache.EvaluationCache` (and optionally one
:class:`~repro.pipeline.store.EvaluationStore` behind the parent
session):  :meth:`ShardPool.replicate` deploys N identical shards from
one session via :meth:`PipelineSession.clone`, paying a single DSE and
compilation; :meth:`ShardPool.of` builds a heterogeneous pool from
arbitrary sessions (different devices and/or different models).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.numeric import left_sum
from repro.runtime.batch import BatchRunner


class Shard:
    """One deployed design plus its virtual execution timeline."""

    def __init__(
        self,
        session,
        name: Optional[str] = None,
        probe_of: Optional["Shard"] = None,
    ):
        self.session = session
        self.name = name or (
            f"{session.network.name}@{session.device.name}"
        )
        self.runner = BatchRunner.from_session(session)
        #: Identical twin whose timing probe this shard reuses (set by
        #: :meth:`ShardPool.replicate` — clones share the compiled
        #: model and device, and the folded accelerator's timing is
        #: data-independent, so re-simulating the probe per shard would
        #: measure the same number N times).
        self._probe_of = probe_of
        #: Availability flag driven by failure scenarios
        #: (:class:`~repro.serving.events.ShardDown` /
        #: :class:`~repro.serving.events.ShardUp`); the scheduler only
        #: routes to shards that are up.
        self.up = True
        #: The virtual-time horizon up to which queued work drains.
        #: Usage *statistics* live in the server's completion-sourced
        #: accounting, not here — a dispatch-time counter would count
        #: work a failure scenario later destroys.
        self.busy_until = 0.0
        #: Latency multiplier driven by chaos scenarios
        #: (:class:`~repro.serving.events.ShardDegrade` /
        #: :class:`~repro.serving.events.ShardRestoreRate`): batches
        #: dispatched while it is > 1 take that many times their
        #: healthy service time.  The scheduling views scale by it too,
        #: so latency-aware policies route around a straggler.
        self.rate_factor = 1.0

    # -- static properties ------------------------------------------------

    @property
    def instances(self) -> int:
        return self.runner.instances

    @property
    def ops_per_image(self) -> int:
        return self.runner.ops_per_image

    def probe_seconds(self) -> float:
        """Simulated per-image latency of one instance (cached).

        Replicas seed their own runner with the twin's measurement, so
        every path through :meth:`BatchRunner.completion_offsets` sees
        the shared probe and no replica ever re-simulates it.
        """
        if self._probe_of is not None:
            self.runner._record_probe(self._probe_of.probe_seconds())
        return self.runner.probe_seconds()

    def analytical_seconds(self) -> float:
        """Eq. 12-15 per-image latency — the
        :class:`~repro.estimator.latency.NetworkEstimate` the
        shortest-expected-latency policy ranks shards by (available
        without running a single simulation)."""
        return self.session.estimate().latency

    # -- scheduling view --------------------------------------------------

    def backlog_seconds(self, now: float) -> float:
        """Queued work still draining at virtual time ``now``."""
        return max(self.busy_until - now, 0.0)

    def expected_service_seconds(self, count: int) -> float:
        """Analytical batch service time (round-robin over NI),
        scaled by the current :attr:`rate_factor` so latency-aware
        policies see a straggler as slow, not as free."""
        if count < 1:
            raise ServingError(f"batch size must be >= 1, got {count}")
        seconds = (
            math.ceil(count / self.instances) * self.analytical_seconds()
        )
        if self.rate_factor != 1.0:
            seconds *= self.rate_factor
        return seconds

    def probe_service_seconds(self, count: int) -> float:
        """:meth:`expected_service_seconds` from the simulated probe
        instead of the Eq. 12-15 estimate — the natural control
        timescale for batch-granular policies (autoscaler ticks,
        warm-up and SLO targets expressed in batch times)."""
        if count < 1:
            raise ServingError(f"batch size must be >= 1, got {count}")
        seconds = math.ceil(count / self.instances) * self.probe_seconds()
        if self.rate_factor != 1.0:
            seconds *= self.rate_factor
        return seconds

    def expected_completion(self, count: int, now: float) -> float:
        """When a batch dispatched now would finish on this shard."""
        return max(now, self.busy_until) + self.expected_service_seconds(
            count
        )

    # -- execution --------------------------------------------------------

    def place(self, count: int, at: float) -> Tuple[float, List[tuple]]:
        """Place a batch of ``count`` images on the timeline at virtual
        time ``at``; returns ``(start, rounds)``.

        The batch starts when the shard is free (``max(at,
        busy_until)``) and completes in the runner's rounds
        (:meth:`~repro.runtime.batch.BatchRunner.completion_groups`:
        image ``j`` finishes with round ``j // NI``, ``(j // NI + 1)``
        per-image latencies after ``start``), each ``(offset, images)``
        offset scaled by the current :attr:`rate_factor`; the shard is
        then busy until the last round finishes.  Batches never overlap
        — exactly the back-to-back accounting of
        :meth:`~repro.runtime.batch.BatchRunner.run`.
        """
        if count < 1:
            raise ServingError("empty batch dispatched")
        self.probe_seconds()  # seed replicas before the runner math
        rounds = self.runner.completion_groups(count)
        if self.rate_factor != 1.0:
            rounds = [
                (offset * self.rate_factor, images)
                for offset, images in rounds
            ]
        start = max(at, self.busy_until)
        self.busy_until = start + rounds[-1][0]
        return start, rounds

    def reset(self) -> None:
        """Clear the virtual timeline and mark the shard available at
        full speed (timing probe stays warm)."""
        self.up = True
        self.busy_until = 0.0
        self.rate_factor = 1.0

    def fail(self) -> None:
        """Take the shard down: the timeline is wiped (in-flight work
        is lost — the server re-queues it) and the scheduler stops
        routing here until :meth:`restore`.  A kill also clears any
        degradation: the replacement a restore models is a fresh,
        healthy deployment."""
        self.reset()
        self.up = False

    def restore(self) -> None:
        """Bring a failed shard back with a fresh timeline."""
        self.up = True

    def degrade(self, factor: float) -> None:
        """Slow the shard by ``factor`` (>= 1) until
        :meth:`restore_rate`; the shard stays up and keeps its queue."""
        if not math.isfinite(factor) or factor < 1.0:
            raise ServingError(
                f"degrade factor must be finite and >= 1, got {factor}"
            )
        self.rate_factor = factor

    def restore_rate(self) -> None:
        """Return a degraded shard to its healthy service time."""
        self.rate_factor = 1.0

    def describe(self) -> str:
        return (
            f"{self.name}: {self.session.cfg.describe()} "
            f"({self.ops_per_image / 1e9:.2f} GOP/image)"
        )


class ShardPool:
    """N shards sharing one evaluation cache (and optional store)."""

    def __init__(self, shards: Sequence[Shard]):
        if not shards:
            raise ServingError("a shard pool needs at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate shard names: {names}")
        self.shards = list(shards)

    @classmethod
    def replicate(cls, session, count: int) -> "ShardPool":
        """``count`` identical shards from one session.

        The session's compiled model is materialised once, every clone
        shares it (plus the DSE result, mapping, estimate, parameters,
        cache and calibration), and replicas reuse the first shard's
        timing probe — so an N-shard pool costs one DSE, one
        compilation and one probe simulation.
        """
        if count < 1:
            raise ServingError(f"shard count must be >= 1, got {count}")
        session.compiled()  # materialise before cloning so shards share
        shards = []
        for index in range(count):
            shard_session = session if index == 0 else session.clone()
            shards.append(
                Shard(
                    shard_session,
                    name=f"shard{index}",
                    probe_of=shards[0] if index else None,
                )
            )
        return cls(shards)

    @classmethod
    def of(cls, *sessions, names: Optional[Sequence[str]] = None
           ) -> "ShardPool":
        """A heterogeneous pool — one shard per session.

        Sessions may target different devices and/or models; pass one
        shared :class:`~repro.pipeline.cache.EvaluationCache` to the
        sessions to share layer estimates across them.
        """
        if names is not None and len(names) != len(sessions):
            raise ServingError(
                f"{len(names)} names for {len(sessions)} sessions"
            )
        return cls([
            Shard(session, name=names[index] if names else f"shard{index}")
            for index, session in enumerate(sessions)
        ])

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    @property
    def total_instances(self) -> int:
        return sum(shard.instances for shard in self.shards)

    def capacity_images_per_second(self) -> float:
        """Analytical aggregate service rate (images/s) of the pool."""
        return left_sum([
            shard.instances / shard.analytical_seconds()
            for shard in self.shards
        ])

    def simulated_images_per_second(self) -> float:
        """Probe-measured aggregate service rate (images/s).

        :meth:`capacity_images_per_second` is the Eq. 12-15 *estimate*;
        this is the same quantity from each shard's simulated timing
        probe.  Use it when an overload factor must mean what it says
        in simulated time (the estimate can be several times optimistic
        on quantised configs, turning "1.2x capacity" traffic into a
        de-facto closed batch)."""
        return left_sum([
            shard.instances / shard.probe_seconds()
            for shard in self.shards
        ])

    def reset(self) -> None:
        for shard in self.shards:
            shard.reset()

    def close(self) -> int:
        """Flush every store-backed session; returns entries persisted.

        Clones created by :meth:`replicate` carry no store, so this
        flushes each backing store exactly once (via the parent).
        """
        return sum(shard.session.close() for shard in self.shards)

    def describe(self) -> str:
        return "\n".join(shard.describe() for shard in self.shards)
