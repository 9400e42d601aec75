"""SLO-aware control: shed or reroute when the observed tail drifts.

A latency SLO ("p99 under X ms") cannot be enforced by open-loop
accounting — the controller has to *watch* the system it steers.  On
the event kernel that is natural: :class:`SloController` subscribes to
:class:`~repro.serving.events.BatchDone` events to maintain a sliding
window of observed end-to-end latencies, and re-evaluates a windowed
nearest-rank p99 estimate on periodic
:class:`~repro.serving.events.PolicyTick` heartbeats.  While the
estimate exceeds the target the controller is *breached* and the server
applies the configured action to every batch it dispatches:

* ``shed`` — drop the batch (clients are notified so closed loops do
  not stall); counted per request in ``ServingReport.shed``;
* ``reroute`` — override the scheduling policy with the shard whose
  expected completion (Eq. 12-15 service estimate + measured backlog)
  is earliest; counted in ``ServingReport.rerouted`` when the override
  actually changed the pick.

Control state only changes on ticks — decisions are piecewise-constant
at the controller's cadence, like a real control loop, and the tick
chain ends itself once no other events remain, so a run always
terminates.

The controller never inspects scenario state: a degraded shard
(:class:`~repro.serving.events.ShardDegrade`) simply surfaces as
slower observed latencies and a later expected completion, so shed and
reroute react to chaos scenarios with no extra wiring —
:mod:`repro.serving.sweep` measures exactly this, reporting SLO
attainment per scenario across seeded grids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Optional

from repro.errors import ServingError
from repro.serving.events import BatchDone, EventKernel, PolicyTick
from repro.serving.metrics import percentile
from repro.serving.tenancy import TenantSet

#: Actions understood by :class:`SloOptions` and the CLI.
SLO_ACTIONS = ("shed", "reroute")


@dataclass(frozen=True)
class SloOptions:
    """The SLO contract and the control loop's knobs.

    ``p99_target_s`` is the latency objective; ``window`` bounds how
    many recent completions the p99 estimate sees (a long window reacts
    slowly, a short one flaps); ``min_samples`` suppresses decisions
    before the window holds enough evidence; ``tick_s`` is the control
    period (default: half the target — Nyquist for the quantity being
    controlled).
    """

    p99_target_s: float
    action: str = "shed"
    window: int = 64
    min_samples: int = 8
    tick_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p99_target_s <= 0:
            raise ServingError(
                f"p99 target must be positive, got {self.p99_target_s}"
            )
        if self.action not in SLO_ACTIONS:
            raise ServingError(
                f"unknown SLO action {self.action!r}; "
                f"expected one of {SLO_ACTIONS}"
            )
        if self.min_samples < 1:
            raise ServingError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.window < self.min_samples:
            raise ServingError(
                f"window ({self.window}) must hold at least min_samples "
                f"({self.min_samples}) completions"
            )
        if self.tick_s is not None and self.tick_s <= 0:
            raise ServingError(
                f"tick_s must be positive, got {self.tick_s}"
            )

    @property
    def effective_tick_s(self) -> float:
        return self.tick_s if self.tick_s is not None else (
            self.p99_target_s / 2.0
        )


class SloController:
    """Windowed-p99 feedback controller as a kernel event handler.

    Generalised over tenants: next to the global window the controller
    keeps one observation window *per tenant that declares its own p99
    target* (see :class:`~repro.serving.tenancy.TenantSpec`), all
    re-evaluated on the same tick chain.  A breached tenant's
    dispatches are shed individually — the batch tier degrades while
    the interactive tier keeps its SLO — independent of the global
    target's configured action.  With no tenant targets the controller
    is exactly the pre-tenancy one, tick for tick.
    """

    def __init__(
        self,
        options: Optional[SloOptions],
        tenants: Optional[TenantSet] = None,
    ):
        self.options = options
        self.tenant_targets: Dict[str, float] = (
            tenants.slo_targets() if tenants is not None else {}
        )
        if options is None and not self.tenant_targets:
            raise ServingError(
                "an SLO controller needs a global target or at least "
                "one per-tenant target"
            )
        window = options.window if options is not None else 64
        self.min_samples = options.min_samples if options is not None else 8
        self._window: Deque[float] = deque(maxlen=window)
        self._tenant_windows: Dict[str, Deque[float]] = {
            name: deque(maxlen=window) for name in self.tenant_targets
        }
        self.breached = False
        self.tenant_breached: Dict[str, bool] = {
            name: False for name in self.tenant_targets
        }
        self.ticks = 0
        self.breach_ticks = 0
        self.tenant_breach_ticks: Dict[str, int] = {
            name: 0 for name in self.tenant_targets
        }

    #: ``PolicyTick.owner`` tag of this controller's heartbeats; other
    #: controllers' ticks (e.g. the autoscaler's) are ignored.
    TICK_OWNER = "slo"

    @property
    def effective_tick_s(self) -> float:
        """Control period: from the global options, or Nyquist for the
        tightest per-tenant target when no global SLO is set."""
        if self.options is not None:
            return self.options.effective_tick_s
        return min(self.tenant_targets.values()) / 2.0

    def attach(self, kernel: EventKernel) -> None:
        """Subscribe the observation + heartbeat handlers and start the
        tick chain."""
        kernel.subscribe(BatchDone, self._on_batch_done)
        kernel.subscribe(PolicyTick, self._on_tick)
        kernel.push(
            PolicyTick(
                time=kernel.now + self.effective_tick_s,
                owner=self.TICK_OWNER,
            )
        )

    # -- observation ------------------------------------------------------

    def _on_batch_done(self, kernel: EventKernel, event: BatchDone) -> None:
        # A round's requests all complete at the event's instant.
        done = event.time
        for request in event.requests:
            latency = done - request.arrival
            self._window.append(latency)
            window = self._tenant_windows.get(request.tenant)
            if window is not None:
                window.append(latency)

    def p99_estimate(self) -> float:
        """Nearest-rank p99 over the observation window (NaN when
        empty)."""
        if not self._window:
            return float("nan")
        return percentile(list(self._window), 99)

    def tenant_p99_estimate(self, tenant: str) -> float:
        """Nearest-rank p99 over one tenant's window (NaN when empty)."""
        window = self._tenant_windows.get(tenant)
        if not window:
            return float("nan")
        return percentile(list(window), 99)

    # -- control ----------------------------------------------------------

    def _on_tick(self, kernel: EventKernel, event: PolicyTick) -> None:
        if event.owner != self.TICK_OWNER:
            return  # another controller's heartbeat
        self.ticks += 1
        if (
            self.options is not None
            and len(self._window) >= self.min_samples
        ):
            self.breached = (
                self.p99_estimate() > self.options.p99_target_s
            )
        else:
            self.breached = False
        if self.breached:
            self.breach_ticks += 1
        for name, target in self.tenant_targets.items():
            window = self._tenant_windows[name]
            breached = (
                len(window) >= self.min_samples
                and self.tenant_p99_estimate(name) > target
            )
            self.tenant_breached[name] = breached
            if breached:
                self.tenant_breach_ticks[name] += 1
        # Keep ticking only while the system still has non-tick events
        # in flight — the chain ends itself when the run drains.
        if kernel.pending() - kernel.pending(PolicyTick) > 0:
            kernel.push(
                PolicyTick(
                    time=kernel.now + self.effective_tick_s,
                    owner=self.TICK_OWNER,
                )
            )

    def should_shed(self) -> bool:
        return (
            self.breached
            and self.options is not None
            and self.options.action == "shed"
        )

    def should_reroute(self) -> bool:
        return (
            self.breached
            and self.options is not None
            and self.options.action == "reroute"
        )

    def breached_tenants(self) -> FrozenSet[str]:
        """The tenants whose own p99 target is currently breached —
        their dispatches are shed while the rest of the batch
        proceeds."""
        if not self.tenant_targets:
            return frozenset()
        return frozenset(
            name for name, breached in self.tenant_breached.items()
            if breached
        )

    def describe(self) -> str:
        p99 = self.p99_estimate()
        estimate = f"{p99 * 1e3:.2f} ms" if p99 == p99 else "n/a"
        if self.options is not None:
            lines = [
                f"slo: p99 target "
                f"{self.options.p99_target_s * 1e3:.2f} ms, "
                f"action {self.options.action}, "
                f"windowed estimate {estimate}, "
                f"{self.breach_ticks}/{self.ticks} ticks breached"
            ]
        else:
            lines = [
                f"slo: per-tenant targets only, windowed estimate "
                f"{estimate}, {self.ticks} ticks"
            ]
        for name, target in self.tenant_targets.items():
            tenant_p99 = self.tenant_p99_estimate(name)
            tenant_estimate = (
                f"{tenant_p99 * 1e3:.2f} ms"
                if tenant_p99 == tenant_p99 else "n/a"
            )
            lines.append(
                f"  tenant {name}: target {target * 1e3:.2f} ms, "
                f"estimate {tenant_estimate}, "
                f"{self.tenant_breach_ticks[name]}/{self.ticks} "
                "ticks breached"
            )
        return "\n".join(lines)
