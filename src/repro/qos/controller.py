"""The periodic QoS feedback controller.

This is the first *closed-loop* layer in the stack: every prior subsystem
records and reports, this one observes and acts.  A single controller per
scenario ticks on :meth:`Environment.call_later` (the zero-allocation
callback path), and each tick:

1. drains every tenant's streaming telemetry (:meth:`TenantTelemetry
   .snapshot`) — walking tenants in sorted-name order so the tick is
   deterministic,
2. judges each tracked SLO (latency ceilings against the recent-peak
   estimator, throughput floors against interval goodput) and bills the
   interval to the attainment books,
3. hands the per-tenant views to the policy and applies the actions it
   returns — window resizes through :meth:`repro.core.initiator
   .OpfInitiator.apply_window` (clamped, drain-epoch-safe) and admission
   rates through the tenant's token bucket — logging every change in the
   flight recorder.

The controller is armed by the scenario after the connection handshakes and
stopped before the quiesce phase; a stopped controller's pending tick fires
once more as a no-op and does not reschedule, so the event queue always
drains.  Everything here is driven by completions and the simulation clock:
two seeded runs produce bit-identical tick sequences and action logs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.flags import Priority
from ..errors import ConfigError
from .policy import ACTION_RATE, ACTION_WINDOW, QosAction, QosPolicy, TenantView
from .report import QosReport
from .slo import TenantSlo
from .telemetry import TenantTelemetry
from .throttle import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.initiator import NvmeOfInitiator
    from ..simcore.engine import Environment

#: Completions a tenant must have produced before its SLO is tracked —
#: handshakes and cold estimators must not be billed as breaches.
WARMUP_OPS = 8

#: Default control interval.  Two hundred microseconds spans several drain
#: round trips at the paper's operating points: long enough for a meaningful
#: throughput sample, short enough to catch a burst within a few ticks.
DEFAULT_INTERVAL_US = 200.0


class TenantHandle:
    """The controller's grip on one tenant: telemetry in, actuators out."""

    def __init__(
        self,
        name: str,
        priority: Priority,
        initiator: "NvmeOfInitiator",
        telemetry: TenantTelemetry,
        throttle: TokenBucket,
        slo: Optional[TenantSlo],
    ) -> None:
        self.name = name
        self.priority = priority
        self.initiator = initiator
        self.telemetry = telemetry
        self.throttle = throttle
        self.slo = slo

    @property
    def window(self) -> Optional[int]:
        """Current coalescing window (None for non-oPF runtimes)."""
        return getattr(self.initiator, "window_size", None)

    @property
    def queue_depth(self) -> int:
        return self.initiator.queue_depth

    @property
    def rate_mbps(self) -> Optional[float]:
        return self.throttle.rate_mbps

    def set_window(self, window: int) -> Tuple[int, int]:
        """Resize the oPF window; returns (old, applied) after clamping."""
        old = self.window
        if old is None:
            raise ConfigError(
                f"tenant {self.name!r} runs a window-less protocol; "
                f"window actions require nvme-opf"
            )
        applied = self.initiator.apply_window(window)
        return old, applied

    def set_rate(self, rate_mbps: Optional[float], now: float) -> None:
        self.throttle.set_rate_mbps(rate_mbps, now)


class QosController:
    """Periodic feedback loop over one scenario's tenants."""

    def __init__(
        self,
        env: "Environment",
        policy: QosPolicy,
        handles: List[TenantHandle],
        report: QosReport,
        interval_us: float = DEFAULT_INTERVAL_US,
    ) -> None:
        if interval_us <= 0:
            raise ConfigError("controller interval must be positive")
        if not handles:
            raise ConfigError("a QoS controller needs at least one tenant")
        self.env = env
        self.policy = policy
        self.handles = sorted(handles, key=lambda h: h.name)
        self._by_name = {h.name: h for h in self.handles}
        self.report = report
        self.interval_us = interval_us
        self._running = False

    def handle(self, name: str) -> TenantHandle:
        """The controller's handle for one tenant (scenario-program hook)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(
                f"no QoS handle for tenant {name!r}; known: {sorted(self._by_name)}"
            ) from None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise ConfigError("controller already started")
        self._running = True
        self.env.call_later(self.interval_us, self._tick)

    def stop(self) -> None:
        """Freeze the loop and seal the report (idempotent)."""
        if not self._running:
            return
        self._running = False
        now = self.env.now
        self.report.close(now)
        for handle in self.handles:
            window = handle.window
            if window is not None:
                self.report.final_windows[handle.name] = window
            self.report.final_rates[handle.name] = handle.rate_mbps
            self.report.throttle_delays += handle.throttle.delays
            self.report.throttle_wait_us += handle.throttle.waited_us

    # -- the loop --------------------------------------------------------------
    def _tick(self, _arg: None = None) -> None:
        if not self._running:
            return  # stopped: the pending tick dies without rescheduling
        now = self.env.now
        self.report.ticks += 1
        views: List[TenantView] = []
        for handle in self.handles:
            sample = handle.telemetry.snapshot(now, self.interval_us)
            violated = self._judge(handle, sample.smoothed_mbps, sample.recent_peak_us)
            if handle.slo is None:
                # A cleared SLO stops billing: seal any open violation
                # interval where the last tracked tick ended.
                self.report.untrack(handle.name)
            elif handle.telemetry.total_ops >= WARMUP_OPS:
                self.report.track(handle.name, now, self.interval_us, violated)
            views.append(
                TenantView(
                    name=handle.name,
                    priority=handle.priority,
                    sample=sample,
                    slo=handle.slo,
                    violated=violated,
                    window=handle.window,
                    rate_mbps=handle.rate_mbps,
                    queue_depth=handle.queue_depth,
                )
            )
        for action in self.policy.decide(views):
            self._apply(action, now)
        self.env.call_later(self.interval_us, self._tick)

    def _judge(
        self,
        handle: TenantHandle,
        throughput_mbps: float,
        recent_peak_us: Optional[float],
    ) -> bool:
        """Is the tenant's SLO breached right now?

        Latency ceilings are judged against the recent-peak estimator (the
        fast EWMA over per-tick max latency): the cumulative P² p99 is the
        *reported* tail but reacts too slowly to drive control.  Throughput
        floors are judged against the sliding-window goodput — a single
        interval swings between 0 and several times the true rate under
        coalescing, which would flap the verdict every tick.
        """
        slo = handle.slo
        if slo is None or handle.telemetry.total_ops < WARMUP_OPS:
            return False
        if slo.p99_ceiling_us is not None and recent_peak_us is not None:
            if recent_peak_us > slo.p99_ceiling_us:
                return True
        if slo.throughput_floor_mbps is not None:
            if throughput_mbps < slo.throughput_floor_mbps:
                return True
        return False

    def snapshot_state(self) -> "dict[str, dict]":
        """Read-only per-tenant control-plane view (service telemetry).

        Walks tenants in the controller's sorted order, combining each
        telemetry tap's :meth:`~repro.qos.telemetry.TenantTelemetry.peek`
        with the actuator positions and a live SLO verdict judged with the
        same rule as the control loop (:meth:`_judge`).  Nothing here drains
        an interval, moves an estimator, or schedules an event — exporting a
        snapshot between ticks cannot change what the next tick decides.
        """
        out: "dict[str, dict]" = {}
        for handle in self.handles:
            view = handle.telemetry.peek()
            violated = self._judge(
                handle, view["smoothed_mbps"], view["recent_peak_us"]
            )
            slo = handle.slo
            view.update(
                window=handle.window,
                rate_mbps=handle.rate_mbps,
                slo=(
                    {
                        "p99_ceiling_us": slo.p99_ceiling_us,
                        "throughput_floor_mbps": slo.throughput_floor_mbps,
                    }
                    if slo is not None
                    else None
                ),
                slo_violated=violated,
            )
            out[handle.name] = view
        return out

    def _apply(self, action: QosAction, now: float) -> None:
        handle = self._by_name.get(action.tenant)
        if handle is None:
            raise ConfigError(f"policy named unknown tenant {action.tenant!r}")
        if action.kind == ACTION_WINDOW:
            old, applied = handle.set_window(int(action.value))
            if applied != old:
                self.report.log_action(now, handle.name, ACTION_WINDOW, old, applied)
        elif action.kind == ACTION_RATE:
            old = handle.rate_mbps
            handle.set_rate(action.value, now)
            if action.value != old:
                self.report.log_action(now, handle.name, ACTION_RATE, old, action.value)
        else:
            raise ConfigError(f"unknown action kind {action.kind!r}")
