"""Streaming per-tenant telemetry taps.

The control plane must observe every tenant without buffering samples: a
production-scale run completes millions of requests, and a controller that
retains them all would dominate memory long before the workload does.  Each
:class:`TenantTelemetry` therefore keeps only O(1) state per tenant:

* an EWMA of completion latency (smoothed central tendency),
* a P² streaming p99 estimator (:class:`~repro.metrics.percentile.P2Quantile`,
  five markers, no sample retention) for the whole-run tail,
* a fast EWMA over per-tick *maximum* latency (``recent_peak_us``) — the
  breach detector: the cumulative P² estimate moves too slowly to notice a
  burst that starts mid-run, while the per-interval max reacts within one
  controller tick, and
* per-interval counters (ops/goodput bytes/max/sum) that the controller
  drains every tick via :meth:`TenantTelemetry.snapshot`.

Taps are fed from the initiator completion paths: the baseline runtime
(:meth:`repro.nvmeof.initiator.NvmeOfInitiator._retire`) covers individual
completions and the oPF runtime's coalesced queue walk
(:meth:`repro.core.initiator.OpfInitiator._handle_response`) funnels every
retired window member through the same hook, so a single tap observes both
protocols.  Observing costs no simulated time — telemetry never perturbs
the event schedule, only the controller's *actions* do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..metrics.percentile import P2Quantile
from ..ssd.latency import OP_FLUSH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.qpair import IoRequest

#: Samples the P² estimator needs before its tail estimate is trusted.
MIN_TAIL_SAMPLES = 32

#: Per-tenant estimator settings: the EWMA weights of the mean latency and
#: of the per-interval peak (the breach detector), and the streaming tail.
LATENCY_ALPHA = 0.2
PEAK_ALPHA = 0.5
TAIL_QUANTILE = 0.99

#: Controller ticks in the sliding goodput window (``smoothed_mbps``).
#: Coalescing retires ops in window-sized bursts, so a single interval's
#: rate swings between 0 and several times the true rate; eight intervals
#: span multiple bursts at any practical window/rate combination.
RATE_WINDOW_TICKS = 8


class Ewma:
    """Exponentially weighted moving average; ``None`` until the first update."""

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, x: float) -> float:
        if self.value is None:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        return self.value


@dataclass(frozen=True)
class TelemetrySample:
    """One controller tick's view of one tenant."""

    tenant: str
    at_us: float
    interval_us: float
    #: Completions observed during this tick's interval.
    ops: int
    #: Goodput bytes (failed completions move no useful data).
    bytes_moved: int
    #: Interval goodput in MB/s (bytes/us is numerically MB/s).
    throughput_mbps: float
    #: Goodput over the last RATE_WINDOW_TICKS intervals — the de-burst
    #: rate signal policies should compare against admission rates.
    smoothed_mbps: float
    #: Worst completion latency seen this interval (0.0 when idle).
    latency_max_us: float
    #: Mean completion latency this interval (None when idle).
    latency_mean_us: Optional[float]
    #: Smoothed latency across the whole run so far.
    ewma_latency_us: Optional[float]
    #: Fast EWMA of per-interval max latency — the breach detector.
    recent_peak_us: Optional[float]
    #: Whole-run streaming p99 (None until MIN_TAIL_SAMPLES observed).
    p99_us: Optional[float]
    #: Lifetime totals.
    total_ops: int
    total_failed: int


class TenantTelemetry:
    """O(1) streaming statistics for one tenant."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latency_ewma = Ewma(LATENCY_ALPHA)
        self.peak_ewma = Ewma(PEAK_ALPHA)
        self.tail = P2Quantile(TAIL_QUANTILE)
        self._total_ops = 0
        self._total_bytes = 0
        self._total_failed = 0
        # Interval accumulators, drained by snapshot().
        self._iops = 0
        self._ibytes = 0
        self._imax = 0.0
        self._isum = 0.0
        # Batched-update buffer: completions land here as raw
        # (latency, nbytes, failed) tuples and are folded through the
        # EWMA / P² estimators in arrival order by _flush() — once per
        # controller tick (snapshot) instead of once per completion.
        # Nothing reads estimator state mid-interval, so the flushed fold
        # is bit-identical to eager per-completion updates.
        self._pending: List[Tuple[float, int, bool]] = []
        # Sliding (bytes, interval_us) ring for the de-burst rate signal.
        self._rate_ring: Deque[Tuple[int, float]] = deque(maxlen=RATE_WINDOW_TICKS)

    # -- feeding ---------------------------------------------------------------
    def observe(self, latency_us: float, nbytes: int, failed: bool = False) -> None:
        """Record one completion (failures count, but move no goodput bytes).

        The hot-path cost is one tuple append; estimator updates happen at
        the next read (:meth:`snapshot`, :attr:`p99_estimate`, the totals).
        """
        self._pending.append((latency_us, nbytes, failed))

    def _flush(self) -> None:
        """Fold buffered completions through the estimators in order."""
        pending = self._pending
        if not pending:
            return
        latency_ewma = self.latency_ewma
        tail_add = self.tail.add
        imax = self._imax
        isum = self._isum
        for latency_us, nbytes, failed in pending:
            isum += latency_us
            if latency_us > imax:
                imax = latency_us
            latency_ewma.update(latency_us)
            tail_add(latency_us)
            if failed:
                self._total_failed += 1
            else:
                self._total_bytes += nbytes
                self._ibytes += nbytes
        n = len(pending)
        self._total_ops += n
        self._iops += n
        self._imax = imax
        self._isum = isum
        pending.clear()

    @property
    def total_ops(self) -> int:
        self._flush()
        return self._total_ops

    @property
    def total_bytes(self) -> int:
        self._flush()
        return self._total_bytes

    @property
    def total_failed(self) -> int:
        self._flush()
        return self._total_failed

    def observe_request(self, request: "IoRequest") -> None:
        """Tap entry point for initiator completion paths.

        Drain markers are protocol overhead, not tenant work — counting
        their flush latency would poison the SLO signal.
        """
        if request.op == OP_FLUSH:
            return
        self.observe(
            request.latency,
            request.nbytes,
            failed=request.status not in (None, 0),
        )

    # -- draining --------------------------------------------------------------
    @property
    def p99_estimate(self) -> Optional[float]:
        self._flush()
        if self.tail.count < MIN_TAIL_SAMPLES:
            return None
        return self.tail.value

    def peek(self) -> Dict[str, object]:
        """A read-only view of the streaming estimators (service telemetry).

        Unlike :meth:`snapshot` this drains nothing: interval accumulators,
        the rate ring, and the peak EWMA are untouched, so interleaving
        ``peek`` calls between controller ticks cannot perturb the control
        loop.  The only state change is the pending-completion flush, whose
        fold is order-preserving and therefore invisible to the next
        estimator read.  The smoothed rate covers only *closed* intervals
        (the ring); the current partial interval is reported via ``ops`` so
        a dashboard can show liveness without a rate claim.
        """
        self._flush()
        ring_us = sum(us for _b, us in self._rate_ring)
        ring_bytes = sum(b for b, _us in self._rate_ring)
        return {
            "total_ops": self._total_ops,
            "total_failed": self._total_failed,
            "total_bytes": self._total_bytes,
            "interval_ops": self._iops,
            "ewma_latency_us": self.latency_ewma.value,
            "recent_peak_us": self.peak_ewma.value,
            "p99_us": self.tail.value if self.tail.count >= MIN_TAIL_SAMPLES else None,
            "smoothed_mbps": ring_bytes / ring_us if ring_us > 0 else 0.0,
        }

    def snapshot(self, now: float, interval_us: float) -> TelemetrySample:
        """Close the current interval and return its sample.

        The per-interval-max EWMA advances only on intervals that saw
        completions: an idle tick carries no latency information and must
        not decay the breach detector toward zero.
        """
        self._flush()
        ops, nbytes, imax, isum = self._iops, self._ibytes, self._imax, self._isum
        self._iops = 0
        self._ibytes = 0
        self._imax = 0.0
        self._isum = 0.0
        if ops:
            self.peak_ewma.update(imax)
        # Idle intervals DO enter the rate ring: a coalescing gap is real
        # elapsed time at zero goodput, and skipping it would overstate the
        # rate of a heavily paced tenant by the duty cycle.
        self._rate_ring.append((nbytes, interval_us))
        ring_us = sum(us for _b, us in self._rate_ring)
        ring_bytes = sum(b for b, _us in self._rate_ring)
        return TelemetrySample(
            tenant=self.name,
            at_us=now,
            interval_us=interval_us,
            ops=ops,
            bytes_moved=nbytes,
            throughput_mbps=nbytes / interval_us if interval_us > 0 else 0.0,
            smoothed_mbps=ring_bytes / ring_us if ring_us > 0 else 0.0,
            latency_max_us=imax,
            latency_mean_us=isum / ops if ops else None,
            ewma_latency_us=self.latency_ewma.value,
            recent_peak_us=self.peak_ewma.value,
            p99_us=self.tail.value if self.tail.count >= MIN_TAIL_SAMPLES else None,
            total_ops=self._total_ops,
            total_failed=self._total_failed,
        )


class TelemetryHub:
    """All tenants' telemetry for one scenario."""

    def __init__(self) -> None:
        self._tenants: Dict[str, TenantTelemetry] = {}

    def register(self, name: str) -> TenantTelemetry:
        if name in self._tenants:
            raise ConfigError(f"tenant {name!r} already has a telemetry tap")
        telemetry = TenantTelemetry(name)
        self._tenants[name] = telemetry
        return telemetry

    def get(self, name: str) -> TenantTelemetry:
        return self._tenants[name]

    def tap(self, name: str) -> Callable[["IoRequest"], None]:
        """The bound completion hook for one tenant's initiator."""
        return self._tenants[name].observe_request

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants
