"""QoS accounting: SLO attainment, violation intervals, the action log.

Everything the control plane did — and how well the SLOs held — is folded
into one :class:`QosReport` that rides on
:class:`~repro.cluster.scenario.ScenarioResult`.  The action log is the
controller's flight recorder: one line per actuator change, rendered
deterministically, so the determinism audit can compare two seeded runs'
logs byte-for-byte.

Attainment is accounted in simulated time, not ticks-with-samples: each
controller tick attributes its whole interval to either "attained" or
"violated" for every tenant whose SLO was being tracked (tracking starts
once the tenant's telemetry has warmed up, so connection handshakes and
cold estimators are not billed as breaches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"


@dataclass(frozen=True)
class ControllerAction:
    """One actuator change applied by the controller."""

    at_us: float
    tenant: str
    kind: str
    old: Optional[float]
    new: Optional[float]

    def render(self) -> str:
        return (
            f"t={self.at_us:.1f}us {self.tenant} {self.kind} "
            f"{_fmt(self.old)}->{_fmt(self.new)}"
        )


class SloTrack:
    """Attainment bookkeeping for one tenant's SLO."""

    __slots__ = ("tracked_us", "violated_us", "intervals", "_open_since", "_last_mark")

    def __init__(self) -> None:
        self.tracked_us = 0.0
        self.violated_us = 0.0
        #: Closed violation intervals [(start_us, end_us), ...].
        self.intervals: List[Tuple[float, float]] = []
        self._open_since: Optional[float] = None
        self._last_mark = 0.0

    def mark(self, now: float, interval_us: float, violated: bool) -> None:
        """Attribute the tick interval ending at ``now``."""
        self._last_mark = now
        self.tracked_us += interval_us
        if violated:
            self.violated_us += interval_us
            if self._open_since is None:
                self._open_since = now - interval_us
        elif self._open_since is not None:
            self.intervals.append((self._open_since, now - interval_us))
            self._open_since = None

    def close(self, now: float) -> None:
        if self._open_since is not None:
            self.intervals.append((self._open_since, now))
            self._open_since = None

    def pause(self) -> None:
        """Tracking stopped (the SLO was cleared): close any open violation
        interval where the last tracked tick ended, not at a later close."""
        self.close(self._last_mark)

    def attainment(self) -> Optional[float]:
        """Fraction of tracked time within the SLO (None = never tracked)."""
        if self.tracked_us <= 0.0:
            return None
        return 1.0 - self.violated_us / self.tracked_us


@dataclass
class QosReport:
    """The control plane's complete record of one run."""

    policy: str
    interval_us: float
    ticks: int = 0
    actions: List[ControllerAction] = field(default_factory=list)
    tracks: Dict[str, SloTrack] = field(default_factory=dict)
    #: Final coalescing windows at controller stop (oPF tenants only).
    final_windows: Dict[str, int] = field(default_factory=dict)
    #: Final admission rates at controller stop (None = unthrottled).
    final_rates: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Paced sends / total pacing time, rolled up from the token buckets.
    throttle_delays: int = 0
    throttle_wait_us: float = 0.0

    # -- recording -------------------------------------------------------------
    def log_action(
        self,
        at_us: float,
        tenant: str,
        kind: str,
        old: Optional[float],
        new: Optional[float],
    ) -> None:
        self.actions.append(ControllerAction(at_us, tenant, kind, old, new))

    def track(self, tenant: str, now: float, interval_us: float, violated: bool) -> None:
        self.tracks.setdefault(tenant, SloTrack()).mark(now, interval_us, violated)

    def untrack(self, tenant: str) -> None:
        """The tenant's SLO is gone: seal its open violation interval."""
        track = self.tracks.get(tenant)
        if track is not None:
            track.pause()

    def close(self, now: float) -> None:
        for track in self.tracks.values():
            track.close(now)

    # -- queries ---------------------------------------------------------------
    def attainment(self, tenant: str) -> Optional[float]:
        track = self.tracks.get(tenant)
        return track.attainment() if track is not None else None

    def violations(self, tenant: str) -> List[Tuple[float, float]]:
        track = self.tracks.get(tenant)
        return list(track.intervals) if track is not None else []

    def action_log(self) -> str:
        """The deterministic flight-recorder rendering."""
        return "\n".join(action.render() for action in self.actions)

    def digest_items(self) -> Dict[str, object]:
        """Counters for ``metrics_digest`` (emitted only when nonzero).

        Attainment is reported as *violated* time: a clean run violates
        nothing, so — like the opf drain counters — a healthy control plane
        adds only its tick/action counts, and an SLO breach is immediately
        visible in the digest diff.
        """
        items: Dict[str, object] = {
            "ticks": self.ticks,
            "actions": len(self.actions),
            "throttle_delays": self.throttle_delays,
        }
        for tenant in sorted(self.tracks):
            track = self.tracks[tenant]
            items[f"violated_us/{tenant}"] = round(track.violated_us, 3)
            items[f"violation_intervals/{tenant}"] = len(track.intervals)
        return items

    def summary_lines(self) -> List[str]:
        """Human-readable per-tenant SLO summary (for examples/experiments)."""
        lines = [f"policy={self.policy} ticks={self.ticks} actions={len(self.actions)}"]
        for tenant in sorted(self.tracks):
            track = self.tracks[tenant]
            attained = track.attainment()
            pct = f"{attained * 100.0:.2f}%" if attained is not None else "n/a"
            lines.append(
                f"  {tenant}: attained {pct} of {track.tracked_us:.0f}us tracked, "
                f"{len(track.intervals)} violation interval(s)"
            )
        return lines
