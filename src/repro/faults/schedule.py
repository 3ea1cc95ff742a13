"""Declarative, seeded fault schedules.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent` records —
*when* (microseconds), *what* (a fault kind), *where* (a component name in
the :class:`~repro.faults.injector.ComponentRegistry`), for *how long*
(duration; 0 = instantaneous/permanent), with kind-specific parameters.

Schedules are plain data: they are built with the fluent helpers (or
drawn from a seed as part of a generated scenario program, see
:mod:`repro.scenarios.generate`) and rendered to a canonical byte encoding
(:meth:`FaultSchedule.encode`) so tests can assert two schedules are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..errors import FaultError

# -- fault kinds ---------------------------------------------------------------
KIND_LINK_DOWN = "link.down"  # flap: link loses every frame for duration
KIND_LINK_DEGRADE = "link.degrade"  # line rate scaled by params["scale"]
KIND_LINK_LOSS = "link.loss"  # burst loss: drop prob params["p"]
KIND_NIC_DOWN = "nic.down"  # NIC drops both directions for duration
KIND_SWITCH_PRESSURE = "switch.pressure"  # egress queues shrunk by "scale"
KIND_SSD_SPIKE = "ssd.latency_spike"  # service times scaled by "scale"
KIND_SSD_ERROR = "ssd.transient_error"  # commands fail with internal error
KIND_TARGET_CRASH = "target.crash"  # target dead for duration, then restart
KIND_QPAIR_DISCONNECT = "qpair.disconnect"  # initiator connection severed

FAULT_KINDS = (
    KIND_LINK_DOWN,
    KIND_LINK_DEGRADE,
    KIND_LINK_LOSS,
    KIND_NIC_DOWN,
    KIND_SWITCH_PRESSURE,
    KIND_SSD_SPIKE,
    KIND_SSD_ERROR,
    KIND_TARGET_CRASH,
    KIND_QPAIR_DISCONNECT,
)

Params = Tuple[Tuple[str, float], ...]


def _freeze_params(params: dict) -> Params:
    """Canonical (sorted, float-valued) parameter tuple."""
    return tuple(sorted((str(k), float(v)) for k, v in params.items()))


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault."""

    at_us: float
    kind: str
    target: str
    duration_us: float = 0.0
    params: Params = ()

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise FaultError(f"fault time must be non-negative (got {self.at_us})")
        if self.duration_us < 0:
            raise FaultError(f"fault duration must be non-negative (got {self.duration_us})")
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if not self.target:
            raise FaultError("fault target must be a non-empty component name")

    def param(self, name: str, default: float = 0.0) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def encode_line(self) -> str:
        """Canonical one-line rendering (used for replay signatures)."""
        params = ",".join(f"{k}={v:.9g}" for k, v in self.params)
        return f"{self.at_us:.6f} {self.kind} {self.target} dur={self.duration_us:.6f} [{params}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultEvent {self.encode_line()}>"


class FaultSchedule:
    """An ordered collection of fault events with fluent builders."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = list(events)

    # -- generic / fluent builders ---------------------------------------------
    def add(
        self,
        kind: str,
        target: str,
        at_us: float,
        duration_us: float = 0.0,
        **params: float,
    ) -> "FaultSchedule":
        self._events.append(
            FaultEvent(
                at_us=float(at_us),
                kind=kind,
                target=target,
                duration_us=float(duration_us),
                params=_freeze_params(params),
            )
        )
        return self

    def link_flap(self, link: str, at_us: float, duration_us: float) -> "FaultSchedule":
        """Link down for ``duration_us`` then back up (one flap)."""
        return self.add(KIND_LINK_DOWN, link, at_us, duration_us)

    def link_degrade(
        self, link: str, at_us: float, duration_us: float, scale: float
    ) -> "FaultSchedule":
        if scale <= 0:
            raise FaultError("degrade scale must be positive")
        return self.add(KIND_LINK_DEGRADE, link, at_us, duration_us, scale=scale)

    def link_loss_burst(
        self, link: str, at_us: float, duration_us: float, p: float
    ) -> "FaultSchedule":
        if not 0.0 < p <= 1.0:
            raise FaultError("loss probability must be in (0, 1]")
        return self.add(KIND_LINK_LOSS, link, at_us, duration_us, p=p)

    def nic_down(self, node: str, at_us: float, duration_us: float) -> "FaultSchedule":
        return self.add(KIND_NIC_DOWN, node, at_us, duration_us)

    def switch_pressure(
        self, switch: str, at_us: float, duration_us: float, scale: float
    ) -> "FaultSchedule":
        if not 0.0 < scale <= 1.0:
            raise FaultError("queue pressure scale must be in (0, 1]")
        return self.add(KIND_SWITCH_PRESSURE, switch, at_us, duration_us, scale=scale)

    def ssd_latency_spike(
        self, ssd: str, at_us: float, duration_us: float, scale: float
    ) -> "FaultSchedule":
        if scale < 1.0:
            raise FaultError("latency spike scale must be >= 1")
        return self.add(KIND_SSD_SPIKE, ssd, at_us, duration_us, scale=scale)

    def ssd_transient_error(
        self, ssd: str, at_us: float, duration_us: float
    ) -> "FaultSchedule":
        return self.add(KIND_SSD_ERROR, ssd, at_us, duration_us)

    def target_crash(self, target: str, at_us: float, duration_us: float) -> "FaultSchedule":
        """Crash at ``at_us``; restart ``duration_us`` later."""
        if duration_us <= 0:
            raise FaultError("target crash needs a positive outage duration")
        return self.add(KIND_TARGET_CRASH, target, at_us, duration_us)

    def qpair_disconnect(self, initiator: str, at_us: float) -> "FaultSchedule":
        """Sever one initiator's connection (recovery reconnects it)."""
        return self.add(KIND_QPAIR_DISCONNECT, initiator, at_us)

    # -- access -----------------------------------------------------------------
    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def ordered(self) -> List[FaultEvent]:
        """Events in injection order: by time, ties by insertion order."""
        order = sorted(range(len(self._events)), key=lambda i: (self._events[i].at_us, i))
        return [self._events[i] for i in order]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.ordered())

    def encode(self) -> bytes:
        """Canonical byte encoding of the ordered schedule."""
        return "\n".join(ev.encode_line() for ev in self.ordered()).encode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultSchedule {len(self._events)} events>"
